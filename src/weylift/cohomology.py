"""The twisted-basis correspondence psi and the de Rham splitting that
turns a vanishing obstruction into an explicit lift.

For a valid endomorphism with images u_i, the duals u^_i = -u_{n+i},
u^_{n+i} = u_i satisfy [u_i, u^_j] = delta_ij, and the ordered monomials
u^^m with exponents < p form a basis of A_n(k) over the center Z.  The
correspondence

    psi( f(x) u^^m ) = f(y^p) y^m      (S = k[y_1..y_2n])

intertwines ad(u_i) with d/dy_i.  The same intertwining computes the
expansion itself: basis_expand peels the coefficients off with exact ad
chains, one generator at a time, and solves no linear system (the
bounded-degree solve survives only as basis_expand_oracle, for tests).
top_coefficient reads the one coefficient the trace route recovers, that
of u^^(p-1,..,p-1), with a single ad chain and no peel.

The obstruction terms u_ij assemble into a closed 2-form
F = sum_{i<j} psi(u_ij) dy_i dy_j; splitting F into an exact part d(h)
plus a harmonic part supported on k[y^p] y_i^{p-1} y_j^{p-1} dy_i dy_j
recovers the obstruction matrix, and when the harmonic part is zero the
1-form h pulls back to correction terms v_i making
Phi(z_i) = [u_i] + p [v_i] a lift to W_2(k).

One recursive routine splits a closed q-form (the constructive half of the
Cartier isomorphism H^q(Omega_S) = Omega^q over k[y^p]).  It processes the
variables in increasing order; the stage at y_v first integrates in y_v
every monomial of a dy_v slot whose y_v exponent is not p-1 mod p.  The
residual, grouped by its exact y_v exponent c, is y_v^c dy_v times a closed
(q-1)-form in the later variables, which the routine splits by calling
itself; at q = 1 that residual already lies in k[y^p] and is harmonic.
This is deterministic, so h is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from . import center as C
from .endo import Endo
from .errors import InternalInconsistency, NotClosed, SolveFailure, WeyliftError
from .weyl import AlgebraParams, WeylElem, ad_pow, commutator, teich_lift, times_p_elem


# ---------------------------------------------------------------------------
# basis expansion in the twisted generator monomials


def _ordered_monomial(e: Endo, m: tuple) -> WeylElem:
    """The ordered product u^_1^{m_1} ... u^_2n^{m_2n}, cached on the map."""
    cache = e.__dict__.setdefault("_monomials", {})
    got = cache.get(m)
    if got is None:
        if any(m):
            i = max(j for j, x in enumerate(m) if x)
            prev = _ordered_monomial(e, tuple(x - (1 if j == i else 0) for j, x in enumerate(m)))
            got = prev * e.u_hat(i)
        else:
            got = e.alg.one_elem()
        cache[m] = got
    return got


def basis_expand(e: Endo, f: WeylElem) -> dict:
    """Write f as sum_m g_m(x) * u^^m; returns {m: Poly(x)}.

    Exact ad-chain peel, no linear algebra.  [u_i, u^_j] = delta_ij, so
    ad(u_i) acts on ordered monomials as d/du^_i.  Writing
    h = sum_j u^_i^j F_j with F_j free of u^_1 .. u^_i,

        ad(u_i)^k h = sum_{j >= k} j!/(j-k)! u^_i^{j-k} F_j      (j < p),

    so the F_k come out top-down, divided by k! (a unit since k < p), and
    each nonzero F_k is peeled in the next generator.  What is left after
    all 2n generators is the central coefficient.  A non-central leaf or
    ad(u_i)^p h != 0 would put f outside the span, which freeness rules out.
    """
    alg = e.alg
    p = alg.field.p
    n2 = alg.nvars
    fact = [1]  # k! and 1/k! mod p, extended as far as the chains reach
    inv_fact = [1]
    out: dict = {}

    def peel(h: WeylElem, i: int, m: tuple) -> None:
        if i == n2:
            if not h.is_central():
                raise InternalInconsistency(f"expansion coefficient of {m} is not central")
            out[m] = h.to_center_poly()
            return
        chain = [h]
        for _ in range(p):
            nxt = commutator(e.u(i), chain[-1])
            if nxt.is_zero():
                break
            chain.append(nxt)
        if len(chain) > p:
            raise InternalInconsistency(f"ad(u_{i + 1})^p does not kill the element")
        while len(fact) < len(chain):
            fact.append(fact[-1] * len(fact) % p)
            inv_fact.append(pow(fact[-1], p - 2, p))
        unit = [0] * n2
        F: dict = {}
        for k in range(len(chain) - 1, -1, -1):
            # chain[k] - sum_j u^_i^(j-k) F_j j!/(j-k)!, summed in place
            acc = chain[k]._like(dict(chain[k].data)) if F else chain[k]
            for j, Fj in F.items():
                unit[i] = j - k
                g_pow = _ordered_monomial(e, tuple(unit))
                acc._add_into(g_pow * Fj, -fact[j] * inv_fact[j - k] % p)
            Fk = acc._scale(inv_fact[k])
            if Fk:
                F[k] = Fk
        for k in sorted(F):
            peel(F[k], i + 1, m + (k,))

    if f:
        peel(f, 0, ())
    return out


def top_coefficient(e: Endo, f: WeylElem) -> C.Poly:
    """basis_expand(e, f)[(p-1,..,p-1)] as ad(u_1)^(p-1) ... ad(u_2n)^(p-1) f.

    ad(u_i) acts as d/du^_i, so ad(u_i)^(p-1) kills u^_i^j F_j for j < p-1
    and sends u^_i^(p-1) F to (p-1)! F = -F (Wilson).  The ad(u_i) commute,
    as [u_i, u_j] is central, and the 2n signs -1 cancel.  Over the u basis
    the top coefficient is the same: its duals -u^_i are each +-u_j, and
    p-1 is even or p = 2.  A non-central result is an InternalInconsistency.
    """
    p = e.alg.field.p
    for i in range(e.alg.nvars):
        f = ad_pow(e.u(i), p - 1, f)
    if not f.is_central():
        raise InternalInconsistency("the top coefficient is not central")
    return f.to_center_poly()


def _exps_bounded(nvars: int, total: int):
    """All exponent vectors with given coordinate count and sum <= total."""
    if nvars == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _exps_bounded(nvars - 1, total - head):
            yield (head,) + tail


def basis_expand_oracle(e: Endo, f: WeylElem) -> dict:
    """Test oracle for basis_expand by linear algebra instead of ad chains.

    Solves a bounded-degree linear system over k against the free-module
    basis; the degree bound starts at deg f and grows by p until the system
    is consistent (freeness guarantees termination for elements of A_n(k)).
    The candidates are distinct basis elements, so the solution is unique.
    """
    from . import linsolve

    alg = e.alg
    p = alg.field.p
    n2 = alg.nvars
    if f.is_zero():
        return {}
    gens_deg = [int(e.u_hat(i).degree()) for i in range(n2)]
    D = max(int(f.degree()), 0)
    cap = int(f.degree()) + (p - 1) * sum(gens_deg) + 2 * p
    while True:
        cands = []
        cols = []
        for m in iter_product(range(p), repeat=n2):
            base_deg = sum(mi * di for mi, di in zip(m, gens_deg))
            if base_deg > D:
                continue
            mono = _ordered_monomial(e, m)
            for a in _exps_bounded(n2, (D - base_deg) // p):
                cands.append((m, a))
                cols.append(mono.times_central_monomial(tuple(p * x for x in a)).terms)
        sol = linsolve.solve(alg.field, cols, f.terms)
        if sol is not None:
            out: dict = {}
            for (m, a), c in zip(cands, sol):
                if c:
                    g = out.setdefault(m, {})
                    g[a] = c
            return {m: C.Poly(alg, "x", g) for m, g in out.items()}
        D += p
        if D > cap:
            raise SolveFailure(f"no expansion of degree <= {cap} found")


def psi_forward(e: Endo, f: WeylElem) -> C.Poly:
    """psi(f) in S = k[y]: each basis term c x^a u^^m maps to c y^(pa+m)."""
    p = e.alg.field.p
    items = [
        (tuple(p * ai + mi for ai, mi in zip(a, m)), c)
        for m, g in basis_expand(e, f).items()
        for a, c in g._items()
    ]
    return C.poly_items(e.alg, "y", items)


def psi_inverse(e: Endo, s: C.Poly) -> WeylElem:
    """psi^{-1}: y^(pa+m) -> x^a u^^m, assembled term by term."""
    if s.tag != "y":
        raise WeyliftError("psi_inverse expects a y-polynomial")
    alg = e.alg
    p = alg.field.p
    acc = alg.zero_elem()
    for b, c in s._items():
        m = tuple(x % p for x in b)
        el = _ordered_monomial(e, m).times_central_monomial(tuple(bi - mi for bi, mi in zip(b, m)))
        acc._add_into(el, c)
    return acc


# ---------------------------------------------------------------------------
# differential forms over S


class Form:
    """An alternating form sum_I f_I dy_I with strictly increasing index tuples."""

    __slots__ = ("alg", "degree", "coeffs")

    def __init__(self, alg: AlgebraParams, degree: int, coeffs: dict):
        self.alg = alg
        self.degree = degree
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.alg == other.alg
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def slot(self, I: tuple) -> C.Poly:
        return self.coeffs.get(I, C.poly_zero(self.alg, "y"))

    def __add__(self, other: Form) -> Form:
        if self.degree != other.degree or self.alg != other.alg:
            raise WeyliftError("form degree or algebra mismatch")
        out = dict(self.coeffs)
        for I, f in other.coeffs.items():
            s = out.get(I)
            s = f if s is None else s + f
            if s:
                out[I] = s
            elif I in out:
                del out[I]
        return Form(self.alg, self.degree, out)

    def __neg__(self) -> Form:
        return Form(self.alg, self.degree, {I: -f for I, f in self.coeffs.items()})

    def __sub__(self, other: Form) -> Form:
        return self + (-other)

    def d(self) -> Form:
        """Exterior derivative with signs from sorting dy_w into dy_I."""
        out: dict = {}
        for I, f in self.coeffs.items():
            for w in range(self.alg.nvars):
                df = f.pderiv(w)
                if df.is_zero() or w in I:
                    continue
                pos = sum(1 for i in I if i < w)
                J = tuple(sorted(I + (w,)))
                piece = df if pos % 2 == 0 else -df
                s = out.get(J)
                s = piece if s is None else s + piece
                if s:
                    out[J] = s
                elif J in out:
                    del out[J]
        return Form(self.alg, self.degree + 1, out)

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"0 ({self.degree}-form)"
        bits = [
            f"({f!r}) dy{'dy'.join(str(i + 1) for i in I)}" for I, f in sorted(self.coeffs.items())
        ]
        return " + ".join(bits)


def form_zero(alg: AlgebraParams, degree: int) -> Form:
    return Form(alg, degree, {})


def form_from_coeffs(alg: AlgebraParams, degree: int, coeffs: dict) -> Form:
    clean = {}
    for I, f in coeffs.items():
        I = tuple(I)
        if len(I) != degree or list(I) != sorted(set(I)):
            raise WeyliftError(f"index tuple {I} is not strictly increasing")
        if f:
            clean[I] = f
    return Form(alg, degree, clean)


def d(F: Form) -> Form:
    return F.d()


# ---------------------------------------------------------------------------
# splitting closed forms


def _integrate(f: C.Poly, v: int) -> C.Poly:
    """Antiderivative in y_v of the monomials of f whose y_v exponent is not
    p-1 mod p (the others have no antiderivative in y_v)."""
    p, reduce = f.alg.field.p, f.ctx.res.reduce
    items = [
        (e[:v] + (e[v] + 1,) + e[v + 1 :], reduce(c * pow(e[v] + 1, p - 2, p)))
        for e, c in f._items()
        if e[v] % p != p - 1
    ]
    return C.poly_items(f.alg, "y", items)


def _wedge(c: int, v: int, G: Form) -> Form:
    """y_v^c dy_v ^ G for a form G in the variables after y_v."""
    alg = G.alg
    yc = C.poly_items(alg, "y", [(tuple(c if i == v else 0 for i in range(alg.nvars)), 1)])
    return Form(alg, G.degree + 1, {(v,) + J: yc * g for J, g in G.coeffs.items()})


def _split_closed(F: Form):
    """Split a closed q-form, q >= 1, as F = d(h) + harm with harm harmonic.

    Variables go in increasing order.  At y_v, each slot dy_v dy_J (in
    increasing J) first loses its monomials whose y_v exponent is not p-1
    mod p: h gains their antiderivative in y_v times dy_J.  The rest of the
    dy_v slots, grouped by the exact y_v exponent c, is y_v^c dy_v W_c with
    W_c a closed (q-1)-form in the later variables.  At q = 1, W_c is a
    function of y^p and joins harm as it is; otherwise W_c = d(g) + harm_c
    by recursion, h gains -y_v^c dy_v g and harm gains y_v^c dy_v harm_c.
    """
    alg = F.alg
    p = alg.field.p
    q = F.degree
    work = Form(alg, q, dict(F.coeffs))
    h = form_zero(alg, q - 1)
    harm = form_zero(alg, q)
    for v in range(alg.nvars):
        for I in sorted(I for I in work.coeffs if I[0] == v):
            g = _integrate(work.coeffs[I], v)
            if g:
                piece = Form(alg, q - 1, {I[1:]: g})
                h = h + piece
                work = work - piece.d()
        groups: dict = {}
        for I in sorted(I for I in work.coeffs if I[0] == v):
            for e, c in work.coeffs.pop(I)._items():
                stripped = e[:v] + (0,) + e[v + 1 :]
                groups.setdefault(e[v], {}).setdefault(I[1:], []).append((stripped, c))
        for cv, slots in sorted(groups.items()):
            W = Form(alg, q - 1, {J: C.poly_items(alg, "y", items) for J, items in slots.items()})
            if q == 1:
                if any(x % p for e, _ in W.slot(())._items() for x in e):
                    raise InternalInconsistency("1-form residual escapes the harmonic pattern")
                harm = harm + _wedge(cv, v, W)
            else:
                g_b, harm_b = _split_closed(W)
                h = h - _wedge(cv, v, g_b)
                harm = harm + _wedge(cv, v, harm_b)
    if h.d() + harm != F:
        raise InternalInconsistency(f"the splitting does not reconstruct the closed {q}-form")
    return h, harm


def split_closed_2form(F: Form):
    """Split a closed 2-form into (h, harmonic) with F = d(h) + harmonic part.

    h is a 1-form; harmonic maps (i, j) with i < j to the k[y^p] coefficient
    of y_i^{p-1} y_j^{p-1} dy_i dy_j.  Raises NotClosed with the nonzero dF
    as witness for non-closed input.
    """
    if F.degree != 2:
        raise WeyliftError("expected a 2-form")
    dF = F.d()
    if not dF.is_zero():
        raise NotClosed(dF)
    h, harm = _split_closed(F)
    p = F.alg.field.p
    harmonic = {}
    for I, f in harm.coeffs.items():
        # strip y_i^{p-1} y_j^{p-1} to leave the k[y^p] coefficient
        kpart = [
            (tuple(x - (p - 1) if i in I else x for i, x in enumerate(e)), c)
            for e, c in f._items()
        ]
        harmonic[I] = C.poly_items(F.alg, "y", kpart)
    return h, harmonic


# ---------------------------------------------------------------------------
# the obstruction 2-form and lift construction


def obstruction_2form(e: Endo) -> Form:
    """F = sum_{i<j} psi(u_ij) dy_i dy_j; closed by the Jacobi identity."""
    alg = e.alg
    coeffs = {}
    for i in range(alg.nvars):
        for j in range(i + 1, alg.nvars):
            f = psi_forward(e, e.u_ij(i, j))
            if f:
                coeffs[(i, j)] = f
    return Form(alg, 2, coeffs)


@dataclass
class Lift:
    """An explicit lift Phi(z_i) = [u_i] + p [v_i] with verified relations."""

    v: list[WeylElem]
    Phi: list[WeylElem]


@dataclass
class ObstructionWitness:
    """Nonzero obstruction: the matrix C plus the harmonic certificate."""

    C: list[list]
    harmonic: dict
    v: list[WeylElem]


def harmonic_to_center(alg: AlgebraParams, poly_ypow: C.Poly) -> C.Poly:
    """k[y^p] coefficient -> polynomial on the center (divide exponents by p)."""
    p = alg.field.p
    items = list(poly_ypow._items())
    if any(x % p for e, _ in items for x in e):
        raise WeyliftError("harmonic coefficient is not a polynomial in y^p")
    return C.poly_items(alg, "x", [(tuple(x // p for x in e), c) for e, c in items])


def construct_lift(e: Endo):
    """Split the obstruction 2-form; return a verified Lift or a witness.

    In both cases the residual identity

        u_ij + [u_i, v_j] - [u_j, v_i] = c_ij u^_i^{p-1} u^_j^{p-1}

    is asserted exactly, with c_ij read off the harmonic part.
    """
    alg = e.alg
    p = alg.field.p
    F = obstruction_2form(e)
    h, harmonic = split_closed_2form(F)
    v = [psi_inverse(e, -h.slot((i,))) for i in range(alg.nvars)]
    # residual identity, all pairs
    for i in range(alg.nvars):
        for j in range(i + 1, alg.nvars):
            lhs = (
                e.u_ij(i, j)
                + commutator(e.u(i), v[j])
                - commutator(e.u(j), v[i])
            )
            hp = harmonic.get((i, j))
            if hp is None:
                rhs = alg.zero_elem()
            else:
                c_elem = C.embed_center(harmonic_to_center(alg, hp), "k")
                mono = _ordered_monomial(
                    e, tuple(p - 1 if t in (i, j) else 0 for t in range(alg.nvars))
                )
                rhs = c_elem * mono
            if lhs != rhs:
                raise InternalInconsistency("the residual identity fails")
    if harmonic:
        return ObstructionWitness(C=e.obstruction_C, harmonic=harmonic, v=v)
    Phi = [teich_lift(e.u(i)) + times_p_elem(v[i]) for i in range(alg.nvars)]
    if not verify_lift(alg, Phi):
        raise InternalInconsistency("constructed lift violates a relation")
    return Lift(v=v, Phi=Phi)


def verify_lift(alg: AlgebraParams, Phi: list[WeylElem]) -> bool:
    """Check [Phi_i, Phi_j] = omega_{ij} in A_n(W_2(k)) for all pairs."""
    if len(Phi) != alg.nvars:
        return False
    for F in Phi:
        if F.alg != alg or F.ring != "w2":
            return False
    for i in range(alg.nvars):
        for j in range(i + 1, alg.nvars):
            if commutator(Phi[i], Phi[j]) != alg.const(alg.omega_int(i, j), "w2"):
                return False
    return True
