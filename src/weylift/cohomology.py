"""The twisted-basis correspondence psi and the de Rham splitting that
turns a vanishing obstruction into an explicit lift.

For a valid endomorphism with images u_i, the duals u^_i = -u_{n+i},
u^_{n+i} = u_i satisfy [u_i, u^_j] = delta_ij, and the ordered monomials
u^^m with exponents < p form a basis of A_n(k) over the center Z.  The
correspondence

    psi( z^b u^^m ) = y^(b+m)      (z^b central, S = k[y_1..y_2n])

intertwines ad(u_i) with d/dy_i.  The same intertwining computes the
expansion itself: basis_expand peels the central coefficients off with
exact ad chains, one generator at a time, and solves no linear system (the
linear solve it is checked against is a test oracle, in
tests/test_cohomology.py).  Its inverse from_basis sums u^^m g_m by
Horner's rule in u^_1 .. u^_2n, and the peel its Taylor shifts, through one
Horner step: one product by an image per step, never by a power of one.
psi^{-1} packs each g_m straight from the y-exponents.  top_coefficient
reads the one coefficient the trace route recovers, that of
u^^(p-1,..,p-1), with a single ad chain and no peel, in y as the trace
route returns it.

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

import math
from dataclasses import dataclass
from operator import add, sub

from . import center as C
from .endo import Endo
from .errors import InternalInconsistency, NotClosed, WeyliftError
from .weyl import AlgebraParams, WeylElem, ad_pow, commutator, relation_defects, times_p_elem


# ---------------------------------------------------------------------------
# basis expansion in the twisted generator monomials


def basis_expand(e: Endo, f: WeylElem) -> dict:
    """Write f as sum_m u^^m g_m with g_m central; returns {m: g_m}.

    Exact ad-chain peel, no linear algebra.  [u_i, u^_j] = delta_ij, so
    ad(u_i) acts on ordered monomials as d/du^_i.  Writing
    h = sum_j u^_i^j F_j with F_j free of u^_1 .. u^_i (j < p),

        ad(u_i)^k h = sum_{j >= k} j!/(j-k)! u^_i^{j-k} F_j,
        F_k = 1/k! sum_r (-u^_i)^r / r! ad(u_i)^(k+r) h,

    the second a Taylor shift, as sum_r (-1)^r binom(j-k, r) = delta_jk.
    Each nonzero F_k is peeled in the next generator; what is left after all
    2n generators is the central coefficient.  A non-central leaf or
    ad(u_i)^p h != 0 would put f outside the span, which freeness rules out.
    """
    out: dict = {}
    if f:
        _peel(e, f, 0, (), out)
    return out


def _peel(e: Endo, h: WeylElem, i: int, m: tuple, out: dict) -> None:
    """Expand h over u^_i .. u^_2n into out, each key prefixed by m.

    F_k = sum_r (-s)^r / (r! k!) u_j^r ad(u_i)^(k+r) h for u^_i = s u_j
    (Endo.dual), by _horner_step: one product by the image u_j per step.
    """
    p = e.alg.field.p
    if i == e.alg.nvars:
        if not h.is_central():
            raise InternalInconsistency(f"expansion coefficient of {m} is not central")
        out[m] = h
        return
    chain = [h]
    for _ in range(p):
        nxt = commutator(e.u(i), chain[-1])
        if nxt.is_zero():
            break
        chain.append(nxt)
    if len(chain) > p:
        raise InternalInconsistency(f"ad(u_{i + 1})^p does not kill the element")
    j, s = e.dual(i)
    inv = [pow(math.factorial(r), -1, p) for r in range(len(chain))]
    for k in range(len(chain)):
        shift = {r: ((-s) ** r * inv[r] * inv[k], G) for r, G in enumerate(chain[k:])}
        Fk = _horner_step(e.u(j), shift)
        if Fk:
            _peel(e, Fk, i + 1, m + (k,), out)


def top_coefficient(e: Endo, f: WeylElem) -> C.Poly:
    """basis_expand(e, f)[(p-1,..,p-1)] as ad(u_1)^(p-1) ... ad(u_2n)^(p-1) f,
    read in y: z^(pc) -> y^(pc) keeps every packed key.

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
    return f._as("y")


def psi_forward(e: Endo, f: WeylElem) -> C.Poly:
    """psi(f) in S = k[y]: each basis term c z^b u^^m (z^b central) maps to c y^(b+m)."""
    items = [
        (tuple(map(add, b, m)), c)
        for m, g in basis_expand(e, f).items()
        for b, c in g._items()
    ]
    return e.alg.from_items(items, "y")


def from_basis(e: Endo, coeffs: dict) -> WeylElem:
    """sum_m u^^m g_m for {m: central g_m}; the inverse of basis_expand."""
    if not coeffs:
        return e.alg.const(0)
    return _horner(e, list(coeffs.items()), 0)


def _horner(e: Endo, items: list, i: int) -> WeylElem:
    """sum u^_i^(m_i) .. u^_2n^(m_2n) g_m over the (m, g_m) of items: with
    u^_i = s u_j (Endo.dual) and G_r the same sum over the m with m_i = r,
    sum_r u^_i^r G_r = sum_r s^r u_j^r G_r."""
    if i == e.alg.nvars:
        return items[0][1]
    groups: dict = {}
    for m, g in items:
        groups.setdefault(m[i], []).append((m, g))
    j, s = e.dual(i)
    return _horner_step(e.u(j), {r: (s**r, _horner(e, g, i + 1)) for r, g in groups.items()})


def _horner_step(u: WeylElem, terms: dict) -> WeylElem:
    """sum_r w_r u^r G_r over {r: (w_r, G_r)} with integer weights w_r, as
    w_0 G_0 + u (w_1 G_1 + u (w_2 G_2 + ...)): one product by u per step."""
    N = u.ctx.res.N
    top = max(terms)
    w, acc = terms[top]
    if w % N != 1:
        acc = acc._scale(w % N)
    for r in range(top - 1, -1, -1):
        acc = u * acc
        if r in terms:
            w, G = terms[r]
            acc._add_into(G, w % N)
    return acc


def psi_inverse(e: Endo, s: C.Poly) -> WeylElem:
    """psi^{-1}: y^b -> z^(b-m) u^^m for m = b mod p, each group's central
    factor packed straight from the y-exponents b."""
    if s.var != "y":
        raise WeyliftError("psi_inverse expects a y-polynomial")
    alg = e.alg
    p = alg.field.p
    groups: dict = {}
    for b, c in s._items():
        m = tuple(x % p for x in b)
        groups.setdefault(m, []).append((tuple(map(sub, b, m)), c))
    return from_basis(e, {m: alg.from_items(g) for m, g in groups.items()})


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
        f = self.coeffs.get(I)
        return self.alg.const(0, var="y") if f is None else f

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
                if w in I:
                    continue
                df = f.pderiv(w)
                if df.is_zero():
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
    return f.alg.from_items(items, "y")


def _wedge(c: int, v: int, G: Form) -> Form:
    """y_v^c dy_v ^ G for a form G in the variables after y_v."""
    alg = G.alg
    yc = alg.from_items([(tuple(c if i == v else 0 for i in range(alg.nvars)), 1)], "y")
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
    h = Form(alg, q - 1, {})
    harm = Form(alg, q, {})
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
            W = Form(alg, q - 1, {J: alg.from_items(items, "y") for J, items in slots.items()})
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
        harmonic[I] = F.alg.from_items(kpart, "y")
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


def construct_lift(e: Endo):
    """Split the obstruction 2-form; return a verified Lift or a witness.

    The splitting gives corrections v_i, and on both branches
    Phi_i = [u_i] + p [v_i] is built and its relation defects read once
    (weyl.relation_defects): [Phi_i, Phi_j] - omega_ij = [d1] + p [d2] with
    d1 = 0 and

        d2 = u_ij + [u_i, v_j] - [u_j, v_i] = c_ij(z^p) u^_i^(p-1) u^_j^(p-1),

    c_ij read off the harmonic part, is asserted exactly.  When the
    obstruction vanishes every d2 is 0 and Phi is a lift.
    """
    alg = e.alg
    p = alg.field.p
    h, harmonic = split_closed_2form(obstruction_2form(e))
    v = [psi_inverse(e, -h.slot((i,))) for i in range(alg.nvars)]
    Phi = [U + times_p_elem(v_i) for U, v_i in zip(e._teich, v)]
    for i, j, d1, d2 in relation_defects(alg, Phi):
        want = {}
        hp = harmonic.get((i, j))
        if hp is not None:
            # c_ij(z^p) has the exponents of its k[y^p] coefficient
            c = hp._as("z")
            if not c.is_central():
                raise InternalInconsistency("harmonic coefficient is not a polynomial in y^p")
            want = {tuple(p - 1 if t in (i, j) else 0 for t in range(alg.nvars)): c}
        if d1 or d2 != from_basis(e, want):
            raise InternalInconsistency("the residual identity fails")
    if harmonic:
        return ObstructionWitness(C=e.obstruction_C, harmonic=harmonic, v=v)
    return Lift(v=v, Phi=Phi)


def verify_lift(alg: AlgebraParams, Phi: list[WeylElem]) -> bool:
    """Check [Phi_i, Phi_j] = omega_{ij} in A_n(W_2(k)) for all pairs."""
    if len(Phi) != alg.nvars:
        return False
    for F in Phi:
        if F.alg != alg or F.ring != "w2":
            return False
    return not any(d1 or d2 for _, _, d1, d2 in relation_defects(alg, Phi))
