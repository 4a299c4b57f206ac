"""Matrix trivialization of the Weyl algebra over the twisted center.

Over S = k[y] with x_i = y_i^p, sending z_l to (multiplication by T_l)
+ y_l and z_{n+l} to d/dT_l + y_{n+l} identifies A_n(k) tensor S with the
p^n by p^n matrix algebra over S acting on k[T]/(T_1^p, .., T_n^p).  The
matrix trace recovers the coefficient of z^(p-1,..,p-1) in any basis
expansion (times (-1)^n), giving a route to expansion coefficients that
never looks at the images, independent of the ad-chain expansion.

The trace is read off the monomials in closed form, with no matrix built.
The representation is a tensor product over the n conjugate pairs, and on
k[T]/(T^p), D = d/dT sends T^m to m!/(m-j)! T^(m-j) under D^j, so

    Tr(T^i D^j) = [i = j] sum_{m=j}^{p-1} m!/(m-j)! = [i = j] j! binom(p, j+1),

which vanishes mod p except at j = p-1, where it is (p-1)! = -1.  Expanding
(T + y_l)^a (D + y_{n+l})^b binomially therefore gives, for a normally
ordered monomial with a_l = e_l, b_l = e_{n+l},

    Tr rep(c z^e) = c prod_l -binom(a_l, p-1) binom(b_l, p-1)
                      y_l^(a_l-p+1) y_{n+l}^(b_l-p+1),

and by Lucas binom(a, p-1) is 1 mod p when a = -1 mod p and 0 otherwise.
Tr is linear, so one pass over the terms gives trace_top_coefficient.  The
matrix route, trace(rep(f)), is kept as its test oracle.

For an endomorphism with images u_i, A_l = rep(u_l) - ybar_l and B_l =
rep(u_{n+l}) - ybar_{n+l} are twisted creation and annihilation operators,
and their vacuum projector is the twisted image of the matrix unit E_00.
A primitive column r0 of the projector generates a conjugator G, with
columns A^m r0, such that F_ij G = G E_ij for the twisted matrix units
F_ij = A^(m_i) proj B^(m_j) / m_j!.  The relations are checked in column
form, without forming any F_ij and without inverting anything.  G also
pins down the twisted scalars: rep(u_i) G = G (nu_i + ybar_i), so ybar_i
falls out by exact division.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import factorial

from . import center as C
from . import diffeq as DQ
from .endo import Endo
from .errors import NotAHomomorphism, WeyliftError
from .weyl import AlgebraParams, WeylElem


def mat_size(alg: AlgebraParams) -> int:
    """Side p^n of the matrices: the dimension of k[T]/(T_1^p, .., T_n^p)."""
    return alg.field.p**alg.n


def trace(A: C.Mat) -> C.Poly:
    acc = C.poly_zero(A[0][0].alg, A[0][0].tag)
    for i in range(len(A)):
        acc = acc + A[i][i]
    return acc


# ---------------------------------------------------------------------------
# the representation


def _basis_index(alg: AlgebraParams, exps: tuple) -> int:
    """Lex position of T^exps, first exponent most significant."""
    p = alg.field.p
    r = 0
    for x in exps:
        r = r * p + x
    return r


def _basis_exps(alg: AlgebraParams, r: int) -> tuple:
    p = alg.field.p
    out = []
    for _ in range(alg.n):
        out.append(r % p)
        r //= p
    return tuple(reversed(out))


@functools.cache
def nu(alg: AlgebraParams, i: int) -> C.Mat:
    """Matrix of multiplication by T_i (i < n) or d/dT_{i-n} (i >= n).

    This and the generator matrices below are memoised by value, shared by
    every equal algebra.
    """
    p = alg.field.p
    N = mat_size(alg)
    rows = [[C.poly_zero(alg, "y") for _ in range(N)] for _ in range(N)]
    for c in range(N):
        e = _basis_exps(alg, c)
        if i < alg.n:
            if e[i] < p - 1:
                r = _basis_index(alg, tuple(x + 1 if t == i else x for t, x in enumerate(e)))
                rows[r][c] = C.poly_one(alg, "y")
        else:
            l = i - alg.n
            if e[l] > 0:
                r = _basis_index(alg, tuple(x - 1 if t == l else x for t, x in enumerate(e)))
                rows[r][c] = C.poly_const(alg, "y", alg.field.from_int(e[l]))
    return tuple(tuple(row) for row in rows)


@functools.cache
def rep_gen(alg: AlgebraParams, i: int) -> C.Mat:
    """rep(z_i) = nu_i + y_i * Id."""
    return C.mat_add(nu(alg, i), C.mat_scalar(C.poly_var(alg, "y", i), mat_size(alg)))


@functools.cache
def _rep_gen_power(alg: AlgebraParams, i: int, e: int) -> C.Mat:
    """rep(z_i)^e."""
    return C.mat_pow(rep_gen(alg, i), e)


def rep(alg: AlgebraParams, f: WeylElem) -> C.Mat:
    """Image of a normal-ordered element under the trivialization."""
    if f.ring != "k":
        raise WeyliftError("rep is defined over k, not W_2")
    N = mat_size(alg)
    acc = C.mat_zero(alg, "y", N)
    for exps, c in sorted(f.terms.items()):
        term = None
        for i, e in enumerate(exps):
            if not e:
                continue
            pw = _rep_gen_power(alg, i, e)
            term = pw if term is None else C.mat_mul(term, pw)
        if term is None:
            term = C.mat_identity(alg, "y", N)
        acc = C.mat_add(acc, C.mat_scale(term, C.poly_const(alg, "y", c)))
    return acc


def trace_top_coefficient(e: Endo, f: WeylElem) -> C.Poly:
    """(-1)^n Tr(rep(f)), in k[y^p], read off the monomials of f.

    By the closed form in the module docstring, (-1)^n Tr rep(c z^e) is
    c y^(e - (p-1,..,p-1)) when every exponent of e is p-1 mod p and 0
    otherwise (the n signs -1 cancel against (-1)^n).  Distinct monomials
    give distinct y-monomials, so no terms merge.  trace(rep(f)) computes
    the same value with p^n by p^n matrices and is the test oracle.

    By conjugation invariance of the trace this is the coefficient of the
    top monomial u^_1^{p-1} .. u^_2n^{p-1} in the expansion of f over the
    basis twisted by the endomorphism, for any valid endomorphism; the
    trace side never looks at the images, which is the point of the
    cross-check against the ad chain of cohomology.top_coefficient.
    """
    if f.ring != "k":
        raise WeyliftError("the trace is defined over k, not W_2")
    p = e.alg.field.p
    items = [
        (tuple(x - p + 1 for x in exps), c)
        for exps, c in f._items()
        if all(x % p == p - 1 for x in exps)
    ]
    return C.poly_items(e.alg, "y", items)


# ---------------------------------------------------------------------------
# multivariate gcd (content / primitive part with a pseudo-remainder chain)


def _top_var(f: C.Poly) -> int | None:
    """Largest variable index occurring with positive exponent, or None."""
    return max((i for e, _ in f._items() for i, x in enumerate(e) if x), default=None)


def _as_uni(f: C.Poly, v: int) -> dict:
    """View as univariate in y_v: {degree: Poly without y_v}."""
    out: dict = {}
    for e, c in f._items():
        out.setdefault(e[v], []).append((e[:v] + (0,) + e[v + 1 :], c))
    return {d: C.poly_items(f.alg, f.tag, items) for d, items in out.items()}


def _from_uni(alg, tag, v: int, coeffs: dict) -> C.Poly:
    items = [(e[:v] + (d,) + e[v + 1 :], c) for d, g in coeffs.items() for e, c in g._items()]
    return C.poly_items(alg, tag, items)


def _normalize(f: C.Poly) -> C.Poly:
    """Scale so the lex-leading coefficient is 1 (deterministic generator)."""
    if f.is_zero():
        return f
    _, lc = f.lex_leading()
    return f.scale(lc.inverse())


def mv_gcd(f: C.Poly, g: C.Poly) -> C.Poly:
    """Monic-normalized gcd in k[y_1..y_2n], by recursion on the main variable."""
    if f.is_zero():
        return _normalize(g)
    if g.is_zero():
        return _normalize(f)
    v = _top_var(f)
    w = _top_var(g)
    if v is None or w is None:
        return C.poly_one(f.alg, f.tag)
    v = max(v, w)
    uf, ug = _as_uni(f, v), _as_uni(g, v)
    cont_f = _content(uf)
    cont_g = _content(ug)
    cont = mv_gcd(cont_f, cont_g)
    pf = C.divexact(f, cont_f)
    pg = C.divexact(g, cont_g)
    # primitive prs in y_v
    a, b = pf, pg
    while not b.is_zero():
        r = _prem(a, b, v)
        a, b = b, _primitive(r, v)
    return _normalize(cont * _primitive(a, v))


def _content(uni: dict) -> C.Poly:
    it = iter(uni.values())
    acc = next(it)
    for c in it:
        acc = mv_gcd(acc, c)
    return _normalize(acc) if not acc.is_zero() else acc


def _primitive(f: C.Poly, v: int) -> C.Poly:
    if f.is_zero():
        return f
    return C.divexact(f, _content(_as_uni(f, v)))


def _prem(f: C.Poly, g: C.Poly, v: int) -> C.Poly:
    """Pseudo-remainder of f by g as univariate polynomials in y_v."""
    uf, ug = _as_uni(f, v), _as_uni(g, v)
    dg = max(ug)
    lg = ug[dg]
    while uf and max(uf) >= dg:
        d = max(uf)
        lead = uf[d]
        # lg * f - lead * y_v^(d-dg) * g
        nf: dict = {}
        for t, c in uf.items():
            nf[t] = c * lg
        for t, c in ug.items():
            s = nf.get(t + d - dg)
            q = lead * c
            s = -q if s is None else s - q
            if s:
                nf[t + d - dg] = s
            elif t + d - dg in nf:
                del nf[t + d - dg]
        uf = {t: c for t, c in nf.items() if c}
    return _from_uni(f.alg, f.tag, v, uf)


def column_content(col: list) -> C.Poly:
    acc = None
    for entry in col:
        if entry.is_zero():
            continue
        acc = _normalize(entry) if acc is None else mv_gcd(acc, entry)
        if acc.is_constant():
            break
    if acc is None:
        raise WeyliftError("zero column has no content")
    return acc


# ---------------------------------------------------------------------------
# conjugator recovery


@dataclass
class Conjugator:
    """G with rep(u_i) G = G (nu_i + ybar_i Id), det constant and nonzero."""

    G: C.Mat
    det: C.Poly
    ybar: list


def _exps_iter(alg: AlgebraParams):
    N = mat_size(alg)
    for r in range(N):
        yield r, _basis_exps(alg, r)


def _twisted_generators(e: Endo):
    """A_l, B_l (twisted creation/annihilation) and the vacuum projector.

    A_l = rep(u_l) - ybar_l, B_l = rep(u_{n+l}) - ybar_{n+l}; the projector
    is the product over l of sum_t (-1)^t/t! A_l^t B_l^t, the twisted image
    of the matrix unit E_00.
    """
    alg = e.alg
    p = alg.field.p
    n = alg.n
    N = mat_size(alg)
    ybar = DQ.phi_S_all(e)
    A = [C.mat_sub(rep(alg, e.u(l)), C.mat_scalar(ybar[l], N)) for l in range(n)]
    B = [C.mat_sub(rep(alg, e.u(n + l)), C.mat_scalar(ybar[n + l], N)) for l in range(n)]
    proj = C.mat_identity(alg, "y", N)
    for l in range(n):
        acc = C.mat_zero(alg, "y", N)
        Apow = C.mat_identity(alg, "y", N)
        Bpow = C.mat_identity(alg, "y", N)
        for t in range(p):
            c = alg.field.from_int(factorial(t)).inverse()
            if t % 2:
                c = -c
            acc = C.mat_add(acc, C.mat_scale(C.mat_mul(Apow, Bpow), C.poly_const(alg, "y", c)))
            if t + 1 < p:
                Apow = C.mat_mul(Apow, A[l])
                Bpow = C.mat_mul(Bpow, B[l])
        proj = C.mat_mul(proj, acc)
    return A, B, proj, ybar


def _inv_factorial(alg: AlgebraParams, m: tuple):
    inv = alg.field.one
    for x in m:
        inv = inv * alg.field.from_int(factorial(x)).inverse()
    return inv


def _chain(mats: list, memo: dict, m: tuple) -> list:
    """mats_1^(m_1) .. mats_n^(m_n) applied to memo[(0,..,0)], memoised.

    Built by first-index recursion, so every prefix is one matrix-vector
    product away from a cached vector.
    """
    got = memo.get(m)
    if got is None:
        l = next(i for i, x in enumerate(m) if x)
        got = C.mat_vec(mats[l], _chain(mats, memo, m[:l] + (m[l] - 1,) + m[l + 1 :]))
        memo[m] = got
    return got


def recover_conjugator(A: list, B: list, proj: C.Mat) -> C.Mat:
    """Rebuild G with F_ij G = G E_ij from twisted generators and projector.

    F_ij = A^(m_i) proj B^(m_j) / m_j! is the image of the matrix unit
    E_ij, m_i the basis exponents of index i.  A primitive column r0 of
    proj generates its rank-one image and the columns of G are v_m = A^m r0.
    The relations are verified in column form, proj B^(m_j) v_k / m_j! =
    delta_jk r0 for all j, k: that is F_0j G = G E_0j column by column, and
    applying A^(m_i) on the left gives every F_ij G = G E_ij.  Constructive
    and inverse-free; raises NotAHomomorphism if proj vanishes or any
    relation fails.
    """
    alg = proj[0][0].alg
    N = len(proj)
    origin = (0,) * alg.n
    col = next((col for col in zip(*proj) if any(col)), None)
    if col is None:
        raise NotAHomomorphism("twisted vacuum projector vanishes")
    cont = column_content(col)
    r0 = [C.divexact(entry, cont) if entry else entry for entry in col]
    vmemo = {origin: r0}
    cols = [_chain(A, vmemo, m) for _, m in _exps_iter(alg)]
    G = tuple(tuple(v[r] for v in cols) for r in range(N))
    zero = [C.poly_zero(alg, "y")] * N
    for k, mk in _exps_iter(alg):
        bmemo = {origin: cols[k]}
        for j, mj in _exps_iter(alg):
            inv = _inv_factorial(alg, mj)
            w = [entry.scale(inv) for entry in C.mat_vec(proj, _chain(B, bmemo, mj))]
            if w != (r0 if j == k else zero):
                raise NotAHomomorphism(f"matrix-unit relation fails at (j={mj}, k={mk})")
    return G


def extract_twisted_scalar(G: C.Mat, M: C.Mat) -> C.Poly:
    """The scalar s with M = s G, by exact division; NotAHomomorphism if none."""
    s = None
    for r in range(len(G)):
        for c in range(len(G)):
            if G[r][c]:
                s = C.divexact(M[r][c], G[r][c]) if M[r][c] else C.poly_zero(G[0][0].alg, "y")
                break
        if s is not None:
            break
    if s is None:
        raise WeyliftError("cannot extract a scalar against the zero matrix")
    if not C.mat_eq(M, C.mat_scale(G, s)):
        raise NotAHomomorphism("matrix is not a scalar multiple")
    return s


def conjugator_for_endo(e: Endo) -> Conjugator:
    """Build and verify the conjugator of the twisted trivialization.

    recover_conjugator on the twisted generators, then a determinant check
    and the twisted scalars, checked against the p-power route.  Any
    failure raises NotAHomomorphism.
    """
    alg = e.alg
    A, B, proj, ybar = _twisted_generators(e)
    G = recover_conjugator(A, B, proj)
    detG = C.det(G)
    if detG.is_zero() or not detG.is_constant():
        raise NotAHomomorphism("conjugator determinant is not a nonzero constant")
    # twisted-scalar extraction: rep(u_i) G - G nu_i = ybar_i G
    extracted = []
    for i in range(alg.nvars):
        M = C.mat_sub(C.mat_mul(rep(alg, e.u(i)), G), C.mat_mul(G, nu(alg, i)))
        try:
            s = extract_twisted_scalar(G, M)
        except NotAHomomorphism:
            raise NotAHomomorphism("twisted scalars do not act uniformly")
        extracted.append(s)
    if extracted != ybar:
        raise NotAHomomorphism("extracted scalars disagree with the p-power route")
    return Conjugator(G=G, det=detG, ybar=extracted)
