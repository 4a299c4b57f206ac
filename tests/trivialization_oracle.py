"""The p^n by p^n matrix trivialization of A_n(k): the tests' reference.

Over S = k[y] with x_i = y_i^p, sending z_l to (multiplication by T_l)
+ y_l and z_{n+l} to d/dT_l + y_{n+l} identifies A_n(k) tensor S with the
p^n by p^n matrix algebra over S acting on k[T]/(T_1^p, .., T_n^p).  The
library reads only the trace of this representation, in closed form
(weylift.trivialization.trace_top_coefficient); trace(rep(f)) here is its
oracle, computed with the matrices themselves.

For an endomorphism with images u_i, A_l = rep(u_l) - ybar_l and B_l =
rep(u_{n+l}) - ybar_{n+l} are twisted creation and annihilation operators,
and their vacuum projector is the twisted image of the matrix unit E_00.
It is only ever applied to vectors: its first nonzero column, made
primitive, is r0, and the conjugator G has columns A^m r0.  G is verified
once by intertwining, A_l G = G nu_l and B_l G = G nu_{n+l}, which implies
proj G = G E_00.  With ybar_i moved across, the intertwining says
rep(u_i) G = G (nu_i + ybar_i), so G certifies the twisted scalars
ybar_i = diffeq.phi_S independently of the p-power route that computes them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from math import factorial

from weylift import center as C
from weylift import diffeq as DQ
from weylift.endo import Endo
from weylift.errors import WeyliftError
from weylift.scalars import square_multiply
from weylift.weyl import AlgebraParams, WeylElem


class NotAHomomorphism(Exception):
    """Matrix-unit images do not come from an algebra homomorphism."""


# ---------------------------------------------------------------------------
# matrices of polynomials beyond the library's sums, differences and equality


def mat_scalar(s: C.Poly, N: int) -> C.Mat:
    """The N x N matrix s * Id."""
    z = s.alg.const(0, var=s.var)
    return tuple(tuple(s if i == j else z for j in range(N)) for i in range(N))


def mat_zero(alg: AlgebraParams, var: str, N: int) -> C.Mat:
    return mat_scalar(alg.const(0, var=var), N)


def mat_identity(alg: AlgebraParams, var: str, N: int) -> C.Mat:
    return mat_scalar(alg.const(1, var=var), N)


def mat_mul(A: C.Mat, B: C.Mat) -> C.Mat:
    """Matrix product; a pair with a zero factor costs nothing."""
    zero = A[0][0].alg.const(0, var=A[0][0].var)
    cols = tuple(zip(*B))
    out = []
    for row in A:
        new = []
        for col in cols:
            acc = None
            for a, b in zip(row, col):
                if a and b:
                    acc = a * b if acc is None else acc + a * b
            new.append(zero if acc is None else acc)
        out.append(tuple(new))
    return tuple(out)


def mat_vec(A: C.Mat, v: list) -> list:
    zero = A[0][0].alg.const(0, var=A[0][0].var)
    out = []
    for row in A:
        acc = zero
        for a, b in zip(row, v):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return out


def mat_pow(A: C.Mat, e: int) -> C.Mat:
    if not e:
        return mat_identity(A[0][0].alg, A[0][0].var, len(A))
    return square_multiply(A, e, mat_mul)


def mat_scale(A: C.Mat, s: C.Poly) -> C.Mat:
    return tuple(tuple(a * s for a in row) for row in A)


# ---------------------------------------------------------------------------
# the representation and its trace


def mat_size(alg: AlgebraParams) -> int:
    """Side p^n of the matrices: the dimension of k[T]/(T_1^p, .., T_n^p)."""
    return alg.field.p**alg.n


def trace(A: C.Mat) -> C.Poly:
    acc = A[0][0].alg.const(0, var=A[0][0].var)
    for i in range(len(A)):
        acc = acc + A[i][i]
    return acc


@functools.cache
def nu(alg: AlgebraParams, i: int) -> C.Mat:
    """Matrix of multiplication by T_i (i < n) or d/dT_{i-n} (i >= n).

    The basis T^e is in lex order, first exponent most significant, so
    moving e_l by one moves the index by p^(n-1-l).  This and the generator
    matrices below are memoised by value, shared by every equal algebra.
    """
    p, n = alg.field.p, alg.n
    N = mat_size(alg)
    l = i % n
    step = p ** (n - 1 - l)
    rows = [[alg.const(0, var="y") for _ in range(N)] for _ in range(N)]
    for c, e in enumerate(product(range(p), repeat=n)):
        if i < n and e[l] < p - 1:
            rows[c + step][c] = alg.const(1, var="y")
        elif i >= n and e[l] > 0:
            rows[c - step][c] = alg.const(e[l], var="y")
    return tuple(tuple(row) for row in rows)


@functools.cache
def rep_gen(alg: AlgebraParams, i: int) -> C.Mat:
    """rep(z_i) = nu_i + y_i * Id."""
    return C.mat_add(nu(alg, i), mat_scalar(alg.gen(i, var="y"), mat_size(alg)))


@functools.cache
def _rep_gen_power(alg: AlgebraParams, i: int, e: int) -> C.Mat:
    """rep(z_i)^e."""
    return mat_pow(rep_gen(alg, i), e)


def rep(alg: AlgebraParams, f: WeylElem) -> C.Mat:
    """Image of a normal-ordered element under the trivialization."""
    if f.ring != "k":
        raise WeyliftError("rep is defined over k, not W_2")
    N = mat_size(alg)
    acc = mat_zero(alg, "y", N)
    for exps, c in sorted(f._items()):
        term = None
        for i, e in enumerate(exps):
            if not e:
                continue
            pw = _rep_gen_power(alg, i, e)
            term = pw if term is None else mat_mul(term, pw)
        if term is None:
            term = mat_identity(alg, "y", N)
        acc = C.mat_add(acc, mat_scale(term, alg.from_items([((0,) * alg.nvars, c)], "y")))
    return acc


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
    return {d: f.alg.from_items(items, f.var) for d, items in out.items()}


def _from_uni(alg, var, v: int, coeffs: dict) -> C.Poly:
    items = [(e[:v] + (d,) + e[v + 1 :], c) for d, g in coeffs.items() for e, c in g._items()]
    return alg.from_items(items, var)


def _normalize(f: C.Poly) -> C.Poly:
    """Scale so the lex-leading coefficient is 1 (deterministic generator)."""
    if f.is_zero():
        return f
    _, lc = max(f._items())
    return f._scale(f.ctx.res.pow(lc, f.alg.field.q - 2))


def mv_gcd(f: C.Poly, g: C.Poly) -> C.Poly:
    """Monic-normalized gcd in k[y_1..y_2n], by recursion on the main variable."""
    if f.is_zero():
        return _normalize(g)
    if g.is_zero():
        return _normalize(f)
    v = _top_var(f)
    w = _top_var(g)
    if v is None or w is None:
        return f.alg.const(1, var=f.var)
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
    return _from_uni(f.alg, f.var, v, uf)


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


def _project(A: list, B: list, v: list) -> list:
    """The vacuum projector prod_l sum_{t<p} (-1)^t/t! A_l^t B_l^t applied to v.

    Matrix-vector products only: the l-factors act right to left, each as
    the B_l-powers of its input followed by Horner in A_l.
    """
    p, res = v[0].alg.field.p, v[0].ctx.res
    # the weights (-1)^t / t! = ((-1)^t t!)^(p-2) in F_p
    c = [res.pow((-1) ** t * factorial(t) % p, p - 2) for t in range(p)]
    for a, b in zip(reversed(A), reversed(B)):
        w = [v]
        for _ in range(p - 1):
            w.append(mat_vec(b, w[-1]))
        v = [x._scale(c[-1]) for x in w[-1]]
        for t in reversed(range(p - 1)):
            v = [x + y._scale(c[t]) for x, y in zip(mat_vec(a, v), w[t])]
    return v


def _chain(mats: list, memo: dict, m: tuple) -> list:
    """mats_1^(m_1) .. mats_n^(m_n) applied to memo[(0,..,0)], memoised.

    Built by first-index recursion, so every prefix is one matrix-vector
    product away from a cached vector.
    """
    got = memo.get(m)
    if got is None:
        l = next(i for i, x in enumerate(m) if x)
        got = mat_vec(mats[l], _chain(mats, memo, m[:l] + (m[l] - 1,) + m[l + 1 :]))
        memo[m] = got
    return got


def recover_conjugator(A: list, B: list) -> C.Mat:
    """Rebuild G with F_ij G = G E_ij from the twisted generators A_l, B_l.

    F_ij = A^(m_i) proj B^(m_j) / m_j! is the image of the matrix unit
    E_ij, m_i the basis exponents of index i and proj = P(A, B) the vacuum
    projector of _project.  Its first nonzero column, made primitive, is r0:
    it generates the rank-one image of proj, and the columns of G are
    v_m = A^m r0.  G is verified by intertwining, A_l G = G nu_l and
    B_l G = G nu_{n+l}.  These give P(A, B) G = G P(nu) = G E_00, since
    sum_t (-T)^t D^t f / t! = f(0) on k[T]/(T^p), and so every relation:

        F_ij G = A^(m_i) proj B^(m_j) G / m_j! = A^(m_i) proj G d^(m_j) / m_j!
               = A^(m_i) G E_00 d^(m_j) / m_j! = G T^(m_i) E_00 d^(m_j) / m_j!
               = G E_ij,

    with T^(m) = nu_1^(m_1) .. nu_n^(m_n), d^(m) the same in nu_{n+l}, and
    the last step because E_00 d^(m_j) / m_j! sends T^(m_k) to delta_jk and
    T^(m_i) sends 1 to T^(m_i).  Constructive and inverse-free; raises
    NotAHomomorphism if proj vanishes or an identity fails.
    """
    alg = A[0][0][0].alg
    N = len(A[0])
    zero, one = alg.const(0, var="y"), alg.const(1, var="y")
    for j in range(N):
        col = _project(A, B, [one if k == j else zero for k in range(N)])
        if any(col):
            break
    else:
        raise NotAHomomorphism("twisted vacuum projector vanishes")
    cont = column_content(col)
    r0 = [C.divexact(entry, cont) if entry else entry for entry in col]
    vmemo = {(0,) * alg.n: r0}
    cols = [_chain(A, vmemo, m) for m in product(range(alg.field.p), repeat=alg.n)]
    G = tuple(tuple(v[r] for v in cols) for r in range(N))
    for i, M in enumerate(A + B):
        if not C.mat_eq(mat_mul(M, G), mat_mul(G, nu(alg, i))):
            raise NotAHomomorphism(f"conjugator does not intertwine generator {i + 1}")
    return G


def conjugator_for_endo(e: Endo) -> Conjugator:
    """Build and verify the conjugator of the twisted trivialization.

    recover_conjugator on the twisted generators A_l = rep(u_l) - ybar_l and
    B_l = rep(u_{n+l}) - ybar_{n+l}, then a determinant check.  Its
    intertwining check is rep(u_i) G = G (nu_i + ybar_i), so the p-power
    route's ybar_i are the twisted scalars.  Any failure raises
    NotAHomomorphism.
    """
    alg, N = e.alg, mat_size(e.alg)
    ybar = DQ.phi_S_all(e)
    T = [C.mat_sub(rep(alg, e.u(i)), mat_scalar(y, N)) for i, y in enumerate(ybar)]
    G = recover_conjugator(T[: alg.n], T[alg.n :])
    detG = C.det(G)
    if detG.is_zero() or not detG.is_constant():
        raise NotAHomomorphism("conjugator determinant is not a nonzero constant")
    return Conjugator(G=G, det=detG, ybar=ybar)
