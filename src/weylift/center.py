"""The center Z = k[x_1..x_2n] of A_n(k), x_i = z_i^p, and its Poisson structure.

Polynomials (weyl.Poly, built by AlgebraParams.const, gen and from_items
or the Poly class there) carry a letter ``var``: "x" for center
coordinates, "y" for coordinates on the polynomial algebra
S = k[y_1..y_2n] with x_i = y_i^p.  This module holds the Poisson
bracket, the change between the two letters, matrices of polynomials and
their determinants, and the morphism criteria.

The Poisson bracket on Z is {f, g} = sum_l (df/dx_l dg/dx_{n+l}
- df/dx_{n+l} dg/dx_l), normalized so {x_i, x_j} = -omega_{ij}.  The
routine witt_brackets recomputes it upstairs as [F~, G~]/p in A_n(W_2(k))
for central F, G over k, with F~, G~ their Teichmuller lifts: any lifts
give the same value, since p [X, Y] depends only on X, Y mod p.  It is
kept as an independent route: the tests compare it with poisson on
embedded polynomials, and the endo module's obstruction oracle feeds it
the center images u_i^p.

A map x_i -> F_i is judged from its Jacobian J: is_etale reads det J and
is_poisson_morphism compares bracket_matrix(J) = J omega^{-1} J^T, summed
above the diagonal with no product by omega, with omega^{-1} (memoised).
"""

from __future__ import annotations

import functools

from .errors import DivisionByZero, NotDivisibleByP, WeyliftError
from .scalars import square_multiply
from .weyl import AlgebraParams, Poly, WeylElem, commutator, teich_lift, w2_decompose_elem


# -- coordinate changes ------------------------------------------------------


def pth_power_retag(f: Poly) -> Poly:
    """f(y)^p rewritten through y_i^p = x_i: exponents kept, coefficients^p."""
    if f.var != "y":
        raise WeyliftError("expected a y-polynomial")
    res, p = f.ctx.res, f.alg.field.p
    return f._as("x", {k: res.pow(c, p) for k, c in f.data.items()})


def pth_root_retag(f: Poly) -> Poly:
    """The y-polynomial g with g(y)^p = f(y^p): exponents kept, coefficient roots."""
    if f.var != "x":
        raise WeyliftError("expected an x-polynomial")
    res, root = f.ctx.res, f.alg.field.p ** (f.alg.field.m - 1)
    return f._as("y", {k: res.pow(c, root) for k, c in f.data.items()})


# -- Poisson structure -------------------------------------------------------


def poisson(f: Poly, g: Poly) -> Poly:
    """{f, g} = sum_l (f_{x_l} g_{x_{n+l}} - f_{x_{n+l}} g_{x_l})."""
    f._require_compatible(g)
    return _bracket(*jacobian([f, g]))


def _bracket(df: tuple, dg: tuple) -> Poly:
    """{f, g} from the gradients df, dg of f and g."""
    n = len(df) // 2
    acc = df[0].alg.const(0, var=df[0].var)
    minus = acc.ctx.res.N - 1
    for l in range(n):
        for a, b, r in ((df[l], dg[n + l], 1), (df[n + l], dg[l], minus)):
            if a and b:
                acc._add_into(a * b, r)
    return acc


def witt_brackets(elems: list[WeylElem]) -> Mat:
    """([F_i~, F_j~] / p) in the x coordinates for central F_i over k, each
    Teichmuller-lifted once: the matrix of brackets {F_i, F_j}.

    Raises NotDivisibleByP if a commutator has a nonzero Teichmuller part
    and NotCentral if a quotient is not in Z (neither occurs for central
    inputs; the checks guard the oracles themselves).
    """
    lifts = [teich_lift(F) for F in elems]

    def entry(i: int, j: int) -> Poly:
        c1, c2 = w2_decompose_elem(commutator(lifts[i], lifts[j]))
        if c1:
            raise NotDivisibleByP("commutator of central elements not in p*W_2")
        return c2.to_center_poly()

    return antisymmetric(elems[0].alg, "x", entry, len(elems))


# -- matrices of polynomials -------------------------------------------------
#
# A matrix is a tuple of row tuples of Poly, so matrices can be cached and
# shared; every entry of one matrix has the same algebra and letter.

Mat = tuple


def mat_scalar(s: Poly, N: int) -> Mat:
    """The N x N matrix s * Id."""
    z = s.alg.const(0, var=s.var)
    return tuple(tuple(s if i == j else z for j in range(N)) for i in range(N))


def mat_zero(alg: AlgebraParams, var: str, N: int) -> Mat:
    return mat_scalar(alg.const(0, var=var), N)


def mat_identity(alg: AlgebraParams, var: str, N: int) -> Mat:
    return mat_scalar(alg.const(1, var=var), N)


def jacobian(images: list[Poly]) -> Mat:
    """J[i][j] = d(images[i]) / d var_j."""
    return tuple(tuple(f.pderiv(j) for j in range(f.alg.nvars)) for f in images)


@functools.cache
def omega_matrix(alg: AlgebraParams, var: str) -> Mat:
    size = alg.nvars
    return tuple(
        tuple(alg.const(alg.omega_int(i, j), var=var) for j in range(size))
        for i in range(size)
    )


@functools.cache
def omega_inv_matrix(alg: AlgebraParams, var: str) -> Mat:
    """omega^{-1} = -omega for the standard symplectic form."""
    return tuple(tuple(-a for a in row) for row in omega_matrix(alg, var))


def antisymmetric(alg: AlgebraParams, var: str, entry, size: int = 0) -> Mat:
    """The size x size (default 2n x 2n) antisymmetric matrix with
    entry(i, j) above the diagonal."""
    size = size or alg.nvars
    M = [[alg.const(0, var=var)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            M[i][j] = e = entry(i, j)
            M[j][i] = -e
    return tuple(map(tuple, M))


def mat_mul(A: Mat, B: Mat) -> Mat:
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


def mat_vec(A: Mat, v: list) -> list:
    zero = A[0][0].alg.const(0, var=A[0][0].var)
    out = []
    for row in A:
        acc = zero
        for a, b in zip(row, v):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return out


def mat_pow(A: Mat, e: int) -> Mat:
    if not e:
        return mat_identity(A[0][0].alg, A[0][0].var, len(A))
    return square_multiply(A, e, mat_mul)


def mat_transpose(A: Mat) -> Mat:
    return tuple(zip(*A))


def mat_add(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(A: Mat, s: Poly) -> Mat:
    return tuple(tuple(a * s for a in row) for row in A)


def mat_eq(A: Mat, B: Mat) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


# -- exact division and determinants -----------------------------------------


def divexact(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when g divides f exactly; raises otherwise.  The
    lex-leading residue c of g is inverted as c^(q-2)."""
    if g.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    f._require_compatible(g)
    alg, res = f.alg, g.ctx.res
    ge, gc = max(g._items())
    gcinv = res.pow(gc, alg.field.q - 2)
    quot = []
    rem = f._like(dict(f.data))
    while rem:
        re, rc = max(rem._items())
        qe = tuple(a - b for a, b in zip(re, ge))
        if any(x < 0 for x in qe):
            raise WeyliftError("division is not exact")
        qc = res.reduce(rc * gcinv)
        quot.append((qe, qc))
        rem._add_into(alg.from_items([(qe, qc)], f.var) * g, res.N - 1)
    return alg.from_items(quot, f.var)


def det(M: Mat) -> Poly:
    """Determinant: cofactor expansion for size <= 4, Bareiss beyond.

    Measured on a 2-CPU Xeon, Python 3.11.  is_etale's 2n x 2n Jacobians:
    on the 199 of the perfbench corpus workload (n <= 2), cofactor takes
    0.011 s and Bareiss 0.048 s, where one warm pass over that workload
    takes 0.27 s.  The conjugator's p^n x p^n G: cofactor expansion grows
    like size! on dense rows; on the 7 x 7 G of map 1 of the F_7, n = 1
    corpus generate_corpus(alg, 8, 3) it takes 2.6 s and Bareiss 0.004-0.006 s.
    """
    size = len(M)
    if size == 0:
        raise WeyliftError("empty matrix")
    alg, var = M[0][0].alg, M[0][0].var
    if size <= 4:
        return _det_cofactor(M, alg, var)
    return _det_bareiss(M, alg, var)


def _det_cofactor(M, alg, var) -> Poly:
    size = len(M)
    if size == 1:
        return M[0][0]
    acc = alg.const(0, var=var)
    minus = acc.ctx.res.N - 1
    for j in range(size):
        if M[0][j]:
            minor = [[M[i][jj] for jj in range(size) if jj != j] for i in range(1, size)]
            acc._add_into(M[0][j] * _det_cofactor(minor, alg, var), minus if j % 2 else 1)
    return acc


def _det_bareiss(M, alg, var) -> Poly:
    size = len(M)
    A = [list(row) for row in M]
    prev = None  # the constant 1 before the first pivot
    sign = False
    for r in range(size - 1):
        if A[r][r].is_zero():
            swap = next((i for i in range(r + 1, size) if not A[i][r].is_zero()), None)
            if swap is None:
                return alg.const(0, var=var)
            A[r], A[swap] = A[swap], A[r]
            sign = not sign
        for i in range(r + 1, size):
            for j in range(r + 1, size):
                x = A[r][r] * A[i][j] - A[i][r] * A[r][j]
                A[i][j] = x if prev is None else divexact(x, prev)
        prev = A[r][r]
    d = A[size - 1][size - 1]
    return -d if sign else d


# -- morphism criteria -------------------------------------------------------


def bracket_matrix(J: Mat) -> Mat:
    """({F_i, F_j}) = J omega^{-1} J^T for the Jacobian J of (F_i), one
    bracket of two rows per entry above the diagonal."""
    return antisymmetric(J[0][0].alg, J[0][0].var, lambda i, j: _bracket(J[i], J[j]))


def is_poisson_morphism(B: Mat) -> bool:
    """Whether x_i -> F_i preserves {,}: B = J omega^{-1} J^T = omega^{-1}."""
    return mat_eq(B, omega_inv_matrix(B[0][0].alg, B[0][0].var))


def is_etale(J: Mat) -> bool:
    """Whether the Jacobian determinant is a nonzero constant."""
    d = det(J)
    return (not d.is_zero()) and d.is_constant()
