"""The center Z = k[x_1..x_2n] of A_n(k), x_i = z_i^p, and its Poisson structure.

Polynomials carry a tag: "x" for center coordinates, "y" for coordinates on
the polynomial algebra S = k[y_1..y_2n] with x_i = y_i^p.  The tag only
guards against mixing the two coordinate systems; arithmetic is identical.

The Poisson bracket on Z is {f, g} = sum_l (df/dx_l dg/dx_{n+l}
- df/dx_{n+l} dg/dx_l), normalized so {x_i, x_j} = -omega_{ij}.  The
commutator oracle poisson_witt_oracle recomputes the bracket upstairs as
[f~, g~]/p in A_n(W_2(k)) and is kept as an independent route.

A map x_i -> F_i is judged from its Jacobian J: is_etale reads det J and
is_poisson_morphism compares bracket_matrix(J) = J omega^{-1} J^T, summed
above the diagonal with no product by omega, with omega^{-1} (memoised).
"""

from __future__ import annotations

import functools

from .errors import DivisionByZero, NotCentral, NotDivisibleByP, WeyliftError
from .scalars import square_multiply
from .weyl import (
    AlgebraParams,
    SparseElem,
    WeylElem,
    _aligned,
    _Context,
    _encode,
    _layout,
    _pack,
    _weyl,
    commutator,
    teich_lift,
    w2_decompose_elem,
)


class Poly(SparseElem):
    """Sparse polynomial over k in 2n tagged commuting variables.

    Poly(alg, tag, terms) takes {exponent vector: FieldElem} and drops zero
    coefficients; a malformed vector raises WeyliftError.  The store is
    SparseElem's.
    """

    __slots__ = ("tag",)
    ring = "k"

    def __init__(self, alg: AlgebraParams, tag: str, terms: dict):
        if tag not in ("x", "y"):
            raise WeyliftError(f"unknown variable tag {tag!r}")
        self.alg, self.tag = alg, tag
        self.ctx, self.data = _encode(alg, "k", terms)

    @staticmethod
    def _make(alg: AlgebraParams, tag: str, ctx: _Context, data: dict) -> Poly:
        x = object.__new__(Poly)
        x.alg, x.tag, x.ctx, x.data = alg, tag, ctx, data
        return x

    @property
    def var(self) -> str:
        return self.tag

    def _like(self, data: dict, ctx: _Context | None = None) -> Poly:
        return Poly._make(self.alg, self.tag, ctx or self.ctx, data)

    def is_constant(self) -> bool:
        return not any(self.data)

    def constant_term(self):
        return self.terms.get((0,) * self.alg.nvars, self.alg.field.zero)

    def homogeneous_slice(self, d: int) -> Poly:
        exps = self.ctx.exps
        return self._like({k: c for k, c in self.data.items() if sum(exps(k)) == d})

    def __mul__(self, other: Poly) -> Poly:
        """Term pairs by key addition; the coefficient sums reduce once per term."""
        if not self.data or not other.data:
            self._require_compatible(other)
            return self._like({})
        ctx, da, db = _aligned(self, other, True)
        out: dict = {}
        get = out.get
        for ka, ca in da.items():
            for kb, cb in db.items():
                k, v = ka + kb, ca * cb
                s = get(k)
                out[k] = v if s is None else s + v
        reduce = ctx.res.reduce
        return self._like({k: r for k, v in out.items() if (r := reduce(v))}, ctx)

    def pderiv_iter(self, i: int, r: int) -> Poly:
        f = self
        for _ in range(r):
            f = f.pderiv(i)
        return f

    def lex_leading(self):
        """(exponent, coefficient) of the lex-largest monomial."""
        e, r = max(self._items())
        return e, self.ctx.res.decode(self.alg.field, r)


def poly_items(alg: AlgebraParams, tag: str, items: list) -> Poly:
    """The polynomial of (exponent tuple, residue) pairs; zero residues drop."""
    return Poly._make(alg, tag, *_pack(alg, "k", items))


# -- constructors -----------------------------------------------------------


def poly_zero(alg: AlgebraParams, tag: str) -> Poly:
    return Poly._make(alg, tag, _layout(alg, "k"), {})


def poly_one(alg: AlgebraParams, tag: str) -> Poly:
    return Poly._make(alg, tag, _layout(alg, "k"), {0: 1})


def poly_const(alg: AlgebraParams, tag: str, c) -> Poly:
    return Poly(alg, tag, {(0,) * alg.nvars: c})


def poly_var(alg: AlgebraParams, tag: str, i: int) -> Poly:
    exps = [0] * alg.nvars
    exps[i] = 1
    return Poly(alg, tag, {tuple(exps): alg.field.one})


def poly_from_terms(alg: AlgebraParams, tag: str, terms: dict) -> Poly:
    return Poly(alg, tag, terms)


# -- coordinate changes ------------------------------------------------------


def x_to_y(f: Poly) -> Poly:
    """f(x) -> f(y^p): multiply exponents by p."""
    if f.tag != "x":
        raise WeyliftError("expected an x-polynomial")
    p = f.alg.field.p
    return poly_items(f.alg, "y", [(tuple(p * a for a in e), c) for e, c in f._items()])


def pth_power_retag(f: Poly) -> Poly:
    """f(y)^p rewritten through y_i^p = x_i: exponents kept, coefficients^p."""
    if f.tag != "y":
        raise WeyliftError("expected a y-polynomial")
    res, p = f.ctx.res, f.alg.field.p
    return Poly._make(f.alg, "x", f.ctx, {k: res.pow(c, p) for k, c in f.data.items()})


def pth_root_retag(f: Poly) -> Poly:
    """The y-polynomial g with g(y)^p = f(y^p): exponents kept, coefficient roots."""
    if f.tag != "x":
        raise WeyliftError("expected an x-polynomial")
    res, root = f.ctx.res, f.alg.field.p ** (f.alg.field.m - 1)
    return Poly._make(f.alg, "y", f.ctx, {k: res.pow(c, root) for k, c in f.data.items()})


def embed_center(f: Poly, ring: str = "w2") -> WeylElem:
    """Send f(x) to f(z^p) in A_n; coefficients lift by Teichmuller for w2."""
    if f.tag != "x":
        raise WeyliftError("expected an x-polynomial")
    p = f.alg.field.p
    items = [(tuple(p * a for a in e), c) for e, c in f._items()]
    F = _weyl(f.alg, "k", *_pack(f.alg, "k", items))
    return F if ring == "k" else teich_lift(F)


# -- Poisson structure -------------------------------------------------------


def poisson(f: Poly, g: Poly) -> Poly:
    """{f, g} = sum_l (f_{x_l} g_{x_{n+l}} - f_{x_{n+l}} g_{x_l})."""
    f._require_compatible(g)
    return _bracket(*jacobian([f, g]))


def _bracket(df: tuple, dg: tuple) -> Poly:
    """{f, g} from the gradients df, dg of f and g."""
    n = len(df) // 2
    acc = poly_zero(df[0].alg, df[0].tag)
    minus = acc.ctx.res.N - 1
    for l in range(n):
        for a, b, r in ((df[l], dg[n + l], 1), (df[n + l], dg[l], minus)):
            if a and b:
                acc._add_into(a * b, r)
    return acc


def poisson_witt_oracle(f: Poly, g: Poly) -> Poly:
    """{f, g} recomputed as [f(z^p), g(z^p)] / p over W_2(k).

    Raises NotDivisibleByP if the commutator has a nonzero Teichmuller part
    and NotCentral if the quotient is not in Z (neither occurs for center
    inputs; the checks guard the oracle itself).
    """
    F = embed_center(f, "w2")
    G = embed_center(g, "w2")
    C = commutator(F, G)
    c1, c2 = w2_decompose_elem(C)
    if not c1.is_zero():
        raise NotDivisibleByP("commutator of central elements not in p*W_2")
    if not c2.is_central():
        raise NotCentral("commutator quotient is not central")
    return c2.to_center_poly()


# -- matrices of polynomials -------------------------------------------------
#
# A matrix is a tuple of row tuples of Poly, so matrices can be cached and
# shared; every entry of one matrix has the same algebra and tag.

Mat = tuple


def mat_scalar(s: Poly, N: int) -> Mat:
    """The N x N matrix s * Id."""
    z = poly_zero(s.alg, s.tag)
    return tuple(tuple(s if i == j else z for j in range(N)) for i in range(N))


def mat_zero(alg: AlgebraParams, tag: str, N: int) -> Mat:
    return mat_scalar(poly_zero(alg, tag), N)


def mat_identity(alg: AlgebraParams, tag: str, N: int) -> Mat:
    return mat_scalar(poly_one(alg, tag), N)


def jacobian(images: list[Poly]) -> Mat:
    """J[i][j] = d(images[i]) / d var_j."""
    return tuple(tuple(f.pderiv(j) for j in range(f.alg.nvars)) for f in images)


@functools.cache
def omega_matrix(alg: AlgebraParams, tag: str) -> Mat:
    size = alg.nvars
    return tuple(
        tuple(poly_const(alg, tag, alg.field.from_int(alg.omega_int(i, j))) for j in range(size))
        for i in range(size)
    )


@functools.cache
def omega_inv_matrix(alg: AlgebraParams, tag: str) -> Mat:
    """omega^{-1} = -omega for the standard symplectic form."""
    return tuple(tuple(-a for a in row) for row in omega_matrix(alg, tag))


def antisymmetric(alg: AlgebraParams, tag: str, entry) -> Mat:
    """The antisymmetric matrix with entry(i, j) above the diagonal."""
    size = alg.nvars
    M = [[poly_zero(alg, tag)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            M[i][j] = e = entry(i, j)
            M[j][i] = -e
    return tuple(map(tuple, M))


def mat_mul(A: Mat, B: Mat) -> Mat:
    """Matrix product; a pair with a zero factor costs nothing."""
    zero = poly_zero(A[0][0].alg, A[0][0].tag)
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
    zero = poly_zero(A[0][0].alg, A[0][0].tag)
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
        return mat_identity(A[0][0].alg, A[0][0].tag, len(A))
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


def mat_frobenius_twist(M: Mat) -> Mat:
    """Entrywise p-th power of a y-matrix, re-tagged to x via y_i^p = x_i."""
    return tuple(tuple(pth_power_retag(f) for f in row) for row in M)


# -- exact division and determinants -----------------------------------------


def divexact(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when g divides f exactly; raises otherwise."""
    if g.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    f._require_compatible(g)
    quot: dict = {}
    rem = f
    ge, gc = g.lex_leading()
    gcinv = gc.inverse()
    while rem:
        re, rc = rem.lex_leading()
        qe = tuple(a - b for a, b in zip(re, ge))
        if any(x < 0 for x in qe):
            raise WeyliftError("division is not exact")
        qc = rc * gcinv
        quot[qe] = qc
        rem = rem - Poly(f.alg, f.tag, {qe: qc}) * g
    return Poly(f.alg, f.tag, quot)


def det(M: Mat) -> Poly:
    """Determinant: cofactor expansion for size <= 4, Bareiss beyond."""
    size = len(M)
    if size == 0:
        raise WeyliftError("empty matrix")
    alg, tag = M[0][0].alg, M[0][0].tag
    if size <= 4:
        return _det_cofactor(M, alg, tag)
    return _det_bareiss(M, alg, tag)


def _det_cofactor(M, alg, tag) -> Poly:
    size = len(M)
    if size == 1:
        return M[0][0]
    acc = poly_zero(alg, tag)
    sign = alg.field.one
    for j in range(size):
        if M[0][j]:
            minor = [[M[i][jj] for jj in range(size) if jj != j] for i in range(1, size)]
            acc = acc + M[0][j].scale(sign) * _det_cofactor(minor, alg, tag)
        sign = -sign
    return acc


def _det_bareiss(M, alg, tag) -> Poly:
    size = len(M)
    A = [list(row) for row in M]
    prev = poly_one(alg, tag)
    sign = False
    for r in range(size - 1):
        if A[r][r].is_zero():
            swap = next((i for i in range(r + 1, size) if not A[i][r].is_zero()), None)
            if swap is None:
                return poly_zero(alg, tag)
            A[r], A[swap] = A[swap], A[r]
            sign = not sign
        for i in range(r + 1, size):
            for j in range(r + 1, size):
                A[i][j] = divexact(A[r][r] * A[i][j] - A[i][r] * A[r][j], prev)
        prev = A[r][r]
    d = A[size - 1][size - 1]
    return -d if sign else d


# -- morphism criteria -------------------------------------------------------


def bracket_matrix(J: Mat) -> Mat:
    """({F_i, F_j}) = J omega^{-1} J^T for the Jacobian J of (F_i), one
    bracket of two rows per entry above the diagonal."""
    return antisymmetric(J[0][0].alg, J[0][0].tag, lambda i, j: _bracket(J[i], J[j]))


def is_poisson_morphism(B: Mat) -> bool:
    """Whether x_i -> F_i preserves {,}: B = J omega^{-1} J^T = omega^{-1}."""
    return mat_eq(B, omega_inv_matrix(B[0][0].alg, B[0][0].tag))


def is_etale(J: Mat) -> bool:
    """Whether the Jacobian determinant is a nonzero constant."""
    d = det(J)
    return (not d.is_zero()) and d.is_constant()
