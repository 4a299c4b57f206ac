"""The Weyl algebra A_n over k = F_{p^m} and over W_2(k), in normal order,
and the commutative polynomials over k that share its store.

Generators z_1, ..., z_2n satisfy [z_i, z_j] = omega_{ij} with omega the
block matrix [[0, -I_n], [I_n, 0]]; the conjugate pairs are (l, n+l).  Every
element is stored as a sparse map from normally ordered monomials
z_1^{e_1} ... z_2n^{e_2n} to nonzero coefficients.

Two kinds share that store, and the letter ``var`` names the kind: WeylElem
in z, and Poly over k in x (the center Z = k[x], x_i = z_i^p) or y (its
Frobenius twist S = k[y], x_i = y_i^p).  One constructor, _new, builds each
element from its five fields (algebra, ring, letter, set-up, store), and
f._as(var, data) re-reads a store in another letter on f's set-up.  Each
input form has one public constructor for every letter, which checks the
ring, letter and index once: AlgebraParams.const (an integer), gen (a
generator index), from_items ((exponent, residue) pairs), and WeylElem /
Poly (coefficient objects).

Multiplication uses the closed contraction formula (pairs are independent
because the brackets are central):

    z_{n+l}^a z_l^b = sum_k binom(a,k) binom(b,k) k! z_l^{b-k} z_{n+l}^{a-k}

Every product goes through this one kernel, a product by a central
monomial z^(pc) included: each of its contractions has a weight
binom(a,k) pc (pc-1) ... (pc-k+1) = 0 mod p, so over k the kernel's rows
are empty and the product comes out as the exponent shift.  Over W_2(k)
the weights are multiples of p, not 0 ([z_{n+1}, z_1^p] = p z_1^(p-1)).

An element is one dict {packed exponent int: residue int}.  An exponent
vector is one int with a fixed-width field per variable (8, 16, 32 or 64
bits), after Monagan and Pearce (CASC 2007); each element carries the
width its largest exponent needs, and an operation re-packs the narrower
operand, or both when a product could overflow (exponent sums of 2^64 or
more raise WeyliftError).  Operands on one set-up object with one letter
skip _aligned's checks and width logic, except a product's overflow test:
the set-up is memoised by value (below), so one set-up object already means
equal algebras and one ring.  A coefficient is a scalars.ResidueRing int:
mod p or p^2 for m = 1, Kronecker-packed digits for m > 1.  So a monomial
product is one addition, a k-fold contraction of pair l subtracts
k * pack(e_l + e_{n+l}), coefficient products sum unreduced in a dict
keyed by ints, and each output term is reduced once: one int path for
every m.  Over W_2 two multiples of p (as most terms of the W_2 p-th
powers are) multiply to 0, so an A term divisible by p meets only the
unit terms of B.  FieldElem / Witt2 objects enter only through WeylElem,
Poly, monomial, scale and the families' c, and leave only through
``terms`` (a dict decoded afresh on each read), repr and mono_mul_naive.
Every constructor packs through _pack, which checks each vector.  The set-up
(packing, pair steps, contraction weights, residue ring) is memoised by
value per field, n, ring and width, shared by every equal algebra: most
products are tiny, and each operation builds its own algebra.

The commutator [f, g] runs the same kernel once.  For a pair of terms
c_a z^a, c_b z^b with c = c_a c_b, the contractions of z^a z^b enter with
+c and those of z^b z^a with -c, and the k = 0 part z^(a+b) common to both
is never emitted, so a pair that contracts in neither order never touches
the output.  A contraction's weight is symmetric in the two exponents, so
both orders read one row table.

Output terms come in first-insertion order over the visited pairs, A-major;
in a commutator each A term goes through B for z^a z^b, then again for
z^b z^a.  No value or report depends on that order (reports sort terms);
tests pin it so that a change to it is deliberate.

The naive single-swap rewriter mono_mul_naive is retained as a slow oracle;
it fixes the sign conventions and the contraction product is tested against
it.
"""

from __future__ import annotations

import functools
import operator
import struct
from dataclasses import dataclass

from .errors import NotCentral, ParamsMismatch, WeyliftError
from .scalars import FieldParams, residue_ring, square_multiply

NEG_INF = float("-inf")
_or_keys = functools.partial(functools.reduce, operator.or_)  # the OR of a store's keys


@dataclass(frozen=True)
class AlgebraParams:
    """Parameters of A_n(k): the number of conjugate pairs and the base field."""

    n: int
    field: FieldParams

    def __post_init__(self) -> None:
        if self.n < 1:
            raise WeyliftError(f"n must be >= 1, got {self.n}")

    @property
    def nvars(self) -> int:
        return 2 * self.n

    def omega_int(self, i: int, j: int) -> int:
        """[z_i, z_j] as an integer in {0, 1, -1}; indices are 0-based."""
        if j == i + self.n:
            return -1
        if i == j + self.n:
            return 1
        return 0

    # -- coefficient-ring helpers (ring is "k" or "w2") ----------------------

    def ring_one(self, ring: str):
        return self.field.one if ring == "k" else self.field.w2_one()

    def ring_from_int(self, ring: str, t: int):
        if ring == "k":
            return self.field.from_int(t)
        return self.field.w2_from_int(t)

    # -- element constructors ------------------------------------------------

    def const(self, t: int, ring: str = "k", var: str = "z") -> SparseElem:
        """The integer t as a constant over ``ring`` in the letter ``var``
        ("z": WeylElem, "x" or "y": Poly over k); 0 is the empty element."""
        cls, ctx = _kind(ring, var), _layout(self, ring)
        try:
            r = operator.index(t) % ctx.res.N  # the residue of an integer, for every m
        except TypeError:
            raise WeyliftError(f"constant {t!r} is not an integer") from None
        return _new(cls, self, ring, var, ctx, {0: r} if r else {})

    def gen(self, i: int, ring: str = "k", var: str = "z") -> SparseElem:
        """The generator z_{i+1} (0-based index i), or x_{i+1} or y_{i+1}."""
        cls = _kind(ring, var)
        if not (isinstance(i, int) and 0 <= i < self.nvars):
            raise WeyliftError(f"generator index {i!r} out of range")
        ctx = _layout(self, ring)
        return _new(cls, self, ring, var, ctx, {1 << (ctx.width * i): 1})

    def exponents(self, exps) -> tuple:
        """exps as a checked exponent vector: 2n ints >= 0 (no floats or strings)."""
        try:
            exps = tuple(map(operator.index, exps))
        except TypeError:
            raise WeyliftError(f"bad exponent vector {exps}") from None
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise WeyliftError(f"bad exponent vector {exps}")
        return exps

    def monomial(self, exps, coeff=None, ring: str = "k") -> WeylElem:
        coeff = self.ring_one(ring) if coeff is None else coeff
        return WeylElem(self, ring, {tuple(exps): coeff})

    def from_items(self, items, var: str = "z") -> SparseElem:
        """The element over k in the letter ``var`` ("z": WeylElem, "x" or
        "y": Poly) of (exponent tuple, residue) pairs; zero residues drop."""
        return _new(_kind("k", var), self, "k", var, *_pack(self, "k", items))


# ---------------------------------------------------------------------------
# storage: packed exponents and residues


# the packing format of each bit length 0..64 of an exponent
_FORMATS = tuple("B" if b <= 8 else "H" if b <= 16 else "I" if b <= 32 else "Q" for b in range(65))


class _Context:
    """The set-up of elements of A_n over one field and ring at one width.

    Exponents pack into unsigned fields of struct format ``fmt``, variable
    0 lowest.  ``high`` has the top bit of every field set, ``upper`` masks
    the fields of z_{n+1} .. z_2n, ``res`` is the residue ring.  For an A
    term whose upper (lower) fields are v, links(v, True (False)) lists the
    pairs l that z^a z^b (z^b z^a) contracts: (shift of z_l (z_{n+l}) in a
    B key, the rows of (l, x) keyed by that exponent y, the builder of a
    missing row).  A row is () when no contraction survives, else
    (k * step_l, weight mod N) from k = 0 (weight None).
    """

    __slots__ = ("fmt", "width", "size", "pack", "unpack", "high", "upper", "res", "links")

    def key(self, exps) -> int:
        return int.from_bytes(self.pack(*exps), "little")

    def exps(self, key: int) -> tuple:
        return self.unpack(key.to_bytes(self.size, "little"))


@functools.cache
def _context(p: int, m: int, modulus, n: int, ring: str, fmt: str) -> _Context:
    """The set-up for A_n over F_{p^m} (``modulus``), ``ring``, format ``fmt``,
    memoised on plain values: every equal algebra shares one row table."""
    st = struct.Struct(f"<{2 * n}{fmt}")
    ctx = _Context()
    ctx.fmt, ctx.size = fmt, st.size
    ctx.width = width = 8 * st.size // (2 * n)
    ctx.pack, ctx.unpack = st.pack, st.unpack
    ctx.high = sum(1 << (width * (i + 1) - 1) for i in range(2 * n))
    ctx.upper = (1 << (2 * n * width)) - (1 << (n * width))
    ctx.res = residue_ring(p, m, modulus, ring)
    weight = ctx.res.N.__rmod__
    rows: dict = {}
    table: dict = {}

    def new_row(l: int, a: int, b: int) -> tuple:
        step = (1 << (width * l)) + (1 << (width * (n + l)))
        row = _contraction_row(a, b, p, weight)
        return ((0, None),) + tuple((k * step, w) for k, w in row) if row else ()

    def links(v: int, upper: bool) -> list:
        got = table.get(v)
        if got is None:
            got = table[v] = []
            for l in range(n):
                x = v >> (width * (n + l if upper else l)) & ((1 << width) - 1)
                if x:
                    by_y = rows.setdefault((l, x), {})
                    shift = width * (l if upper else n + l)
                    got.append((shift, by_y, functools.partial(new_row, l, x)))
        return got

    ctx.links = links
    return ctx


def _layout(alg: AlgebraParams, ring: str, top: int = 0) -> _Context:
    """The set-up whose width holds exponents up to ``top``."""
    if top >> 64:
        raise WeyliftError(f"exponents of {top} >= 2^64 are not supported")
    f = alg.field
    return _context(f.p, f.m, f.modulus, alg.n, ring, _FORMATS[top.bit_length()])


def _repack(data: dict, src: _Context, dst: _Context) -> dict:
    unpack, size, pack = src.unpack, src.size, dst.pack
    return {
        int.from_bytes(pack(*unpack(k.to_bytes(size, "little"))), "little"): c
        for k, c in data.items()
    }


def _pack(alg: AlgebraParams, ring: str, items) -> tuple:
    """(set-up, store) of (exponent vector, residue) pairs, residues reduced
    and zeros dropped: where every constructor checks.  Packing checks
    well-formed vectors (struct takes only 2n ints that fit); on a failure
    each vector goes through AlgebraParams.exponents, which raises
    WeyliftError on a bad one and reads ints by __index__, and packs again;
    a residue that is still no int then raises WeyliftError."""
    index = operator.index
    for checked in (False, True):
        try:
            ctx = _layout(alg, ring, index(max((max(e) for e, _ in items), default=0)))
            key, reduce = ctx.key, ctx.res.reduce
            return ctx, {key(e): v for e, r in items if (v := reduce(index(r)))}
        except (struct.error, TypeError, ValueError):
            if checked:
                raise WeyliftError("a residue is not an integer") from None
            items = [(alg.exponents(e), r) for e, r in items]


def _encode(alg: AlgebraParams, ring: str, terms: dict) -> tuple:
    """(set-up, store) of {exponent vector: coefficient object}; zeros drop.
    The one way in for coefficient objects."""
    encode = _layout(alg, ring).res.encode
    return _pack(alg, ring, [(e, encode(c)) for e, c in terms.items()])


def _aligned(A: SparseElem, B: SparseElem, product: bool = False) -> tuple:
    """(set-up, A's store, B's store) at the wider of the two widths, or for
    a ``product`` of nonzero operands at a width that holds every sum of an
    exponent of A and one of B.

    Widths double, so only the wider operand can hold an exponent with the
    top bit of its field set; only then are the largest exponents read.
    """
    ca, cb = A.ctx, B.ctx
    if ca is cb and A.var == B.var:
        # one set-up (so equal algebras and one ring) and one letter: nothing
        # to check, and nothing to re-pack unless a product may overflow a
        # field
        if not product or not (_or_keys(A.data) | _or_keys(B.data)) & ca.high:
            return ca, A.data, B.data
    A._require_compatible(B)
    ctx = ca if ca.width >= cb.width else cb
    if product and (
        (ca.width == ctx.width and _or_keys(A.data) & ctx.high)
        or (cb.width == ctx.width and _or_keys(B.data) & ctx.high)
    ):
        top = max(map(max, map(ca.exps, A.data))) + max(map(max, map(cb.exps, B.data)))
        ctx = _layout(A.alg, A.ring, top)
    da = A.data if ca.width == ctx.width else _repack(A.data, ca, ctx)
    db = B.data if cb.width == ctx.width else _repack(B.data, cb, ctx)
    return ctx, da, db


class SparseElem:
    """A sparse map from exponent vectors to nonzero coefficients.

    The arithmetic WeylElem and Poly share, on one store: ``data`` is
    {packed exponent int: residue int} at the width of the set-up ``ctx``,
    over the algebra ``alg`` and the coefficient ring ``ring`` ("k" or
    "w2"), in the letter ``var``, which names the kind ("z": WeylElem, "x"
    or "y": Poly).  Operands must agree on the algebra, the ring and the
    letter.  _new builds every element from those five fields; _like swaps
    the store (and set-up), _as the letter (and the store, if given).  Each
    subclass supplies its own product.

    Every constructor packs through _pack, which checks each exponent
    vector; ``terms`` hands out a fresh decoded dict, and library code reads
    _items() and keeps the residues.

    Instances are treated as immutable: no method mutates the store after
    construction, except _add_into on an accumulator its caller owns, so
    sharing across threads or caches is safe.
    """

    __slots__ = ("alg", "ring", "var", "ctx", "data")

    def _like(self, data: dict, ctx: _Context | None = None):
        """An element of this kind, algebra, ring and letter holding ``data``."""
        return _new(type(self), self.alg, self.ring, self.var, ctx or self.ctx, data)

    def _as(self, var: str, data: dict | None = None):
        """The element in the letter ``var`` on this set-up, holding ``data``
        or, by default, this store: a change of coordinates that keeps every
        packed key."""
        data = self.data if data is None else data
        return _new(_KINDS[var], self.alg, self.ring, var, self.ctx, data)

    def _require_compatible(self, other) -> None:
        if (
            (self.alg is not other.alg and self.alg != other.alg)
            or self.ring != other.ring
            or self.var != other.var
        ):
            raise ParamsMismatch(
                f"operands from different algebras, rings or variables: "
                f"{self.ring}/{self.var} vs {other.ring}/{other.var}"
            )

    @property
    def terms(self) -> dict:
        """{exponent tuple: FieldElem or Witt2} in dict order, decoded afresh
        on each read."""
        decode, field = self.ctx.res.decode, self.alg.field
        return {e: decode(field, r) for e, r in self._items()}

    def _items(self):
        """(exponent tuple, residue) pairs in dict order."""
        exps = self.ctx.exps
        return ((exps(k), r) for k, r in self.data.items())

    def is_zero(self) -> bool:
        return not self.data

    def __bool__(self) -> bool:
        return bool(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseElem):
            return NotImplemented
        if self.var != other.var or (
            self.ctx is not other.ctx and (self.alg, self.ring) != (other.alg, other.ring)
        ):
            return False
        _, a, b = _aligned(self, other)
        return a == b

    __hash__ = None

    def degree(self):
        """Total degree; minus infinity for the zero element."""
        if not self.data:
            return NEG_INF
        return max(map(sum, map(self.ctx.exps, self.data)))

    def __repr__(self) -> str:
        if not self.data:
            return "0"
        v = self.var
        terms = self.terms
        bits = []
        for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True)[:8]:
            mono = "*".join(
                f"{v}{i + 1}^{e}" if e > 1 else f"{v}{i + 1}" for i, e in enumerate(exps) if e
            )
            c = terms[exps]
            bits.append(f"{c!r}*{mono}" if mono else f"{c!r}")
        tail = " + ..." if len(terms) > 8 else ""
        return " + ".join(bits) + tail

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, self.ctx.res.N - 1)

    def __neg__(self):
        return self._scale(self.ctx.res.N - 1)

    def _sum(self, other, r: int):
        out = self._like(dict(self.data))
        out._add_into(other, r)
        return out

    def _add_into(self, other, r: int) -> None:
        """self += r * other in place, r a residue; only on an accumulator
        the caller owns.  Terms enter and leave as in self + r * other."""
        self.ctx, self.data, b = _aligned(self, other)
        reduce, out = self.ctx.res.reduce, self.data
        get = out.get
        for k, c in b.items():
            s = get(k)
            if s is None:
                if v := reduce(r * c):
                    out[k] = v
            elif s := reduce(s + r * c):
                out[k] = s
            else:
                del out[k]

    def scale(self, c):
        """c * self for a coefficient object c of the element's ring."""
        return self._scale(self.ctx.res.encode(c))

    def _scale(self, r: int):
        reduce = self.ctx.res.reduce
        return self._like({k: v for k, c in self.data.items() if (v := reduce(r * c))})

    def __pow__(self, e: int):
        if e < 0:
            raise WeyliftError("negative powers are not defined")
        return square_multiply(self, e, operator.mul) if e else self._like({0: 1})

    def pderiv(self, i: int):
        """Formal partial derivative in variable i (0-based), in characteristic p.

        For a Weyl element this is the commutator with a conjugate generator:
        [z_{n+l}, f] = df/dz_l and [z_l, f] = -df/dz_{n+l}.
        """
        ctx = self.ctx
        reduce, N = ctx.res.reduce, ctx.res.N
        shift = ctx.width * i
        mask, one = (1 << ctx.width) - 1, 1 << shift
        out = {}
        for k, c in self.data.items():
            if x := (k >> shift) & mask:
                if v := reduce(c * (x % N)):
                    out[k - one] = v
        return self._like(out)


def _new(cls, alg: AlgebraParams, ring: str, var: str, ctx: _Context, data: dict):
    """The element of class ``cls`` on the given fields: the one constructor
    of every sparse element."""
    x = object.__new__(cls)
    x.alg, x.ring, x.var, x.ctx, x.data = alg, ring, var, ctx, data
    return x


class WeylElem(SparseElem):
    """A sparse element of A_n over k ("k") or over W_2(k) ("w2"), in z.

    WeylElem(alg, ring, terms) takes {exponent vector: FieldElem or Witt2}
    and drops zero coefficients; a malformed vector raises WeyliftError.
    """

    __slots__ = ()

    def __init__(self, alg: AlgebraParams, ring: str, terms: dict):
        _kind(ring, "z")
        self.alg, self.ring, self.var = alg, ring, "z"
        self.ctx, self.data = _encode(alg, ring, terms)

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other: WeylElem) -> WeylElem:
        return _contract(self, other)

    # -- characteristic-p structure ------------------------------------------

    def p_power(self) -> WeylElem:
        """f^p by square and multiply."""
        return self ** self.alg.field.p

    def is_central(self) -> bool:
        """True when every exponent is divisible by p (membership in Z)."""
        p = self.alg.field.p
        return not any(x % p for e in map(self.ctx.exps, self.data) for x in e)

    def to_center_poly(self) -> Poly:
        """Rewrite a central element over k as a polynomial in x_i = z_i^p."""
        p = self.alg.field.p
        if self.ring != "k" or not self.is_central():
            raise NotCentral("element has an exponent not divisible by p")
        key = self.ctx.key
        return self._as("x", {key([x // p for x in e]): c for e, c in self._items()})


class Poly(SparseElem):
    """A sparse polynomial over k in 2n commuting variables, x or y.

    Poly(alg, var, terms) takes the letter var ("x" or "y") and {exponent
    vector: FieldElem}, and drops zero coefficients; a malformed vector
    raises WeyliftError.  AlgebraParams.const, gen and from_items build
    polynomials from integers, indices and residues.  The letter only guards
    against mixing the two coordinate systems; arithmetic is identical.
    """

    __slots__ = ()

    def __init__(self, alg: AlgebraParams, var: str, terms: dict):
        if _kind("k", var) is not Poly:
            raise WeyliftError(f"unknown polynomial variable {var!r}")
        self.alg, self.ring, self.var = alg, "k", var
        self.ctx, self.data = _encode(alg, "k", terms)

    def is_constant(self) -> bool:
        return not any(self.data)

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


_KINDS = {"z": WeylElem, "x": Poly, "y": Poly}


def _kind(ring: str, var: str) -> type:
    """The class of elements over ``ring`` in the letter ``var``: the one
    check of every constructor (a polynomial is over k)."""
    if ring not in ("k", "w2"):
        raise WeyliftError(f"unknown coefficient ring {ring!r}")
    if var not in _KINDS:
        raise WeyliftError(f"unknown variable {var!r}")
    if var != "z" and ring != "k":
        raise WeyliftError(f"polynomials in {var} are over k, not {ring!r}")
    return _KINDS[var]


# ---------------------------------------------------------------------------
# multiplication


def _contract(A: WeylElem, B: WeylElem, bracket: bool = False) -> WeylElem:
    """A * B, or [A, B] = A * B - B * A when ``bracket``, on the int store.

    Coefficient products c = c_a c_b and their multiples by the rows'
    weights sum unreduced; each output term is reduced once.  Pairs of two
    multiples of p are never visited over W_2, so every visited pair has a
    nonzero coefficient c.  The bracket takes each A term through the B
    terms twice: the contractions of z^a z^b enter with c, then those of
    z^b z^a with -c, and the k = 0 part z^(a+b) they share is never
    emitted.  Output terms keep first-insertion order, A-major.
    """
    if not A.data or not B.data:
        A._require_compatible(B)
        return A._like({})
    ctx, da, db = _aligned(A, B, True)
    res, links_of = ctx.res, ctx.links
    unit, N, fmask = res.unit, res.N, (1 << ctx.width) - 1
    upper = ctx.upper

    # Over W_2 a pair of two multiples of p vanishes mod p^2, so an A term
    # divisible by p meets only the unit terms of B.
    b_units = None
    out: dict = {}
    get = out.get
    for pa, ca in da.items():
        # the pairs l that z^a z^b contracts, read off z_{n+l}^x in z^a, and
        # for the bracket those of z^b z^a, off z_l^x, with -c_a
        orders = [(links_of(pa & upper, True), ca)]
        if bracket:
            orders.append((links_of(pa - (pa & upper), False), res.reduce(res.bias - ca)))
        if unit(ca):
            b_meet = db
        else:
            if b_units is None:
                b_units = {pb: cb for pb, cb in db.items() if unit(cb)}
            b_meet = b_units
        for links, c_a in orders:
            if bracket and not links:
                continue  # the pair alone, z^(a+b), cancels in the bracket
            for pb, cb in b_meet.items():
                parts = None
                for shift, by_y, new_row in links:
                    if y := (pb >> shift) & fmask:
                        row = by_y.get(y)
                        if row is None:
                            row = by_y[y] = new_row(y)
                        if row:
                            # offsets and weights mod N of the contractions so far
                            parts = row if parts is None else [
                                (u + d, v if w is None else w if v is None else v * w % N)
                                for u, v in parts
                                for d, w in row
                            ]
                key = pa + pb
                if parts is None:
                    if not bracket:
                        c = c_a * cb
                        s = get(key)
                        out[key] = c if s is None else s + c
                    continue
                c = c_a * cb
                for d, w in parts:
                    # only the k = 0 part z^(a+b) has no weight; it cancels
                    # in the bracket
                    if w is None:
                        if bracket:
                            continue
                        v = c
                    else:
                        v = c * w
                    s = get(key - d)
                    out[key - d] = v if s is None else s + v
    reduce = res.reduce
    return A._like({k: r for k, v in out.items() if (r := reduce(v))}, ctx)


def _contraction_row(a: int, b: int, p: int, image) -> tuple:
    """The contractions k >= 1 between z_{n+l}^a and z_l^b with a nonzero weight.

    (k, image(w_k)) for the k in 1..min(a, b) whose weight w_k = binom(a,k)
    binom(b,k) k! has a nonzero image; ``image`` reads an integer mod p^2
    (ints mod q | p^2).  The weights come from one running product
    w_k = w_{k-1} (a-k+1)(b-k+1) / k, carried as a p-adic valuation v and
    units mod p^2, in place of three big binomials and a factorial per k.
    From k = 2p on, p^2 divides k! and every weight vanishes.
    """
    N = p * p
    row = []
    v, num, den = 0, 1, 1  # w_k = p^v * num / den with num, den units mod p^2
    for k in range(1, min(a, b, 2 * p - 1) + 1):
        x, y = (a - k + 1) * (b - k + 1), k
        while x % p == 0:
            x //= p
            v += 1
        while y % p == 0:
            y //= p
            v -= 1
        num, den = num * x % N, den * y % N
        if v < 2:
            w = image(num * pow(den, -1, N) * p**v % N)
            if w:
                row.append((k, w))
    return tuple(row)


# ---------------------------------------------------------------------------
# derived operations


def mono_mul_naive(alg: AlgebraParams, ea, eb, ring: str = "k") -> WeylElem:
    """Reference product by repeated adjacent swaps z_j z_i = z_i z_j + omega_{ji}.

    Exponential-time test oracle; keeps the contraction formula honest.
    """
    word = []
    for idx, e in enumerate(ea):
        word.extend([idx] * int(e))
    for idx, e in enumerate(eb):
        word.extend([idx] * int(e))
    memo: dict = {}

    def order(w: tuple) -> dict:
        res = memo.get(w)
        if res is not None:
            return res
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                res = dict(order(swapped))
                om = alg.omega_int(w[i], w[i + 1])
                if om:
                    c = alg.ring_from_int(ring, om)
                    for e2, c2 in order(w[:i] + w[i + 2 :]).items():
                        s = res.get(e2)
                        s = c * c2 if s is None else s + c * c2
                        if s:
                            res[e2] = s
                        elif e2 in res:
                            del res[e2]
                memo[w] = res
                return res
        exps = [0] * alg.nvars
        for idx in w:
            exps[idx] += 1
        res = {tuple(exps): alg.ring_one(ring)}
        memo[w] = res
        return res

    return WeylElem(alg, ring, dict(order(tuple(word))))


def commutator(f: WeylElem, g: WeylElem) -> WeylElem:
    """[f, g] = f * g - g * f in one pass of the contraction kernel."""
    return _contract(f, g, True)


def ad_pow(f: WeylElem, r: int, g: WeylElem) -> WeylElem:
    """ad(f)^r applied to g; the chain stops at the first 0."""
    for _ in range(r):
        if not g:
            break
        g = commutator(f, g)
    return g


def _with_ring(F: WeylElem, ring: str) -> tuple:
    """(the set-up of ``ring`` at F's width, its residue ring)."""
    f = F.alg.field
    ctx = _context(f.p, f.m, f.modulus, F.alg.n, ring, F.ctx.fmt)
    return ctx, ctx.res


def teich_lift(f: WeylElem) -> WeylElem:
    """Coefficientwise Teichmuller lift A_n(k) -> A_n(W_2(k)).

    Multiplicative on coefficients but not additive: over F_3 the lift of
    2*z_1 is (2,0)*z_1 while lift(z_1) + lift(z_1) carries to (2,1)*z_1.
    A residue of k is also one of its lifts to W_2, and [a] = a^q.
    """
    if f.ring != "k":
        raise WeyliftError("teich_lift expects an element over k")
    ctx, w2 = _with_ring(f, "w2")
    q = f.alg.field.q
    return _new(WeylElem, f.alg, "w2", "z", ctx, {k: w2.pow(c, q) for k, c in f.data.items()})


def times_p_elem(F: WeylElem) -> WeylElem:
    """Multiplication by p over W_2(k), coefficientwise (0, a1^p).

    A mod-p element is read through any lift, since p * x only depends on
    x mod p; so this is well defined on either ring.
    """
    ctx, w2 = _with_ring(F, "w2")
    p, reduce = F.alg.field.p, w2.reduce
    data = {k: v for k, c in F.data.items() if (v := reduce(p * c))}
    return _new(WeylElem, F.alg, "w2", "z", ctx, data)


def w2_decompose_elem(F: WeylElem) -> tuple[WeylElem, WeylElem]:
    """Coefficientwise Witt decomposition F = teich(f1) + p * teich(f2)
    (ResidueRing.split of each coefficient)."""
    if F.ring != "w2":
        raise WeyliftError("decompose expects an element over W_2(k)")
    ctx, _ = _with_ring(F, "k")
    split = F.ctx.res.split
    t1, t2 = {}, {}
    for key, c in F.data.items():
        b1, b2 = split(c)
        if b1:
            t1[key] = b1
        if b2:
            t2[key] = b2
    return _new(WeylElem, F.alg, "k", "z", ctx, t1), _new(WeylElem, F.alg, "k", "z", ctx, t2)


def relation_defects(alg: AlgebraParams, lifts: list[WeylElem]):
    """(i, j, d1, d2) for i < j in (i, j) order, with d1, d2 over k such that

        [L_i, L_j] - omega_{ij} = [d1] + p [d2]      in A_n(W_2(k)).

    The one loop over the defining relations of lifts L_i over W_2: the
    relations hold mod p iff every d1 is 0, and exactly iff d2 is 0 too.
    """
    for i in range(alg.nvars):
        for j in range(i + 1, alg.nvars):
            om = alg.const(alg.omega_int(i, j), "w2")
            yield (i, j) + w2_decompose_elem(commutator(lifts[i], lifts[j]) - om)
