"""The Weyl algebra A_n over k = F_{p^m} and over W_2(k), in normal order.

Generators z_1, ..., z_2n satisfy [z_i, z_j] = omega_{ij} with omega the
block matrix [[0, -I_n], [I_n, 0]]; the conjugate pairs are (l, n+l).  Every
element is stored as a sparse map from normally ordered monomials
z_1^{e_1} ... z_2n^{e_2n} to nonzero coefficients.

Multiplication uses the closed contraction formula (pairs are independent
because the brackets are central):

    z_{n+l}^a z_l^b = sum_k binom(a,k) binom(b,k) k! z_l^{b-k} z_{n+l}^{a-k}

Inside the product every exponent vector is one int: a fixed-width field
per variable (8, 16, 32 or 64 bits, picked from the sum of the operands'
largest exponents; larger sums raise WeyliftError), after the packed
exponent vectors of Monagan and Pearce (CASC 2007).  A monomial product is
one addition, a k-fold contraction of pair l subtracts
k * pack(e_l + e_{n+l}), the output terms merge in a dict keyed by ints, and
each is unpacked to its tuple once.  Terms keep tuple keys everywhere else.

Coefficients are stored as FieldElem / Witt2 objects.  Over F_p (m = 1)
the product reads them at its boundary: F_p is Z/p and W_2(F_p) is Z/p^2,
and either object holds its residue in coeffs[0], so the contraction runs
on plain integers mod p or p^2, and each output coefficient is reduced once
and converted back by ring_from_int.  For m > 1 the same loop runs on the
objects.  Over W_2 two multiples of p (all residues divisible by p, as most
terms of the W_2 p-th powers are) multiply to 0, so an A term divisible by
p meets only the unit terms of B.  The packing routines, the pair steps,
the contraction weights and the modulus are built once per field, n, ring
and width and memoised by value, so every equal algebra shares them: most
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
import struct
from dataclasses import dataclass

from .errors import NotCentral, ParamsMismatch, WeyliftError
from .scalars import FieldParams, teichmuller

NEG_INF = float("-inf")


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

    def ring_zero(self, ring: str):
        return self.field.zero if ring == "k" else self.field.w2_zero()

    def ring_one(self, ring: str):
        return self.field.one if ring == "k" else self.field.w2_one()

    def ring_from_int(self, ring: str, t: int):
        if ring == "k":
            return self.field.from_int(t)
        return self.field.w2_from_int(t)

    # -- element constructors ------------------------------------------------

    def zero_elem(self, ring: str = "k") -> WeylElem:
        return WeylElem(self, ring, {})

    def one_elem(self, ring: str = "k") -> WeylElem:
        return WeylElem(self, ring, {(0,) * self.nvars: self.ring_one(ring)})

    def const(self, t: int, ring: str = "k") -> WeylElem:
        """The integer t as a constant of A_n(k) or A_n(W_2(k)); 0 is the empty element."""
        return self.monomial((0,) * self.nvars, self.ring_from_int(ring, t), ring)

    def gen(self, i: int, ring: str = "k") -> WeylElem:
        """The generator z_{i+1} (0-based index i)."""
        if not 0 <= i < self.nvars:
            raise WeyliftError(f"generator index {i} out of range")
        exps = [0] * self.nvars
        exps[i] = 1
        return WeylElem(self, ring, {tuple(exps): self.ring_one(ring)})

    def monomial(self, exps, coeff=None, ring: str = "k") -> WeylElem:
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise WeyliftError(f"bad exponent vector {exps}")
        if coeff is None:
            coeff = self.ring_one(ring)
        if not coeff:
            return WeylElem(self, ring, {})
        return WeylElem(self, ring, {exps: coeff})

    def from_terms(self, terms: dict, ring: str = "k") -> WeylElem:
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise WeyliftError(f"bad exponent vector {exps}")
            if c:
                clean[exps] = c
        return WeylElem(self, ring, clean)


class SparseElem:
    """A sparse map from exponent vectors to nonzero coefficients.

    The arithmetic WeylElem and center.Poly share.  A subclass names its
    coefficient ring ("k" or "w2") in ``ring`` and the variable letter in
    ``var``; operands must agree on the algebra, the ring and the letter.
    It supplies ``_like`` (an element of its own kind with the given terms)
    and its own product.

    Instances are treated as immutable: no method mutates terms after
    construction, so sharing across threads or caches is safe.
    """

    __slots__ = ("alg", "terms")

    def _like(self, terms: dict):
        raise NotImplementedError

    def _require_compatible(self, other) -> None:
        if (self.alg, self.ring, self.var) != (other.alg, other.ring, other.var):
            raise ParamsMismatch(
                f"operands from different algebras, rings or variables: "
                f"{self.ring}/{self.var} vs {other.ring}/{other.var}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.alg, self.ring, self.var) == (other.alg, other.ring, other.var) and (
            self.terms == other.terms
        )

    __hash__ = None

    def degree(self):
        """Total degree; minus infinity for the zero element."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.alg.ring_zero(self.ring))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        v = self.var
        bits = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)[:8]:
            mono = "*".join(
                f"{v}{i + 1}^{e}" if e > 1 else f"{v}{i + 1}" for i, e in enumerate(exps) if e
            )
            c = self.terms[exps]
            bits.append(f"{c!r}*{mono}" if mono else f"{c!r}")
        tail = " + ..." if len(self.terms) > 8 else ""
        return " + ".join(bits) + tail

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        self._require_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return self._like(out)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        self._require_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = -c if s is None else s - c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return self._like(out)

    def scale(self, c):
        if not c:
            return self._like({})
        out = {}
        for e, v in self.terms.items():
            w = c * v
            if w:
                out[e] = w
        return self._like(out)

    def __pow__(self, e: int):
        if e < 0:
            raise WeyliftError("negative powers are not defined")
        if not e:
            return self._like({(0,) * self.alg.nvars: self.alg.ring_one(self.ring)})
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def pderiv(self, i: int):
        """Formal partial derivative in variable i (0-based), in characteristic p.

        For a Weyl element this is the commutator with a conjugate generator:
        [z_{n+l}, f] = df/dz_l and [z_l, f] = -df/dz_{n+l}.
        """
        alg, ring = self.alg, self.ring
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            w = c * alg.ring_from_int(ring, e[i])
            if w:
                out[tuple(x - 1 if j == i else x for j, x in enumerate(e))] = w
        return self._like(out)


class WeylElem(SparseElem):
    """A sparse element of A_n over k ("k") or over W_2(k) ("w2")."""

    __slots__ = ("ring",)
    var = "z"

    def __init__(self, alg: AlgebraParams, ring: str, terms: dict):
        if ring not in ("k", "w2"):
            raise WeyliftError(f"unknown coefficient ring {ring!r}")
        self.alg = alg
        self.ring = ring
        self.terms = terms

    def _like(self, terms: dict) -> WeylElem:
        return WeylElem(self.alg, self.ring, terms)

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other: WeylElem) -> WeylElem:
        return _contract(self, other)

    def times_central_monomial(self, exps, coeff=None) -> WeylElem:
        """Multiply by the central monomial z^exps (all exponents divisible by p).

        Central monomials contract with nothing, so this is an exponent shift.
        Over W_2(k) no nonconstant monomial is central ([z_2, z_1^p] = p z_1^(p-1)).
        """
        p = self.alg.field.p
        exps = tuple(int(e) for e in exps)
        if self.ring != "k" or any(e % p for e in exps):
            raise NotCentral(f"monomial {exps} is not central over {self.ring}")
        out = {}
        for e, c in self.terms.items():
            shifted = tuple(a + b for a, b in zip(e, exps))
            v = c if coeff is None else coeff * c
            if v:
                out[shifted] = v
        return WeylElem(self.alg, self.ring, out)

    # -- characteristic-p structure ------------------------------------------

    def p_power(self) -> WeylElem:
        """f^p by square and multiply."""
        return self ** self.alg.field.p

    def is_central(self) -> bool:
        """True when every exponent is divisible by p (membership in Z)."""
        p = self.alg.field.p
        return all(all(x % p == 0 for x in e) for e in self.terms)

    def to_center_poly(self):
        """Rewrite a central element as a polynomial in x_i = z_i^p."""
        from .center import Poly

        p = self.alg.field.p
        if not self.is_central():
            raise NotCentral("element has an exponent not divisible by p")
        return Poly(self.alg, "x", {tuple(x // p for x in e): c for e, c in self.terms.items()})


# ---------------------------------------------------------------------------
# multiplication


def _contract(A: WeylElem, B: WeylElem, bracket: bool = False) -> WeylElem:
    """A * B, or [A, B] = A * B - B * A when ``bracket``, on packed exponents.

    For m = 1 the coefficients travel as ints mod q (module docstring); for
    m > 1 the same loop runs on the FieldElem / Witt2 objects.  Pairs of two
    multiples of p are never visited over W_2, so every visited pair has a
    nonzero coefficient c.  The bracket takes each A term through the B
    terms twice: the contractions of z^a z^b enter with c, then those of
    z^b z^a with -c, and the k = 0 part z^(a+b) they share is never
    emitted.  Output terms keep first-insertion order, A-major.
    """
    A._require_compatible(B)
    alg, ring, n = A.alg, A.ring, A.alg.n
    if not A.terms or not B.terms:
        return WeylElem(alg, ring, {})
    top = max(map(max, A.terms)) + max(map(max, B.terms))
    if top >> 64:
        raise WeyliftError(f"exponents summing to {top} >= 2^64 are not supported")
    pack, unpack, size, rows, new_row, q = _context(alg.field, n, ring, _FORMATS[top.bit_length()])
    p = alg.field.p

    def unit(c):
        return ring == "k" or (c.coeffs[0] % p if q else any(r % p for r in c.coeffs))

    # B term: packed exponents, coefficient, e, and whether it is a unit.
    # Over W_2 a pair of two multiples of p vanishes mod p^2, so an A term
    # divisible by p meets only the unit terms of B.
    b_terms = [
        (int.from_bytes(pack(*e), "little"), c.coeffs[0] if q else c, e, unit(c))
        for e, c in B.terms.items()
    ]
    b_units = [t for t in b_terms if t[3]]
    out: dict = {}
    get = out.get
    for ea, coeff in A.terms.items():
        pa, ca = int.from_bytes(pack(*ea), "little"), coeff.coeffs[0] if q else coeff
        # (l, j, x): pair l contracts x = ea[n+l] with eb[j], j = l, for
        # z^a z^b; the bracket adds x = ea[l] against eb[n+l] for z^b z^a,
        # with -c_a (a contraction's weight is symmetric in the exponents)
        orders = [([(l, l, x) for l, x in enumerate(ea[n:]) if x], ca)]
        if bracket:
            orders.append(([(l, n + l, x) for l, x in enumerate(ea[:n]) if x], -ca))
        b_meet = b_terms if unit(coeff) else b_units
        for links, c_a in orders:
            for pb, cb, eb, _ in b_meet:
                c = c_a * cb % q if q else c_a * cb
                parts = None
                for l, j, x in links:
                    if y := eb[j]:
                        row = rows.get((l, x, y))
                        if row is None:
                            row = rows[(l, x, y)] = new_row(l, x, y)
                        if row:
                            parts = [
                                (u - d, v if w is None else v * w)
                                for u, v in (parts or ((pa + pb, c),))
                                for d, w in row
                            ]
                # parts[0], or the pair alone when nothing contracts, is
                # z^(a+b), which cancels in the bracket
                if parts is None:
                    if not bracket:
                        key = pa + pb
                        s = get(key)
                        out[key] = c if s is None else s + c
                else:
                    for key, v in parts[bracket:]:
                        s = get(key)
                        out[key] = v if s is None else s + v
    if q:
        from_int = alg.field.from_int if ring == "k" else alg.field.w2_from_int
        terms = {
            unpack(x.to_bytes(size, "little")): from_int(r) for x, c in out.items() if (r := c % q)
        }
    else:
        terms = {unpack(x.to_bytes(size, "little")): c for x, c in out.items() if c}
    return WeylElem(alg, ring, terms)


# the packing format of each bit length 0..64 of the exponent sum
_FORMATS = tuple("B" if b <= 8 else "H" if b <= 16 else "I" if b <= 32 else "Q" for b in range(65))


@functools.cache
def _context(field: FieldParams, n: int, ring: str, fmt: str) -> tuple:
    """The product's static set-up for A_n over ``field``, ``ring``, struct format ``fmt``.

    An exponent vector is packed into one int with a fixed-width unsigned
    field per variable (8, 16, 32 or 64 bits for "B", "H", "I", "Q"),
    variable 0 lowest, so a monomial product is one addition and a k-fold
    contraction of pair l subtracts k * (pack(e_l) + pack(e_{n+l})).
    Returns (pack, unpack, size, rows, new_row, q): the struct routines
    between exponent tuples and little-endian bytes of ``size`` bytes; the
    table (l, a, b) -> row that new_row(l, a, b) fills, a row being () when
    no contraction survives, else (k * step_l, weight) from k = 0 (weight
    None); and the modulus q of the int coefficients (None for m > 1).
    Memoised by value, so every equal algebra shares one row table; the
    caller decodes residues with its own field.
    """
    st = struct.Struct(f"<{2 * n}{fmt}")
    width = 8 * st.size // (2 * n)
    q = None if field.m > 1 else field.p if ring == "k" else field.p**2
    # t -> t mod q, or the ring element for m > 1
    image = q.__rmod__ if q else field.from_int if ring == "k" else field.w2_from_int

    def new_row(l: int, a: int, b: int) -> tuple:
        step = (1 << (width * l)) + (1 << (width * (n + l)))
        row = _contraction_row(a, b, field.p, image)
        return ((0, None),) + tuple((k * step, w) for k, w in row) if row else ()

    return st.pack, st.unpack, st.size, {}, new_row, q


def _contraction_row(a: int, b: int, p: int, image) -> tuple:
    """The contractions k >= 1 between z_{n+l}^a and z_l^b with a nonzero weight.

    (k, image(w_k)) for the k in 1..min(a, b) whose weight w_k = binom(a,k)
    binom(b,k) k! has a nonzero image; ``image`` reads an integer mod p^2
    (ints mod q | p^2, or ring elements).  The weights come from one running
    product w_k = w_{k-1} (a-k+1)(b-k+1) / k, carried as a p-adic valuation
    v and units mod p^2, in place of three big binomials and a factorial
    per k.  From k = 2p on, p^2 divides k! and every weight vanishes.
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


def mono_mul(alg: AlgebraParams, ea, eb, ring: str = "k") -> WeylElem:
    """Normal-ordered product of the bare monomials z^ea and z^eb."""
    return alg.monomial(ea, ring=ring) * alg.monomial(eb, ring=ring)


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


def teich_lift(f: WeylElem) -> WeylElem:
    """Coefficientwise Teichmuller lift A_n(k) -> A_n(W_2(k)).

    Multiplicative on coefficients but not additive: over F_3 the lift of
    2*z_1 is (2,0)*z_1 while lift(z_1) + lift(z_1) carries to (2,1)*z_1.
    """
    if f.ring != "k":
        raise WeyliftError("teich_lift expects an element over k")
    return WeylElem(f.alg, "w2", {e: teichmuller(c) for e, c in f.terms.items()})


def times_p_elem(F: WeylElem) -> WeylElem:
    """Multiplication by p over W_2(k), coefficientwise (0, a1^p).

    A mod-p element is read through its Teichmuller lift; the result only
    depends on the class mod p, so this is well defined on either ring.
    """
    if F.ring == "k":
        F = teich_lift(F)
    return WeylElem(F.alg, "w2", {e: pc for e, c in F.terms.items() if (pc := c.times_p())})


def w2_decompose_elem(F: WeylElem) -> tuple[WeylElem, WeylElem]:
    """Coefficientwise Witt decomposition F = teich(f1) + p * teich(f2)."""
    if F.ring != "w2":
        raise WeyliftError("decompose expects an element over W_2(k)")
    t1 = {}
    t2 = {}
    for e, c in F.terms.items():
        b1, b2 = c.decompose()
        if b1:
            t1[e] = b1
        if b2:
            t2[e] = b2
    return WeylElem(F.alg, "k", t1), WeylElem(F.alg, "k", t2)
