"""Exact scalars: finite fields F_{p^m} and length-2 Witt vectors W_2(k).

A FieldParams object fixes (p, m, modulus) and checks them: p prime, and
for m > 1 a monic irreducible modulus.  The residue rings that arithmetic
runs in (ResidueRing, below) are built once per field and memoised by value.

Witt vectors are pairs (a1, a2) with the standard length-2 laws:

    (a1,a2) + (b1,b2) = (a1+b1, a2+b2+c(a1,b1)),  c(a,b) = (a^p+b^p-(a+b)^p)/p
    (a1,a2) * (b1,b2) = (a1*b1, a1^p*b2 + b1^p*a2)
    p * (a1,a2)       = (0, a1^p)

These laws define W_2(k); the tests check them.  The arithmetic runs in
the isomorphic Galois ring (Z/p^2)[t]/(F~), F~ the modulus read over the
integers (Serre, Local Fields, II 5-6), where (a1, a2) is the residue
[a1] + p*[a2^{1/p}] with [.] the Teichmuller lift: [a] = A^q mod p^2 for
any lift A of a; a1 and a2 are read off only where the components are
asked for.  The integer t is the constant residue t mod p^2, and W_2(F_p)
is Z/p^2 itself.

Every residue, of k or of W_2(k), is one int of a ResidueRing: the residue
mod N = p or p^2 for m = 1, and for m > 1 its m coefficients mod N packed
as the digits of one int (Kronecker substitution), so +, - and * are int
operations followed by one reduction.  FieldElem and Witt2 wrap such an
int; sparse elements (weyl.SparseElem) store the bare ints and build the
objects only at their boundaries: constructors that take coefficient
objects, and the decoded ``terms`` dict.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

from .errors import DivisionByZero, ParamsMismatch, WeyliftError

# Built-in irreducible moduli (coefficients ascending, monic) for the small
# extension fields exercised by the test corpus.
_BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),  # t^2 + t + 1
    (3, 2): (1, 0, 1),  # t^2 + 1
    (5, 2): (2, 0, 1),  # t^2 + 2
}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Whether the monic mod (degree m > 1) is irreducible over F_p.

    In R = F_p[t]/(mod), t^(p^m) = t makes mod squarefree with factors of
    degrees dividing m; it is irreducible iff for every prime r | m the
    element g = t^(p^(m/r)) - t is a unit, and then g^(p^m - 1) = 1 in
    every factor field of R.
    """
    m = len(mod) - 1
    R = ResidueRing(p, m, mod, "k")
    t = 1 << R.D
    if R.pow(t, p**m) != t:
        return False
    for r in {r for r in range(2, m + 1) if m % r == 0 and _is_prime(r)}:
        g = R.reduce(R.pow(t, p ** (m // r)) - t + R.bias)
        if R.pow(g, p**m - 1) != 1:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """Parameters of F_{p^m}: a prime p, degree m, and a modulus for m > 1."""

    p: int
    m: int = 1
    modulus: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not (2 <= self.p <= 2**15) or not _is_prime(self.p):
            raise WeyliftError(f"p must be a prime in [2, 2^15], got {self.p}")
        if self.m < 1:
            raise WeyliftError(f"m must be >= 1, got {self.m}")
        if self.m == 1:
            if self.modulus is not None:
                raise WeyliftError("modulus only applies to extension fields (m > 1)")
        else:
            mod = self.modulus
            if mod is None:
                mod = _BUILTIN_MODULI.get((self.p, self.m))
                if mod is None:
                    raise WeyliftError(
                        f"no built-in modulus for (p, m) = ({self.p}, {self.m}); supply one"
                    )
                object.__setattr__(self, "modulus", mod)
            if len(mod) != self.m + 1 or mod[-1] != 1:
                raise WeyliftError("modulus must be monic of degree m")
            if any(not (0 <= c < self.p) for c in mod):
                raise WeyliftError("modulus coefficients must be reduced mod p")
            if not _is_irreducible(mod, self.p):
                raise WeyliftError(f"modulus {mod} is reducible over F_{self.p}")

    # -- element constructors ------------------------------------------------

    @property
    def q(self) -> int:
        return self.p**self.m

    def element(self, coeffs) -> FieldElem:
        """Field element from an iterable of m residues (ascending powers of t)."""
        return FieldElem(self, coeffs)

    def from_int(self, t: int) -> FieldElem:
        """Image of the integer t in the prime subfield."""
        return FieldElem._of(self, t % self.p)

    @property
    def zero(self) -> FieldElem:
        return self.from_int(0)

    @property
    def one(self) -> FieldElem:
        return self.from_int(1)

    def all_elements(self):
        """Iterate every element of the field (intended for small fields)."""
        for coeffs in product(range(self.p), repeat=self.m):
            yield self.element(coeffs)

    # -- Witt constructors ---------------------------------------------------

    def w2_one(self) -> Witt2:
        return self.w2_from_int(1)

    def w2_from_int(self, t: int) -> Witt2:
        """Image of the integer t in W_2(k): the constant residue t mod p^2."""
        return Witt2._of(self, t % (self.p * self.p))


def square_multiply(x, e: int, mul):
    """x^e for e >= 1 by square and multiply with ``mul``, never multiplying
    by one: (bits - 1) squarings and (ones - 1) products."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if not e:
            return result
        x = mul(x, x)


# ---------------------------------------------------------------------------
# residues as ints


# Unreduced products a Kronecker-packed residue may sum with no carry between
# digits: the Weyl kernel adds at most 2 |A| |B| into one output term.
_SUMMANDS = 2**64


def _digit_width(m: int, N: int) -> int:
    """Bits per digit for _SUMMANDS products of two residues times a weight
    < N: a digit of such a product is at most m (N-1)^2 (N-1)."""
    return (_SUMMANDS * m * (N - 1) ** 3).bit_length()


class ResidueRing:
    """k ("k", N = p) or W_2(k) ("w2", N = p^2) with its elements as ints.

    For m = 1 an element is its residue mod N.  For m > 1 it is the
    Galois-ring residue sum_i a_i t^i as sum_i a_i 2^(D i); D is one per
    field, from W_2's N, so a residue of k is also the residue of its
    digitwise lift to W_2.  A product of residues is one int product whose
    digits are the polynomial product's coefficients, and sums of such
    products (times integers < N) never carry (_digit_width); ``reduce``
    takes any such sum to canonical form: digits mod N, polynomial mod F~.
    An integer t is the residue t mod N, equal residues are equal ints, 0
    is zero, and x - y is reduce(x - y + bias) with ``bias`` N in every
    digit.  ``unit`` is nonzero exactly on the units; ``k`` is the ring of k
    of the same field.
    """

    def __init__(self, p: int, m: int, modulus, ring: str):
        N = p if ring == "k" else p * p
        self.key = (p, m, modulus, ring)
        self.p, self.m, self.N = p, m, N
        self.unit = bool if ring == "k" else p.__rmod__ if m == 1 else self._unit
        self.elem = FieldElem if ring == "k" else Witt2
        self.k = self if ring == "k" else residue_ring(p, m, modulus, "k")
        if m == 1:
            self.D = 0
            self.bias = 0
            self.reduce = N.__rmod__
            return
        self.D = D = _digit_width(m, p * p)
        self.bias = sum(N << (D * i) for i in range(m))
        # t^i mod F~ for i = m .. 2m-2, as m coefficients mod N
        fold = []
        power = [0] * (m - 1) + [1]
        for _ in range(m - 1):
            top = power[-1]
            power = [(x - top * c) % N for x, c in zip([0] + power[:-1], modulus)]
            fold.append(tuple(power))
        shifts, mask = tuple(D * i for i in range(2 * m - 1)), (1 << D) - 1

        def reduce(x: int) -> int:
            digits = [(x >> s) & mask for s in shifts]
            out = 0
            for j in range(m - 1, -1, -1):
                v = digits[j]
                for d, f in zip(digits[m:], fold):
                    v += d * f[j]
                out = (out << D) | (v % N)
            return out

        self.reduce = reduce

    def digits(self, x: int) -> tuple:
        """The m coefficients of the canonical residue x."""
        if self.m == 1:
            return (x,)
        return tuple((x >> (self.D * i)) & ((1 << self.D) - 1) for i in range(self.m))

    def pow(self, x: int, e: int) -> int:
        """x^e (e >= 0): builtin pow for m = 1, else square_multiply."""
        if self.m == 1:
            return pow(x, e, self.N)
        return square_multiply(x, e, lambda a, b: self.reduce(a * b)) if e else 1

    def split(self, x: int) -> tuple:
        """(b1, b2), residues of k (ring ``k``), with the W_2 residue
        x = [b1] + p*[b2]: x lifts b1, so [b1] = b1^q and b2 = (x - b1^q)/p
        mod p.  The Witt components of x are (b1, b2^p)."""
        b1 = self.k.reduce(x)
        return b1, self.reduce(x - self.pow(b1, self.p**self.m) + self.bias) // self.p

    def _unit(self, x: int) -> int:
        return any(d % self.p for d in self.digits(x))

    def encode(self, c: _Residues) -> int:
        """The residue of a FieldElem (ring "k") or Witt2 ("w2") of this field."""
        if c.res is not self and c.res.key != self.key:
            raise ParamsMismatch(f"coefficient of {c.res.key} in ring {self.key}")
        return c.r

    def decode(self, field: FieldParams, x: int) -> _Residues:
        """The FieldElem or Witt2 of ``field`` with canonical residue x."""
        return self.elem._of(field, x, self)


@functools.cache
def residue_ring(p: int, m: int, modulus, ring: str) -> ResidueRing:
    """The ResidueRing of F_{p^m} (``modulus``, None for m = 1), memoised by value."""
    return ResidueRing(p, m, modulus, ring)


class _Residues:
    """An element of (Z/N)[t]/(F~), N = p (FieldElem) or p^2 (Witt2): the int
    ``r`` of its ResidueRing ``res``; ``coeffs`` are its m residues mod N,
    ascending powers of t."""

    __slots__ = ("params", "res", "r")
    _ring = "k"

    @classmethod
    def _of(cls, params: FieldParams, r: int, res: ResidueRing | None = None):
        x = object.__new__(cls)
        x.params, x.r = params, r
        x.res = res or residue_ring(params.p, params.m, params.modulus, cls._ring)
        return x

    def _with(self, r: int):
        x = object.__new__(type(self))
        x.params, x.res, x.r = self.params, self.res, r
        return x

    def _other(self, other) -> int:
        if self.params is not other.params and self.params != other.params:
            raise ParamsMismatch(f"{self.params} vs {other.params}")
        return other.r

    @property
    def coeffs(self) -> tuple:
        return self.res.digits(self.r)

    def is_zero(self) -> bool:
        return not self.r

    def __bool__(self) -> bool:
        return bool(self.r)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.params == other.params and self.r == other.r

    def __hash__(self) -> int:
        return hash((self.params.p, self.params.m, self.coeffs))

    def __add__(self, other):
        return self._with(self.res.reduce(self.r + self._other(other)))

    def __sub__(self, other):
        return self._with(self.res.reduce(self.r - self._other(other) + self.res.bias))

    def __neg__(self):
        return self._with(self.res.reduce(self.res.bias - self.r))

    def __mul__(self, other):
        return self._with(self.res.reduce(self.r * self._other(other)))

    def __pow__(self, e: int):
        if e < 0:
            raise WeyliftError("negative powers are not defined")
        return self._with(self.res.pow(self.r, e))


class FieldElem(_Residues):
    """An element of F_{p^m}: a canonical coefficient vector over F_p."""

    __slots__ = ()

    def __init__(self, params: FieldParams, coeffs):
        c = tuple(int(x) % params.p for x in coeffs)
        if len(c) != params.m:
            raise WeyliftError(f"expected {params.m} coefficients, got {len(c)}")
        self.params = params
        self.res = residue_ring(params.p, params.m, params.modulus, "k")
        self.r = sum(x << (self.res.D * i) for i, x in enumerate(c))

    def __pow__(self, e: int) -> FieldElem:
        return self.inverse() ** (-e) if e < 0 else _Residues.__pow__(self, e)

    def inverse(self) -> FieldElem:
        """The multiplicative inverse a^(q-2), by Fermat (a^(q-1) = 1), through
        the one field power; DivisionByZero at zero."""
        if not self.r:
            raise DivisionByZero("inverse of zero")
        return self ** (self.params.q - 2)

    def frobenius(self) -> FieldElem:
        """a -> a^p."""
        return self ** self.params.p

    def pth_root(self) -> FieldElem:
        """The unique b with b^p = a, namely a^(p^(m-1))."""
        return self ** (self.params.p ** (self.params.m - 1))

    def __repr__(self) -> str:
        c = self.coeffs
        if self.params.m == 1:
            return str(c[0])
        if not self.r:
            return "0"
        return "(" + "+".join(f"{x}t^{i}" if i else str(x) for i, x in enumerate(c) if x) + ")"


class Witt2(_Residues):
    """A length-2 Witt vector (a1, a2) over F_{p^m}.

    Held as the Galois-ring residue [a1] + p*[a2^{1/p}]; a1 and a2 are
    computed on demand.
    """

    __slots__ = ()
    _ring = "w2"

    def __init__(self, a1: FieldElem, a2: FieldElem):
        if a1.params != a2.params:
            raise ParamsMismatch("Witt components from different fields")
        pa = a1.params
        self.params = pa
        self.res = residue_ring(pa.p, pa.m, pa.modulus, "w2")
        self.r = self.res.reduce(teichmuller(a1).r + pa.p * a2.pth_root().r)

    @property
    def a1(self) -> FieldElem:
        return self.decompose()[0]

    @property
    def a2(self) -> FieldElem:
        return self.decompose()[1].frobenius()

    def times_p(self) -> Witt2:
        """Multiplication by p: (a1, a2) -> (0, a1^p)."""
        return self._with(self.res.reduce(self.params.p * self.r))

    def decompose(self) -> tuple[FieldElem, FieldElem]:
        """The unique (b1, b2) with self = [b1] + p*[b2] (ResidueRing.split)."""
        k = self.res.k
        return tuple(FieldElem._of(self.params, b, k) for b in self.res.split(self.r))

    def __repr__(self) -> str:
        return f"({self.a1!r},{self.a2!r})"


def teichmuller(a: FieldElem) -> Witt2:
    """Multiplicative lift a -> (a, 0), the residue A^q mod p^2 for a lift A."""
    pa = a.params
    w2 = residue_ring(pa.p, pa.m, pa.modulus, "w2")
    return Witt2._of(pa, w2.pow(a.r, pa.q), w2)
