"""Exact scalars: finite fields F_{p^m} and length-2 Witt vectors W_2(k).

A FieldParams object fixes (p, m, modulus) and interns the small amount of
precomputed data everything else relies on: for m = 1 the table of field
elements, so arithmetic does not allocate.

Witt vectors are pairs (a1, a2) with the standard length-2 laws:

    (a1,a2) + (b1,b2) = (a1+b1, a2+b2+c(a1,b1)),  c(a,b) = (a^p+b^p-(a+b)^p)/p
    (a1,a2) * (b1,b2) = (a1*b1, a1^p*b2 + b1^p*a2)
    p * (a1,a2)       = (0, a1^p)

The carry c is the integral polynomial -sum_{0<k<p} (binom(p,k)/p) a^k b^{p-k}
reduced mod p, evaluated inside k.  It is read off p-th powers of lifts in
the Galois ring W_2(k) = (Z/p^2)[t]/(F~) (the integers mod p^2 over F_p),
as is the image of an integer in W_2(F_p); w2_from_int and w2_to_int are
the two directions of W_2(F_p) = Z/p^2.  W_2(k) has characteristic p^2
and every element decomposes uniquely as [a1] + p*[a2^{1/p}] with [.] the
Teichmuller lift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


# ---------------------------------------------------------------------------
# Dense univariate arithmetic over F_p, used only for modulus validation and
# extension-field element operations.  Polynomials are tuples, ascending.


def _uni_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _uni_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _uni_rem(res, mod, p)


def _uni_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p) if mod[-1] != 1 else 1
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - dm
        q = a[-1] * inv_lead % p
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - q * mi) % p
        _uni_trim(a)
    return _uni_trim(a)


def _uni_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _uni_rem(a, mod, p)
    while e:
        if e & 1:
            result = _uni_mulmod(result, base, mod, p)
        base = _uni_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _uni_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a = _uni_rem(a, b, p)
        a, b = b, a
    return a


def _uni_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    return _uni_trim(out)


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Deterministic irreducibility test for a monic polynomial over F_p."""
    m = len(mod) - 1
    if m < 1:
        return False
    modl = list(mod)
    x = [0, 1]
    # x^(p^m) == x mod f
    xp = x
    for _ in range(m):
        xp = _uni_powmod(xp, p, modl, p)
    if _uni_sub(xp, x, p):
        return False
    # gcd(x^(p^(m/q)) - x, f) == 1 for every prime q | m
    q = 2
    mm = m
    primes = set()
    while mm > 1:
        while mm % q == 0:
            primes.add(q)
            mm //= q
        q += 1
    for q in primes:
        xe = x
        for _ in range(m // q):
            xe = _uni_powmod(xe, p, modl, p)
        g = _uni_gcd(modl, _uni_sub(xe, x, p), p)
        if len(g) != 1:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """Parameters of F_{p^m}: a prime p, degree m, and a modulus for m > 1."""

    p: int
    m: int = 1
    modulus: tuple[int, ...] | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
                mod = self.modulus
            if len(mod) != self.m + 1 or mod[-1] != 1:
                raise WeyliftError("modulus must be monic of degree m")
            if any(not (0 <= c < self.p) for c in mod):
                raise WeyliftError("modulus coefficients must be reduced mod p")
            if not _is_irreducible(mod, self.p):
                raise WeyliftError(f"modulus {mod} is reducible over F_{self.p}")
        p = self.p
        if self.m == 1:
            self._cache["elems"] = tuple(
                FieldElem(self, (r,), _checked=True) for r in range(p)
            )

    # -- element constructors ------------------------------------------------

    @property
    def q(self) -> int:
        return self.p**self.m

    def element(self, coeffs) -> FieldElem:
        """Field element from an iterable of m residues (ascending powers of t)."""
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) != self.m:
            raise WeyliftError(f"expected {self.m} coefficients, got {len(c)}")
        if self.m == 1:
            return self._cache["elems"][c[0]]
        return FieldElem(self, c, _checked=True)

    def from_int(self, t: int) -> FieldElem:
        """Image of the integer t in the prime subfield."""
        if self.m == 1:
            return self._cache["elems"][t % self.p]
        return FieldElem(self, (t % self.p,) + (0,) * (self.m - 1), _checked=True)

    @property
    def zero(self) -> FieldElem:
        return self.from_int(0)

    @property
    def one(self) -> FieldElem:
        return self.from_int(1)

    def all_elements(self):
        """Iterate every element of the field (intended for small fields)."""
        if self.m == 1:
            yield from self._cache["elems"]
            return
        from itertools import product

        for coeffs in product(range(self.p), repeat=self.m):
            yield self.element(coeffs)

    def carry(self, a: FieldElem, b: FieldElem) -> FieldElem:
        """Witt addition carry: (a^p + b^p - (a+b)^p)/p as an element of k.

        Computed in the Galois ring W_2(k) = (Z/p^2)[t]/(F~), with F~ the
        modulus read over the integers (the integers mod p^2 when m = 1):
        for any lifts A, B of a, b the numerator is divisible by p and its
        quotient reduces to the carry mod p.  Square and multiply, O(log p).
        """
        p = self.p
        pp = p * p
        if self.m == 1:
            av, bv = a.coeffs[0], b.coeffs[0]
            x = (pow(av, p, pp) + pow(bv, p, pp) - pow(av + bv, p, pp)) % pp
            return self._cache["elems"][x // p]
        if a.is_zero() or b.is_zero():
            return self.zero
        mod = list(self.modulus)
        A, B = list(a.coeffs), list(b.coeffs)
        powers = [_uni_powmod(x, p, mod, pp) for x in (A, B, [u + v for u, v in zip(A, B)])]
        num = [0] * self.m
        for sign, poly in zip((1, 1, -1), powers):
            for i, c in enumerate(poly):
                num[i] += sign * c
        return FieldElem(self, tuple(c % pp // p for c in num), _checked=True)

    # -- Witt constructors ---------------------------------------------------

    def witt(self, a1: FieldElem, a2: FieldElem) -> Witt2:
        return Witt2(a1, a2)

    def w2_zero(self) -> Witt2:
        return Witt2(self.zero, self.zero)

    def w2_one(self) -> Witt2:
        return Witt2(self.one, self.zero)

    def w2_from_int(self, t: int) -> Witt2:
        """Image of the integer t in W_2(k); depends only on t mod p^2.

        W_2(F_p) = Z/p^2 through (a1, a2) -> a1^p + p a2, so t maps to
        (r, (t - r^p)/p) with r = t mod p, all read mod p^2.
        """
        p = self.p
        pp = p * p
        r = t % p
        return Witt2(self.from_int(r), self.from_int((t - pow(r, p, pp)) % pp // p))

    def w2_to_int(self, x: Witt2) -> int:
        """The integer in [0, p^2) that w2_from_int maps to x; m = 1 only.

        The inverse of w2_from_int: (a1, a2) -> a1^p + p a2 mod p^2, which
        is a ring isomorphism W_2(F_p) -> Z/p^2.
        """
        if self.m != 1:
            raise WeyliftError("w2_to_int needs m = 1: only W_2(F_p) is Z/p^2")
        p = self.p
        pp = p * p
        return (pow(x.a1.coeffs[0], p, pp) + p * x.a2.coeffs[0]) % pp


class FieldElem:
    """An element of F_{p^m}: a canonical coefficient vector over F_p."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: FieldParams, coeffs: tuple[int, ...], _checked: bool = False):
        if not _checked:
            coeffs = tuple(int(c) % params.p for c in coeffs)
            if len(coeffs) != params.m:
                raise WeyliftError("coefficient vector has wrong length")
        self.params = params
        self.coeffs = coeffs

    def _require_same(self, other: FieldElem) -> None:
        if self.params is not other.params and self.params != other.params:
            raise ParamsMismatch(f"{self.params} vs {other.params}")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.params == other.params and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.params.p, self.params.m, self.coeffs))

    def __add__(self, other: FieldElem) -> FieldElem:
        self._require_same(other)
        p = self.params
        if p.m == 1:
            return p._cache["elems"][(self.coeffs[0] + other.coeffs[0]) % p.p]
        return FieldElem(
            p, tuple((a + b) % p.p for a, b in zip(self.coeffs, other.coeffs)), _checked=True
        )

    def __sub__(self, other: FieldElem) -> FieldElem:
        self._require_same(other)
        p = self.params
        if p.m == 1:
            return p._cache["elems"][(self.coeffs[0] - other.coeffs[0]) % p.p]
        return FieldElem(
            p, tuple((a - b) % p.p for a, b in zip(self.coeffs, other.coeffs)), _checked=True
        )

    def __neg__(self) -> FieldElem:
        p = self.params
        if p.m == 1:
            return p._cache["elems"][-self.coeffs[0] % p.p]
        return FieldElem(p, tuple(-a % p.p for a in self.coeffs), _checked=True)

    def __mul__(self, other: FieldElem) -> FieldElem:
        self._require_same(other)
        pa = self.params
        if pa.m == 1:
            return pa._cache["elems"][(self.coeffs[0] * other.coeffs[0]) % pa.p]
        prod = _uni_mulmod(list(self.coeffs), list(other.coeffs), list(pa.modulus), pa.p)
        prod += [0] * (pa.m - len(prod))
        return FieldElem(pa, tuple(prod), _checked=True)

    def __pow__(self, e: int) -> FieldElem:
        if e < 0:
            return self.inverse() ** (-e)
        pa = self.params
        if pa.m == 1:
            return pa._cache["elems"][pow(self.coeffs[0], e, pa.p)]
        res = _uni_powmod(list(self.coeffs), e, list(pa.modulus), pa.p)
        return FieldElem(pa, tuple(res + [0] * (pa.m - len(res))), _checked=True)

    def inverse(self) -> FieldElem:
        """The multiplicative inverse, by Fermat; DivisionByZero at zero.

        An element c of the prime subfield (every element when m = 1) has
        inverse c^(p-2), taken on its residue; any other element a of
        F_q has inverse a^(q-2), since a^(q-1) = 1.
        """
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        pa = self.params
        if not any(self.coeffs[1:]):
            return pa.from_int(pow(self.coeffs[0], pa.p - 2, pa.p))
        return self ** (pa.q - 2)

    def frobenius(self) -> FieldElem:
        """a -> a^p."""
        if self.params.m == 1:
            return self
        return self ** self.params.p

    def pth_root(self) -> FieldElem:
        """The unique b with b^p = a, namely a^(p^(m-1))."""
        if self.params.m == 1:
            return self
        b = self
        for _ in range(self.params.m - 1):
            b = b.frobenius()
        return b

    def __repr__(self) -> str:
        if self.params.m == 1:
            return str(self.coeffs[0])
        return "(" + "+".join(
            f"{c}t^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c
        ) + ")" if any(self.coeffs) else "0"


class Witt2:
    """A length-2 Witt vector (a1, a2) over F_{p^m}."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1: FieldElem, a2: FieldElem):
        if a1.params != a2.params:
            raise ParamsMismatch("Witt components from different fields")
        self.a1 = a1
        self.a2 = a2

    @property
    def params(self) -> FieldParams:
        return self.a1.params

    def is_zero(self) -> bool:
        return self.a1.is_zero() and self.a2.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Witt2):
            return NotImplemented
        return self.a1 == other.a1 and self.a2 == other.a2

    def __hash__(self) -> int:
        return hash((self.a1, self.a2))

    def __add__(self, other: Witt2) -> Witt2:
        carry = self.params.carry(self.a1, other.a1)
        return Witt2(self.a1 + other.a1, self.a2 + other.a2 + carry)

    def __neg__(self) -> Witt2:
        # (a1,a2) + (-a1, x) = 0 forces x = -a2 - carry(a1, -a1).
        carry = self.params.carry(self.a1, -self.a1)
        return Witt2(-self.a1, -self.a2 - carry)

    def __sub__(self, other: Witt2) -> Witt2:
        # (d, x) + (b1, b2) = (a1, a2) with d = a1 - b1 forces x = a2 - b2 - carry(d, b1).
        d = self.a1 - other.a1
        return Witt2(d, self.a2 - other.a2 - self.params.carry(d, other.a1))

    def __mul__(self, other: Witt2) -> Witt2:
        return Witt2(
            self.a1 * other.a1,
            self.a1.frobenius() * other.a2 + other.a1.frobenius() * self.a2,
        )

    def __pow__(self, e: int) -> Witt2:
        if e < 0:
            raise WeyliftError("negative powers are not defined")
        result = self.params.w2_one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def times_p(self) -> Witt2:
        """Multiplication by p: (a1, a2) -> (0, a1^p)."""
        return Witt2(self.params.zero, self.a1.frobenius())

    def decompose(self) -> tuple[FieldElem, FieldElem]:
        """The unique (b1, b2) with self = [b1] + p*[b2]."""
        return (self.a1, self.a2.pth_root())

    def __repr__(self) -> str:
        return f"({self.a1!r},{self.a2!r})"


def teichmuller(a: FieldElem) -> Witt2:
    """Multiplicative lift a -> (a, 0)."""
    return Witt2(a, a.params.zero)


def times_p(x: Witt2) -> Witt2:
    return x.times_p()


def w2_decompose(x: Witt2) -> tuple[FieldElem, FieldElem]:
    return x.decompose()
