"""Exact scalars: finite fields F_{p^m} and length-2 Witt vectors W_2(k).

A FieldParams object fixes (p, m, modulus) and interns the small amount of
precomputed data everything else relies on: for m = 1 the table of field
elements, so arithmetic does not allocate.

Witt vectors are pairs (a1, a2) with the standard length-2 laws:

    (a1,a2) + (b1,b2) = (a1+b1, a2+b2+c(a1,b1)),  c(a,b) = (a^p+b^p-(a+b)^p)/p
    (a1,a2) * (b1,b2) = (a1*b1, a1^p*b2 + b1^p*a2)
    p * (a1,a2)       = (0, a1^p)

These laws define W_2(k); the tests check them.  The arithmetic runs in
the isomorphic Galois ring (Z/p^2)[t]/(F~), F~ the modulus read over the
integers (Serre, Local Fields, II 5-6), where (a1, a2) is the residue
[a1] + p*[a2^{1/p}] with [.] the Teichmuller lift: [a] = A^q mod p^2 for
any lift A of a.  A Witt2 holds that residue as m integers mod p^2, so
+, - and p* are coefficientwise and * is a polynomial product; a1 and a2
are read off only where the components are asked for.  The integer t is
the constant residue t mod p^2, and W_2(F_p) is Z/p^2 itself.
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
# Dense univariate arithmetic over F_p, used for modulus validation and
# extension-field element operations, and over Z/p^2 for the Galois ring
# (its modulus is monic, so no division mod p^2 is needed).  Polynomials
# are lists, ascending.


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
    # for m = 1 the p field elements, indexed by residue; () for m > 1
    _elems: tuple = field(default=(), init=False, repr=False, compare=False)

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
        if self.m == 1:
            elems = tuple(FieldElem(self, (r,), _checked=True) for r in range(self.p))
            object.__setattr__(self, "_elems", elems)

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
            return self._elems[c[0]]
        return FieldElem(self, c, _checked=True)

    def from_int(self, t: int) -> FieldElem:
        """Image of the integer t in the prime subfield."""
        if self.m == 1:
            return self._elems[t % self.p]
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
            yield from self._elems
            return
        from itertools import product

        for coeffs in product(range(self.p), repeat=self.m):
            yield self.element(coeffs)

    # -- Witt constructors ---------------------------------------------------

    def witt(self, a1: FieldElem, a2: FieldElem) -> Witt2:
        return Witt2(a1, a2)

    def w2_zero(self) -> Witt2:
        return self.w2_from_int(0)

    def w2_one(self) -> Witt2:
        return self.w2_from_int(1)

    def w2_from_int(self, t: int) -> Witt2:
        """Image of the integer t in W_2(k): the constant residue t mod p^2."""
        return _w2(self, (t % (self.p * self.p),) + (0,) * (self.m - 1))


def _ext_mul(pa: FieldParams, N: int, x: tuple, y: tuple) -> tuple:
    """x * y in (Z/N)[t]/(F~), N = p or p^2; m-tuples of residues mod N."""
    if pa.m == 1:
        return (x[0] * y[0] % N,)
    prod = _uni_mulmod(list(x), list(y), list(pa.modulus), N)
    return tuple(prod + [0] * (pa.m - len(prod)))


def _ext_pow(pa: FieldParams, N: int, x: tuple, e: int) -> tuple:
    """x^e (e >= 0) in (Z/N)[t]/(F~), N = p or p^2."""
    if pa.m == 1:
        return (pow(x[0], e, N),)
    res = _uni_powmod(list(x), e, list(pa.modulus), N)
    return tuple(res + [0] * (pa.m - len(res)))


class _Residues:
    """An element of (Z/N)[t]/(F~), N = p (FieldElem) or p^2 (Witt2): m
    residues mod N in ``coeffs``, ascending powers of t."""

    __slots__ = ("params", "coeffs")

    def _require_same(self, other) -> None:
        if self.params is not other.params and self.params != other.params:
            raise ParamsMismatch(f"{self.params} vs {other.params}")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.params == other.params and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.params.p, self.params.m, self.coeffs))


class FieldElem(_Residues):
    """An element of F_{p^m}: a canonical coefficient vector over F_p."""

    __slots__ = ()

    def __init__(self, params: FieldParams, coeffs: tuple[int, ...], _checked: bool = False):
        if not _checked:
            coeffs = tuple(int(c) % params.p for c in coeffs)
            if len(coeffs) != params.m:
                raise WeyliftError("coefficient vector has wrong length")
        self.params = params
        self.coeffs = coeffs

    def __add__(self, other: FieldElem) -> FieldElem:
        self._require_same(other)
        p = self.params
        if p.m == 1:
            return p._elems[(self.coeffs[0] + other.coeffs[0]) % p.p]
        return FieldElem(
            p, tuple((a + b) % p.p for a, b in zip(self.coeffs, other.coeffs)), _checked=True
        )

    def __sub__(self, other: FieldElem) -> FieldElem:
        self._require_same(other)
        p = self.params
        if p.m == 1:
            return p._elems[(self.coeffs[0] - other.coeffs[0]) % p.p]
        return FieldElem(
            p, tuple((a - b) % p.p for a, b in zip(self.coeffs, other.coeffs)), _checked=True
        )

    def __neg__(self) -> FieldElem:
        p = self.params
        if p.m == 1:
            return p._elems[-self.coeffs[0] % p.p]
        return FieldElem(p, tuple(-a % p.p for a in self.coeffs), _checked=True)

    def __mul__(self, other: FieldElem) -> FieldElem:
        self._require_same(other)
        pa = self.params
        if pa.m == 1:
            return pa._elems[(self.coeffs[0] * other.coeffs[0]) % pa.p]
        return FieldElem(pa, _ext_mul(pa, pa.p, self.coeffs, other.coeffs), _checked=True)

    def __pow__(self, e: int) -> FieldElem:
        if e < 0:
            return self.inverse() ** (-e)
        pa = self.params
        if pa.m == 1:
            return pa._elems[pow(self.coeffs[0], e, pa.p)]
        return FieldElem(pa, _ext_pow(pa, pa.p, self.coeffs, e), _checked=True)

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


class Witt2(_Residues):
    """A length-2 Witt vector (a1, a2) over F_{p^m}.

    Held as the Galois-ring residue [a1] + p*[a2^{1/p}] (m integers mod
    p^2); a1 and a2 are computed on demand.
    """

    __slots__ = ()

    def __init__(self, a1: FieldElem, a2: FieldElem):
        if a1.params != a2.params:
            raise ParamsMismatch("Witt components from different fields")
        pa = a1.params
        p = pa.p
        low = teichmuller(a1).coeffs
        high = a2.pth_root().coeffs
        self.params = pa
        self.coeffs = tuple((x + p * y) % (p * p) for x, y in zip(low, high))

    @property
    def a1(self) -> FieldElem:
        return self.params.element(self.coeffs)

    @property
    def a2(self) -> FieldElem:
        return self.decompose()[1].frobenius()

    def __add__(self, other: Witt2) -> Witt2:
        self._require_same(other)
        pp = self.params.p**2
        return _w2(self.params, tuple((a + b) % pp for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: Witt2) -> Witt2:
        self._require_same(other)
        pp = self.params.p**2
        return _w2(self.params, tuple((a - b) % pp for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> Witt2:
        pp = self.params.p**2
        return _w2(self.params, tuple(-a % pp for a in self.coeffs))

    def __mul__(self, other: Witt2) -> Witt2:
        self._require_same(other)
        pa = self.params
        return _w2(pa, _ext_mul(pa, pa.p**2, self.coeffs, other.coeffs))

    def __pow__(self, e: int) -> Witt2:
        if e < 0:
            raise WeyliftError("negative powers are not defined")
        pa = self.params
        return _w2(pa, _ext_pow(pa, pa.p**2, self.coeffs, e))

    def times_p(self) -> Witt2:
        """Multiplication by p: (a1, a2) -> (0, a1^p)."""
        p = self.params.p
        return _w2(self.params, tuple(p * a % (p * p) for a in self.coeffs))

    def decompose(self) -> tuple[FieldElem, FieldElem]:
        """The unique (b1, b2) with self = [b1] + p*[b2].

        self lifts b1, so [b1] = self^q and b2 = (self - self^q)/p mod p.
        """
        pa = self.params
        p = pa.p
        pp = p * p
        teich = _ext_pow(pa, pp, self.coeffs, pa.q)
        return self.a1, pa.element((x - t) % pp // p for x, t in zip(self.coeffs, teich))

    def __repr__(self) -> str:
        return f"({self.a1!r},{self.a2!r})"


def _w2(params: FieldParams, coeffs: tuple) -> Witt2:
    """The Witt vector with Galois-ring residues ``coeffs`` (already reduced)."""
    x = object.__new__(Witt2)
    x.params = params
    x.coeffs = coeffs
    return x


def teichmuller(a: FieldElem) -> Witt2:
    """Multiplicative lift a -> (a, 0), the residue A^q mod p^2 for a lift A."""
    pa = a.params
    return _w2(pa, _ext_pow(pa, pa.p**2, a.coeffs, pa.q))


def times_p(x: Witt2) -> Witt2:
    return x.times_p()


def w2_decompose(x: Witt2) -> tuple[FieldElem, FieldElem]:
    return x.decompose()
