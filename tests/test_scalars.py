"""Finite field and length-2 Witt vector arithmetic.

The load-bearing checks are the exhaustive ring isomorphism W_2(F_p) = Z/p^2
via h(a1, a2) = a1^p + p a2^p mod p^2, for p in {2, 3, 5, 7}, both
operations and every pair of elements, and the Witt component laws over
W_2(F_4) and W_2(F_9) (exhaustive) and W_2(F_{32749^2}) (sampled).  Both
read a Witt vector only through its components a1, a2, never through the
Galois-ring residues it is stored as.
"""

from __future__ import annotations

import itertools
import random
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from weylift.errors import DivisionByZero, WeyliftError
from weylift.scalars import FieldParams, Witt2, teichmuller

PRIMES = (2, 3, 5, 7)


def _iso(field: FieldParams, w: Witt2) -> int:
    """The ghost-style bijection W_2(F_p) -> Z/p^2."""
    p = field.p
    a1 = w.a1.coeffs[0]
    a2 = w.a2.coeffs[0]
    return (pow(a1, p, p * p) + p * pow(a2, p, p * p)) % (p * p)


@pytest.mark.parametrize("p", PRIMES)
def test_w2_iso_exhaustive(p):
    field = FieldParams(p)
    elems = [Witt2(a, b) for a in field.all_elements() for b in field.all_elements()]
    images = {_iso(field, w) for w in elems}
    assert images == set(range(p * p))
    for u, v in itertools.product(elems, repeat=2):
        assert _iso(field, u + v) == (_iso(field, u) + _iso(field, v)) % (p * p)
        assert _iso(field, u * v) == (_iso(field, u) * _iso(field, v)) % (p * p)


@pytest.mark.parametrize("p", PRIMES)
def test_times_p_exhaustive(p):
    field = FieldParams(p)
    for a in field.all_elements():
        for b in field.all_elements():
            w = Witt2(a, b)
            by_add = field.w2_from_int(0)
            for _ in range(p):
                by_add = by_add + w
            assert w.times_p() == by_add
            assert w.times_p() == Witt2(field.zero, a.frobenius())


@pytest.mark.parametrize("p", PRIMES)
def test_w2_from_int_matches_iso(p):
    field = FieldParams(p)
    for t in range(p * p):
        assert _iso(field, field.w2_from_int(t)) == t
    assert field.w2_from_int(p * p) == field.w2_from_int(0)
    assert field.w2_from_int(-1) == -field.w2_one()


def test_w2_iso_sampled_at_largest_p():
    """The closed-form carry and integer map at p = 32749, the top of the range."""
    field = FieldParams(32749)
    p = field.p
    rng = random.Random(32749)

    def draw():
        return Witt2(field.from_int(rng.randrange(p)), field.from_int(rng.randrange(p)))

    for _ in range(200):
        u, v = draw(), draw()
        assert _iso(field, u + v) == (_iso(field, u) + _iso(field, v)) % (p * p)
        assert _iso(field, u * v) == (_iso(field, u) * _iso(field, v)) % (p * p)
        t = rng.randrange(-p * p, 2 * p * p)
        assert _iso(field, field.w2_from_int(t)) == t % (p * p)



@pytest.mark.parametrize("p", PRIMES)
def test_w2_to_int_is_inverse_ring_isomorphism(p):
    """The map to Z/p^2 (the _iso oracle) inverts w2_from_int and carries
    +, -, *, negation and times_p to Z/p^2."""
    field = FieldParams(p)
    pp = p * p
    assert [_iso(field, field.w2_from_int(t)) for t in range(pp)] == list(range(pp))
    elems = [Witt2(a, b) for a in field.all_elements() for b in field.all_elements()]
    for u in elems:
        t = _iso(field, u)
        assert field.w2_from_int(t) == u
        assert _iso(field, -u) == -t % pp
        assert _iso(field, u.times_p()) == p * t % pp
        for v in elems:
            s = _iso(field, v)
            assert _iso(field, u + v) == (t + s) % pp
            assert _iso(field, u - v) == (t - s) % pp
            assert _iso(field, u * v) == t * s % pp


def test_w2_to_int_sampled_at_largest_p():
    field = FieldParams(32749)
    p = field.p
    pp = p * p
    rng = random.Random(-32749)

    def draw():
        return Witt2(field.from_int(rng.randrange(p)), field.from_int(rng.randrange(p)))

    for _ in range(200):
        u, v = draw(), draw()
        t, s = _iso(field, u), _iso(field, v)
        assert 0 <= t < pp and field.w2_from_int(t) == u
        assert _iso(field, u + v) == (t + s) % pp
        assert _iso(field, u * v) == t * s % pp
        assert _iso(field, -u) == -t % pp
        assert _iso(field, u.times_p()) == p * t % pp
        r = rng.randrange(pp)
        assert _iso(field, field.w2_from_int(r)) == r


def _quadratic_modulus(p: int) -> tuple:
    """An irreducible monic quadratic over F_p: t^2 + t + 1 at p = 2, else t^2 + c."""
    if p == 2:
        return (1, 1, 1)
    c = next(c for c in range(1, p) if pow(-c % p, (p - 1) // 2, p) == p - 1)
    return (c, 0, 1)


def _binomial_carry(field: FieldParams, a, b):
    """c(a, b) = -sum_{0<k<p} (binom(p,k)/p) a^k b^(p-k), evaluated in k."""
    p = field.p
    want = field.zero
    for k in range(1, p):
        want = want + field.from_int(-(comb(p, k) // p)) * a**k * b ** (p - k)
    return want


def test_carry_table_matches_binomial_definition():
    """[a] + [b] has second component -sum_k (binom(p,k)/p) a^k b^(p-k)
    over F_{p^2}, every prime <= 101."""
    primes = [p for p in range(2, 102) if all(p % d for d in range(2, p))]
    rng = random.Random(101)
    for p in primes:
        field = FieldParams(p, 2, _quadratic_modulus(p))
        weights = [field.from_int(-(comb(p, k) // p)) for k in range(p)]
        for _ in range(4):
            a = field.element((rng.randrange(p), rng.randrange(p)))
            b = field.element((rng.randrange(p), rng.randrange(p)))
            want = field.zero
            for k in range(1, p):
                want = want + weights[k] * a**k * b ** (p - k)
            total = Witt2(a, field.zero) + Witt2(b, field.zero)
            assert total.a1 == a + b
            assert total.a2 == want


def test_extension_field_at_largest_p():
    """FieldParams(32749, 2, t^2 + c) builds in well under the binomial table's minutes."""
    p = 32749
    start = time.perf_counter()
    field = FieldParams(p, 2, _quadratic_modulus(p))
    assert time.perf_counter() - start < 5.0
    rng = random.Random(p)
    for _ in range(3):
        a, b = rng.randrange(p), rng.randrange(p)
        want = (pow(a, p, p * p) + pow(b, p, p * p) - pow(a + b, p, p * p)) % (p * p) // p
        total = Witt2(field.from_int(a), field.zero) + Witt2(field.from_int(b), field.zero)
        assert total.a2 == field.from_int(want)


def test_w2_addition_at_largest_p_extension_field():
    """One W_2 addition over F_{32749^2} is coefficientwise: no O(p) carry."""
    p = 32749
    field = FieldParams(p, 2, _quadratic_modulus(p))
    rng = random.Random(p + 1)
    x, y = (
        Witt2(*(field.element((rng.randrange(p), rng.randrange(p))) for _ in range(2)))
        for _ in range(2)
    )
    start = time.perf_counter()
    total = x + y
    assert time.perf_counter() - start < 0.1
    assert total - y == x


def _check_witt_laws(field: FieldParams, pairs, carry) -> None:
    """The component laws on every pair ((a1, a2), (b1, b2)) in ``pairs``."""
    p = field.p
    witt = {}
    for (a1, a2), (b1, b2) in pairs:
        for comp in ((a1, a2), (b1, b2)):
            if comp not in witt:
                x = witt[comp] = Witt2(*comp)
                assert (x.a1, x.a2) == comp
                assert x.times_p() == Witt2(field.zero, comp[0] ** p)
                assert teichmuller(comp[0]) == Witt2(comp[0], field.zero)
        x, y = witt[a1, a2], witt[b1, b2]
        assert x + y == Witt2(a1 + b1, a2 + b2 + carry(a1, b1))
        assert x * y == Witt2(a1 * b1, a1**p * b2 + b1**p * a2)
        assert teichmuller(a1 * b1) == teichmuller(a1) * teichmuller(b1)


@pytest.mark.parametrize("p", (2, 3))
def test_witt_component_laws_exhaustive_quadratic(p):
    """Every pair of W_2(F_4) or W_2(F_9) elements obeys the Witt laws."""
    field = FieldParams(p, 2, _quadratic_modulus(p))
    elems = list(field.all_elements())
    comps = [(a1, a2) for a1 in elems for a2 in elems]
    carries = {(a, b): _binomial_carry(field, a, b) for a in elems for b in elems}
    pairs = itertools.product(comps, repeat=2)
    _check_witt_laws(field, pairs, lambda a, b: carries[a, b])


def test_witt_component_laws_sampled_at_largest_p():
    """200 sampled pairs over W_2(F_{32749^2}), t^2 = -c.

    The carry is its integral definition (A^p + B^p - (A+B)^p)/p, read in
    (Z/p^2)[t]/(t^2 + c) by a local square-and-multiply: the binomial sum
    has p terms, too many to evaluate 200 times at this p.
    """
    p = 32749
    modulus = _quadratic_modulus(p)
    field = FieldParams(p, 2, modulus)
    pp, c = p * p, modulus[0]

    def mul(x, y):
        return ((x[0] * y[0] - c * x[1] * y[1]) % pp, (x[0] * y[1] + x[1] * y[0]) % pp)

    def power(x, e):
        out = (1, 0)
        while e:
            if e & 1:
                out = mul(out, x)
            x = mul(x, x)
            e >>= 1
        return out

    def carry(a, b):
        s = tuple(u + v for u, v in zip(a.coeffs, b.coeffs))
        num = [u + v - w for u, v, w in zip(power(a.coeffs, p), power(b.coeffs, p), power(s, p))]
        return field.element(x % pp // p for x in num)

    rng = random.Random(32749 * 3)

    def draw():
        return field.element((rng.randrange(p), rng.randrange(p)))

    pairs = [((draw(), draw()), (draw(), draw())) for _ in range(200)]
    _check_witt_laws(field, pairs, carry)


def test_teichmuller_is_multiplicative():
    field = FieldParams(7)
    for a in field.all_elements():
        for b in field.all_elements():
            assert teichmuller(a * b) == teichmuller(a) * teichmuller(b)
            assert teichmuller(a).decompose() == (a, field.zero)


def test_field_params_rejects_bad_input():
    with pytest.raises(WeyliftError):
        FieldParams(4)
    with pytest.raises(WeyliftError):
        FieldParams(1)
    with pytest.raises(WeyliftError):
        FieldParams(3, 2, (2, 0, 1))  # x^2 - 1 factors over F_3
    with pytest.raises(WeyliftError):
        FieldParams(3, 2, (1, 0, 2))  # not monic


def test_extension_field_f9():
    # x^2 + 1 is irreducible over F_3, so this is F_9.
    field = FieldParams(3, 2, (1, 0, 1))
    assert field.q == 9
    elems = list(field.all_elements())
    assert len(elems) == 9
    for a in elems:
        assert a.pth_root().frobenius() == a
        if not a.is_zero():
            assert a * a.inverse() == field.one
    i = field.element((0, 1))
    assert i * i == -field.one


def test_division_by_zero():
    field = FieldParams(5)
    with pytest.raises(DivisionByZero):
        field.zero.inverse()


def test_inverse_in_extension_fields():
    """Fermat inversion for m > 1: every nonzero element of F_4 and F_25 and
    50 sampled elements of F_{32749^2}; prime-subfield elements invert as
    their residues do mod p."""
    big = FieldParams(32749, 2, _quadratic_modulus(32749))
    rng = random.Random(32749 * 2)
    sampled = [big.element((rng.randrange(big.p), rng.randrange(1, big.p))) for _ in range(50)]
    f4, f25 = FieldParams(2, 2), FieldParams(5, 2)
    for field, elems in (
        (f4, [a for a in f4.all_elements() if a]),
        (f25, [a for a in f25.all_elements() if a]),
        (big, sampled),
    ):
        for a in elems:
            inv = a.inverse()
            assert a * inv == field.one
            assert a**-1 == inv
        p = field.p
        for t in [1, p - 1] + [rng.randrange(1, p) for _ in range(5)]:
            assert field.from_int(t).inverse() == field.from_int(pow(t, -1, p))
    with pytest.raises(DivisionByZero):
        FieldParams(3, 2, (1, 0, 1)).zero.inverse()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_w2_ring_axioms_f5(a, b, c):
    field = FieldParams(5)
    x = field.w2_from_int(a)
    y = field.w2_from_int(b)
    z = field.w2_from_int(c)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == field.w2_from_int(0)
    assert x * field.w2_one() == x


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_w2_ring_axioms_f9(ai, bi, ci):
    field = FieldParams(3, 2, (1, 0, 1))
    elems = list(field.all_elements())
    for first, second in ((elems[ai], elems[bi]), (elems[bi], elems[ci])):
        x = Witt2(first, second)
        y = Witt2(second, first)
        assert x + y == y + x
        assert x * y == y * x
        assert (x - y) + y == x
        assert x - y == x + (-y)
        assert x.times_p() * y.times_p() == field.w2_from_int(0)  # p^2 = 0


def test_w2_powers():
    field = FieldParams(3)
    two = field.w2_from_int(2)
    assert two**2 == field.w2_from_int(4)
    assert two**0 == field.w2_one()
    # the Teichmuller lift of 2 is (2, 0), which is 8 = -1 mod 9, not 2
    assert teichmuller(field.from_int(2)) == field.w2_from_int(8)


def test_w2_negative_power_raises():
    """A negative exponent raises; the square-and-multiply loop never ends on one."""
    field = FieldParams(5)
    with pytest.raises(WeyliftError):
        field.w2_from_int(2) ** -1
