"""Noncommutative normal-ordered arithmetic in A_n(k) and A_n(W_2(k)).

Two independent references keep the product honest: the in-module adjacent
swap oracle, and a test-local recursion that commutes one generator at a
time across power blocks.  Random elements carry arbitrary coefficients
(over W_2 with independent Witt components) over F_p, F_9 (the object loop
of m > 1) and F_32749 (coefficients mod p^2 near 2^30).  The
power-commutator identities

    [u^t, v] = t k u^{t-1} + p sum_i u^i w u^{t-1-i}
    [u^p, v] = p (k u^{p-1} + ad(u)^{p-1} w)
    [u^p, v^p] = p (-k^p + ad(v)^{p-1} ad(u)^{p-1} w)

for [u, v] = k + p w with scalar k are checked on 100 random admissible
pairs over W_2, p in {2, 3}.
"""

from __future__ import annotations

import random

import pytest

from weylift.endo import generate_corpus
from weylift.errors import WeyliftError
from weylift.scalars import FieldParams, Witt2, teichmuller
from weylift.weyl import (
    AlgebraParams,
    WeylElem,
    ad_pow,
    commutator,
    mono_mul,
    mono_mul_naive,
    teich_lift,
    times_p_elem,
    w2_decompose_elem,
)


def _ref_mul_gen(f: WeylElem, i: int) -> WeylElem:
    """Right-multiply by z_i, commuting it across whole power blocks."""
    alg = f.alg
    out = alg.zero_elem(f.ring)
    for e, c in f.terms.items():
        j = max((t for t in range(alg.nvars) if e[t]), default=-1)
        if j <= i:
            bumped = list(e)
            bumped[i] += 1
            out = out + WeylElem(alg, f.ring, {tuple(bumped): c})
        else:
            # z^e z_i = (z^{e-d_j} z_i) z_j + omega_{j,i} z^{e-d_j}
            low = list(e)
            low[j] -= 1
            head = WeylElem(alg, f.ring, {tuple(low): c})
            tail = _ref_mul_gen(head, i)
            # every term of tail has support <= j, so appending z_j is a shift
            shifted = {}
            for e2, c2 in tail.terms.items():
                bumped = list(e2)
                bumped[j] += 1
                shifted[tuple(bumped)] = c2
            out = out + WeylElem(alg, f.ring, shifted)
            om = alg.omega_int(j, i)
            if om:
                out = out + head.scale(alg.ring_from_int(f.ring, om))
    return out


def _ref_mul(f: WeylElem, g: WeylElem) -> WeylElem:
    alg = f.alg
    acc = alg.zero_elem(f.ring)
    for e, c in g.terms.items():
        part = f.scale(c)
        for i in range(alg.nvars):
            for _ in range(e[i]):
                part = _ref_mul_gen(part, i)
        acc = acc + part
    return acc


def _field(q: int) -> FieldParams:
    """F_q for a prime q, or F_9 = F_3[t]/(t^2 + 1)."""
    return FieldParams(3, 2, (1, 0, 1)) if q == 9 else FieldParams(q)


def _random_coeff(field: FieldParams, rng: random.Random, ring: str):
    """A nonzero coefficient; over W_2 the two Witt components are independent."""

    def draw():
        return field.element(rng.randrange(field.p) for _ in range(field.m))

    while True:
        c = draw() if ring == "k" else Witt2(draw(), draw())
        if c:
            return c


def _random_elem(alg: AlgebraParams, rng: random.Random, max_deg: int, ring: str = "k"):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(alg.nvars))
        terms[exps] = _random_coeff(alg.field, rng, ring)
    return alg.from_terms(terms, ring)


@pytest.mark.parametrize(
    "q,n", [(2, 1), (3, 1), (5, 1), (3, 2), (2, 2), (5, 2), (9, 1), (9, 2), (32749, 1), (32749, 2)]
)
def test_product_against_two_references(q, n):
    alg = AlgebraParams(n, _field(q))
    rng = random.Random(("refmul", q, n).__repr__())
    for ring in ("k", "w2"):
        for _ in range(12):
            ea = tuple(rng.randint(0, 4) for _ in range(alg.nvars))
            eb = tuple(rng.randint(0, 4) for _ in range(alg.nvars))
            fast = mono_mul(alg, ea, eb, ring)
            assert fast == mono_mul_naive(alg, ea, eb, ring)
            assert fast == _ref_mul(alg.monomial(ea, ring=ring), alg.monomial(eb, ring=ring))
            f = _random_elem(alg, rng, 4, ring)
            g = _random_elem(alg, rng, 4, ring)
            assert f * g == _ref_mul(f, g)


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (2, 2), (9, 1), (9, 2), (32749, 1), (32749, 2)])
def test_product_ring_axioms(q, n):
    alg = AlgebraParams(n, _field(q))
    rng = random.Random(("axioms", q, n).__repr__())
    for ring in ("k", "w2"):
        for _ in range(8):
            f = _random_elem(alg, rng, 3, ring)
            g = _random_elem(alg, rng, 3, ring)
            h = _random_elem(alg, rng, 3, ring)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h
            assert f * alg.one_elem(ring) == f


@pytest.mark.parametrize("q,n", [(3, 1), (5, 2), (9, 1), (9, 2), (32749, 1)])
def test_subtraction_is_adding_the_negation(q, n):
    """f - g == f + (-g) over k and W_2(k); small exponents make terms collide."""
    alg = AlgebraParams(n, _field(q))
    rng = random.Random(("sub", q, n).__repr__())
    for ring in ("k", "w2"):
        for _ in range(20):
            f = _random_elem(alg, rng, 2, ring)
            g = _random_elem(alg, rng, 2, ring)
            assert f - g == f + (-g)
            assert (f - g) + g == f
            assert (f - f).is_zero()


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1), (5, 2), (9, 1), (9, 2)])
def test_pderiv_is_bracket_with_conjugate_generator(q, n):
    """[z_{n+l}, f] = df/dz_l and [z_l, f] = -df/dz_{n+l} over F_3, F_5, F_9."""
    field = _field(q)
    alg = AlgebraParams(n, field)
    rng = random.Random(("pderiv", q, n).__repr__())
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 4) for _ in range(alg.nvars))
            terms[exps] = field.element(rng.randrange(field.p) for _ in range(field.m))
        f = alg.from_terms(terms)
        for l in range(n):
            assert commutator(alg.gen(n + l), f) == f.pderiv(l)
            assert commutator(alg.gen(l), f) == -f.pderiv(n + l)


def test_defining_relations():
    alg = AlgebraParams(2, FieldParams(5))
    for i in range(4):
        for j in range(4):
            zi, zj = alg.gen(i), alg.gen(j)
            want = alg.from_terms({(0,) * 4: alg.field.from_int(alg.omega_int(i, j))})
            assert commutator(zi, zj) == want


def test_center_powers_commute():
    alg = AlgebraParams(1, FieldParams(3))
    rng = random.Random(7)
    xc = alg.monomial((3, 0))  # z1^p is central
    assert xc.is_central()
    for _ in range(10):
        f = _random_elem(alg, rng, 4)
        assert commutator(xc, f).is_zero()
    assert not alg.gen(0).is_central()


def test_p_power_and_center_poly_round_trip():
    alg = AlgebraParams(1, FieldParams(3))
    z2 = alg.gen(1)
    f = z2 + alg.monomial((0, 3))
    fp = f.p_power()
    assert fp.is_central()
    g = fp.to_center_poly()
    from weylift import center as C

    back = C.embed_center(g, "k")
    assert back == fp
    with pytest.raises(WeyliftError):
        alg.gen(0).to_center_poly()


def test_teich_lift_carries_on_addition():
    alg = AlgebraParams(1, FieldParams(3))
    f = alg.gen(0)
    a = teich_lift(f)
    # p copies of the lift carry into the p-part: 3 [z1] = p [z1]
    assert a + a + a == times_p_elem(teich_lift(f))
    two = alg.field.from_int(2)
    assert teich_lift(f.scale(two)) != teich_lift(f) + teich_lift(f)


def test_w2_decompose_elem_round_trip():
    alg = AlgebraParams(1, FieldParams(3))
    rng = random.Random(11)
    for _ in range(10):
        F = _random_elem(alg, rng, 3, "w2") + times_p_elem(_random_elem(alg, rng, 3))
        d1, d2 = w2_decompose_elem(F)
        assert teich_lift(d1) + times_p_elem(d2) == F


# -- power-commutator identities ------------------------------------------


def _rand_w2(alg: AlgebraParams, rng: random.Random, max_deg: int) -> WeylElem:
    return teich_lift(_random_elem(alg, rng, max_deg)) + times_p_elem(
        _random_elem(alg, rng, max_deg)
    )


def _admissible_pairs(p: int, total: int) -> list[tuple[WeylElem, WeylElem]]:
    """Pairs with [u, v] = k + p w, k a scalar: polynomial pairs and
    Teichmuller lifts of valid endomorphism images, both p-perturbed."""
    pairs = []
    rng = random.Random(("pairs", p).__repr__())
    alg1 = AlgebraParams(1, FieldParams(p))
    alg2 = AlgebraParams(2, FieldParams(p))
    while len(pairs) < total // 2:
        u = _rand_w2(alg1, rng, 2)
        v = alg1.zero_elem("w2")
        for t in range(3):
            c = rng.randrange(p * p)
            if c:
                v = v + (u**t).scale(alg1.field.w2_from_int(c))
        v = v + times_p_elem(_random_elem(alg1, rng, 2))
        pairs.append((u, v))
    image_pairs = []
    for alg in (alg1, alg2):
        for e in generate_corpus(alg, 6, 99):
            for i in range(alg.nvars):
                for j in range(i + 1, alg.nvars):
                    u = teich_lift(e.u(i)) + times_p_elem(_random_elem(alg, rng, 1))
                    v = teich_lift(e.u(j)) + times_p_elem(_random_elem(alg, rng, 1))
                    image_pairs.append((u, v))
    pairs.extend(image_pairs[: total - len(pairs)])
    return pairs


def _split_bracket(u: WeylElem, v: WeylElem) -> tuple[Witt2, WeylElem]:
    """Read [u, v] = k + p w; requires the Teichmuller part be constant."""
    alg = u.alg
    B = commutator(u, v)
    d1, d2 = w2_decompose_elem(B)
    const = d1.coefficient((0,) * alg.nvars)
    assert d1 == alg.from_terms({(0,) * alg.nvars: const}), "pair is not admissible"
    return teichmuller(const), teich_lift(d2)


@pytest.mark.parametrize("p", [2, 3])
def test_power_commutator_identities(p):
    pairs = _admissible_pairs(p, 50)
    assert len(pairs) == 50
    for u, v in pairs:
        alg = u.alg
        kappa, w = _split_bracket(u, v)
        one = alg.one_elem("w2")
        for t in range(2, p + 1):
            lhs = commutator(u**t, v)
            scalar = alg.field.w2_from_int(t) * kappa
            acc = alg.zero_elem("w2")
            for i in range(t):
                acc = acc + (u**i) * w * (u ** (t - 1 - i))
            rhs = (u ** (t - 1)).scale(scalar) + times_p_elem(acc)
            assert lhs == rhs
        lhs_p = commutator(u**p, v)
        rhs_p = times_p_elem((u ** (p - 1)).scale(kappa) + ad_pow(u, p - 1, w))
        assert lhs_p == rhs_p
        lhs_pp = commutator(u**p, v**p)
        rhs_pp = times_p_elem(
            one.scale(-(kappa**p)) + ad_pow(v, p - 1, ad_pow(u, p - 1, w))
        )
        assert lhs_pp == rhs_pp


def test_split_ambiguity_does_not_matter():
    # shifting k by p d and w by -d leaves every right side unchanged
    p = 3
    u, v = _admissible_pairs(p, 2)[0]
    alg = u.alg
    kappa, w = _split_bracket(u, v)
    d = 2
    kappa2 = kappa + alg.field.w2_from_int(p * d)
    w_shift = w - alg.one_elem("w2").scale(alg.field.w2_from_int(d))
    r1 = times_p_elem((u ** (p - 1)).scale(kappa) + ad_pow(u, p - 1, w))
    r2 = times_p_elem((u ** (p - 1)).scale(kappa2) + ad_pow(u, p - 1, w_shift))
    assert r1 == r2
