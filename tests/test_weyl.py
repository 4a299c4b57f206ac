"""Noncommutative normal-ordered arithmetic in A_n(k) and A_n(W_2(k)).

Two independent references keep the product honest: the in-module adjacent
swap oracle, and a test-local recursion that commutes one generator at a
time across power blocks.  Random elements carry arbitrary coefficients
(over W_2 with independent Witt components) over F_p, F_9, F_25 and F_27
(Kronecker-packed residues of m = 2 and 3 digits) and F_32749
(coefficients mod p^2 near 2^30).  The power-commutator identities

    [u^t, v] = t k u^{t-1} + p sum_i u^i w u^{t-1-i}
    [u^p, v] = p (k u^{p-1} + ad(u)^{p-1} w)
    [u^p, v^p] = p (-k^p + ad(v)^{p-1} ad(u)^{p-1} w)

for [u, v] = k + p w with scalar k are checked on 100 random admissible
pairs over W_2, p in {2, 3}.

Products whose exponent sums sit on either side of each packing width are
checked against the contraction formula computed here and, over k, against
the exponent shift by a central monomial; the term order of seeded products
is pinned by digest.  W_2 operands mixing units and multiples of p, whose
pairs of two multiples the product skips, are checked against the swap
oracle term pair by term pair.  The commutator, one kernel pass, is checked
against f * g - g * f and the swap oracle on the same kinds of operands, and
its term order is pinned as well.  The kernel's set-up is memoised by value:
equal algebras share its contraction rows, algebras that differ get their
own, and every output coefficient belongs to the calling algebra's field.
Operands stored at different packing widths, and a product that piles
maximal Kronecker digits onto one key, agree with term-wise references.
"""

from __future__ import annotations

import ast
import hashlib
import operator
import random
import re
from itertools import product
from math import comb, factorial
from pathlib import Path

import pytest

import weylift
from weylift.endo import generate_corpus
from weylift.errors import ParamsMismatch, WeyliftError
from weylift.scalars import FieldParams, Witt2, teichmuller
from weylift.weyl import (
    AlgebraParams,
    Poly,
    WeylElem,
    _contraction_row,
    ad_pow,
    commutator,
    mono_mul_naive,
    teich_lift,
    times_p_elem,
    w2_decompose_elem,
)


def _ref_mul_gen(f: WeylElem, i: int) -> WeylElem:
    """Right-multiply by z_i, commuting it across whole power blocks."""
    alg = f.alg
    out = alg.const(0, f.ring)
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
    acc = alg.const(0, f.ring)
    for e, c in g.terms.items():
        part = f.scale(c)
        for i in range(alg.nvars):
            for _ in range(e[i]):
                part = _ref_mul_gen(part, i)
        acc = acc + part
    return acc


# the extension fields by order: F_3[t]/(t^2 + 1), F_5[t]/(t^2 + 2) and
# F_3[t]/(t^3 + 2t + 1)
_EXTENSIONS = {9: (3, 2, (1, 0, 1)), 25: (5, 2, (2, 0, 1)), 27: (3, 3, (1, 2, 0, 1))}


def _field(q: int) -> FieldParams:
    """F_q for a prime q, or F_9, F_25 or F_27."""
    return FieldParams(*_EXTENSIONS[q]) if q in _EXTENSIONS else FieldParams(q)


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
    return WeylElem(alg, ring, terms)


@pytest.mark.parametrize(
    "q,n",
    [(2, 1), (3, 1), (5, 1), (3, 2), (2, 2), (5, 2), (9, 1), (9, 2), (25, 1), (25, 2), (27, 1)]
    + [(27, 2), (32749, 1), (32749, 2)],
)
def test_product_against_two_references(q, n):
    alg = AlgebraParams(n, _field(q))
    rng = random.Random(("refmul", q, n).__repr__())
    for ring in ("k", "w2"):
        for _ in range(12):
            ea = tuple(rng.randint(0, 4) for _ in range(alg.nvars))
            eb = tuple(rng.randint(0, 4) for _ in range(alg.nvars))
            a, b = alg.monomial(ea, ring=ring), alg.monomial(eb, ring=ring)
            fast = a * b
            assert fast == mono_mul_naive(alg, ea, eb, ring)
            assert fast == _ref_mul(a, b)
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
            assert f * alg.const(1, ring) == f


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
        f = WeylElem(alg, "k", terms)
        for l in range(n):
            assert commutator(alg.gen(n + l), f) == f.pderiv(l)
            assert commutator(alg.gen(l), f) == -f.pderiv(n + l)


def test_defining_relations():
    alg = AlgebraParams(2, FieldParams(5))
    for i in range(4):
        for j in range(4):
            zi, zj = alg.gen(i), alg.gen(j)
            want = WeylElem(alg, "k", {(0,) * 4: alg.field.from_int(alg.omega_int(i, j))})
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
    from test_center import embed_center

    back = embed_center(g)
    assert back == fp
    with pytest.raises(WeyliftError):
        alg.gen(0).to_center_poly()


def test_power_by_squaring_makes_no_product_with_one(monkeypatch):
    """f**e equals the repeated product and costs (bits - 1) + (ones - 1) products."""
    from weylift import weyl

    alg = AlgebraParams(2, FieldParams(3))
    rng = random.Random(5)
    calls = []
    mul = weyl._contract
    monkeypatch.setattr(weyl, "_contract", lambda A, B: calls.append(1) or mul(A, B))
    for ring in ("k", "w2"):
        f = _random_elem(alg, rng, 2, ring)
        want = alg.const(1, ring)
        for e in range(10):
            calls.clear()
            got = f**e
            assert len(calls) == max(e.bit_length() - 1, 0) + max(bin(e).count("1") - 1, 0)
            assert got == want
            want = want * f


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
        v = alg1.const(0, "w2")
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
    const = d1.terms.get((0,) * alg.nvars, alg.field.zero)
    assert d1 == WeylElem(alg, "k", {(0,) * alg.nvars: const}), "pair is not admissible"
    return teichmuller(const), teich_lift(d2)


@pytest.mark.parametrize("p", [2, 3])
def test_power_commutator_identities(p):
    pairs = _admissible_pairs(p, 50)
    assert len(pairs) == 50
    for u, v in pairs:
        alg = u.alg
        kappa, w = _split_bracket(u, v)
        one = alg.const(1, "w2")
        for t in range(2, p + 1):
            lhs = commutator(u**t, v)
            scalar = alg.field.w2_from_int(t) * kappa
            acc = alg.const(0, "w2")
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
    w_shift = w - alg.const(1, "w2").scale(alg.field.w2_from_int(d))
    r1 = times_p_elem((u ** (p - 1)).scale(kappa) + ad_pow(u, p - 1, w))
    r2 = times_p_elem((u ** (p - 1)).scale(kappa2) + ad_pow(u, p - 1, w_shift))
    assert r1 == r2


# -- packed exponents at the field-width boundaries --------------------------

# Largest exponent sums on either side of each packing width (8, 16, 32 and
# 64 bits per variable), and one well inside the 32-bit width.
WIDTH_TOPS = [255, 256, 65535, 65536, 3 * 2**17, 2**32 - 1, 2**32, 2**64 - 1]


def _closed_pair_product(alg, ring, l, x, a, b, y, other):
    """(z^other z_l^x z_{n+l}^a) * (z_l^b z_{n+l}^y) by the contraction formula.

    ``other`` holds the exponents of the pairs other than l, which commute
    with the right factor.
    """
    n = alg.n
    terms = {}
    for k in range(min(a, b) + 1):
        c = alg.ring_from_int(ring, comb(a, k) * comb(b, k) * factorial(k))
        if c:
            e = list(other)
            e[l], e[n + l] = x + b - k, a + y - k
            terms[tuple(e)] = c
    return WeylElem(alg, ring, terms)


@pytest.mark.parametrize("top", WIDTH_TOPS)
@pytest.mark.parametrize("q", [5, 32749, 9])
def test_product_at_packing_widths_matches_closed_formula(q, top):
    """The top exponent x + b (or a + y) of the product sits exactly at ``top``."""
    alg = AlgebraParams(2, _field(q))
    for ring in ("k", "w2"):
        for l in range(2):
            other = [0] * 4
            o = 1 - l
            big, half = top - top // 2, top // 2
            # the largest exponent in the z_l slot, then in the z_{n+l} slot
            for x, a, b, y in ((big, 3, half, 1), (1, big, 2, half)):
                other[o], other[2 + o] = max(x, a), 1
                ea = list(other)
                ea[l], ea[2 + l] = x, a
                eb = [0] * 4
                eb[l], eb[2 + l] = b, y
                got = alg.monomial(ea, ring=ring) * alg.monomial(eb, ring=ring)
                assert got == _closed_pair_product(alg, ring, l, x, a, b, y, other)
                assert max(map(max, got.terms)) == top


@pytest.mark.parametrize("top", WIDTH_TOPS)
@pytest.mark.parametrize("q", [32749, 9])
def test_product_at_packing_widths_matches_central_shift(q, top):
    """Over k, f * z^(p c) and z^(p c) * f are the shift of f by p c, built
    here from f's terms.  Over W_2(k), z^(p c) is not central:
    [z_3, z^(p c)] = d/dz_1 z^(p c), and [z_3, z_1^p] = p z_1^(p-1)."""
    alg = AlgebraParams(2, _field(q))
    p = alg.field.p
    rng = random.Random(("central", q, top).__repr__())
    cs = ((top - 2) // p, rng.randrange(top // p + 1), 0, rng.randrange(top // p + 1))
    d = top - p * cs[0]
    pc = tuple(p * c for c in cs)
    center = alg.monomial(pc)
    for _ in range(4):
        f = _random_elem(alg, rng, min(d, 40)) + alg.monomial((d, 0, 1, 2))
        shifted = WeylElem(
            alg, "k", {tuple(x + y for x, y in zip(e, pc)): c for e, c in f.terms.items()}
        )
        assert f * center == shifted
        assert center * f == shifted
        assert max(map(max, shifted.terms)) == top
    z3, center_w2 = alg.gen(2, "w2"), alg.monomial(pc, ring="w2")
    assert commutator(z3, center_w2) == center_w2.pderiv(0)  # p c_1 z^(p c - e_1)
    z1_p = alg.monomial((p, 0, 0, 0), ring="w2")
    assert commutator(z3, z1_p) == times_p_elem(alg.monomial((p - 1, 0, 0, 0)))


def test_product_past_64_bit_exponents_is_refused():
    alg = AlgebraParams(1, FieldParams(3))
    z1 = alg.gen(0)
    half = alg.monomial((2**63, 0))
    assert half * alg.monomial((2**63 - 1, 0)) == alg.monomial((2**64 - 1, 0))
    with pytest.raises(WeyliftError):
        half * half
    with pytest.raises(WeyliftError):
        alg.monomial((2**70, 0)) * z1


def test_contraction_row_matches_the_direct_weights():
    """The running p-adic product against binom(a,k) binom(b,k) k! mod q."""
    for p in (2, 3, 5, 7):
        for q in (p, p * p):
            image = q.__rmod__
            for a in range(30):
                for b in range(30):
                    ks = range(1, min(a, b) + 1)
                    direct = ((k, comb(a, k) * comb(b, k) * factorial(k) % q) for k in ks)
                    assert _contraction_row(a, b, p, image) == tuple((k, w) for k, w in direct if w)
    # at a = b = p only k = p survives mod p^2, with weight p!
    p = 32749
    assert _contraction_row(p, p, p, (p * p).__rmod__) == ((p, factorial(p) % (p * p)),)


# -- W_2 pairs of two multiples of p -----------------------------------------


def _mixed_w2_elem(alg: AlgebraParams, rng: random.Random, units: int, multiples: int):
    """A W_2 element with ``units`` unit terms and ``multiples`` terms divisible by p.

    A unit is Witt2(a1, a2) with a1 != 0; a multiple of p is Witt2(0, a2) =
    p [a2^(1/p)] with a2 != 0.  Exponents are distinct and at most 3.
    """
    field = alg.field
    nonzero = [field.element(cs) for cs in product(range(field.p), repeat=field.m) if any(cs)]
    vectors = rng.sample(list(product(range(4), repeat=alg.nvars)), units + multiples)
    terms = {}
    for i, exps in enumerate(vectors):
        if i < units:
            terms[exps] = Witt2(rng.choice(nonzero), rng.choice(nonzero + [field.zero]))
        else:
            terms[exps] = Witt2(field.zero, rng.choice(nonzero))
    return WeylElem(alg, "w2", terms)


def _naive_product(f: WeylElem, g: WeylElem) -> WeylElem:
    """Sum over all term pairs of c_a c_b z^ea z^eb, each by the swap oracle."""
    out = f.alg.const(0, f.ring)
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            out = out + mono_mul_naive(f.alg, ea, eb, f.ring).scale(ca * cb)
    return out


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (9, 1), (25, 1), (27, 1)])
def test_w2_product_with_p_divisible_terms(q, n):
    """Products of W_2 operands mixing units and multiples of p match the oracle.

    Over W_2(F_9) some units have a first residue divisible by 3 (the
    Teichmueller lift of t is (0, 1)), so a test of coeffs[0] alone would
    take them for multiples of p and drop pairs that do not vanish.
    """
    alg = AlgebraParams(n, _field(q))
    p = alg.field.p
    rng = random.Random(("w2-skip", q, n).__repr__())
    saw_unit_with_divisible_residue = False
    for _ in range(6):
        f = _mixed_w2_elem(alg, rng, 2, 3)
        g = _mixed_w2_elem(alg, rng, 2, 3)
        assert f * g == _naive_product(f, g)
        assert g * f == _naive_product(g, f)
        saw_unit_with_divisible_residue |= any(
            c.coeffs[0] % p == 0 and any(r % p for r in c.coeffs)
            for c in (*f.terms.values(), *g.terms.values())
        )
        fp = _mixed_w2_elem(alg, rng, 0, 4)
        gp = _mixed_w2_elem(alg, rng, 0, 4)
        assert fp * gp == alg.const(0, "w2")
        assert (f + fp) * (g + gp) == _naive_product(f + fp, g + gp)
    assert saw_unit_with_divisible_residue == (q in _EXTENSIONS)


# -- term order of the product ----------------------------------------------

# SHA-256 of repr([(exps, coeffs), ...]) over the seeded products below, in
# dict order: first insertion over the visited pairs, A terms outer.  No value
# and no report depends on this order (reports sort terms; see
# tests/test_cli.py::test_reports_do_not_depend_on_product_term_order); the
# pin makes a change to it deliberate.  Re-recorded for 2, 3 and 5 when the
# W_2 product stopped visiting pairs of two multiples of p: a key such a pair
# touched first now enters the dict later.  F_9 kept its digest, since over
# m > 1 those pairs were already never inserted.
PRODUCT_ORDER_DIGESTS = {
    2: "bda53a60fe052722898d077177a9bc72941acf0dc06c35604d5a893d97cf2d25",
    3: "49dadfb1039036461c002c48bbd3c772101e8ca28f514784ab19438bb2c4fcc8",
    5: "72edd70358d12110e05522e0c772eb281585f5ea2b43c1519da7cb22adb5b0ee",
    9: "67883d8c8b177323e892282085500a400252108c4a0a1ce6988d99baeba72a81",
}


@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_product_term_order_is_pinned(q):
    h = hashlib.sha256()
    for n in (1, 2):
        alg = AlgebraParams(n, _field(q))
        rng = random.Random(("order", q, n).__repr__())
        for ring in ("k", "w2"):
            for _ in range(15):
                f = _random_elem(alg, rng, 5, ring) + _random_elem(alg, rng, 3, ring)
                g = _random_elem(alg, rng, 5, ring) + _random_elem(alg, rng, 3, ring)
                h.update(repr([(e, c.coeffs) for e, c in (f * g).terms.items()]).encode())
    assert h.hexdigest() == PRODUCT_ORDER_DIGESTS[q]


# -- the fused commutator ------------------------------------------------------


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 5, 9, 25, 27) for n in (1, 2)])
def test_commutator_is_the_difference_of_products(q, n):
    """[f, g] from one kernel pass equals f * g - g * f, over k and over W_2.

    The W_2 operands mix units and multiples of p, whose pairs of two
    multiples both orders skip.
    """
    alg = AlgebraParams(n, _field(q))
    rng = random.Random(("bracket", q, n).__repr__())
    for ring in ("k", "w2"):
        for _ in range(10):
            f = _random_elem(alg, rng, 4, ring) + _random_elem(alg, rng, 2, ring)
            g = _random_elem(alg, rng, 4, ring) + _random_elem(alg, rng, 2, ring)
            assert commutator(f, g) == f * g - g * f
            assert commutator(f, f).is_zero()
    for _ in range(6):
        f = _mixed_w2_elem(alg, rng, 2, 3)
        g = _mixed_w2_elem(alg, rng, 1, 3)
        assert commutator(f, g) == _naive_product(f, g) - _naive_product(g, f)
        assert commutator(g, f) == g * f - f * g


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (5, 2), (9, 1)])
def test_commutator_of_monomials_against_the_swap_oracle(q, n):
    alg = AlgebraParams(n, _field(q))
    rng = random.Random(("bracket-mono", q, n).__repr__())
    for ring in ("k", "w2"):
        for _ in range(10):
            ea = tuple(rng.randint(0, 4) for _ in range(alg.nvars))
            eb = tuple(rng.randint(0, 4) for _ in range(alg.nvars))
            want = mono_mul_naive(alg, ea, eb, ring) - mono_mul_naive(alg, eb, ea, ring)
            got = commutator(alg.monomial(ea, ring=ring), alg.monomial(eb, ring=ring))
            assert got == want


def test_commutator_with_zero_and_across_algebras():
    alg = AlgebraParams(1, FieldParams(3))
    for ring in ("k", "w2"):
        f = alg.gen(0, ring) + alg.gen(1, ring) ** 2
        zero = alg.const(0, ring)
        assert commutator(f, zero) == zero
        assert commutator(zero, f) == zero
    other = AlgebraParams(1, FieldParams(5))
    with pytest.raises(ParamsMismatch):
        commutator(alg.gen(0), other.gen(1))
    with pytest.raises(ParamsMismatch):
        commutator(alg.gen(0), alg.gen(1, "w2"))


def test_ad_pow_stops_at_the_first_zero(monkeypatch):
    """ad(z_2)^r z_1^3 reaches 0 after 4 brackets, so it makes 4 calls, not r."""
    from weylift import weyl

    alg = AlgebraParams(1, FieldParams(7))
    calls = []
    bracket = weyl.commutator
    monkeypatch.setattr(weyl, "commutator", lambda f, g: calls.append(1) or bracket(f, g))
    z1, z2 = alg.gen(0), alg.gen(1)
    assert ad_pow(z2, 3, z1**3) == alg.const(6)
    assert len(calls) == 3
    calls.clear()
    assert ad_pow(z2, 6, z1**3).is_zero()
    assert len(calls) == 4
    calls.clear()
    assert ad_pow(z2, 6, alg.const(0)).is_zero()
    assert not calls


# SHA-256 of the commutator's terms in dict order over the seeded pairs below,
# as PRODUCT_ORDER_DIGESTS does for the product: first insertion over the
# visited pairs, A-major; each A term goes through B for z^a z^b, then again
# for z^b z^a.
COMMUTATOR_ORDER_DIGESTS = {
    2: "65af4ce0690c21a7bff8537bfe869d20a5f9de8521fc77d5ca78283bcdca01e1",
    3: "ae912207a39bf9fc7936f19cdb8f011f256d06c4205f3834f611a8479744eac9",
    5: "726496efba4c558422d218471a8820d9222da5c109448849da2273ce2585fb8a",
    9: "5c8caa6baead17c8774e26f116117d0caebf23230e31426b8d8398e955958d69",
}


@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_commutator_term_order_is_pinned(q):
    h = hashlib.sha256()
    for n in (1, 2):
        alg = AlgebraParams(n, _field(q))
        rng = random.Random(("bracket-order", q, n).__repr__())
        for ring in ("k", "w2"):
            for _ in range(15):
                f = _random_elem(alg, rng, 5, ring) + _random_elem(alg, rng, 3, ring)
                g = _random_elem(alg, rng, 5, ring) + _random_elem(alg, rng, 3, ring)
                h.update(repr([(e, c.coeffs) for e, c in commutator(f, g).terms.items()]).encode())
    assert h.hexdigest() == COMMUTATOR_ORDER_DIGESTS[q]


# -- the kernel's set-up, memoised by value -----------------------------------


def test_equal_algebras_share_the_contraction_rows(monkeypatch):
    from weylift import weyl

    built = []
    row = weyl._contraction_row
    monkeypatch.setattr(weyl, "_contraction_row", lambda *a: built.append(a) or row(*a))
    weyl._context.cache_clear()

    def product():
        alg = AlgebraParams(2, FieldParams(5))  # a new, equal algebra each call
        return alg.monomial((0, 0, 3, 2)) * alg.monomial((4, 1, 0, 0))

    first = product()
    assert built
    built.clear()
    second = product()
    assert not built
    assert second == first


def test_different_algebras_keep_their_own_set_up():
    """Interleaved products in algebras that differ in the modulus, the ring
    or n each match the swap oracle, and each gets its own set-up."""
    from weylift import weyl

    weyl._context.cache_clear()
    algs = [
        AlgebraParams(n, FieldParams(3, 2, mod)) for mod in ((1, 0, 1), (2, 2, 1)) for n in (1, 2)
    ]
    rng = random.Random("distinct-set-up")
    for _ in range(6):
        for alg in algs:
            for ring in ("k", "w2"):
                ea = tuple(rng.randint(0, 4) for _ in range(alg.nvars))
                eb = tuple(rng.randint(0, 4) for _ in range(alg.nvars))
                c = alg.field.element((1, 1))
                if ring == "w2":
                    c = teichmuller(c)
                f = alg.monomial(ea, c, ring)
                assert f * alg.monomial(eb, ring=ring) == mono_mul_naive(alg, ea, eb, ring).scale(c)
    # all exponent sums stay below 2^8: one set-up per field, n and ring
    assert weyl._context.cache_info().currsize == len(algs) * 2


def test_tagged_polys_on_one_set_up_still_refuse_to_mix():
    """x- and y-polynomials (and Weyl elements) of one algebra share one
    set-up object, so _aligned's direct path must not let them combine,
    not even a Weyl element and a polynomial on one store."""
    from weylift import center as C

    alg = AlgebraParams(1, FieldParams(3))
    x = alg.gen(0, var="x") + alg.const(1, var="x")
    y = alg.gen(1, var="y") + alg.const(1, var="y")
    z = alg.gen(0) + alg.const(1)
    zx = z._as("x")  # z's own store, read in x
    assert x.ctx is y.ctx is z.ctx is zx.ctx and zx.data is z.data
    assert type(zx) is C.Poly
    for a, b in ((x, y), (y, x), (x, z), (z, x), (zx, z), (z, zx)):
        for combine in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ParamsMismatch):
                combine(a, b)
    assert x != y and x != z and z != zx and zx != z
    assert zx == alg.gen(0, var="x") + alg.const(1, var="x")


# (the call, the class-constructor call it equals, or WeyliftError), on A_1(F_3)
_CONSTRUCTOR_CASES = {
    "z const over w2": (
        lambda a: a.const(2, "w2"),
        lambda a: WeylElem(a, "w2", {(0, 0): a.field.w2_from_int(2)}),
    ),
    "z gen": (lambda a: a.gen(1), lambda a: WeylElem(a, "k", {(0, 1): a.field.one})),
    "x zero": (lambda a: a.const(0, var="x"), lambda a: Poly(a, "x", {})),
    "x minus one": (
        lambda a: a.const(-1, var="x"),
        lambda a: Poly(a, "x", {(0, 0): -a.field.one}),
    ),
    "y gen": (lambda a: a.gen(1, var="y"), lambda a: Poly(a, "y", {(0, 1): a.field.one})),
    "y items": (
        lambda a: a.from_items([((2, 1), 2), ((1, 0), 0)], "y"),
        lambda a: Poly(a, "y", {(2, 1): a.field.from_int(2)}),
    ),
    "negative index": (lambda a: a.gen(-1, var="x"), WeyliftError),
    "index past 2n": (lambda a: a.gen(2, var="x"), WeyliftError),
    "float index": (lambda a: a.gen(1.0), WeyliftError),
    "unknown ring in const": (lambda a: a.const(1, "w3"), WeyliftError),
    "unknown ring in gen": (lambda a: a.gen(0, "bogus"), WeyliftError),
    "unknown ring in WeylElem": (lambda a: WeylElem(a, "w3", {}), WeyliftError),
    "unknown letter in const": (lambda a: a.const(1, var="q"), WeyliftError),
    "unknown letter in from_items": (lambda a: a.from_items([((0, 0), 1)], "q"), WeyliftError),
    "z in Poly": (lambda a: Poly(a, "z", {}), WeyliftError),
    "x over w2": (lambda a: a.const(1, "w2", "x"), WeyliftError),
    "y gen over w2": (lambda a: a.gen(0, "w2", "y"), WeyliftError),
    "z items unreduced": (
        lambda a: a.from_items([((1, 0), 7), ((0, 1), -3)]),
        lambda a: WeylElem(a, "k", {(1, 0): a.field.one}),
    ),
    "one-shot items": (
        lambda a: a.from_items(((e, 1) for e in [(1, 0), (0, 1)])),
        lambda a: WeylElem(a, "k", {(1, 0): a.field.one, (0, 1): a.field.one}),
    ),
    "z items minus one": (
        lambda a: a.from_items([((1, 0), -1)]),
        lambda a: WeylElem(a, "k", {(1, 0): -a.field.one}),
    ),
    "float residue": (lambda a: a.from_items([((1, 0), 1.5)], "x"), WeyliftError),
    "float const": (lambda a: a.const(1.5), WeyliftError),
    "str const": (lambda a: a.const("1", var="y"), WeyliftError),
}


@pytest.mark.parametrize("build, want", _CONSTRUCTOR_CASES.values(), ids=_CONSTRUCTOR_CASES)
def test_constructors_check_ring_letter_and_index(build, want):
    """const, gen and from_items take every letter: each good call equals
    the class constructor it stands for, and a bad ring, letter (a
    polynomial over w2 included) or index raises WeyliftError."""
    alg = AlgebraParams(1, FieldParams(3))
    if want is WeyliftError:
        with pytest.raises(WeyliftError):
            build(alg)
    else:
        got, ref = build(alg), want(alg)
        assert type(got) is type(ref) and got.var == ref.var and got == ref


def test_extension_field_residues_must_fit_the_ring():
    """Over F_9 a residue is an int >= 0 within the ring's two digits: -1,
    and t shifted past the digits, raise WeyliftError, while the residue
    of t builds t z_1 (an integer's residue comes from const)."""
    alg = AlgebraParams(1, FieldParams(3, 2))
    t_z1 = WeylElem(alg, "k", {(1, 0): alg.field.element((0, 1))})
    (t,) = t_z1.data.values()
    assert alg.from_items([((1, 0), t)]) == t_z1
    assert alg.from_items([((1, 0), 2)], "y") == alg.const(2, var="y") * alg.gen(0, var="y")
    for bad in (-1, t << t.bit_length()):
        with pytest.raises(WeyliftError):
            alg.from_items([((1, 0), bad)])
    assert alg.const(-1) == alg.const(2)


def test_contraction_rows_are_plain_pairs_from_k_0():
    """The rows the kernel reads for z_3^5 z_4^3 * z_1^4 z_2^3 are () or
    plain (offset, weight mod N) pairs from the k = 0 contraction (0, 1),
    over k and W_2; pair 2, (a, b) = (3, 3), contracts to 0 only over k."""
    alg = AlgebraParams(2, FieldParams(3))
    ea, eb = (0, 0, 5, 3), (4, 3, 0, 0)
    for ring in ("k", "w2"):
        a, b = alg.monomial(ea, ring=ring), alg.monomial(eb, ring=ring)
        assert a * b == mono_mul_naive(alg, ea, eb, ring)
        ctx, (key,) = a.ctx, a.data
        links = ctx.links(key & ctx.upper, True)
        rows = [by_y[y] for (_, by_y, _), y in zip(links, eb)]
        assert len(rows) == 2 and (rows[1] == ()) == (ring == "k")
        for row in rows:
            assert not row or row[0] == (0, 1)
            assert all(d > 0 and 0 < w < ctx.res.N for d, w in row[1:])


def test_only_weyl_imports_its_private_names():
    """The packed store stays behind weyl: no other module of the package
    imports a name starting with _ from it."""
    src = Path(weylift.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "weyl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("weyl", "weylift.weyl"):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert not found


def test_equal_but_distinct_algebras_still_combine():
    """Two equal AlgebraParams objects share a set-up but not the algebra
    object: their elements add, multiply and compare as within one."""
    a, b = AlgebraParams(1, FieldParams(3)), AlgebraParams(1, FieldParams(3))
    assert a is not b and a == b
    f = a.gen(0) + a.monomial((2, 1))
    g_a = a.gen(1) ** 2 + a.monomial((1, 1), a.field.from_int(2))
    g_b = b.gen(1) ** 2 + b.monomial((1, 1), b.field.from_int(2))
    assert f.ctx is g_b.ctx
    assert f + g_b == f + g_a and f - g_b == f - g_a
    assert f * g_b == f * g_a and g_b * f == g_a * f
    assert g_b == g_a and g_a == g_b and f != g_b
    assert commutator(f, g_b) == commutator(f, g_a)


def test_one_set_up_product_widens_past_the_field():
    """z_1^200 * z_1^100 on one 8-bit set-up overflows its fields: the
    product still moves to 16 bits, for Weyl elements and polynomials."""
    from weylift import center as C

    alg = AlgebraParams(1, FieldParams(3))
    a, b = alg.monomial((200, 0)), alg.monomial((100, 0))
    assert a.ctx is b.ctx and a.ctx.width == 8
    prod = a * b
    assert prod.ctx.width == 16 and prod.terms == {(300, 0): alg.field.one}
    pa = C.Poly(alg, "x", {(200, 0): alg.field.one})
    pb = C.Poly(alg, "x", {(100, 0): alg.field.one})
    assert pa.ctx is pb.ctx
    prod = pa * pb
    assert prod.ctx.width == 16 and prod.terms == {(300, 0): alg.field.one}


@pytest.mark.parametrize("q", [5, 9])
def test_product_coefficients_belong_to_the_calling_field(q):
    """A second, separately built equal algebra reuses the first one's set-up,
    yet every coefficient it gets back is an element of its own field."""
    from weylift import weyl

    weyl._context.cache_clear()
    for alg in (AlgebraParams(1, _field(q)), AlgebraParams(1, _field(q))):
        rng = random.Random(("own-field", q).__repr__())
        for ring in ("k", "w2"):
            for _ in range(10):
                f, g = _random_elem(alg, rng, 5, ring), _random_elem(alg, rng, 5, ring)
                for h in (f * g, commutator(f, g)):
                    assert all(c.params is alg.field for c in h.terms.values())


# -- the int store: packing widths and Kronecker digits ----------------------


def _termwise_sum(f: WeylElem, g: WeylElem, sign: int) -> dict:
    """f + sign * g on the decoded terms, with coefficient objects."""
    out = dict(f.terms.items())
    for e, c in g.terms.items():
        s = out.get(e)
        s = (c if sign > 0 else -c) if s is None else (s + c if sign > 0 else s - c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _termwise_product(f: WeylElem, g: WeylElem) -> dict:
    """f * g on the decoded terms: every term pair by the contraction formula,
    one conjugate pair at a time, with coefficient objects."""
    alg, n = f.alg, f.alg.n
    out: dict = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            parts = {tuple(x + y for x, y in zip(ea, eb)): 1}
            for l in range(n):
                a, b = ea[n + l], eb[l]
                nxt: dict = {}
                for e, w in parts.items():
                    for k in range(min(a, b) + 1):
                        d = list(e)
                        d[l] -= k
                        d[n + l] -= k
                        d = tuple(d)
                        nxt[d] = nxt.get(d, 0) + w * comb(a, k) * comb(b, k) * factorial(k)
                parts = nxt
            for e, w in parts.items():
                v = ca * cb * alg.ring_from_int(f.ring, w)
                s = out.get(e)
                out[e] = v if s is None else s + v
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("q", [5, 9, 32749])
def test_mixed_packing_widths_agree_with_the_decoded_terms(q):
    """An element with every exponent below 256 (8-bit fields) against ones
    whose exponents reach 300 (16-bit) and 70,000 (32-bit): the sum, the
    difference, equality and both products agree with the term-wise result
    on the decoded terms."""
    alg = AlgebraParams(2, _field(q))
    rng = random.Random(("widths", q).__repr__())
    for ring in ("k", "w2"):
        small = _random_elem(alg, rng, 20, ring) + alg.monomial((250, 3, 0, 1), ring=ring)
        assert small.ctx.width == 8
        for top, width in ((300, 16), (70000, 32)):
            big = _random_elem(alg, rng, 40, ring) + alg.monomial((top, 1, 0, 2), ring=ring)
            big = big + small.scale(alg.ring_from_int(ring, 2))  # shared monomials
            assert big.ctx.width == width
            assert dict((small + big).terms.items()) == _termwise_sum(small, big, 1)
            assert dict((big + small).terms.items()) == _termwise_sum(big, small, 1)
            assert dict((small - big).terms.items()) == _termwise_sum(small, big, -1)
            assert dict((big - small).terms.items()) == _termwise_sum(big, small, -1)
            # the same element at two widths compares equal both ways
            again = (small + big) - big
            assert again.ctx.width == width
            assert again == small and small == again
            assert again != small + alg.const(1, ring)
            assert dict((small * big).terms.items()) == _termwise_product(small, big)
            assert dict((big * small).terms.items()) == _termwise_product(big, small)


def test_kronecker_digit_bound(monkeypatch):
    """Over W_2(F_{p^2}), p = 32749, every coefficient has both Galois-ring
    digits q - 1 (q = p^2) and the weight of z_3 z_1^(q-1) -> z_1^(q-2) is
    q - 1 as well, so the K diagonal pairs below pile K maximal products
    onto one output key, each with middle digit 2 (q-1)^3.  At the shipped
    digit width and at the narrowest width that holds K such summands the
    product agrees with the term-wise Witt2 reference; one bit narrower, a
    digit carries and it does not."""
    from weylift import scalars, weyl

    from test_scalars import _quadratic_modulus

    p, K = 32749, 3
    field = FieldParams(p, 2, _quadratic_modulus(p))
    alg = AlgebraParams(2, field)
    q = p * p

    def product_matches() -> bool:
        scalars.residue_ring.cache_clear()
        weyl._context.cache_clear()
        D = scalars.residue_ring(p, 2, field.modulus, "w2").D
        top = Witt2._of(field, (q - 1) | (q - 1) << D)
        f = WeylElem(alg, "w2", {(0, i, 1, 0): top for i in range(K)})
        g = WeylElem(alg, "w2", {(q - 1, K - 1 - j, 0, 0): top for j in range(K)})
        return dict((f * g).terms.items()) == _termwise_product(f, g)

    width = scalars._digit_width
    try:
        assert product_matches()
        monkeypatch.setattr(scalars, "_SUMMANDS", K)
        assert width(2, q) == (K * 2 * (q - 1) ** 3).bit_length()
        assert product_matches()
        monkeypatch.setattr(scalars, "_digit_width", lambda m, N: width(m, N) - 1)
        assert not product_matches()
    finally:
        monkeypatch.undo()
        scalars.residue_ring.cache_clear()
        weyl._context.cache_clear()


@pytest.mark.parametrize(
    "exps", [(1,), (1, 0, 0), (-1, 0), (0, -2), (1.5, 0), ("2", 0), (0.9, 1), ("a", 0), ()]
)
def test_constructors_reject_malformed_exponent_vectors(exps):
    """Every constructor checks each vector in the one packer: a wrong
    length, a negative entry or an entry that is not an integer (a float is
    not truncated) raises WeyliftError, not struct.error."""
    from weylift import center as C

    alg = AlgebraParams(1, FieldParams(3))
    one = alg.field.one
    builds = [
        lambda: WeylElem(alg, "k", {exps: one}),
        lambda: WeylElem(alg, "w2", {exps: alg.field.w2_one()}),
        lambda: C.Poly(alg, "x", {exps: one}),
        lambda: alg.monomial(exps),
        lambda: WeylElem(alg, "w2", {exps: one}),
        lambda: C.Poly(alg, "y", {exps: one}),
        lambda: alg.from_items([((0, 1), 1), (exps, 1)]),
        lambda: alg.from_items([(exps, 2)], "x"),
    ]
    for build in builds:
        with pytest.raises(WeyliftError):
            build()


def test_constructors_read_index_ints_exactly():
    """An entry that is an int by __index__, as a numpy integer is, is accepted."""

    class Index:
        def __init__(self, v):
            self.v = v

        def __index__(self):
            return self.v

    alg = AlgebraParams(1, FieldParams(3))
    assert alg.monomial((Index(2), Index(0))) == alg.monomial((2, 0))
    assert alg.from_items([((Index(1), 0), 1)]) == alg.gen(0)
    assert alg.const(Index(4)) == alg.const(1)


def test_coefficient_objects_stay_at_the_boundary():
    """Past the constructors the library runs on residues: these modules
    name no coefficient class and decode no ``terms``."""
    src = Path(weylift.__file__).parent
    banned = re.compile(r"FieldElem|Witt2|\.inverse\(|from_int\(|field\.one|lex_leading|\.terms\b")
    found = [
        f"{name}.py:{i}: {line.strip()}"
        for name in ("center", "trivialization", "cohomology", "diffeq", "parser", "cli")
        for i, line in enumerate((src / f"{name}.py").read_text(encoding="utf-8").splitlines(), 1)
        if banned.search(line)
    ]
    assert not found


@pytest.mark.parametrize("q,ring", [(5, "k"), (5, "w2"), (9, "k")])
def test_terms_is_a_fresh_decoded_dict(q, ring):
    """``terms`` is a plain dict equal to the terms an element was built
    from, and each read is a new dict: mutating one leaves the element."""
    from weylift import center as C

    alg = AlgebraParams(2, _field(q))
    rng = random.Random(("terms", q, ring).__repr__())
    built = {}
    while len(built) < 6:
        built[tuple(rng.randrange(4) for _ in range(4))] = _random_coeff(alg.field, rng, ring)
    elems = [WeylElem(alg, ring, built)]
    if ring == "k":
        elems.append(C.Poly(alg, "y", built))
    for f in elems:
        terms = f.terms
        assert type(terms) is dict
        assert terms == built
        assert list(terms) == list(built)
        assert f.terms is not terms
        terms.clear()
        assert f.terms == built
