"""Polynomial arithmetic on the center, bracket oracles, matrix helpers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from weylift import center as C
from weylift import trivialization as TV
from weylift.endo import etale_family
from weylift.errors import DivisionByZero, WeyliftError
from weylift.scalars import FieldParams
from weylift.weyl import AlgebraParams, WeylElem, commutator


def embed_center(f: C.Poly) -> WeylElem:
    """f(x) as the central element f(z^p) of A_n(k)."""
    assert f.var == "x"
    p = f.alg.field.p
    return WeylElem(f.alg, "k", {tuple(p * a for a in e): c for e, c in f.terms.items()})


def x_to_y(f: C.Poly) -> C.Poly:
    """f(x) -> f(y^p): the y-polynomial with every exponent multiplied by p."""
    assert f.var == "x"
    p = f.alg.field.p
    return f.alg.from_items([(tuple(p * a for a in e), c) for e, c in f._items()], "y")


def _rand_poly(alg, rng, tag="x", max_deg=3, nterms=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(alg.nvars))
        terms[exps] = alg.field.from_int(rng.randint(1, alg.field.p - 1))
    return C.Poly(alg, tag, terms)


@pytest.fixture(scope="module")
def a1(f3):
    return AlgebraParams(1, f3)


@pytest.fixture(scope="module")
def a2(f3):
    return AlgebraParams(2, f3)


def test_pderiv_product_rule(a2):
    rng = random.Random(1)
    for _ in range(20):
        f = _rand_poly(a2, rng)
        g = _rand_poly(a2, rng)
        for i in range(4):
            lhs = (f * g).pderiv(i)
            rhs = f.pderiv(i) * g + f * g.pderiv(i)
            assert lhs == rhs


def test_pderiv_kills_p_th_powers(a1):
    f = C.Poly(a1, "x", {(3, 0): a1.field.one, (0, 6): a1.field.from_int(2)})
    assert f.pderiv(0).is_zero()
    assert f.pderiv(1).is_zero()


def test_poisson_bracket_matches_witt_commutator_oracle(a1, a2):
    """{f, g} from the Jacobian formula against the W_2 commutator route."""
    rng = random.Random(2)
    for alg in (a1, a2):
        for _ in range(8):
            f = _rand_poly(alg, rng, max_deg=2)
            g = _rand_poly(alg, rng, max_deg=2)
            via_w2 = C.witt_brackets([embed_center(f), embed_center(g)])[0][1]
            assert C.poisson(f, g) == via_w2


def test_poisson_canonical_pairs(a2):
    # {x_i, x_j} = (omega^{-1})_{ij} under {f,g} = (grad f)^T omega^{-1} (grad g)
    om_inv = C.omega_inv_matrix(a2, "x")
    for i in range(4):
        for j in range(4):
            xi = a2.gen(i, var="x")
            xj = a2.gen(j, var="x")
            assert C.poisson(xi, xj) == om_inv[i][j]


def test_embed_center_is_central(a1):
    rng = random.Random(3)
    for _ in range(6):
        f = _rand_poly(a1, rng)
        F = embed_center(f)
        assert F.is_central()
        assert F.to_center_poly() == f
        g = a1.gen(0) + a1.gen(1)
        assert commutator(F, g).is_zero()


def test_retag_round_trips(a1):
    rng = random.Random(4)
    for _ in range(10):
        f = _rand_poly(a1, rng, tag="y")
        fp = C.pth_power_retag(f)
        assert fp.var == "x"
        assert C.pth_root_retag(fp) == f
        assert x_to_y(fp) == f**3


def test_det_routes_agree(corpus):
    """Cofactor expansion vs fraction-free elimination on random matrices and
    on conjugators G of the size Bareiss serves (5 x 5 and 9 x 9)."""
    f5 = FieldParams(5)
    mats = []
    for n in (1, 2):
        alg = AlgebraParams(n, f5)
        rng = random.Random(50 + n)
        size = alg.nvars
        for _ in range(6):
            mats.append([
                [_rand_poly(alg, rng, max_deg=1, nterms=2) for _ in range(size)]
                for _ in range(size)
            ])
    p3_n2 = [e for e in corpus if (e.alg.field.p, e.alg.n) == (3, 2)]
    for e in (etale_family(AlgebraParams(1, f5), 4, f5.one), p3_n2[1]):
        mats.append(TV.conjugator_for_endo(e).G)
    # one 4 x 4 matrix over F_9, its entries' coefficients drawn from all of F_9
    a9 = AlgebraParams(2, FieldParams(3, 2))
    rng, units = random.Random(59), [c for c in a9.field.all_elements() if c]
    mats.append([
        [_rand_poly(a9, rng, max_deg=1, nterms=2).scale(rng.choice(units)) for _ in range(4)]
        for _ in range(4)
    ])
    for M in mats:
        alg, tag = M[0][0].alg, M[0][0].var
        assert C._det_cofactor(M, alg, tag) == C._det_bareiss(M, alg, tag)
    assert [len(M) for M in mats[-3:]] == [5, 9, 4]


def test_det_of_omega(a2):
    om = C.omega_matrix(a2, "x")
    assert C.det(om) == a2.const(1, var="x")
    prod = C.mat_mul(om, C.omega_inv_matrix(a2, "x"))
    ident = [
        [a2.const(1 if i == j else 0, var="x") for j in range(4)]
        for i in range(4)
    ]
    assert C.mat_eq(prod, ident)


def test_divexact(a1):
    rng = random.Random(6)
    for _ in range(15):
        f = _rand_poly(a1, rng)
        g = _rand_poly(a1, rng)
        assert C.divexact(f * g, g) == f
    with pytest.raises(WeyliftError):
        C.divexact(a1.gen(0, var="x"), a1.gen(1, var="x"))
    with pytest.raises((DivisionByZero, WeyliftError)):
        C.divexact(a1.const(1, var="x"), a1.const(0, var="x"))


def test_divexact_over_f9():
    """Exact division with coefficients outside F_p: the leading residue t of
    g is inverted in F_9."""
    f9 = FieldParams(3, 2)
    alg, t, one = AlgebraParams(1, f9), f9.element((0, 1)), f9.one
    f = C.Poly(alg, "x", {(2, 0): t, (0, 1): one, (0, 0): t + one})
    g = C.Poly(alg, "x", {(2, 1): t, (1, 0): t * t, (0, 0): one})
    assert C.divexact(f * g, g) == f
    assert C.divexact(f * g, f) == g
    with pytest.raises(WeyliftError):
        C.divexact(f * g + alg.const(1, var="x"), g)


def test_frobenius_twist(a1):
    rng = random.Random(7)
    for _ in range(4):
        f = _rand_poly(a1, rng, tag="y")
        assert x_to_y(C.pth_power_retag(f)) == f**3
    with pytest.raises(WeyliftError):
        C.pth_power_retag(a1.gen(0, var="x"))


def test_is_poisson_and_etale_on_coordinates(a2):
    coords = [a2.gen(i, var="x") for i in range(4)]
    J = C.jacobian(coords)
    assert C.is_poisson_morphism(C.bracket_matrix(J))
    assert C.is_etale(J)
    bad = list(coords)
    bad[0] = coords[0] * coords[0]
    assert not C.is_etale(C.jacobian(bad))
    assert not C.is_poisson_morphism(C.bracket_matrix(C.jacobian(bad)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 2)), min_size=1, max_size=4))
def test_poly_add_mul_commute_hypothesis(termspec):
    f3 = FieldParams(3)
    alg = AlgebraParams(1, f3)
    terms = {}
    for a, b, c in termspec:
        terms[(a, b)] = f3.from_int(c)
    f = C.Poly(alg, "x", terms)
    g = C.Poly(alg, "x", {(1, 0): f3.one, (0, 2): f3.from_int(2)})
    assert f * g == g * f
    assert f + g == g + f
    assert (f + g) * g == f * g + g * g
