"""Endomorphism validation, the obstruction matrix by two routes, and the
degree-bound and Jacobian theorems over the seeded corpus."""

from __future__ import annotations

import random

import pytest
import trivialization_oracle as TO

from weylift import center as C
from weylift import diffeq
from weylift import endo as endo_module
from weylift.endo import (
    DEFAULT_BUDGET,
    Endo,
    bkk_family,
    elementary,
    etale_family,
    fourier,
    generate_corpus,
    identity_endo,
    validate,
)
from weylift.errors import InternalInconsistency, ParamsMismatch, RelationViolation, ResourceLimit
from weylift.scalars import FieldParams
from weylift.weyl import AlgebraParams, commutator


def test_validate_identity(a1_f3):
    e = identity_endo(a1_f3)
    e.validate()
    assert e.deg == 1


def test_validate_rejects_degenerate_images(a1_f3):
    z1 = a1_f3.gen(0)
    with pytest.raises(RelationViolation) as exc:
        validate([z1, z1])
    # [z1, z1] = 0 misses omega_{12} = -1 by exactly 1
    assert exc.value.residual == a1_f3.const(1)


def test_images_must_be_weyl_elements_over_k(a1_f3):
    """Center polynomials, or Weyl elements over W_2, are not images: their
    stores would otherwise be read as Weyl elements over k."""
    polys = [a1_f3.gen(0, var="x"), a1_f3.gen(1, var="x")]
    with pytest.raises(ParamsMismatch):
        validate(polys)
    with pytest.raises(ParamsMismatch):
        Endo(a1_f3, [a1_f3.gen(0, "w2"), a1_f3.gen(1, "w2")])


def test_validate_bkk(a2_f3):
    e = bkk_family(a2_f3, 2, a2_f3.field.one)
    e.validate()
    assert e.deg == 5


def test_validate_checks_once(a2_f3, monkeypatch):
    e = bkk_family(a2_f3, 2, a2_f3.field.one)
    e.validate()

    def no_defects(alg, lifts):
        raise AssertionError("relations checked again")

    monkeypatch.setattr(endo_module, "relation_defects", no_defects)
    e.validate()


def test_u_ij_of_an_unvalidated_violation_is_bad_input(a1_f3):
    """u_ij reads the relations off the same W_2 commutators validate does,
    so images never validated raise RelationViolation, not an internal error."""
    z1 = a1_f3.gen(0)
    with pytest.raises(RelationViolation) as exc:
        Endo(a1_f3, [z1, z1]).u_ij(0, 1)
    assert (exc.value.i, exc.value.j) == (0, 1)
    assert exc.value.residual == a1_f3.const(1)


def _first_k_violation(e: Endo):
    """(i, j, [u_i, u_j] - omega_ij) over k at the first pair where that is
    nonzero, or None: the k-side relation check, kept as the reference."""
    alg = e.alg
    for i in range(alg.nvars):
        for j in range(i + 1, alg.nvars):
            residual = commutator(e.images[i], e.images[j]) - alg.const(alg.omega_int(i, j))
            if residual:
                return i, j, residual
    return None


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (5, 1), (5, 2), (9, 1), (9, 2)])
def test_relation_violation_is_the_k_side_residual(q, n):
    """Seeded maps with one image perturbed by a random term: validate raises
    at the first failing pair with the residual [u_i, u_j] - omega_ij over k,
    and passes exactly when the k-side check finds no failing pair."""
    field = FieldParams(3, 2) if q == 9 else FieldParams(q)
    alg = AlgebraParams(n, field)
    rng = random.Random(("broken", q, n).__repr__())
    pairs = []
    for e in generate_corpus(alg, 12, seed=q):
        images = list(e.images)
        r = rng.randrange(alg.nvars)
        exps = tuple(rng.randint(0, 2) for _ in range(alg.nvars))
        c = field.element([rng.randrange(1, field.p)] + [rng.randrange(field.p)] * (field.m - 1))
        images[r] = images[r] + alg.monomial(exps, c)
        broken = Endo(alg, images)
        want = _first_k_violation(broken)
        if want is None:
            broken.validate()
            continue
        with pytest.raises(RelationViolation) as exc:
            broken.validate()
        assert (exc.value.i, exc.value.j) == want[:2]
        assert exc.value.residual == want[2]
        pairs.append(want[:2])
    assert len(pairs) >= 6 and len(set(pairs)) >= (1 if n == 1 else 4)


def test_u_ij_examples(a1_f3):
    ident = identity_endo(a1_f3)
    assert all(ident.u_ij(i, j).is_zero() for i in range(2) for j in range(2))
    # phi = (z1, z2 + z1^2): [z1, z1^2] = 0 exactly, so u_12 = 0
    z1, z2 = a1_f3.gen(0), a1_f3.gen(1)
    e = validate([z1, z2 + a1_f3.monomial((2, 0))])
    assert e.u_ij(0, 1).is_zero()
    # phi = (z1, z2 + z2^3) has a genuinely nonzero Witt-layer commutator
    e2 = etale_family(a1_f3, 0, a1_f3.field.one)
    assert not e2.u_ij(0, 1).is_zero()


def test_u_ij_antisymmetry_and_degree_bound(corpus):
    for e in corpus[::5]:
        size = e.alg.nvars
        M = [[e.u_ij(i, j) for j in range(size)] for i in range(size)]
        for i in range(size):
            assert M[i][i].is_zero()
            for j in range(i + 1, size):
                assert M[i][j] == -M[j][i]
                if not M[i][j].is_zero():
                    bound = int(e.u(i).degree()) + int(e.u(j).degree()) - 2
                    assert int(M[i][j].degree()) <= bound


def test_obstruction_dual_route_corpus(corpus):
    """Criterion: the ad-power route and the [U^p, V^p] route agree everywhere."""
    assert len(corpus) >= 100
    mismatches = 0
    for e in corpus:
        if not C.mat_eq(e.obstruction_C, e.obstruction_C_oracle):
            mismatches += 1
    assert mismatches == 0


def test_obstruction_antisymmetric_and_central(corpus):
    for e in corpus[::4]:
        M = e.obstruction_C
        size = e.alg.nvars
        for i in range(size):
            for j in range(size):
                assert M[i][j] == -M[j][i]


def test_jacobian_identity_corpus(corpus_reports):
    """J_phi omega^{-1} J_phi^T = omega^{-1} + C, exactly, on the full corpus."""
    for e, _rep in corpus_reports:
        assert e.check_theorem_idjac()


# F_4, F_9 and F_25 as (p, m, modulus), each with the coefficient c = t
_EXTENSION_FIELDS = ((2, 2, (1, 1, 1)), (3, 2, (1, 0, 1)), (5, 2, (2, 0, 1)))


@pytest.fixture(scope="module")
def reference_maps(corpus):
    """The corpus, a p = 2 corpus, and both families over F_4, F_9, F_25."""
    maps = list(corpus)
    for n, count in ((1, 15), (2, 5)):
        maps += endo_module.generate_corpus(AlgebraParams(n, FieldParams(2)), count, 7)
    for p, m, modulus in _EXTENSION_FIELDS:
        field = FieldParams(p, m, modulus)
        t = field.element((0, 1))
        for family, n in ((etale_family, 1), (bkk_family, 2)):
            maps += [family(AlgebraParams(n, field), i, t) for i in range(p)]
    return maps


def test_bracket_matrix_matches_the_matrix_product(reference_maps):
    """bracket_matrix(J) is J omega^{-1} J^T as two generic matrix products."""
    for e in reference_maps:
        J = e.center_jacobian
        inv = C.omega_inv_matrix(e.alg, "x")
        want = TO.mat_mul(TO.mat_mul(J, inv), C.mat_transpose(J))
        assert C.mat_eq(e.center_brackets, want)
        assert C.is_poisson_morphism(e.center_brackets) == C.mat_eq(want, inv)


def test_oracle_lifts_of_center_images_match_the_full_commutator(reference_maps):
    """[[u_i^p], [u_j^p]] equals [U_i^p, U_j^p] with U_i^p the full W_2 p-th
    power, and the oracle is c_ij read off p c_ij = [U_i^p, U_j^p] + p omega."""
    from weylift.weyl import teich_lift, w2_decompose_elem

    pairs = 0
    for e in reference_maps:
        alg = e.alg
        p = alg.field.p
        pows = [U.p_power() for U in e._teich]
        lifts = [teich_lift(u.p_power()) for u in e.images]
        for i in range(alg.nvars):
            for j in range(i + 1, alg.nvars):
                full = commutator(pows[i], pows[j])
                assert commutator(lifts[i], lifts[j]) == full
                D = full + alg.const(p * alg.omega_int(i, j), "w2")
                d1, d2 = w2_decompose_elem(D)
                assert d1.is_zero()
                assert e.obstruction_C_oracle[i][j] == d2.to_center_poly()
                pairs += 1
    assert pairs == 439


def test_oracle_rejects_a_non_central_unit_part(a1_f3):
    """(z1 z2)^p is not central in A_1(F_3), so its unit terms are not either."""
    z1, z2 = a1_f3.gen(0), a1_f3.gen(1)
    e = Endo(a1_f3, [z1 * z2, z2])
    with pytest.raises(InternalInconsistency):
        e.obstruction_C_oracle


def test_corpus_run_leaves_shared_values_unchanged():
    """After a corpus run the memoised omega matrices and every map's cached
    image powers equal fresh builds: shared values are never mutated."""
    alg = AlgebraParams(2, FieldParams(3))
    maps = endo_module.generate_corpus(alg, 6, 7)
    snapshots = [[dict(u.data) for u in e.images] for e in maps]
    composites = [a.compose(b) for a in maps for b in maps[:2]]
    for e in maps + composites:
        e.analyze()
        sol = diffeq.gamma_solution(e)
        assert diffeq.check_matrix_id(e, sol)
        assert C.mat_eq(e.obstruction_C, e.obstruction_C_oracle)
        assert e.check_theorem_idjac()
    for e, snap in zip(maps, snapshots):
        assert [u.data for u in e.images] == snap
        assert len(e._powers[0]) > 2
        for i, cache in enumerate(e._powers):
            for k, power in cache.items():
                assert power == e.images[i] ** k
    for tag in ("x", "y"):
        assert C.omega_matrix(alg, tag) == C.omega_matrix.__wrapped__(alg, tag)
        assert C.omega_inv_matrix(alg, tag) == C.omega_inv_matrix.__wrapped__(alg, tag)


def test_three_way_agreement_corpus(corpus_reports):
    """liftable <=> Poisson <=> Jacobian symmetry of (f_i), on the full corpus."""
    for e, rep in corpus_reports:
        assert rep.liftable == (
            all(v.is_zero() for row in e.obstruction_C for v in row)
        )
        assert rep.liftable == rep.poisson
        assert rep.liftable == diffeq.gamma_solution(e).symmetric


def test_degree_bound_theorem_corpus(corpus_reports, corpus_gamma):
    """deg u_l + deg u_{n+l} < 2p for all pairs forces a liftable, Poisson
    endomorphism with constant gammas.  Zero exceptions."""
    gamma_by_id = {id(e): sol for e, sol in corpus_gamma}
    seen = 0
    for e, rep in corpus_reports:
        if not e.tsuchimoto_bound():
            continue
        seen += 1
        assert all(v.is_zero() for row in e.obstruction_C for v in row)
        assert rep.poisson
        assert all(g.is_constant() for g in gamma_by_id[id(e)].gamma)
    assert seen >= 10  # the generator must hit the bounded regime often


def test_center_images_fixtures(a1_f3, a2_f3):
    ident = identity_endo(a2_f3)
    for i in range(4):
        assert ident.center_images[i] == a2_f3.gen(i, var="x")
    bkk = bkk_family(a2_f3, 2, a2_f3.field.one)
    x = [a2_f3.gen(i, var="x") for i in range(4)]
    assert bkk.center_images[0] == x[0] + x[1] ** 3 * x[2] ** 2 - x[1]
    et = etale_family(a1_f3, 0, a1_f3.field.one)
    y = [a1_f3.gen(i, var="x") for i in range(2)]
    assert et.center_images[1] == y[1] + y[1] ** 3


def test_center_images_always_central(corpus):
    for e in corpus[::6]:
        for u in e.images:
            assert u.p_power().is_central()


def test_analyze_flags_fixtures(a1_f3, a2_f3):
    rep = identity_endo(a2_f3).analyze()
    assert rep.liftable and rep.poisson and rep.etale and rep.injective_certified
    rep = bkk_family(a2_f3, 2, a2_f3.field.one).analyze()
    assert not rep.liftable and not rep.poisson
    for i in range(3):
        rep = etale_family(a1_f3, i, a1_f3.field.one).analyze()
        assert rep.liftable == rep.poisson == rep.etale == (i < 2)


def test_analyze_budget_guardrail(a2_f3):
    e = bkk_family(a2_f3, 2, a2_f3.field.one)
    with pytest.raises(ResourceLimit):
        e.analyze(budget=10)
    assert e.estimate_terms() <= DEFAULT_BUDGET


def test_apply_and_compose(a1_f3):
    e = etale_family(a1_f3, 1, a1_f3.field.one)
    for i in range(2):
        assert e.apply(a1_f3.gen(i)) == e.u(i)
    f = a1_f3.monomial((2, 1)) + a1_f3.gen(0)
    g = a1_f3.monomial((0, 2))
    assert e.apply(f * g) == e.apply(f) * e.apply(g)
    assert e.apply(f + g) == e.apply(f) + e.apply(g)

    ident = identity_endo(a1_f3)
    assert ident.compose(e).images == e.images
    assert e.compose(ident).images == e.images


def test_compose_bkk_with_inverse(a2_f3):
    bkk = bkk_family(a2_f3, 2, a2_f3.field.one)
    z = [a2_f3.gen(i) for i in range(4)]
    inv = validate([z[0] - a2_f3.monomial((0, 3, 2, 0)), z[1], z[2], z[3]])
    back = bkk.compose(inv)
    assert back.images == identity_endo(a2_f3).images


def test_compose_associative(corpus):
    small = [e for e in corpus if e.alg.field.p == 2 and e.alg.n == 1][:3]
    if len(small) == 3:
        a, b, c = small
        lhs = a.compose(b).compose(c)
        rhs = a.compose(b.compose(c))
        assert lhs.images == rhs.images


def test_composition_of_liftable_is_liftable():
    alg = AlgebraParams(1, FieldParams(3))
    e1 = etale_family(alg, 0, alg.field.one)
    e2 = elementary(alg, alg.monomial((0, 4)), "second")
    assert e1.analyze().liftable and e2.analyze().liftable
    assert e1.compose(e2).analyze().liftable


def test_elementary_zero_is_identity(a1_f3):
    e = elementary(a1_f3, a1_f3.const(0), "second")
    assert e.images == identity_endo(a1_f3).images


def test_fourier_is_symplectic(a2_f3):
    e = fourier(a2_f3)
    e.validate()
    rep = e.analyze()
    assert rep.liftable and rep.etale
