"""The gamma and f equations, their unique solvability, and the twisted
Jacobian identity at both the y-level and the x-level."""

from __future__ import annotations

from dataclasses import replace

import pytest

from weylift import center as C
from weylift import diffeq as DQ
from weylift.endo import bkk_family, etale_family, identity_endo
from weylift.errors import NoSolution
from weylift.scalars import FieldParams
from weylift.weyl import AlgebraParams


def test_phi_S_fixtures(a1_f3, a2_f3):
    ident = identity_endo(a2_f3)
    for i in range(4):
        assert DQ.phi_S(ident, i) == C.poly_var(a2_f3, "y", i)
    bkk = bkk_family(a2_f3, 2, a2_f3.field.one)
    y = [C.poly_var(a2_f3, "y", i) for i in range(4)]
    assert DQ.phi_S(bkk, 0) == y[0] + y[1] ** 3 * y[2] ** 2 - y[1]
    et = etale_family(a1_f3, 0, a1_f3.field.one)
    w = [C.poly_var(a1_f3, "y", i) for i in range(2)]
    assert DQ.phi_S(et, 1) == w[1] + w[1] ** 3


def test_phi_S_is_pth_root(corpus):
    for e in corpus[::7]:
        for i in range(e.alg.nvars):
            ybar = DQ.phi_S(e, i)
            assert C.pth_power_retag(ybar) == e.center_images[i]


def test_rhs_gamma_fixtures(a1_f3, a2_f3):
    ident = identity_endo(a2_f3)
    for i in range(4):
        assert DQ.rhs_gamma(ident, i).is_zero()
    bkk = bkk_family(a2_f3, 2, a2_f3.field.one)
    y2 = C.poly_var(a2_f3, "y", 1)
    assert DQ.rhs_gamma(bkk, 2) == y2**3


def test_solve_gamma_unit_cases(a1_f3):
    zero = C.poly_zero(a1_f3, "y")
    assert DQ.solve_gamma(zero, 0).is_zero()
    # rhs = y2^3 in coordinate 2 of the n=2 algebra: gamma = y2
    a2 = AlgebraParams(2, a1_f3.field)
    y2 = C.poly_var(a2, "y", 1)
    assert DQ.solve_gamma(y2**3, 2) == y2
    # constant right side: gamma = c^{1/p}
    c = C.poly_const(a1_f3, "y", a1_f3.field.from_int(2))
    got = DQ.solve_gamma(c, 0)
    assert got.is_constant()
    assert got.constant_term() ** 3 == c.constant_term()


def test_solve_gamma_plugs_back(corpus):
    p_of = lambda e: e.alg.field.p
    for e in corpus[::5]:
        for i in range(e.alg.nvars):
            r = DQ.rhs_gamma(e, i)
            g = DQ.solve_gamma(r, i)
            assert g**p_of(e) + g.pderiv_iter(i, p_of(e) - 1) == r


def test_solve_gamma_rejects_unreachable_rhs(a1_f3):
    y1 = C.poly_var(a1_f3, "y", 0)
    with pytest.raises(NoSolution):
        DQ.solve_gamma(y1, 0)  # degree 1 < p with no constant match
    with pytest.raises(NoSolution):
        DQ.solve_gamma(y1**4 * C.poly_var(a1_f3, "y", 1) ** 2, 0)  # top not a cube


def test_gamma_solution_bkk(a2_f3):
    sol = DQ.gamma_solution(bkk_family(a2_f3, 2, a2_f3.field.one))
    y2 = C.poly_var(a2_f3, "y", 1)
    assert sol.gamma[2] == y2
    assert sol.gamma[0].is_zero() and sol.gamma[1].is_zero() and sol.gamma[3].is_zero()
    x2 = C.poly_var(a2_f3, "x", 1)
    assert sol.f[2] == x2
    assert not sol.symmetric


def test_f_equals_gamma_pth_power_and_direct_solve(corpus_gamma):
    """Criterion: f_i = gamma_i^p re-tag, and the direct x-level solve agrees."""
    for e, sol in corpus_gamma:
        for i in range(e.alg.nvars):
            assert sol.f[i] == C.pth_power_retag(sol.gamma[i])
            assert DQ.solve_f(e, i) == sol.f[i]


def test_matrix_identity_corpus(corpus_gamma):
    """J-bar^T omega J-bar = omega + J_gamma^T - J_gamma on the full corpus."""
    for e, sol in corpus_gamma:
        assert DQ.check_matrix_id(e, sol)


def test_J_f_is_twist_of_J_gamma(corpus_gamma):
    for e, sol in corpus_gamma[::6]:
        assert C.mat_eq(sol.J_f, C.mat_frobenius_twist(sol.J_gamma))


def test_symmetry_fixtures(a1_f3, a2_f3):
    assert DQ.symmetry_criterion(identity_endo(a2_f3))
    assert not DQ.symmetry_criterion(bkk_family(a2_f3, 2, a2_f3.field.one))
    for i in range(3):
        assert DQ.symmetry_criterion(etale_family(a1_f3, i, a1_f3.field.one)) == (i < 2)


def test_bounded_degree_forces_constant_gamma():
    # deg u1 + deg u2 < 2p: rhs has degree < p, so gamma is a constant
    f5 = FieldParams(5)
    alg = AlgebraParams(1, f5)
    e = etale_family(alg, 0, f5.one)  # degrees 1 + 5 = 6 < 10
    assert e.tsuchimoto_bound()
    sol = DQ.gamma_solution(e)
    assert all(g.is_constant() for g in sol.gamma)


def _bump(M: C.Mat, i: int, j: int) -> C.Mat:
    """M with 1 added to entry (i, j)."""
    rows = [list(row) for row in M]
    rows[i][j] = rows[i][j] + C.poly_one(rows[i][j].alg, rows[i][j].tag)
    return tuple(map(tuple, rows))


def test_matrix_identity_rejects_a_perturbed_J_gamma(corpus_gamma):
    """An off-diagonal change of J_gamma (y level) or of J_f (x level)
    breaks the identity; the corpus maps themselves pass it."""
    for e, sol in corpus_gamma[::9]:
        assert DQ.check_matrix_id(e, sol)
        assert not DQ.check_matrix_id(e, replace(sol, J_gamma=_bump(sol.J_gamma, 0, 1)))
        assert not DQ.check_matrix_id(e, replace(sol, J_f=_bump(sol.J_f, 1, 0)))
