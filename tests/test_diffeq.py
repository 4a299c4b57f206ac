"""The gamma and f equations, their unique solvability, and the twisted
Jacobian identity on the center (the x level)."""

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
        assert DQ.phi_S(ident, i) == a2_f3.gen(i, var="y")
    bkk = bkk_family(a2_f3, 2, a2_f3.field.one)
    y = [a2_f3.gen(i, var="y") for i in range(4)]
    assert DQ.phi_S(bkk, 0) == y[0] + y[1] ** 3 * y[2] ** 2 - y[1]
    et = etale_family(a1_f3, 0, a1_f3.field.one)
    w = [a1_f3.gen(i, var="y") for i in range(2)]
    assert DQ.phi_S(et, 1) == w[1] + w[1] ** 3


def test_phi_S_is_pth_root(corpus):
    for e in corpus[::7]:
        for i in range(e.alg.nvars):
            ybar = DQ.phi_S(e, i)
            assert C.pth_power_retag(ybar) == e.center_images[i]


def test_rhs_gamma_fixtures(a1_f3, a2_f3):
    assert all(r.is_zero() for r in DQ.gamma_solution(identity_endo(a2_f3)).rhs)
    bkk = bkk_family(a2_f3, 2, a2_f3.field.one)
    y2 = a2_f3.gen(1, var="y")
    assert DQ.gamma_solution(bkk).rhs[2] == y2**3


def test_solve_gamma_unit_cases(a1_f3):
    zero = a1_f3.const(0, var="y")
    assert DQ.solve_gamma(zero, 0).is_zero()
    # rhs = y2^3 in coordinate 2 of the n=2 algebra: gamma = y2
    a2 = AlgebraParams(2, a1_f3.field)
    y2 = a2.gen(1, var="y")
    assert DQ.solve_gamma(y2**3, 2) == y2
    # constant right side: gamma = c^{1/p}
    c = a1_f3.const(2, var="y")
    got = DQ.solve_gamma(c, 0)
    assert got.is_constant()
    assert got**3 == c


def _family(a2_f3, family: str):
    """The bkk p = 3, j = 2 map or the etale F_9, i = 2, c = t map."""
    if family.startswith("bkk"):
        return bkk_family(a2_f3, 2, a2_f3.field.one)
    f9 = AlgebraParams(1, FieldParams(3, 2))
    return etale_family(f9, 2, f9.field.element((0, 1)))


@pytest.mark.parametrize("family", ["bkk p=3 j=2", "etale F_9 i=2 c=t"])
def test_gamma_solution_takes_one_power_per_coordinate(monkeypatch, a2_f3, family):
    """The descent subtracts each top slice for its root's p-th power, so
    the one ** per coordinate is the final check, also on a coordinate whose
    right side steps down from degree >= p (bkk's rhs[2] = y2^3, etale's
    rhs[0] = 2t y2^3) and over F_9, where the p-th roots are not the
    identity.  The center images, p-th powers in A_n, are read first."""
    from weylift.weyl import SparseElem

    e = _family(a2_f3, family)
    assert e.center_images
    calls = []
    power = SparseElem.__pow__

    def counted(self, k):
        calls.append(k)
        return power(self, k)

    monkeypatch.setattr(SparseElem, "__pow__", counted)
    sol = DQ.gamma_solution(e)
    p = e.alg.field.p
    assert any(r.degree() >= p for r in sol.rhs)
    assert calls == [p] * e.alg.nvars


def test_solve_gamma_plugs_back(corpus_gamma):
    for e, sol in corpus_gamma[::5]:
        p = e.alg.field.p
        for i, r in enumerate(sol.rhs):
            g = DQ.solve_gamma(r, i)
            assert g**p + g.pderiv_iter(i, p - 1) == r


def test_solve_gamma_rejects_unreachable_rhs(a1_f3):
    y1 = a1_f3.gen(0, var="y")
    with pytest.raises(NoSolution):
        DQ.solve_gamma(y1, 0)  # degree 1 < p with no constant match
    with pytest.raises(NoSolution):
        DQ.solve_gamma(y1**4 * a1_f3.gen(1, var="y") ** 2, 0)  # top not a cube


def test_gamma_solution_bkk(a2_f3):
    sol = DQ.gamma_solution(bkk_family(a2_f3, 2, a2_f3.field.one))
    y2 = a2_f3.gen(1, var="y")
    assert sol.gamma[2] == y2
    assert sol.gamma[0].is_zero() and sol.gamma[1].is_zero() and sol.gamma[3].is_zero()
    x2 = a2_f3.gen(1, var="x")
    assert sol.f[2] == x2
    assert not sol.symmetric


def test_f_equals_gamma_pth_power_and_direct_solve(corpus_gamma):
    """Criterion: f_i = gamma_i^p re-tag, and the direct x-level solve agrees."""
    for e, sol in corpus_gamma:
        for i in range(e.alg.nvars):
            assert sol.f[i] == C.pth_power_retag(sol.gamma[i])
            assert DQ.solve_gamma(DQ._rhs(e.center_images, i), i) == sol.f[i]


def test_matrix_identity_corpus(corpus_gamma):
    """J^T omega J = omega + J_f^T - J_f on the full corpus, J the center
    Jacobian."""
    for e, sol in corpus_gamma:
        assert DQ.check_matrix_id(e, sol)


def test_J_f_is_twist_of_J_gamma(corpus_gamma):
    """J_f is the Frobenius twist of the y-level Jacobian of gamma, which is
    why the y-level identity and symmetry are not checked separately."""
    for e, sol in corpus_gamma[::6]:
        twist = [[C.pth_power_retag(g) for g in row] for row in C.jacobian(sol.gamma)]
        assert C.mat_eq(sol.J_f, twist)


@pytest.mark.parametrize("family", ["bkk p=3 j=2", "etale F_9 i=2 c=t"])
def test_gamma_check_builds_one_jacobian_and_one_bracket_matrix(monkeypatch, a2_f3, family):
    """On an analyzed map, solving gamma and checking the matrix identity
    build the Jacobian J_f and one bracket matrix: the center Jacobian is the
    one the Poisson and etale verdicts cached, and no y-level twin is built."""
    e = _family(a2_f3, family)
    e.analyze()
    calls = {"jacobian": 0, "bracket_matrix": 0}

    def counted(name):
        original = getattr(C, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(C, name, counted(name))
    assert DQ.check_matrix_id(e, DQ.gamma_solution(e))
    assert calls == {"jacobian": 1, "bracket_matrix": 1}


def test_symmetry_fixtures(a1_f3, a2_f3):
    def symmetric(e):
        return DQ.gamma_solution(e).symmetric

    assert symmetric(identity_endo(a2_f3))
    assert not symmetric(bkk_family(a2_f3, 2, a2_f3.field.one))
    for i in range(3):
        assert symmetric(etale_family(a1_f3, i, a1_f3.field.one)) == (i < 2)


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
    rows[i][j] = rows[i][j] + rows[i][j].alg.const(1, var=rows[i][j].var)
    return tuple(map(tuple, rows))


def test_matrix_identity_rejects_a_perturbed_J_gamma(corpus_gamma):
    """An off-diagonal change of J_f breaks the identity; the corpus maps
    themselves pass it."""
    for e, sol in corpus_gamma[::9]:
        assert DQ.check_matrix_id(e, sol)
        assert not DQ.check_matrix_id(e, replace(sol, J_f=_bump(sol.J_f, 1, 0)))
