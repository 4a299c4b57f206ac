"""The end-to-end gate.

Eleven checks, one per headline guarantee of the package.  Each test prints a
single ``PASS criterion N: ...`` or ``FAIL criterion N: ...`` line on the real
stdout (capture is suspended for the announcement), so a plain ``pytest
tests/test_acceptance.py`` run reads as a checklist.

Corpus-wide checks delegate to the module suites; the worked examples are
spelled out inline so the expected values are visible here.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

import test_cohomology as TC
import test_endo as TE
import test_diffeq as TD
import test_parser as TP
import test_scalars as TS
import test_trivialization as TT
import test_weyl as TW
from weylift import center as C
from weylift import cohomology as coh
from weylift import diffeq as DQ
from weylift.endo import bkk_family, etale_family
from weylift.scalars import FieldParams
from weylift.weyl import AlgebraParams, WeylElem, commutator, times_p_elem


@pytest.fixture
def gate(capsys):
    @contextmanager
    def _gate(num: int, title: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"FAIL criterion {num}: {title}", flush=True)
            raise
        with capsys.disabled():
            print(f"PASS criterion {num}: {title}", flush=True)

    return _gate


def test_criterion_01_bkk_obstruction_and_gamma(gate):
    """phi = (z1 + z2^p z3^{p-1}, z2, z3, z4) at p = 3 and p = 5: the exact
    obstruction entries, verdicts, gammas, and center image, within budgeted
    wall time."""
    with gate(1, "bkk family: C entries, verdicts, gamma, phi(x1), runtime"):
        for p, cap in ((3, 30.0), (5, 300.0)):
            alg = AlgebraParams(2, FieldParams(p))
            k = alg.field
            t0 = time.monotonic()
            e = bkk_family(alg)
            rep = e.analyze()
            sol = DQ.gamma_solution(e)
            elapsed = time.monotonic() - t0
            assert not rep.liftable and not rep.poisson
            minus_one = alg.const(-1, var="x")
            one = alg.const(1, var="x")
            for i in range(4):
                for j in range(4):
                    if (i, j) == (0, 3):
                        assert rep.C[i][j] == minus_one
                    elif (i, j) == (3, 0):
                        assert rep.C[i][j] == one
                    else:
                        assert rep.C[i][j].is_zero()
            y2 = C.Poly(alg, "y", {(0, 1, 0, 0): k.one})
            assert sol.gamma == [alg.const(0, var="y"), alg.const(0, var="y"),
                                 y2, alg.const(0, var="y")]
            want_x1 = C.Poly(alg, "x", {
                (1, 0, 0, 0): k.one,
                (0, p, p - 1, 0): k.one,
                (0, 1, 0, 0): k.from_int(-1),
            })
            assert e.center_images[0] == want_x1
            assert elapsed < cap, f"p={p} took {elapsed:.1f}s, budget {cap}s"


def test_criterion_02_etale_family_flags_and_lifts(gate):
    """phi = (z1, z2 + z2^3 z1^i) over F_3: etale/Poisson/liftable exactly for
    i < 2; the explicit lift and the constructed lift both verify."""
    with gate(2, "etale family flags for i = 0,1,2; explicit and constructed lifts"):
        field = FieldParams(3)
        alg = AlgebraParams(1, field)
        for i in range(3):
            rep = etale_family(alg, i, field.one).analyze()
            assert rep.etale == rep.poisson == rep.liftable == (i < 2)
        e0 = etale_family(alg, 0, field.one)
        # Phi(z1) = [z1] - p [z2^2 z1], Phi(z2) = [z2] + [z2^3]
        Phi1 = alg.gen(0, "w2") - times_p_elem(alg.monomial((1, 2), field.one, "k"))
        Phi2 = alg.gen(1, "w2") + alg.monomial((0, 3), field.w2_one(), "w2")
        om = WeylElem(alg, "w2", {(0, 0): field.w2_from_int(-1)})
        assert commutator(Phi1, Phi2) == om
        assert coh.verify_lift(alg, [Phi1, Phi2])
        lift = coh.construct_lift(e0)
        assert isinstance(lift, coh.Lift) and coh.verify_lift(alg, lift.Phi)


def test_criterion_03_obstruction_dual_route(gate, corpus):
    """ad-chain route equals the Witt-commutator oracle on >= 100 corpus
    endomorphisms, with zero mismatches."""
    with gate(3, "dual-route obstruction matrix agrees on the corpus"):
        TE.test_obstruction_dual_route_corpus(corpus)


def test_criterion_04_jacobian_identity_and_three_way(gate, corpus_reports):
    """J_phi omega^{-1} J_phi^T = omega^{-1} + C; liftable <=> Poisson <=>
    symmetry of J_f, on the full corpus."""
    with gate(4, "jacobian identity and three-way liftability agreement"):
        TE.test_jacobian_identity_corpus(corpus_reports)
        TE.test_three_way_agreement_corpus(corpus_reports)


def test_criterion_05_degree_bound_regime(gate, corpus_reports, corpus_gamma):
    """Every corpus endo with deg u_l + deg u_{n+l} < 2p for all l has C = 0,
    constant gammas, and is Poisson.  Zero exceptions."""
    with gate(5, "low-degree regime forces vanishing obstruction"):
        TE.test_degree_bound_theorem_corpus(corpus_reports, corpus_gamma)


def test_criterion_06_matrix_identity_and_f_retag(gate, corpus_gamma):
    """J^T omega J = omega + J_f^T - J_f on the corpus, J the center
    Jacobian, and f_i is exactly gamma_i^p re-tagged."""
    with gate(6, "matrix identity and f = gamma^p on the corpus"):
        TD.test_matrix_identity_corpus(corpus_gamma)
        TD.test_f_equals_gamma_pth_power_and_direct_solve(corpus_gamma)


def test_criterion_07_de_rham_suite(gate, corpus):
    """d o d = 0 on 500 random 1-forms; split_closed_2form reconstructs 200
    planted closed 2-forms exactly; the harmonic part of the obstruction
    2-form matches C."""
    with gate(7, "de Rham: d^2 = 0, exact splitting, harmonic part = C"):
        TC.test_d_squared_zero_500_random_1forms()
        TC.test_split_reconstructs_200_random_closed_2forms()
        TC.test_harmonic_part_matches_obstruction_matrix(corpus)


def test_criterion_08_witt_ring_layer(gate):
    """W_2(F_p) is Z/p^2 for p in {2,3,5,7}: exhaustive over all p^2 elements,
    both operations, and p-multiplication."""
    with gate(8, "length-2 Witt ring layer exhaustive over p in {2,3,5,7}"):
        for p in (2, 3, 5, 7):
            TS.test_w2_iso_exhaustive(p)
            TS.test_times_p_exhaustive(p)
            TS.test_w2_from_int_matches_iso(p)


def test_criterion_09_trivialization(gate, corpus):
    """Matrix representation relations and multiplicativity; exhaustive trace
    identity; ad-chain independence on 50 corpus samples; conjugator recovery
    on 50 planted conjugations up to a scalar unit."""
    with gate(9, "trivialization: rep, trace identity, ad-chain, conjugator"):
        for p, n in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
            TT.test_rep_satisfies_relations(p, n)
            TT.test_trace_identity_exhaustive(p, n)
        TT.test_rep_is_multiplicative()
        TT.test_ad_chain_independence(corpus)
        for p, n in ((2, 1), (3, 1), (2, 2)):
            TT.test_recover_conjugator_round_trip(p, n)


def test_criterion_10_commutator_lemmas(gate):
    """[u^t, v], [u^p, v], and [u^p, v^p] expansions hold exactly on 100
    admissible pairs over the length-2 Witt coefficients, p in {2,3}."""
    with gate(10, "p-power commutator identities on 100 admissible pairs"):
        TW.test_power_commutator_identities(2)
        TW.test_power_commutator_identities(3)


def test_criterion_11_parser_round_trip(gate):
    """Print/parse equality on 500 random elements; every shipped spec file
    parses to the intended generator images."""
    with gate(11, "parser round trips and shipped spec files"):
        TP.test_round_trip_500_random_elements()
        TP.test_spec_files_parse_to_intended_images()
