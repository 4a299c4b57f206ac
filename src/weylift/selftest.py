"""Built-in fixtures: the worked examples every install must reproduce.

Each fixture raises on failure; run_fixtures reports one entry per fixture
and never stops early, so a broken install shows everything that is wrong.
"""

from __future__ import annotations

import sys
from math import comb

from . import center as C
from . import cohomology as coh
from . import diffeq as DQ
from . import trivialization as TV
from .endo import bkk_family, etale_family, identity_endo
from .parser import parse_expr
from .scalars import FieldParams, Witt2
from .weyl import AlgebraParams, commutator, times_p_elem


def _f3() -> FieldParams:
    return FieldParams(3)


def fixture_witt_ring() -> None:
    """The Witt laws on components over F_2, F_3 and F_4: sum with the carry
    c(a, b) = -sum_{0<k<p} (binom(p,k)/p) a^k b^(p-k), product, p*, and the
    (a1, a2) round trip."""
    for field in (FieldParams(2), FieldParams(3), FieldParams(2, 2)):
        p = field.p
        ks = list(field.all_elements())
        weights = [field.from_int(-(comb(p, k) // p)) for k in range(p)]

        def carry(a, b):
            return sum((weights[k] * a**k * b ** (p - k) for k in range(1, p)), field.zero)

        pairs = [(a1, a2) for a1 in ks for a2 in ks]
        for a1, a2 in pairs:
            x = Witt2(a1, a2)
            assert (x.a1, x.a2) == (a1, a2)
            assert x.times_p() == Witt2(field.zero, a1**p)
            for b1, b2 in pairs:
                y = Witt2(b1, b2)
                assert x + y == Witt2(a1 + b1, a2 + b2 + carry(a1, b1))
                assert x * y == Witt2(a1 * b1, a1**p * b2 + b1**p * a2)


def fixture_normal_order() -> None:
    """The contraction product equals the one-swap rewriting oracle on small inputs."""
    from .weyl import mono_mul_naive

    alg = AlgebraParams(1, _f3())
    for ea in ((0, 0), (1, 2), (2, 1), (2, 2)):
        for eb in ((1, 1), (2, 0), (2, 2)):
            for ring in ("k", "w2"):
                product = alg.monomial(ea, ring=ring) * alg.monomial(eb, ring=ring)
                assert product == mono_mul_naive(alg, ea, eb, ring)


def fixture_bkk() -> None:
    """The nonliftable quadruple: C pattern, verdicts, gamma, center image."""
    field = _f3()
    alg = AlgebraParams(2, field)
    e = bkk_family(alg, 2, field.one)
    rep = e.analyze()
    minus1 = alg.const(-1, var="x")
    for i in range(4):
        for j in range(4):
            want = minus1 if (i, j) == (0, 3) else (-minus1 if (i, j) == (3, 0) else None)
            got = rep.C[i][j]
            assert got == (want if want is not None else alg.const(0, var="x"))
    assert not rep.liftable and not rep.poisson
    sol = DQ.gamma_solution(e)
    assert sol.gamma[2] == alg.gen(1, var="y")
    for i in (0, 1, 3):
        assert sol.gamma[i].is_zero()
    assert not sol.symmetric
    want = (
        alg.gen(0, var="x")
        + C.Poly(alg, "x", {(0, 3, 2, 0): field.one})
        - alg.gen(1, var="x")
    )
    assert e.center_images[0] == want


def fixture_etale_family() -> None:
    """phi = (z1, z2 + z2^3 z1^i): liftable iff i < 2; explicit lift at i=0."""
    field = _f3()
    alg = AlgebraParams(1, field)
    for i in range(3):
        rep = etale_family(alg, i, field.one).analyze()
        assert rep.liftable == rep.poisson == rep.etale == (i < 2)
    e = etale_family(alg, 0, field.one)
    lift = coh.construct_lift(e)
    assert isinstance(lift, coh.Lift)
    # the textbook lift: Phi(z1) = [z1] - p [z2^2 z1], Phi(z2) = [z2] + [z2^3]
    z1 = alg.gen(0, "w2")
    z2 = alg.gen(1, "w2")
    Phi1 = z1 - times_p_elem(alg.monomial((1, 2), field.one, "k"))
    Phi2 = z2 + alg.monomial((0, 3), field.w2_one(), "w2")
    assert commutator(Phi1, Phi2) == alg.const(-1, "w2")
    assert coh.verify_lift(alg, [Phi1, Phi2])
    assert coh.verify_lift(alg, lift.Phi)


def fixture_obstruction_witness() -> None:
    """BKK p=3: harmonic certificate matches c_14 and the residual identity."""
    field = _f3()
    alg = AlgebraParams(2, field)
    e = bkk_family(alg, 2, field.one)
    out = coh.construct_lift(e)
    assert isinstance(out, coh.ObstructionWitness)
    assert out.harmonic[(0, 3)] == alg.const(-1, var="y")
    assert list(out.harmonic) == [(0, 3)]


def fixture_trace() -> None:
    """The closed-form trace of z^(2,2) under the identity and of the bkk map's top product."""
    field = _f3()
    alg = AlgebraParams(1, field)
    f = alg.monomial((2, 2), field.one, "k")
    assert TV.trace_top_coefficient(identity_endo(alg), f) == alg.const(1, var="y")
    alg2 = AlgebraParams(2, field)
    e = bkk_family(alg2, 2, field.one)
    prod = alg2.const(1)
    for i in range(4):
        prod = prod * e.u(i) ** 2
    assert TV.trace_top_coefficient(e, prod) == alg2.const(1, var="y")


def fixture_parser() -> None:
    """The grammar examples parse to the intended elements."""
    field = _f3()
    alg2 = AlgebraParams(2, field)
    e = parse_expr(alg2, "z1 + z2^3*z3^2")
    assert e.terms == {(1, 0, 0, 0): field.one, (0, 3, 2, 0): field.one}
    alg1 = AlgebraParams(1, field)
    e = parse_expr(alg1, "z2*z1")
    assert e.terms == {(1, 1): field.one, (0, 0): field.one}


FIXTURES = (
    ("witt-ring", fixture_witt_ring),
    ("normal-order", fixture_normal_order),
    ("bkk", fixture_bkk),
    ("etale-family", fixture_etale_family),
    ("obstruction-witness", fixture_obstruction_witness),
    ("trace", fixture_trace),
    ("parser", fixture_parser),
)


def run_fixtures() -> list[dict]:
    results = []
    for name, fn in FIXTURES:
        try:
            fn()
            results.append({"name": name, "ok": True})
            print(f"fixture {name}: ok", file=sys.stderr)
        except Exception as ex:  # noqa: BLE001 - selftest must report, not crash
            results.append({"name": name, "ok": False, "detail": f"{type(ex).__name__}: {ex}"})
            print(f"fixture {name}: FAIL ({type(ex).__name__}: {ex})", file=sys.stderr)
    return results
