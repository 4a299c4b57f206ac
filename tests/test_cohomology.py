"""The basis bijection psi, the de Rham complex in char p, and lifts.

The splitting suite plants closed 2-forms as d(random 1-form) plus a known
harmonic combination; freeness of H^2 over k[y^p] forces the split to
recover the planted harmonic coefficients exactly.
"""

from __future__ import annotations

import hashlib
import random
import time
from itertools import combinations
from itertools import product as iter_product
from pathlib import Path

import pytest
from test_center import embed_center, x_to_y

from weylift import center as C
from weylift import cli
from weylift import cohomology as coh
from weylift import diffeq
from weylift.endo import Endo, bkk_family, etale_family, generate_corpus, identity_endo
from weylift.errors import InternalInconsistency, NotClosed
from weylift.parser import load_spec
from weylift.scalars import FieldParams, Witt2
from weylift.weyl import AlgebraParams, WeylElem, ad_pow, commutator, teich_lift, times_p_elem

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def u_hat(e: Endo, i: int) -> WeylElem:
    """The dual generator u^_i = s u_j, (j, s) = e.dual(i)."""
    j, s = e.dual(i)
    return e.u(j) if s > 0 else -e.u(j)


def _rand_coeff(field, rng):
    """A nonzero scalar; over F_{p^m} with m > 1 any of its q - 1 units."""
    if field.m == 1:
        return field.from_int(rng.randint(1, field.p - 1))
    units = [c for c in iter_product(range(field.p), repeat=field.m) if any(c)]
    return field.element(rng.choice(units))


def _rand_poly(alg, rng, max_deg=4, nterms=3, tag="y"):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(alg.nvars))
        terms[exps] = _rand_coeff(alg.field, rng)
    return C.Poly(alg, tag, terms)


def _rand_1form(alg, rng, max_deg=4):
    coeffs = {}
    for i in range(alg.nvars):
        if rng.random() < 0.8:
            coeffs[(i,)] = _rand_poly(alg, rng, max_deg)
    return coh.Form(alg, 1, coeffs)


FORM_ALGS = [(3, 1), (3, 2), (5, 1), (2, 2)]


def test_d_examples():
    alg = AlgebraParams(1, FieldParams(3))
    y1 = alg.gen(0, var="y")
    F = coh.Form(alg, 1, {(1,): y1})  # y1 dy2
    dF = F.d()
    assert dF.slot((0, 1)) == alg.const(1, var="y")
    # the harmonic generator y1^2 y2^2 dy1 dy2 is closed
    h = coh.Form(
        alg, 2, {(0, 1): C.Poly(alg, "y", {(2, 2): alg.field.one})}
    )
    assert h.d().is_zero()


def test_d_squared_zero_500_random_1forms():
    count = 0
    for p, n in FORM_ALGS:
        alg = AlgebraParams(n, FieldParams(p))
        rng = random.Random(("dd", p, n).__repr__())
        for _ in range(125):
            F = _rand_1form(alg, rng)
            assert F.d().d().is_zero()
            count += 1
    assert count == 500


def _rand_harmonic(alg, rng):
    """A combination of y_i^{p-1} y_j^{p-1} dy_i dy_j with k[y^p] coefficients."""
    p = alg.field.p
    coeffs = {}
    planted = {}
    for i in range(alg.nvars):
        for j in range(i + 1, alg.nvars):
            if rng.random() < 0.6:
                g = _rand_poly(alg, rng, max_deg=1, nterms=2)
                gp = C.Poly(
                    alg, "y", {tuple(p * t for t in e): c for e, c in g.terms.items()}
                )
                pattern = tuple(
                    p - 1 if t in (i, j) else 0 for t in range(alg.nvars)
                )
                mono = C.Poly(alg, "y", {pattern: alg.field.one})
                coeffs[(i, j)] = gp * mono
                planted[(i, j)] = gp
    return coh.Form(alg, 2, coeffs), planted


def test_split_reconstructs_200_random_closed_2forms():
    count = 0
    sizes = {(3, 1): 60, (3, 2): 60, (5, 1): 40, (2, 2): 40}
    for (p, n), cnt in sizes.items():
        alg = AlgebraParams(n, FieldParams(p))
        rng = random.Random(("split", p, n).__repr__())
        for _ in range(cnt):
            exact = _rand_1form(alg, rng).d()
            harm_form, planted = _rand_harmonic(alg, rng)
            F = exact + harm_form
            h, harmonic = coh.split_closed_2form(F)
            assert h.d() + _assemble_harmonic(alg, harmonic) == F
            assert harmonic == planted
            count += 1
    assert count == 200


# SHA-256 of the sorted (h, harmonic) terms over SPLIT_PIN_FIELDS x n in
# {1, 2, 3}, recorded when the splitting had separate 1-form and 2-form
# stages.  Any other valid h passes the reconstruction tests but changes
# every lift report's v and Phi, so the exact split is pinned here.
SPLIT_PIN_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]
SPLIT_PIN_DIGEST = "19b293e5c634a44a589e53781fad14cc58e5ac098e9ea31a14be27952f863ded"


def test_split_is_pinned_on_seeded_closed_2forms():
    rows = []
    for (p, m), n in iter_product(SPLIT_PIN_FIELDS, (1, 2, 3)):
        alg = AlgebraParams(n, FieldParams(p, m))
        rng = random.Random(repr(("split-pin", p, m, n)))
        for k in range(16):
            exact = _rand_1form(alg, rng, max_deg=2 * p).d()
            harm_form, planted = _rand_harmonic(alg, rng)
            h, harmonic = coh.split_closed_2form(exact + harm_form)
            assert harmonic == planted
            for name, part in (("h", h.coeffs), ("harmonic", harmonic)):
                for I, f in part.items():
                    for e, c in f.terms.items():
                        rows.append((p, m, n, k, name, I, e, c.coeffs))
    digest = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()
    assert digest == SPLIT_PIN_DIGEST


def test_recursive_split_recovers_planted_closed_3forms():
    """The splitter recurses through every degree: d(random 2-form) plus
    planted y_I^{p-1} k[y^p] dy_I terms comes back with the planted part."""
    count = 0
    for p, m, n in ((2, 1, 2), (3, 1, 2), (5, 1, 2), (3, 2, 2), (2, 1, 3), (3, 1, 3)):
        alg = AlgebraParams(n, FieldParams(p, m))
        rng = random.Random(repr(("split3", p, m, n)))
        triples = list(combinations(range(alg.nvars), 3))
        for _ in range(8):
            slots = [I for I in combinations(range(alg.nvars), 2) if rng.random() < 0.5]
            G = coh.Form(
                alg, 2, {I: _rand_poly(alg, rng, max_deg=2 * p) for I in slots}
            )
            planted = {}
            for I in rng.sample(triples, rng.randint(0, len(triples))):
                e = tuple(
                    (p - 1 if t in I else 0) + p * rng.randint(0, 1) for t in range(alg.nvars)
                )
                planted[I] = C.Poly(alg, "y", {e: _rand_coeff(alg.field, rng)})
            harm_form = coh.Form(alg, 3, planted)
            h, harm = coh._split_closed(G.d() + harm_form)
            assert h.d() + harm == G.d() + harm_form
            assert harm == harm_form
            count += 1
    assert count == 48


def _assemble_harmonic(alg, harmonic):
    p = alg.field.p
    coeffs = {}
    for (i, j), g in harmonic.items():
        pattern = tuple(p - 1 if t in (i, j) else 0 for t in range(alg.nvars))
        mono = C.Poly(alg, "y", {pattern: alg.field.one})
        coeffs[(i, j)] = g * mono
    return coh.Form(alg, 2, coeffs)


def test_split_examples():
    alg = AlgebraParams(1, FieldParams(3))
    one = alg.const(1, var="y")
    F = coh.Form(alg, 2, {(0, 1): one})  # dy1 dy2
    h, harmonic = coh.split_closed_2form(F)
    assert harmonic == {}
    assert h.d() == F
    # pure harmonic generator: exact part vanishes
    G = coh.Form(
        alg, 2, {(0, 1): C.Poly(alg, "y", {(2, 2): alg.field.one})}
    )
    h2, harm2 = coh.split_closed_2form(G)
    assert h2.d().is_zero()
    assert harm2 == {(0, 1): one}
    # mixed: (y1^2 y2^2 + y2) dy1 dy2
    M = coh.Form(
        alg,
        2,
        {(0, 1): C.Poly(alg, "y", {(2, 2): alg.field.one, (0, 1): alg.field.one})},
    )
    h3, harm3 = coh.split_closed_2form(M)
    assert harm3 == {(0, 1): one}
    assert h3.d() == coh.Form(
        alg, 2, {(0, 1): C.Poly(alg, "y", {(0, 1): alg.field.one})}
    )


def test_split_rejects_non_closed():
    alg = AlgebraParams(1, FieldParams(3))
    y2 = alg.gen(1, var="y")
    F = coh.Form(alg, 2, {(0, 1): y2 * y2})  # d(F) = 2 y2 dy2 dy1 dy2? no:
    # coefficient y2^2 depends on y2 only through dy2-slot... d is the y1-derivative
    # into slot (0,1) from (1,)? directly: d(y2^2 dy1 dy2) = 0; use y1^2 y2 dy1 dy2? no
    # d(g dy1 dy2) always 0 for n=1.  Use n=2 to get a genuine non-closed 2-form.
    alg2 = AlgebraParams(2, FieldParams(3))
    g = alg2.gen(2, var="y")  # y3
    F2 = coh.Form(alg2, 2, {(0, 1): g})
    assert not F2.d().is_zero()
    with pytest.raises(NotClosed):
        coh.split_closed_2form(F2)


def test_hat_u_and_duality(a1_f3, corpus):
    ident = identity_endo(a1_f3)
    assert u_hat(ident, 0) == -a1_f3.gen(1)
    assert u_hat(ident, 1) == a1_f3.gen(0)
    for e in corpus[::9]:
        alg = e.alg
        for i in range(alg.nvars):
            for j in range(alg.nvars):
                want = WeylElem(
                    alg, "k", {(0,) * alg.nvars: alg.field.from_int(1 if i == j else 0)}
                )
                assert commutator(e.u(i), u_hat(e, j)) == want


def test_basis_expand_reconstructs(corpus):
    """from_basis inverts basis_expand on a random element per corpus map
    and, over F_9, on the family maps' u_ij and trace samples."""
    rng = random.Random("expand")
    checked = 0
    for e in corpus + _f9_family_maps():
        alg = e.alg
        f = WeylElem(
            alg,
            "k",
            {
                tuple(rng.randint(0, 2) for _ in range(alg.nvars)): alg.field.from_int(1)
                for _ in range(2)
            },
        )
        for x in [f] + (_expansion_inputs(e) if alg.field.m > 1 else []):
            assert coh.from_basis(e, coh.basis_expand(e, x)) == x
            checked += 1
    assert checked >= 175


# ---------------------------------------------------------------------------
# the linear-solve expansion oracle
#
# basis_expand peels coefficients off with exact ad chains and solves no
# linear system; this oracle finds the same expansion by solving a
# bounded-degree linear system over k, an independent route.


def _solve(params, cols: list, rhs: dict):
    """Solve sum_c x_c cols[c] = rhs over the field; a solution or None.

    Each column and the right side map row keys to FieldElem; the rows are
    the union of their keys, in no particular order.  Free variables are
    set to zero.  None means the system is inconsistent.
    """
    index: dict = {}
    for col in cols:
        for key in col:
            index.setdefault(key, len(index))
    for key in rhs:
        index.setdefault(key, len(index))
    rows: list[dict] = [{} for _ in index]
    for c, col in enumerate(cols):
        for key, v in col.items():
            rows[index[key]][c] = v
    ncols = len(cols)
    for key, v in rhs.items():
        rows[index[key]][ncols] = v
    return _solve_generic(params, rows, ncols)


def _solve_generic(params, rows: list, ncols: int):
    """Sparse Gauss-Jordan over FieldElem entries; rows are modified in place.

    Each row maps a column to its nonzero entry, column ncols being the
    right side.  The pivot for a column is the shortest row still free, which
    keeps fill-in low on the very sparse expansion systems.
    """
    where: dict = {}
    for r, row in enumerate(rows):
        for c in row:
            where.setdefault(c, set()).add(r)
    free = set(range(len(rows)))
    pivots = {}
    for c in range(ncols):
        cands = [r for r in where.get(c, ()) if r in free]
        if not cands:
            continue
        pr = min(cands, key=lambda r: (len(rows[r]), r))
        free.discard(pr)
        inv = rows[pr][c].inverse()
        prow = {k: v * inv for k, v in rows[pr].items()}
        rows[pr] = prow
        for r in where[c] - {pr}:
            row = rows[r]
            f = row[c]
            for k, v in prow.items():
                s = row.get(k)
                s = -(f * v) if s is None else s - f * v
                if s:
                    if k not in row:
                        where.setdefault(k, set()).add(r)
                    row[k] = s
                elif k in row:
                    del row[k]
                    where[k].discard(r)
        pivots[c] = pr
    # a free row is zero in every column, so it only constrains the right side
    if any(rows[r].get(ncols) for r in free):
        return None
    return [rows[pivots[c]].get(ncols, params.zero) if c in pivots else params.zero
            for c in range(ncols)]


def _exps_bounded(nvars: int, total: int):
    """All exponent vectors with given coordinate count and sum <= total."""
    if nvars == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _exps_bounded(nvars - 1, total - head):
            yield (head,) + tail


def _ordered_monomial(e: Endo, m: tuple) -> WeylElem:
    """The ordered product u^_1^{m_1} ... u^_2n^{m_2n}."""
    out = e.alg.const(1)
    for i, x in enumerate(m):
        out = out * u_hat(e, i) ** x
    return out


def basis_expand_oracle(e: Endo, f: WeylElem) -> dict:
    """Test oracle for basis_expand by linear algebra instead of ad chains.

    Solves a bounded-degree linear system over k against the free-module
    basis; the degree bound starts at deg f and grows by p until the system
    is consistent (freeness guarantees termination for elements of A_n(k)).
    The candidates are distinct basis elements, so the solution is unique.
    """
    alg = e.alg
    p = alg.field.p
    n2 = alg.nvars
    if f.is_zero():
        return {}
    gens_deg = [int(u_hat(e, i).degree()) for i in range(n2)]
    D = max(int(f.degree()), 0)
    cap = int(f.degree()) + (p - 1) * sum(gens_deg) + 2 * p
    while True:
        cands = []
        cols = []
        for m in iter_product(range(p), repeat=n2):
            base_deg = sum(mi * di for mi, di in zip(m, gens_deg))
            if base_deg > D:
                continue
            mono = _ordered_monomial(e, m)
            for a in _exps_bounded(n2, (D - base_deg) // p):
                cands.append((m, a))
                cols.append((mono * alg.monomial(tuple(p * x for x in a))).terms)
        sol = _solve(alg.field, cols, f.terms)
        if sol is not None:
            out: dict = {}
            for (m, a), c in zip(cands, sol):
                if c:
                    g = out.setdefault(m, {})
                    g[a] = c
            return {m: embed_center(C.Poly(alg, "x", g)) for m, g in out.items()}
        D += p
        if D > cap:
            raise AssertionError(f"oracle found no expansion of degree <= {cap}")


def _expansion_inputs(e):
    """The obstruction terms u_ij and the trace-check samples of one map."""
    n2 = e.alg.nvars
    return [e.u_ij(i, j) for i in range(n2) for j in range(i + 1, n2)] + cli._trace_samples(e, 0)


def _f9_family_maps():
    field = FieldParams(3, 2)
    t = field.element((0, 1))
    return [
        family(AlgebraParams(n, field), i, t)
        for family, n in ((etale_family, 1), (bkk_family, 2))
        for i in range(field.p)
    ]


def test_basis_expand_matches_oracle(corpus):
    """The ad-chain peel and the linear-system oracle give the same expansion.
    The p = 7 etale maps at i = 5, 6 have chains of p - 1 steps, so the
    Taylor weights 1/r! of the peel run up to 6!."""
    seeded = [e for e in corpus if (e.alg.field.p, e.alg.n) in {(3, 1), (3, 2), (5, 1)}]
    a7 = AlgebraParams(1, FieldParams(7))
    p7 = [etale_family(a7, i) for i in (5, 6)]
    checked = top7 = 0
    for e in seeded[::4] + _f9_family_maps() + p7:
        for f in _expansion_inputs(e):
            got = coh.basis_expand(e, f)
            assert got == basis_expand_oracle(e, f)
            checked += 1
            top7 += e.alg.field.p == 7 and any(6 in m for m in got)
    assert checked >= 200 and top7 >= 10


def test_top_coefficient_matches_expansion(corpus):
    """The single ad chain reads the top coefficient of the full peel."""
    # the 168 p = 5, n = 2 expansions take about 1.5 s; the other sizes cover the claim
    seeded = [e for e in corpus if (e.alg.field.p, e.alg.n) != (5, 2)]
    checked = nonzero = 0
    for e in seeded + _f9_family_maps():
        top = (e.alg.field.p - 1,) * e.alg.nvars
        for f in _expansion_inputs(e):
            want = coh.basis_expand(e, f).get(top, e.alg.const(0)).to_center_poly()
            assert coh.top_coefficient(e, f) == x_to_y(want)
            checked += 1
            nonzero += not want.is_zero()
    assert checked >= 1000 and nonzero >= 150


def test_top_coefficient_off_the_span_is_internal(a1_f3):
    """Images that break [z_1, z_2] = 1 (never validated) leave a non-central
    chain end; that is an InternalInconsistency (exit 4), not NotCentral."""
    z1z2 = a1_f3.gen(0) * a1_f3.gen(1)
    with pytest.raises(InternalInconsistency, match="not central"):
        coh.top_coefficient(Endo(a1_f3, [z1z2, z1z2]), a1_f3.gen(0))


def test_psi_properties(a1_f3, corpus):
    ident = identity_endo(a1_f3)
    # z1 = u-hat_2 at the identity, so psi(z1) = y2
    assert coh.psi_forward(ident, a1_f3.gen(0)) == a1_f3.gen(1, var="y")
    assert coh.psi_forward(ident, a1_f3.const(1)) == a1_f3.const(1, var="y")
    for e in corpus[::9]:
        alg = e.alg
        rng = random.Random(("psi", alg.field.p, alg.n).__repr__())
        f = WeylElem(
            alg,
            "k",
            {
                tuple(rng.randint(0, 2) for _ in range(alg.nvars)): alg.field.from_int(
                    rng.randint(1, alg.field.p - 1)
                )
                for _ in range(2)
            },
        )
        s = coh.psi_forward(e, f)
        assert coh.psi_inverse(e, s) == f
        # intertwining: psi(ad(u_i) f) = d/dy_i psi(f)
        for i in range(alg.nvars):
            assert coh.psi_forward(e, commutator(e.u(i), f)) == s.pderiv(i)


def test_psi_on_center(a1_f3):
    e = etale_family(a1_f3, 1, a1_f3.field.one)
    f = embed_center(a1_f3.gen(0, var="x"))  # z1^p as an element
    assert coh.psi_forward(e, f) == C.Poly(a1_f3, "y", {(3, 0): a1_f3.field.one})


def test_obstruction_2form_identity_and_closedness(a2_f3, corpus):
    assert coh.obstruction_2form(identity_endo(a2_f3)).is_zero()
    for e in corpus[::7]:
        assert coh.obstruction_2form(e).d().is_zero()


def test_harmonic_part_matches_obstruction_matrix(corpus):
    """ad(u_i)^{p-1} ad(u_j)^{p-1} of the residual term reproduces c_ij."""
    checked = 0
    f3 = FieldParams(3)
    known_obstructed = [
        bkk_family(AlgebraParams(2, f3), 2, f3.one),
        etale_family(AlgebraParams(1, f3), 2, f3.one),
    ]
    for e in known_obstructed + corpus[::6]:
        alg = e.alg
        p = alg.field.p
        __, harmonic = coh.split_closed_2form(coh.obstruction_2form(e))
        Cm = e.obstruction_C
        nonzero = {
            (i, j)
            for i in range(alg.nvars)
            for j in range(i + 1, alg.nvars)
            if not Cm[i][j].is_zero()
        }
        assert set(harmonic) == nonzero
        for (i, j), g in harmonic.items():
            assert g == x_to_y(Cm[i][j])
            # extraction through the ad-chain on the twisted monomial
            mono = _ordered_monomial(
                e, tuple(p - 1 if t in (i, j) else 0 for t in range(alg.nvars))
            )
            resid = embed_center(Cm[i][j]) * mono
            back = ad_pow(e.u(i), p - 1, ad_pow(e.u(j), p - 1, resid))
            assert back == embed_center(Cm[i][j])
            checked += 1
    assert checked >= 3


def test_construct_lift_identity(a2_f3):
    out = coh.construct_lift(identity_endo(a2_f3))
    assert isinstance(out, coh.Lift)
    assert all(v.is_zero() for v in out.v)
    assert out.Phi == [teich_lift(a2_f3.gen(i, "k")) for i in range(4)]


def test_construct_lift_on_corpus(corpus_reports):
    lifted = obstructed = 0
    for e, rep in corpus_reports:
        out = coh.construct_lift(e)
        if rep.liftable:
            assert isinstance(out, coh.Lift)
            assert coh.verify_lift(e.alg, out.Phi)
            lifted += 1
        else:
            assert isinstance(out, coh.ObstructionWitness)
            assert C.mat_eq(out.C, e.obstruction_C)
            obstructed += 1
    assert lifted >= 10 and obstructed >= 10


def test_construct_lift_etale_and_textbook(a1_f3):
    e = etale_family(a1_f3, 0, a1_f3.field.one)
    out = coh.construct_lift(e)
    assert isinstance(out, coh.Lift)
    assert coh.verify_lift(a1_f3, out.Phi)
    z1 = a1_f3.gen(0, "w2")
    z2 = a1_f3.gen(1, "w2")
    textbook = [
        z1 - times_p_elem(a1_f3.monomial((1, 2))),
        z2 + a1_f3.monomial((0, 3), a1_f3.field.w2_one(), "w2"),
    ]
    assert coh.verify_lift(a1_f3, textbook)


# (p, m, modulus, c) by field: c = t over F_9, F_25 and F_8, c = t^2 over F_27
_NON_PRIME_COEFFICIENTS = {
    "": (3, 2, (1, 0, 1), (0, 1)),
    "-F25": (5, 2, (2, 0, 1), (0, 1)),
    "-F27": (3, 3, (1, 2, 0, 1), (0, 0, 1)),
    "-F8": (2, 3, (1, 1, 0, 1), (0, 1, 0)),
}


@pytest.mark.parametrize(
    "family,n,p,m,modulus,c",
    [
        pytest.param(family, n, *spec, id=f"{family.__name__}-{n}{name}")
        for name, spec in _NON_PRIME_COEFFICIENTS.items()
        for family, n in ((etale_family, 1), (bkk_family, 2))
    ],
)
def test_families_over_f9_with_non_prime_coefficient(family, n, p, m, modulus, c):
    """c lies outside F_p, a case the seeded corpus never produces."""
    field = FieldParams(p, m, modulus)
    alg = AlgebraParams(n, field)
    t = field.element(c)
    for i in range(field.p):
        e = family(alg, i, t)
        rep = e.analyze()
        sol = diffeq.gamma_solution(e)
        assert rep.liftable == rep.poisson == sol.symmetric == (i < field.p - 1)
        # unit Jacobian throughout: for the etale family phi(x_2) keeps (1 - c) x_2
        assert rep.etale
        assert C.mat_eq(e.obstruction_C, e.obstruction_C_oracle)
        assert isinstance(coh.construct_lift(e), coh.Lift) == rep.liftable


def _ser_scalar(c) -> int | list:
    vals = list(c.coeffs)
    return vals[0] if len(vals) == 1 else vals


def _ser_w2(c: Witt2) -> list:
    # the Witt components rebuild the vector through the Witt2 constructor
    assert Witt2(c.a1, c.a2) == c
    return [_ser_scalar(c.a1), _ser_scalar(c.a2)]


def ser_terms(terms: dict, wrap) -> list:
    return [[list(e), wrap(c)] for e, c in sorted(terms.items())]


def _reference_serialization(f) -> list:
    """The report form of a sparse element read off FieldElem / Witt2 objects,
    the reference for cli.ser_elem's residue-level reading."""
    return ser_terms(f.terms, _ser_w2 if f.ring == "w2" else _ser_scalar)


def test_serialization_matches_the_object_reference():
    """cli.ser_elem equals the object-level serialization on v, Phi, gamma, f
    and C of the families with coefficients outside F_p."""
    lift_elems = other = 0
    for p, m, modulus, c in _NON_PRIME_COEFFICIENTS.values():
        field = FieldParams(p, m, modulus)
        for family, n in ((etale_family, 1), (bkk_family, 2)):
            alg = AlgebraParams(n, field)
            for i in range(p):
                e = family(alg, i, field.element(c))
                out = coh.construct_lift(e)
                elems = out.v + (out.Phi if isinstance(out, coh.Lift) else [])
                lift_elems += len(elems)
                sol = diffeq.gamma_solution(e)
                polys = sol.gamma + sol.f + [g for row in e.obstruction_C for g in row]
                other += len(polys)
                for f in elems + polys:
                    assert cli.ser_elem(f) == _reference_serialization(f)
    assert lift_elems == 132 and other > 0


@pytest.mark.parametrize("name", ["etale_i0", "bkk_p3"])
def test_construct_lift_certificate_catches_a_wrong_correction(name, monkeypatch):
    """One wrong monomial in v_1 breaks the certificate on either branch:
    liftable (etale_i0) and obstructed (bkk_p3)."""
    e = load_spec(SPEC_DIR / f"{name}.spec").endo()
    psi_inverse = coh.psi_inverse
    calls = []

    def wrong_v1(e, s):
        calls.append(s)
        v = psi_inverse(e, s)
        return v + e.alg.gen(0) if len(calls) == 1 else v

    monkeypatch.setattr(coh, "psi_inverse", wrong_v1)
    with pytest.raises(InternalInconsistency, match="residual identity"):
        coh.construct_lift(e)
    assert calls


def test_construct_lift_at_p61():
    """z2 -> z2 + z2^61 lifts and the lift verifies, in bounded time."""
    alg = AlgebraParams(1, FieldParams(61))
    e = Endo(alg, [alg.gen(0), alg.gen(1) + alg.monomial((0, 61))])
    start = time.perf_counter()
    out = coh.construct_lift(e)
    assert time.perf_counter() - start < 30
    assert isinstance(out, coh.Lift)
    assert coh.verify_lift(alg, out.Phi)


def test_expansion_takes_no_powers_of_the_images():
    """The obstructed p = 31 spec peels 30-step ad chains, yet construct_lift
    leaves each image's power cache at u^0 and u^1: the peel's Taylor shift
    multiplies by the image itself, one Horner step at a time."""
    e = load_spec(SPEC_DIR / "etale_p31.spec").endo()
    assert isinstance(coh.construct_lift(e), coh.ObstructionWitness)
    assert [sorted(cache) for cache in e._powers] == [[0, 1], [0, 1]]

def test_verify_lift_rejects_wrong_images(a1_f3):
    z1 = a1_f3.gen(0, "w2")
    assert not coh.verify_lift(a1_f3, [z1, z1])
    assert not coh.verify_lift(a1_f3, [z1])


def test_construct_lift_bkk_witness(a2_f3):
    e = bkk_family(a2_f3, 2, a2_f3.field.one)
    out = coh.construct_lift(e)
    assert isinstance(out, coh.ObstructionWitness)
    assert list(out.harmonic) == [(0, 3)]
    assert out.harmonic[(0, 3)] == a2_f3.const(-1, var="y")
