"""The rank-p^n matrix representation over k[y], the reduced trace, and
recovery of the conjugating matrix from the twisted generators alone.

The conjugator round trip plants G as a product of elementary matrices
with small polynomial entries, feeds A_l = G nu_l G^{-1} and B_l =
G nu_{n+l} G^{-1} to the recovery, and accepts equality up to a scalar
unit (checked by cross-multiplication).  The recovery applies the vacuum
projector to vectors only; the whole projector, built by matrix products,
is its test oracle here.  The conjugators of three fixed maps and of the
whole corpus are also pinned exactly, by digest.
"""

from __future__ import annotations

import hashlib
import random
from math import factorial

import pytest
from test_center import x_to_y

from weylift import center as C
from weylift import diffeq as DQ
from weylift import trivialization as TV
from weylift.endo import bkk_family, etale_family, fourier, identity_endo
from weylift.errors import NotAHomomorphism
from weylift.scalars import FieldParams
from weylift.weyl import AlgebraParams, WeylElem, ad_pow


def _poly(alg, terms):
    return C.Poly(alg, "y", {e: alg.field.from_int(c) for e, c in terms.items()})


# -- representation and trace ---------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_rep_satisfies_relations(p, n):
    alg = AlgebraParams(n, FieldParams(p))
    N = TV.mat_size(alg)
    for i in range(alg.nvars):
        for j in range(alg.nvars):
            Ri = TV.rep_gen(alg, i)
            Rj = TV.rep_gen(alg, j)
            lhs = C.mat_sub(C.mat_mul(Ri, Rj), C.mat_mul(Rj, Ri))
            want = C.mat_scalar(
                alg.const(alg.omega_int(i, j), var="y"), N
            )
            assert C.mat_eq(lhs, want)


def test_rep_is_multiplicative():
    alg = AlgebraParams(1, FieldParams(3))
    rng = random.Random(31)
    for _ in range(6):
        terms_f = {
            (rng.randint(0, 3), rng.randint(0, 3)): alg.field.from_int(rng.randint(1, 2))
            for _ in range(2)
        }
        terms_g = {
            (rng.randint(0, 3), rng.randint(0, 3)): alg.field.from_int(rng.randint(1, 2))
            for _ in range(2)
        }
        f = WeylElem(alg, "k", terms_f)
        g = WeylElem(alg, "k", terms_g)
        assert C.mat_eq(
            TV.rep(alg, f * g), C.mat_mul(TV.rep(alg, f), TV.rep(alg, g))
        )


def test_rep_generator_pth_power_is_scalar():
    alg = AlgebraParams(1, FieldParams(3))
    N = TV.mat_size(alg)
    for i in range(2):
        R = C.mat_pow(TV.rep_gen(alg, i), 3)
        yi = alg.gen(i, var="y")
        assert C.mat_eq(R, C.mat_scalar(yi**3, N))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_trace_identity_exhaustive(p, n):
    """Tr(rep(z^m)) = (-1)^n when m = (p-1,...,p-1), else 0, for every
    monomial with all exponents below p."""
    alg = AlgebraParams(n, FieldParams(p))
    sign = alg.field.from_int((-1) ** n)
    top = (p - 1,) * alg.nvars
    import itertools

    for m in itertools.product(range(p), repeat=alg.nvars):
        t = TV.trace(TV.rep(alg, alg.monomial(m)))
        if m == top:
            assert t == C.Poly(alg, "y", {(0,) * alg.nvars: sign})
        else:
            assert t.is_zero()


@pytest.mark.parametrize(
    "q,n", [(2, 1), (3, 1), (5, 1), (7, 1), (9, 1), (2, 2), (3, 2), (5, 2), (9, 2)]
)
def test_trace_closed_form_matches_matrix_trace(q, n):
    """The monomial read-off equals (-1)^n Tr(rep(f)) on seeded random f.

    Exponents run to 2p and are drawn often at p-1 and 2p-1, so the
    y-powers and the binom(a, p-1) weights of exponents >= p are exercised;
    over F_9 the coefficients range over the whole field.
    """
    field = FieldParams(3, 2, (1, 0, 1)) if q == 9 else FieldParams(q)
    p = field.p
    alg = AlgebraParams(n, field)
    e = identity_endo(alg)
    coeffs = [c for c in field.all_elements() if c]
    rng = random.Random(("closed-trace", q, n).__repr__())
    sign = field.from_int((-1) ** n)
    nonzero = 0
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(
                rng.choice((rng.randint(0, 2 * p), p - 1, 2 * p - 1)) for _ in range(alg.nvars)
            )
            terms[exps] = rng.choice(coeffs)
        f = WeylElem(alg, "k", terms)
        want = TV.trace(TV.rep(alg, f)).scale(sign)
        assert TV.trace_top_coefficient(e, f) == want
        nonzero += not want.is_zero()
    assert nonzero >= 3


def test_trace_top_coefficient_three_routes(corpus):
    """Matrix trace route vs the twisted-basis coefficient route."""
    from weylift import cohomology as coh

    for e in corpus[::9]:
        alg = e.alg
        p = alg.field.p
        if p == 5 and alg.n == 2:
            continue  # 25x25 polynomial matrices; the sizes below cover the claim
        rng = random.Random(("trace3", p, alg.n).__repr__())
        samples = [alg.const(1)]
        prod = alg.const(1)
        for i in range(alg.nvars):
            prod = prod * e.u(i) ** (p - 1)
        samples.append(prod)
        for _ in range(2):
            samples.append(
                WeylElem(
                    alg,
                    "k",
                    {
                        tuple(rng.randint(0, p) for _ in range(alg.nvars)): alg.field.from_int(
                            rng.randint(1, p - 1)
                        )
                    },
                )
            )
        for f in samples:
            via_trace = TV.trace_top_coefficient(e, f)
            expansion = coh.basis_expand(e, f)
            top = expansion.get((p - 1,) * alg.nvars, alg.const(0))
            assert via_trace == x_to_y(top.to_center_poly())


def test_trace_of_identity_and_top_product(a1_f3):
    e = identity_endo(a1_f3)
    assert TV.trace_top_coefficient(e, a1_f3.monomial((2, 2))) == a1_f3.const(1, var="y")
    assert TV.trace_top_coefficient(e, a1_f3.const(1)).is_zero()


def test_ad_chain_independence(corpus):
    """ad(u_1)^{p-1} ... ad(u_2n)^{p-1} f = ad(z_1)^{p-1} ... ad(z_2n)^{p-1} f
    for any valid endomorphism: 50 corpus samples."""
    checked = 0
    for e in corpus:
        if checked >= 50:
            break
        alg = e.alg
        p = alg.field.p
        if p == 5 and alg.n == 2:
            continue  # keep the loop fast; degree profile covered below
        rng = random.Random(("adchain", p, alg.n, checked).__repr__())
        f = WeylElem(
            alg,
            "k",
            {
                tuple(rng.randint(0, 2) for _ in range(alg.nvars)): alg.field.from_int(
                    rng.randint(1, p - 1)
                )
                for _ in range(2)
            },
        )
        via_u = f
        via_z = f
        for i in range(alg.nvars):
            via_u = ad_pow(e.u(i), p - 1, via_u)
            via_z = ad_pow(alg.gen(i), p - 1, via_z)
        assert via_u == via_z
        checked += 1
    assert checked == 50


# -- multivariate gcd helpers ---------------------------------------------


def test_mv_gcd_recovers_common_factor():
    alg = AlgebraParams(1, FieldParams(5))
    rng = random.Random(41)
    for _ in range(8):
        f = _poly(alg, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 4), (0, 0): 1})
        g = _poly(alg, {(rng.randint(1, 2), 0): rng.randint(1, 4), (0, 1): 1})
        h = _poly(alg, {(1, 1): rng.randint(1, 4), (0, 0): rng.randint(1, 4)})
        d = TV.mv_gcd(f * h, g * h)
        # divexact raises on failure: d divides both products, h divides d
        C.divexact(f * h, d)
        C.divexact(g * h, d)
        C.divexact(d, h)


def test_mv_gcd_of_coprime_is_constant():
    alg = AlgebraParams(1, FieldParams(3))
    f = _poly(alg, {(1, 0): 1, (0, 0): 1})  # y1 + 1
    g = _poly(alg, {(0, 1): 1, (0, 0): 2})  # y2 + 2
    assert TV.mv_gcd(f, g).is_constant()


def test_mv_gcd_normalises_over_f9():
    """Over F_9 with coefficient t the gcd comes out with lex-leading
    coefficient 1: the common factor t*y1 + 1 scaled by t^-1."""
    f9 = FieldParams(3, 2)
    alg, t, one = AlgebraParams(1, f9), f9.element((0, 1)), f9.one
    h = C.Poly(alg, "y", {(1, 0): t, (0, 0): one})
    f = h * C.Poly(alg, "y", {(0, 1): one, (0, 0): t})
    g = h * C.Poly(alg, "y", {(1, 0): t, (0, 1): t})
    d = TV.mv_gcd(f, g)
    assert d == h.scale(t.inverse())
    assert max(d.terms.items())[1] == one


def test_column_content():
    alg = AlgebraParams(1, FieldParams(3))
    h = _poly(alg, {(1, 0): 1, (0, 0): 2})
    col = [h, h * _poly(alg, {(1, 1): 2}), alg.const(0, var="y")]
    content = TV.column_content(col)
    assert TV._normalize(content) == TV._normalize(h)
    for v in col[:2]:
        C.divexact(v, content)


# -- conjugator recovery ---------------------------------------------------


def _random_unimodular(alg, rng, N):
    """A product of elementary row operations with entries of degree <= 2."""
    G = C.mat_identity(alg, "y", N)
    Ginv = C.mat_identity(alg, "y", N)
    for _ in range(rng.randint(2, 4)):
        i = rng.randrange(N)
        j = rng.randrange(N)
        if i == j:
            continue
        f = _poly(
            alg,
            {tuple(rng.randint(0, 1) for _ in range(alg.nvars)): rng.randint(1, alg.field.p - 1)},
        )
        E = list(list(row) for row in C.mat_identity(alg, "y", N))
        E[i][j] = E[i][j] + f
        Einv = list(list(row) for row in C.mat_identity(alg, "y", N))
        Einv[i][j] = Einv[i][j] - f
        G = C.mat_mul(G, tuple(tuple(r) for r in E))
        Ginv = C.mat_mul(tuple(tuple(r) for r in Einv), Ginv)
    return G, Ginv


def _proportional(A, B) -> bool:
    """A == c B for some nonzero scalar constant c, via cross-multiplication."""
    N = len(A)
    ref = None
    for r in range(N):
        for c in range(N):
            if not B[r][c].is_zero():
                ref = (r, c)
                break
        if ref:
            break
    if ref is None:
        return all(A[r][c].is_zero() for r in range(N) for c in range(N))
    r0, c0 = ref
    if A[r0][c0].is_zero():
        return False
    for r in range(N):
        for c in range(N):
            if A[r][c] * B[r0][c0] != A[r0][c0] * B[r][c]:
                return False
    return True


def _e00(alg, N):
    """The matrix unit E_00, the vacuum projector of the untwisted nu_l."""
    E = [list(row) for row in C.mat_zero(alg, "y", N)]
    E[0][0] = alg.const(1, var="y")
    return tuple(tuple(row) for row in E)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_recover_conjugator_round_trip(p, n):
    alg = AlgebraParams(n, FieldParams(p))
    N = TV.mat_size(alg)
    rng = random.Random(("conj", p, n).__repr__())
    rounds = {(2, 1): 20, (3, 1): 20, (2, 2): 10}[(p, n)]
    for _ in range(rounds):
        G0, G0inv = _random_unimodular(alg, rng, N)

        def conj(M):
            return C.mat_mul(C.mat_mul(G0, M), G0inv)

        A = [conj(TV.nu(alg, l)) for l in range(n)]
        B = [conj(TV.nu(alg, n + l)) for l in range(n)]
        G = TV.recover_conjugator(A, B)
        assert _proportional(G, G0)


def test_recover_conjugator_rejects_non_units():
    alg = AlgebraParams(1, FieldParams(2))
    N = 2
    one = C.mat_identity(alg, "y", N)
    nu1, nu2 = TV.nu(alg, 0), TV.nu(alg, 1)
    # A = B = Id at p = 2: the projector I - AB is 0
    with pytest.raises(NotAHomomorphism, match="projector vanishes"):
        TV.recover_conjugator([one], [one])
    # A = Id creates nothing: v_1 = A r0 = r0, so A G = G nu_1 fails
    with pytest.raises(NotAHomomorphism, match="generator 1"):
        TV.recover_conjugator([one], [nu2])
    # B = 1 + nu_2 keeps [B, A] = 1, but B G = G (1 + nu_2) where G nu_2 is wanted
    with pytest.raises(NotAHomomorphism, match="generator 2"):
        TV.recover_conjugator([nu1], [C.mat_add(one, nu2)])


def _unit(alg, N, j):
    return [alg.const(1, var="y") if k == j else alg.const(0, var="y") for k in range(N)]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_vacuum_projector_of_nu_is_e00(p, n):
    """P(nu) = E_00: sum_t (-T)^t D^t f / t! = f(0) on k[T]/(T^p)."""
    alg = AlgebraParams(n, FieldParams(p))
    N = TV.mat_size(alg)
    A = [TV.nu(alg, l) for l in range(n)]
    B = [TV.nu(alg, n + l) for l in range(n)]
    E = _e00(alg, N)
    for j in range(N):
        assert TV._project(A, B, _unit(alg, N, j)) == [row[j] for row in E]


def _twisted(e):
    """A_l = rep(u_l) - ybar_l and B_l = rep(u_{n+l}) - ybar_{n+l}."""
    alg, N = e.alg, TV.mat_size(e.alg)
    T = [
        C.mat_sub(TV.rep(alg, e.u(i)), C.mat_scalar(y, N))
        for i, y in enumerate(DQ.phi_S_all(e))
    ]
    return T[: alg.n], T[alg.n :]


def _matrix_projector(A, B):
    """prod_l sum_{t<p} (-1)^t/t! A_l^t B_l^t by matrix products, l left to right."""
    alg = A[0][0][0].alg
    N = len(A[0])
    proj = C.mat_identity(alg, "y", N)
    for a, b in zip(A, B):
        acc = C.mat_zero(alg, "y", N)
        for t in range(alg.field.p):
            c = alg.field.from_int((-1) ** t * factorial(t)).inverse()
            term = C.mat_mul(C.mat_pow(a, t), C.mat_pow(b, t))
            acc = C.mat_add(acc, C.mat_scale(term, C.Poly(alg, "y", {(0,) * alg.nvars: c})))
        proj = C.mat_mul(proj, acc)
    return proj


def test_vacuum_projector_matrix_oracle(corpus):
    """The projector's columns are the vector route's images of the unit
    vectors, and proj G = G E_00 holds for the recovered G: the identity
    that recovery no longer checks, since intertwining implies it."""
    f3, f5 = FieldParams(3), FieldParams(5)
    p3_n2 = [e for e in corpus if (e.alg.field.p, e.alg.n) == (3, 2)]
    maps = [
        bkk_family(AlgebraParams(2, f3), 2, f3.one),
        etale_family(AlgebraParams(1, f5), 4, f5.one),
        p3_n2[1],
    ]
    for e in maps:
        alg, N = e.alg, TV.mat_size(e.alg)
        A, B = _twisted(e)
        proj = _matrix_projector(A, B)
        for j in range(N):
            assert TV._project(A, B, _unit(alg, N, j)) == [row[j] for row in proj]
        G = TV.conjugator_for_endo(e).G
        assert C.mat_eq(C.mat_mul(proj, G), C.mat_mul(G, _e00(alg, N)))


def test_conjugator_for_endo_identity(a1_f3):
    cj = TV.conjugator_for_endo(identity_endo(a1_f3))
    assert cj.det.is_constant() and not cj.det.is_zero()
    assert cj.ybar == [a1_f3.gen(i, var="y") for i in range(2)]
    assert C.mat_eq(cj.G, C.mat_identity(a1_f3, "y", 3))


@pytest.mark.parametrize("maker", ["etale", "fourier", "bkk"])
def test_conjugator_for_endo_families(maker, a1_f3, a2_f3):
    if maker == "etale":
        e = etale_family(a1_f3, 1, a1_f3.field.one)
    elif maker == "fourier":
        e = fourier(a1_f3)
    else:
        e = bkk_family(a2_f3, 2, a2_f3.field.one)
    cj = TV.conjugator_for_endo(e)
    assert cj.det.is_constant() and not cj.det.is_zero()
    assert cj.ybar == [DQ.phi_S(e, i) for i in range(e.alg.nvars)]


def test_conjugator_certifies_twisted_scalars(a1_f3):
    e = etale_family(a1_f3, 1, a1_f3.field.one)
    cj = TV.conjugator_for_endo(e)
    alg = e.alg
    for i in range(alg.nvars):
        lhs = C.mat_sub(C.mat_mul(TV.rep(alg, e.u(i)), cj.G), C.mat_mul(cj.G, TV.nu(alg, i)))
        assert C.mat_eq(lhs, C.mat_scale(cj.G, cj.ybar[i]))


def _mat_bytes(M) -> bytes:
    entries = [[sorted((e, c.coeffs) for e, c in x.terms.items()) for x in row] for row in M]
    return repr(entries).encode()


def _mat_digest(M) -> str:
    return hashlib.sha256(_mat_bytes(M)).hexdigest()


# SHA-256 of G and of det G, entries as sorted (exponent, coefficient) lists.
CONJUGATOR_DIGESTS = {
    "bkk-p5-j4": (
        "dc3d95eb18e09d1f9bdda6dda02b81e2b841e8be9c398d160b894b91f0902a23",
        "ec8417fcaf92d3189de7db49f51b0c3d2647aa4e51c9c24aa952fd6d7b38e993",
    ),
    "etale-p5-i4": (
        "74cc7302323a6be885b663078fb3cc18b5b7dff3ec1dba9a8861e099645c424c",
        "e51692972174df7e232d35b22537ccb9b8f81389084567cc7497394f903b6e8b",
    ),
    "corpus-p3-n2-1": (
        "15e0c87ba71569442188267fb6ce027929e121e1c4dd8fe562dd9d404e8d832c",
        "5abd55e6837947b2ad1d276b61e11a0424588476195f662ece4d5f5a703ee556",
    ),
}


def test_conjugator_is_pinned(corpus):
    """G and det exactly, not only up to a unit: the 25 x 25 bkk conjugator,
    an etale twist and the 9 x 9 corpus conjugator of test_det_routes_agree."""
    f5 = FieldParams(5)
    p3_n2 = [e for e in corpus if (e.alg.field.p, e.alg.n) == (3, 2)]
    maps = {
        "bkk-p5-j4": bkk_family(AlgebraParams(2, f5), 4, f5.one),
        "etale-p5-i4": etale_family(AlgebraParams(1, f5), 4, f5.one),
        "corpus-p3-n2-1": p3_n2[1],
    }
    for name, e in maps.items():
        cj = TV.conjugator_for_endo(e)
        assert (_mat_digest(cj.G), _mat_digest([[cj.det]])) == CONJUGATOR_DIGESTS[name], name



def test_corpus_conjugators_are_pinned(corpus):
    """One SHA-256 over G and det G of all 104 corpus maps, in corpus order."""
    h = hashlib.sha256()
    for e in corpus:
        cj = TV.conjugator_for_endo(e)
        h.update(_mat_bytes(cj.G))
        h.update(_mat_bytes([[cj.det]]))
    assert h.hexdigest() == "b78ac4bc9e49f8872c859adf853f26b58d059564fac84b1a70d38d452b2db7f3"

def test_conjugator_rejects_invalid_images(a1_f3):
    from weylift.endo import Endo

    z2 = a1_f3.gen(1)
    bad = Endo(a1_f3, [a1_f3.gen(0), z2 + z2])  # [z1, 2 z2] = -2 != -1
    with pytest.raises(NotAHomomorphism):
        TV.conjugator_for_endo(bad)

