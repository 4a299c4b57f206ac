"""Endomorphisms of A_n(k) and their lifting obstruction.

An endomorphism is given by images u_i = phi(z_i) satisfying the defining
relations [u_i, u_j] = omega_{ij} exactly.  Teichmuller lifts U_i then
satisfy [U_i, U_j] = omega_{ij} + p u_ij in A_n(W_2(k)), and the obstruction
matrix has entries

    c_ij = ad(u_i)^{p-1} ad(u_j)^{p-1} (u_ij)      (central, antisymmetric)

phi lifts to W_2(k) iff every c_ij vanishes, iff the induced map on the
center is a Poisson morphism.

The paper also defines c_ij by p c_ij = [U_i^p, U_j^p] + p omega_{ij}.  The
oracle route computes that value without the W_2 p-th powers U_i^p.  Since
U_i^p = [u_i^p] mod p and u_j^p is central in A_n(k), and p [X, Y] depends
only on X, Y mod p, [U_i^p, U_j^p] = [[u_i^p], [u_j^p]] exactly in
A_n(W_2(k)).  So the oracle commutes the Teichmuller lifts of the center
images u_i^p, through center.witt_brackets.  It stays independent of the
ad-chain route and shares no intermediate value with it: obstruction_C
reads u_ij off the W_2 commutators [U_i, U_j] of validate and runs ad chains
over k, while the oracle reads u_i^p and commutes over W_2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul

from . import center as C
from .errors import (
    InternalInconsistency,
    ParamsMismatch,
    RelationViolation,
    ResourceLimit,
    WeyliftError,
)
from .weyl import AlgebraParams, WeylElem, ad_pow, relation_defects, teich_lift

# Default term budget for the analyze guardrail.  The estimate
# p^{2n} (p deg phi)^{2n} reaches 2.6e9 on the standard degree-9 n=2 p=5
# fixture, so the default must clear that.
DEFAULT_BUDGET = 10**10


class Endo:
    """phi: A_n(k) -> A_n(k) determined by the images of the generators."""

    def __init__(self, alg: AlgebraParams, images: list[WeylElem]):
        if len(images) != alg.nvars:
            raise WeyliftError(f"expected {alg.nvars} images, got {len(images)}")
        for u in images:
            if not isinstance(u, WeylElem) or u.alg != alg or u.ring != "k":
                raise ParamsMismatch("images must be Weyl elements of A_n(k) for this algebra")
        self.alg = alg
        self.images = list(images)

    # -- validation and degree ----------------------------------------------

    def validate(self) -> None:
        """Check every defining relation exactly; raises RelationViolation.

        The relations are read off the W_2 commutators that u_ij comes from
        (_u_ij_upper), which the map computes once: [U_i, U_j] - omega_{ij}
        reduces mod p to [u_i, u_j] - omega_{ij}.
        """
        self._u_ij_upper

    @cached_property
    def deg(self) -> int:
        """max_i deg(u_i); images are nonzero for a valid endomorphism."""
        return max((int(u.degree()) for u in self.images if u), default=0)

    def u(self, i: int) -> WeylElem:
        return self.images[i]

    def dual(self, i: int) -> tuple[int, int]:
        """(j, s) with u^_i = s u_j: u^_i = -u_{n+i} for i < n, u^_i = u_{i-n} for i >= n."""
        n = self.alg.n
        return (n + i, -1) if i < n else (i - n, 1)

    @cached_property
    def _teich(self) -> list[WeylElem]:
        return [teich_lift(u) for u in self.images]

    # -- obstruction data ----------------------------------------------------

    @cached_property
    def _u_ij_upper(self) -> dict:
        """u_ij for i < j: the d2 of [U_i, U_j] - omega_{ij} = [d1] + p [d2].

        d1 is [u_i, u_j] - omega_{ij}; the first pair (i, j) with d1 != 0
        raises RelationViolation(i, j, d1).
        """
        out = {}
        for i, j, d1, d2 in relation_defects(self.alg, self._teich):
            if d1:
                raise RelationViolation(i, j, d1)
            out[(i, j)] = d2
        return out

    def u_ij(self, i: int, j: int) -> WeylElem:
        if i == j:
            return self.alg.const(0)
        if i < j:
            return self._u_ij_upper[(i, j)]
        return -self._u_ij_upper[(j, i)]

    @cached_property
    def obstruction_C(self) -> C.Mat:
        """The antisymmetric matrix c_ij, as polynomials on the center."""
        p = self.alg.field.p

        def entry(i: int, j: int) -> C.Poly:
            c = ad_pow(self.images[i], p - 1, ad_pow(self.images[j], p - 1, self.u_ij(i, j)))
            if not c.is_central():
                raise InternalInconsistency("c_ij is not central")
            return c.to_center_poly()

        return C.antisymmetric(self.alg, "x", entry)

    @cached_property
    def obstruction_C_oracle(self) -> C.Mat:
        """c_ij via p c_ij = [U_i^p, U_j^p] + p omega_{ij} over W_2(k).

        [U_i^p, U_j^p] = [[u_i^p], [u_j^p]]: U_i^p - [u_i^p] = p R_i, and
        p [R_i, X] = p [R_i mod p, X mod p] vanishes for X = [u_j^p], whose
        reduction u_j^p is central (likewise p [X, R_j], and p^2 = 0).  So
        c_ij = [[u_i^p], [u_j^p]] / p + omega_{ij}, the bracket
        {phi(x_i), phi(x_j)} read upstairs plus omega_{ij}.  A non-central
        u_i^p raises InternalInconsistency.
        """
        if not all(P.is_central() for P in self._image_powers):
            raise InternalInconsistency("u_i^p is not central")
        return C.mat_add(C.witt_brackets(self._image_powers), C.omega_matrix(self.alg, "x"))

    @cached_property
    def _image_powers(self) -> list[WeylElem]:
        """u_i^p over k, read by center_images and the oracle."""
        return [u.p_power() for u in self.images]

    @cached_property
    def center_images(self) -> list[C.Poly]:
        """phi(x_i) = u_i^p written in the x coordinates."""
        return [P.to_center_poly() for P in self._image_powers]

    @cached_property
    def center_jacobian(self) -> C.Mat:
        """The Jacobian of the center images."""
        return C.jacobian(self.center_images)

    @cached_property
    def center_brackets(self) -> C.Mat:
        """({phi(x_i), phi(x_j)}) = J omega^{-1} J^T for J = center_jacobian."""
        return C.bracket_matrix(self.center_jacobian)

    def check_theorem_idjac(self) -> bool:
        """J omega^{-1} J^T = omega^{-1} + C, exactly."""
        inv = C.omega_inv_matrix(self.alg, "x")
        return C.mat_eq(self.center_brackets, C.mat_add(inv, self.obstruction_C))

    def tsuchimoto_bound(self) -> bool:
        """deg u_l + deg u_{n+l} < 2p for every conjugate pair."""
        n, p = self.alg.n, self.alg.field.p
        return all(
            int(self.images[l].degree()) + int(self.images[n + l].degree()) < 2 * p
            for l in range(n)
        )

    # -- composition ---------------------------------------------------------

    def apply(self, f: WeylElem) -> WeylElem:
        """phi(f): substitute the images into a normally ordered element."""
        if f.alg != self.alg or f.ring != "k":
            raise ParamsMismatch("apply expects an element of A_n(k)")
        acc = self.alg.const(0)
        for exps, c in f._items():
            factors = [self.power(i, x) for i, x in enumerate(exps) if x] or [self.power(0, 0)]
            acc._add_into(reduce(mul, factors), c)
        return acc

    def power(self, i: int, e: int) -> WeylElem:
        """u_i^e from the map's cache of powers, whose one reader is apply."""
        cache = self._powers[i]
        while e >= len(cache):
            cache[len(cache)] = cache[len(cache) - 1] * self.images[i]
        return cache[e]

    @cached_property
    def _powers(self) -> list[dict[int, WeylElem]]:
        """{e: u_i^e} per image, for e = 0, 1, .. as far as power reached."""
        return [{0: self.alg.const(1), 1: u} for u in self.images]

    def compose(self, other: Endo) -> Endo:
        """self after other: z_i -> self(other(z_i))."""
        if self.alg != other.alg:
            raise ParamsMismatch("composition across different algebras")
        return Endo(self.alg, [self.apply(u) for u in other.images])

    # -- analysis ------------------------------------------------------------

    def estimate_terms(self) -> int:
        p, n2 = self.alg.field.p, self.alg.nvars
        return p**n2 * (p * max(self.deg, 1)) ** n2

    def analyze(self, budget: int = DEFAULT_BUDGET) -> ObstructionReport:
        """Validate, compute C and the center criteria, and cross-check flags."""
        est = self.estimate_terms()
        if est > budget:
            raise ResourceLimit(f"estimated {est} terms exceeds budget {budget}")
        self.validate()
        Cmat = self.obstruction_C
        liftable = all(c.is_zero() for row in Cmat for c in row)
        poisson = C.is_poisson_morphism(self.center_brackets)
        etale = C.is_etale(self.center_jacobian)
        bound = self.tsuchimoto_bound()
        if liftable != poisson:
            raise InternalInconsistency("liftable and Poisson flags disagree")
        if poisson and not etale:
            raise InternalInconsistency("Poisson morphism with non-unit Jacobian")
        if bound and not liftable:
            raise InternalInconsistency("degree bound met but obstruction nonzero")
        return ObstructionReport(
            degree=self.deg,
            C=Cmat,
            liftable=liftable,
            poisson=poisson,
            etale=etale,
            injective_certified=etale,
            tsuchimoto_bound_met=bound,
            term_counts={
                "images": [len(u.data) for u in self.images],
                "C": [[len(c.data) for c in row] for row in Cmat],
            },
        )


@dataclass
class ObstructionReport:
    """Everything analyze() decides about one endomorphism."""

    degree: int
    C: list[list[C.Poly]]
    liftable: bool
    poisson: bool
    etale: bool
    injective_certified: bool
    tsuchimoto_bound_met: bool
    term_counts: dict


# ---------------------------------------------------------------------------
# standard endomorphism constructors


def validate(images: list[WeylElem]) -> Endo:
    """Build an Endo from generator images, checking every relation."""
    if not images:
        raise WeyliftError("no images given")
    e = Endo(images[0].alg, images)
    e.validate()
    return e


def identity_endo(alg: AlgebraParams) -> Endo:
    return Endo(alg, [alg.gen(i) for i in range(alg.nvars)])


def elementary(alg: AlgebraParams, g: WeylElem, half: str = "second") -> Endo:
    """Translation automorphism from a potential g on one commuting half.

    half="second": g in k[z_{n+1}..z_2n], z_l -> z_l + dg/dz_{n+l}, other
    generators fixed.  half="first" is the mirror image.  Valid for any g
    because the correction terms commute among themselves.
    """
    n = alg.n
    if half == "second":
        allowed = range(n, 2 * n)
    elif half == "first":
        allowed = range(0, n)
    else:
        raise WeyliftError(f"half must be 'first' or 'second', got {half!r}")
    allowed = set(allowed)
    for e, _ in g._items():
        if any(x and i not in allowed for i, x in enumerate(e)):
            raise WeyliftError("g must be supported on one commuting half")
    images = [alg.gen(i) for i in range(alg.nvars)]
    if half == "second":
        for l in range(n):
            images[l] = images[l] + g.pderiv(n + l)
    else:
        for l in range(n):
            images[n + l] = images[n + l] + g.pderiv(l)
    return Endo(alg, images)


def fourier(alg: AlgebraParams) -> Endo:
    """The symplectic swap z_l -> -z_{n+l}, z_{n+l} -> z_l."""
    n = alg.n
    images = [None] * alg.nvars
    for l in range(n):
        images[l] = -alg.gen(n + l)
        images[n + l] = alg.gen(l)
    return Endo(alg, images)


def etale_family(alg: AlgebraParams, i: int, c=None) -> Endo:
    """n=1 family z_2 -> z_2 + c z_2^p z_1^i; liftable iff i < p-1."""
    if alg.n != 1:
        raise WeyliftError("etale_family is defined for n = 1")
    p = alg.field.p
    if not 0 <= i <= p - 1:
        raise WeyliftError(f"family index must be in [0, p-1], got {i}")
    if c is None:
        c = alg.field.one
    images = [alg.gen(0), alg.gen(1) + alg.monomial((i, p), c)]
    return Endo(alg, images)


def bkk_family(alg: AlgebraParams, j: int | None = None, c=None) -> Endo:
    """n=2 family z_1 -> z_1 + c z_2^p z_3^j; the obstruction case is j = p-1."""
    if alg.n != 2:
        raise WeyliftError("bkk_family is defined for n = 2")
    p = alg.field.p
    if j is None:
        j = p - 1
    if not 0 <= j <= p - 1:
        raise WeyliftError(f"family index must be in [0, p-1], got {j}")
    if c is None:
        c = alg.field.one
    images = [alg.gen(0) + alg.monomial((0, p, j, 0), c)] + [
        alg.gen(i) for i in range(1, 4)
    ]
    return Endo(alg, images)


# ---------------------------------------------------------------------------
# seeded corpus generation


def _random_half_poly(alg: AlgebraParams, rng: random.Random, half: str, max_deg: int) -> WeylElem:
    n = alg.n
    lo = n if half == "second" else 0
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * alg.nvars
        total = rng.randint(1, max_deg)
        for _ in range(total):
            exps[lo + rng.randrange(n)] += 1
        c = alg.field.from_int(rng.randint(1, alg.field.p - 1))
        terms[tuple(exps)] = c
    return WeylElem(alg, "k", terms)


def _random_linear(alg: AlgebraParams, rng: random.Random) -> list[Endo]:
    """A short word in quadratic translations and the symplectic swap."""
    word = []
    for _ in range(rng.randint(0, 2)):
        kind = rng.randrange(3)
        if kind == 0:
            word.append(fourier(alg))
        else:
            half = "first" if kind == 1 else "second"
            word.append(elementary(alg, _random_half_poly(alg, rng, half, 2), half))
    return word


def generate_corpus(alg: AlgebraParams, count: int, seed: int) -> list[Endo]:
    """Deterministic mix of translations, linear maps, and the two families.

    Every returned endomorphism is valid by construction; degrees stay at or
    below 2p-1 because nonlinear factors are sandwiched between linear ones.
    Identity factors are left out of the composition.
    """
    rng = random.Random((seed, alg.field.p, alg.n).__repr__())
    p = alg.field.p
    out = []
    while len(out) < count:
        roll = rng.random()
        core = []
        if roll < 0.35:
            half = rng.choice(["first", "second"])
            core = [elementary(alg, _random_half_poly(alg, rng, half, p + 1), half)]
        elif roll < 0.45:
            core = [fourier(alg)]
        elif roll < 0.70 and alg.n == 1:
            core = [etale_family(alg, rng.randrange(p), alg.field.from_int(rng.randint(1, p - 1)))]
        elif roll < 0.70 and alg.n == 2:
            core = [bkk_family(alg, rng.randrange(p), alg.field.from_int(rng.randint(1, p - 1)))]
        word = _random_linear(alg, rng) + core + _random_linear(alg, rng)
        out.append(reduce(Endo.compose, word) if word else identity_endo(alg))
    return out
