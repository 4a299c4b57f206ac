"""Differential equations on the Frobenius-twisted center.

Write S = k[y_1..y_2n] with x_i = y_i^p.  The restriction of a valid
endomorphism to the center, x_i -> F_i(x), induces ybar_i in S with
ybar_i^p = F_i(y^p) by taking p-th roots of coefficients.  Each coordinate
carries the equation

    gamma^p + (d/dy_i)^{p-1} gamma = r_i,
    r_i = (d/dy_i)^{p-1} ( sum_{l<n} (d ybar_l / dy_i) ybar_{n+l} ),

which always has a unique polynomial solution gamma_i; liftability is
equivalent to symmetry of the Jacobian of (f_i), where f_i is gamma_i with
Frobenius applied to coefficients (so f_i(y^p) = gamma_i(y)^p).

The symmetry verdict and the twisted Jacobian identity are read on the
center only, from J_f and the center Jacobian of the Poisson and etale
verdicts; their y-level twins are the same formulas under the Frobenius twist.

The solver runs a degree descent: the top slice of the right side must be
a p-th power (its root is the top slice of gamma), and degrees below p
leave only a constant.  Failures raise NoSolution with the blocking slice.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import center as C
from .endo import Endo
from .errors import InternalInconsistency, NoSolution


def phi_S(e: Endo, i: int) -> C.Poly:
    """The induced image ybar_i = F_i^(1/p), as a y-polynomial."""
    return C.pth_root_retag(e.center_images[i])


def phi_S_all(e: Endo) -> list[C.Poly]:
    return [phi_S(e, i) for i in range(e.alg.nvars)]


def _rhs(images: list[C.Poly], i: int) -> C.Poly:
    """(d/dv_i)^{p-1} sum_{l<n} (d g_l/dv_i) g_{n+l} for the images g.

    The images are ybar (y-level, the gamma equation) or the center images
    (x-level, the f equation); the result keeps their letter.
    """
    alg = images[0].alg
    n = alg.n
    acc = alg.const(0, var=images[0].var)
    for l in range(n):
        acc = acc + images[l].pderiv(i) * images[n + l]
    return acc.pderiv_iter(i, alg.field.p - 1)


def _pth_root_termwise(f: C.Poly) -> C.Poly:
    """Termwise root: c y^(p b) -> c^(1/p) y^b; None if some exponent resists."""
    field, res = f.alg.field, f.ctx.res
    p, root = field.p, field.p ** (field.m - 1)
    items = []
    for exps, c in f._items():
        if any(x % p for x in exps):
            return None
        items.append((tuple(x // p for x in exps), res.pow(c, root)))
    return f.alg.from_items(items, f.var)


def solve_gamma(rhs: C.Poly, i: int) -> C.Poly:
    """Solve gamma^p + (d/dy_i)^{p-1} gamma = rhs by degree descent.

    Each step takes the termwise p-th root gt of the top slice and subtracts
    the slice itself for gt^p, exactly: in characteristic p the p-th power
    of a commutative polynomial is the sum of its terms' p-th powers.  The
    final check takes the one power.  Works uniformly for the y-level and
    x-level equations (the letter of rhs is kept).  Raises NoSolution when
    a slice blocks the descent.
    """
    alg = rhs.alg
    p = alg.field.p
    gamma = alg.const(0, var=rhs.var)
    R = rhs
    while not R.is_zero():
        D = int(R.degree())
        if D < p:
            if D > 0:
                raise NoSolution(f"residual of degree {D} in (0, p) cannot be matched: {R!r}")
            gamma = gamma + _pth_root_termwise(R)
            break
        if D % p:
            raise NoSolution(f"top degree {D} is not divisible by p: {R.homogeneous_slice(D)!r}")
        top = R.homogeneous_slice(D)
        gt = _pth_root_termwise(top)
        if gt is None:
            raise NoSolution(f"top slice is not a p-th power: {top!r}")
        gamma = gamma + gt
        R = R - top - gt.pderiv_iter(i, p - 1)
    check = gamma**p + gamma.pderiv_iter(i, p - 1)
    if check != rhs:
        raise InternalInconsistency("gamma solver produced a non-solution")
    return gamma


@dataclass
class GammaSolution:
    """Solutions of all 2n coordinate equations, the Jacobian J_f of the
    x-level solutions (f_i), and the symmetry verdict read from it."""

    gamma: list[C.Poly]
    f: list[C.Poly]
    rhs: list[C.Poly]
    J_f: C.Mat
    symmetric: bool


def gamma_solution(e: Endo) -> GammaSolution:
    """Solve every coordinate equation; f_i is the x-level counterpart."""
    ybar = phi_S_all(e)
    rhss = [_rhs(ybar, i) for i in range(e.alg.nvars)]
    gammas = [solve_gamma(r, i) for i, r in enumerate(rhss)]
    fs = [C.pth_power_retag(g) for g in gammas]
    Jf = C.jacobian(fs)
    return GammaSolution(gamma=gammas, f=fs, rhs=rhss, J_f=Jf,
                         symmetric=C.mat_eq(Jf, C.mat_transpose(Jf)))


def check_matrix_id(e: Endo, sol: GammaSolution) -> bool:
    """J^T omega J = omega + J_f^T - J_f for J = e.center_jacobian.

    Checked exactly in negated form, since omega^{-1} = -omega: J^T
    omega^{-1} J, the bracket matrix of J^T, must equal omega^{-1} + J_f -
    J_f^T.
    """
    Jf = sol.J_f
    rhs = C.mat_add(C.omega_inv_matrix(e.alg, "x"), C.mat_sub(Jf, C.mat_transpose(Jf)))
    return C.mat_eq(C.bracket_matrix(C.mat_transpose(e.center_jacobian)), rhs)
