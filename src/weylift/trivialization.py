"""The trace of the matrix trivialization of the Weyl algebra, in closed form.

Over S = k[y] with x_i = y_i^p, sending z_l to (multiplication by T_l)
+ y_l and z_{n+l} to d/dT_l + y_{n+l} identifies A_n(k) tensor S with the
p^n by p^n matrix algebra over S acting on k[T]/(T_1^p, .., T_n^p).  The
matrix trace recovers the coefficient of z^(p-1,..,p-1) in any basis
expansion (times (-1)^n), giving a route to expansion coefficients that
never looks at the images, independent of the ad-chain expansion.

The trace is read off the monomials in closed form, with no matrix built.
The representation is a tensor product over the n conjugate pairs, and on
k[T]/(T^p), D = d/dT sends T^m to m!/(m-j)! T^(m-j) under D^j, so

    Tr(T^i D^j) = [i = j] sum_{m=j}^{p-1} m!/(m-j)! = [i = j] j! binom(p, j+1),

which vanishes mod p except at j = p-1, where it is (p-1)! = -1.  Expanding
(T + y_l)^a (D + y_{n+l})^b binomially therefore gives, for a normally
ordered monomial with a_l = e_l, b_l = e_{n+l},

    Tr rep(c z^e) = c prod_l -binom(a_l, p-1) binom(b_l, p-1)
                      y_l^(a_l-p+1) y_{n+l}^(b_l-p+1),

and by Lucas binom(a, p-1) is 1 mod p when a = -1 mod p and 0 otherwise.
Tr is linear, so one pass over the terms gives trace_top_coefficient.  The
matrices themselves, and the matrix route trace(rep(f)), are the tests'
oracle (tests/trivialization_oracle.py).
"""

from __future__ import annotations

from .endo import Endo
from .errors import WeyliftError
from .weyl import Poly, WeylElem


def trace_top_coefficient(e: Endo, f: WeylElem) -> Poly:
    """(-1)^n Tr(rep(f)), in k[y^p], read off the monomials of f.

    By the closed form in the module docstring, (-1)^n Tr rep(c z^e) is
    c y^(e - (p-1,..,p-1)) when every exponent of e is p-1 mod p and 0
    otherwise (the n signs -1 cancel against (-1)^n).  Distinct monomials
    give distinct y-monomials, so no terms merge, and a kept packed key only
    loses the packed (p-1,..,p-1).  trace(rep(f)) computes the same value
    with p^n by p^n matrices and is the test oracle.

    By conjugation invariance of the trace this is the coefficient of the
    top monomial u^_1^{p-1} .. u^_2n^{p-1} in the expansion of f over the
    basis twisted by the endomorphism, for any valid endomorphism; the
    trace side never looks at the images, which is the point of the
    cross-check against the ad chain of cohomology.top_coefficient.
    """
    if f.ring != "k":
        raise WeyliftError("the trace is defined over k, not W_2")
    p, ctx = e.alg.field.p, f.ctx
    exps = ctx.exps
    kept = {k: c for k, c in f.data.items() if all(x % p == p - 1 for x in exps(k))}
    # every kept exponent is at least p - 1, so (p-1,..,p-1) packs at this width
    shift = ctx.key((p - 1,) * e.alg.nvars) if kept else 0
    return f._as("y", {k - shift: c for k, c in kept.items()})
