"""Extremizer search and the contraction-iteration laboratory.

The search maximizes Phi on the unit L^2 sphere at fixed bandwidth n by the
projected power method (Journee, Nesterov, Richtarik, Sepulchre, JMLR 2010),
f <- P_n Q / ||P_n Q|| with Q = Q(f,f,f,f~,f~).  Phi = (2 pi)^-2 ||F||_6^6 is
convex (F is linear in f) with derivative 6 Re<Q, .>, so for unit g in the
band Phi(g) - Phi(f) >= 6 Re<P_n Q, g - f>, which at g = P_n Q / ||P_n Q||
is 6 (||P_n Q|| - Re<P_n Q, f>) >= 0 by Cauchy-Schwarz.  A step that lowers
Phi is rounding or the radial tail model at work, never the method.

The iteration lab rebuilds a near-extremizer tail as a fixed point.  With
f = phi + g normalized to lambda = 1, expanding Q(phi+h, ..) by
multilinearity splits into the h-independent-plus-known-linear part L and
the remaining nine classes N(phi, h); h = L + N(phi, h) has g as a fixed
point, and for small tails the map contracts.

Both parts are field expressions in X = extend(phi) and Y = extend(h),
the classes grouped by how many plain slots hold h:

    N      = X^3 conj(Y^2) + 3 X^2 Y conj(2XY + Y^2)
                           + (3XY^2 + Y^3) conj((X + Y)^2),
    L + phi = X^3 conj(X^2 + 2XY) + 3 X^2 Y conj(X^2),

nine field products and six, each expression assembled once.  N is built
from its own classes, not as Q(phi+h) minus the low ones, so the expansion
identity L + N + phi = Q(phi + g) stays an independent check.  Both parts
hand phi and g (or h) to the polar engine, which sizes the angles from the
expression (extension._polar_fields); no angle rule lives here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dfield

import numpy as np

from .bessel import RadialGrid
from .errors import ConfigError, DivergenceError, PreconditionError
from .quintic import _polar_quintic, el_quintic
from .spectral import (TAU, CircleFunction, inner_product, l2_norm,
                       random_function, weighted_norm)

ASCENT_TOL = 1e-15           # relative Phi increment considered flat
ASCENT_FLAT_ITERS = 8        # keep power-stepping this long on the plateau
ASCENT_START_DECAY = 1.0     # random start's coefficients fall like (1+|n|)^-1
PICARD_TOL = 1e-11           # L^2 step size at which the iteration stops
PICARD_S_NORM = 0.5          # s of the (1+n^2)^{s/2} weighted ratios


def _normalized(f: CircleFunction) -> CircleFunction:
    nrm = l2_norm(f)
    if nrm == 0:
        raise ConfigError("cannot normalize the zero function")
    return f * (1.0 / nrm)


@dataclass
class AscentConfig:
    n: int = 16
    max_iter: int = 500
    seed: int | None = 0


@dataclass
class AscentResult:
    f: CircleFunction
    phi: float                    # also the Rayleigh value: ||f|| = 1
    quotient: float
    iterations: int
    converged: bool
    stop: str                     # "no_uphill", "flat" or "max_iter"
    trace: list = dfield(default_factory=list)

    def __repr__(self):
        return (f"AscentResult(quotient={self.quotient:.10g}, "
                f"iters={self.iterations}, converged={self.converged})")


def ascend(f0: CircleFunction | None = None,
           config: AscentConfig | None = None,
           grid: RadialGrid | None = None) -> AscentResult:
    """Projected power iteration for Phi on the unit sphere at bandwidth n:
    one el_quintic call per iteration, at P_n Q / ||P_n Q||, which convexity
    says cannot lower Phi (module docstring).  A trial that does, by rounding
    or the tail model, is not taken or traced, and the run stops "no_uphill"."""
    cfg = config or AscentConfig()
    if cfg.max_iter < 0:
        raise ConfigError(f"max_iter must be nonnegative, got {cfg.max_iter}")
    if f0 is None:
        f0 = random_function(cfg.n, cfg.seed, decay=ASCENT_START_DECAY)
    f = _normalized(f0.truncated(cfg.n))

    Q = el_quintic(f, grid, cfg.n)
    phi = inner_product(Q, f).real
    trace = []
    stop = "max_iter"
    flat_count = 0
    it = 0
    for it in range(1, cfg.max_iter + 1):
        trial = _normalized(Q)              # Q has modes |m| <= n only
        Qt = el_quintic(trial, grid, cfg.n)
        phit = inner_product(Qt, trial).real
        if phit < phi:
            stop = "no_uphill"
            break
        gain = (phit - phi) / (abs(phi) + 1e-300)
        f, phi, Q = trial, phit, Qt
        trace.append({"iter": it, "phi": phi,
                      "quotient": (TAU ** 2 * phi) ** (1.0 / 6.0)})
        if gain < ASCENT_TOL:
            flat_count += 1
            # Phi flattens quadratically before the iterate settles linearly,
            # so ride the plateau a while: each extra power step still cuts
            # the distance to the critical point by the spectral-gap factor.
            if flat_count >= ASCENT_FLAT_ITERS:
                stop = "flat"
                break
        else:
            flat_count = 0
    quot = (TAU ** 2 * phi) ** (1.0 / 6.0)        # ||f|| = 1 throughout
    return AscentResult(f=f, phi=float(phi), quotient=float(quot),
                        iterations=it, converged=stop != "max_iter",
                        stop=stop, trace=trace)


# ---------------------------------------------------------------------------
# sharp/tail decomposition and the fixed-point iteration
# ---------------------------------------------------------------------------

def decompose(f: CircleFunction, eps: float):
    """Split f = phi + g at the smallest K with ||f - f_{<=K}||_2 < eps,
    or K = N (g = 0) when no smaller K passes the test in squared masses.

    Returns (phi, g, K).  Warns when K = 0: the low part carries only the
    mean, which usually means eps was chosen larger than the whole tail.
    """
    if not (0 < eps < np.inf):
        raise ConfigError(f"eps must be positive and finite, got {eps!r}")
    N = f.N
    shell = np.bincount(np.abs(np.arange(-N, N + 1)),
                        weights=TAU * np.abs(f.coeffs) ** 2)   # mass at |n|
    above = np.append(np.cumsum(shell[:0:-1])[::-1], 0.0)    # mass above K
    small = above < eps * eps
    small[N] = True               # K = N leaves no tail, even if eps^2 underflows
    K = int(np.argmax(small))
    if K == 0:
        warnings.warn("decompose: eps exceeds the whole tail; phi is the mean",
                      stacklevel=2)
    phi = f.truncated(K)
    g = f - phi.padded(N)
    return phi, g, K


def _linear_field(read_x, read_y):
    """L + phi as a field expression over the readers of X and Y: the
    classes of Q(phi+h, .., (phi+h)~, ..) with at most one h, grouped by
    the plain slots,

        X^3 conj(X^2 + 2XY) + 3 X^2 Y conj(X^2)."""
    X, Y = read_x(), read_y()
    XX = X * X
    yield XX * X * (XX + 2 * (X * Y)).conj() + 3 * (XX * Y) * XX.conj()


def _nonlinear_field(read_x, read_y):
    """N as a field expression over the readers of X and Y: the nine
    classes with at least two h, grouped by how many plain slots hold h
    (none, one, two or three),

        X^3 conj(Y^2) + 3 X^2 Y conj(2XY + Y^2)
                      + (3XY^2 + Y^3) conj((X + Y)^2).

    On sample blocks the temporaries are reused in place, never the values
    read, which may be shared or read-only; a FieldTail has no in-place
    operators, so there `*=` and `+=` are `*` and `+`."""
    X, Y = read_x(), read_y()
    XX, YY = X * X, Y * Y
    S = X * Y
    S *= 2
    S += YY                                 # 2XY + Y^2
    out = XX * X
    out *= YY.conj()
    T = XX * Y
    T *= 3
    T *= S.conj()
    out += T
    T = 3 * X
    T += Y
    YY *= T                                 # Y^2 (3X + Y)
    XX += S                                 # (X + Y)^2
    YY *= XX.conj()
    out += YY
    yield out


def linear_part(phi: CircleFunction, g: CircleFunction,
                grid: RadialGrid | None = None,
                M: int | None = None) -> CircleFunction:
    """L(phi, g): the h-independent part of the expanded fixed-point map,
    modes -M..M of it when M is given (all of them by default).

    Q(phi,phi,phi,phi~,phi~) - phi + 2 Q(phi,phi,phi,phi~,g~)
                             + 3 Q(phi,phi,g,phi~,phi~).
    """
    return _polar_quintic(_linear_field, [phi, g], M, grid) - phi


def nonlinear_part(phi: CircleFunction, h: CircleFunction,
                   grid: RadialGrid | None = None,
                   M: int | None = None) -> CircleFunction:
    """N(phi, h): the nine remaining classes of Q(phi+h, .., (phi+h)~, ..),
    at least quadratic in h (binomial weights 3-choose-a times 2-choose-b);
    modes -M..M of it when M is given (all of them by default)."""
    return _polar_quintic(_nonlinear_field, [phi, h], M, grid)


def expansion_residual(phi: CircleFunction, g: CircleFunction,
                       grid: RadialGrid | None = None) -> float:
    """Relative error of L(phi,g) + N(phi,g) + phi against Q(f,..) at
    f = phi + g: a pure bookkeeping identity, so this measures arithmetic."""
    lhs = linear_part(phi, g, grid) + nonlinear_part(phi, g, grid) + phi
    rhs = el_quintic(phi + g, grid)         # its own extension of phi + g
    num = l2_norm(lhs - rhs)
    den = l2_norm(rhs) + 1e-300
    return float(num / den)


@dataclass
class PicardReport:
    eps: float
    K: int
    s_norm: float
    lambda_used: float
    iterations: int
    converged: bool
    ratios_l2: list
    ratios_s: list
    h_minus_g_l2: float
    h_norm: float
    ball_radius: float
    inside_ball: bool
    step_sizes: list

    @property
    def max_ratio(self):
        return max(self.ratios_l2[1:], default=np.nan)


def picard_iterate(f: CircleFunction, eps: float,
                   grid: RadialGrid | None = None,
                   max_iter: int = 60) -> PicardReport:
    """Rebuild the tail of a near-extremizer as a fixed point.

    f is rescaled to lambda_fit = 1 (fifth-degree homogeneity: f * lam^{-1/4}),
    where lambda_fit is the Rayleigh value <Q(f,f,f,f~,f~), f> / ||f||^2 and
    so reads modes |m| <= N of Q only.  The result is split by `decompose`
    and iterated h <- L(phi,g) + N(phi,h) from h_0 = L(phi,g).  Per-step
    contraction ratios are recorded in L^2 and in the (1+n^2)^{s/2} weighted
    norm, s = PICARD_S_NORM; the iteration stops at an L^2 step below
    PICARD_TOL, and an iterate past 10x its starting size, or not finite,
    raises DivergenceError.
    """
    lam = inner_product(el_quintic(f, grid, f.N), f).real / l2_norm(f) ** 2
    if lam <= 0:
        raise PreconditionError(f"lambda_fit = {lam:.3e} is not positive")
    fs = f * lam ** -0.25
    phi, g, K = decompose(fs, eps)
    if K == fs.N:
        warnings.warn("picard_iterate: split left no tail; iteration is trivial",
                      stacklevel=2)

    # The lab works in the band-limited space of f: every iterate is cut
    # back to bandwidth N, where g itself lives and where the fixed-point
    # identity holds up to the ascent residual.  L and N are assembled for
    # those modes only, on the angles they need.
    Nf = fs.N
    L = linear_part(phi, g, grid, Nf).truncated(Nf)
    h = L
    h0_norm = l2_norm(h)
    ball = eps ** 0.75
    limit = 10.0 * max(h0_norm, ball)
    steps = []
    ratios_l2 = []
    ratios_s = []
    prev_step = None
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        h_next = (L + nonlinear_part(phi, h, grid, Nf)).truncated(Nf)
        d = h_next - h
        step_l2 = l2_norm(d)
        step_s = weighted_norm(d, PICARD_S_NORM)
        steps.append(step_l2)
        if prev_step is not None:
            ratios_l2.append(step_l2 / (prev_step[0] + 1e-300))
            ratios_s.append(step_s / (prev_step[1] + 1e-300))
        prev_step = (step_l2, step_s)
        h = h_next
        if not (l2_norm(h) <= limit):       # a NaN iterate fails this too
            raise DivergenceError(
                f"iterate grew to {l2_norm(h):.3e} (> 10x initial scale)")
        if step_l2 < PICARD_TOL:
            converged = True
            break
    diff = l2_norm(h - g)
    return PicardReport(
        eps=eps, K=K, s_norm=PICARD_S_NORM, lambda_used=float(lam),
        iterations=it, converged=converged,
        ratios_l2=[float(r) for r in ratios_l2],
        ratios_s=[float(r) for r in ratios_s],
        h_minus_g_l2=float(diff), h_norm=float(l2_norm(h)),
        ball_radius=float(ball), inside_ball=bool(l2_norm(h) <= ball),
        step_sizes=[float(s) for s in steps])
