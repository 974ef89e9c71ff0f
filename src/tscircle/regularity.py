"""Finite-resolution regularity machinery.

Smoothness is probed through rotation difference quotients: for a
band-limited f the L^2 modulus ||f(.+t) - f|| is exact in coefficient
space, so the only discretization in the scale of estimators below is the
dyadic t-grid itself.  On top of the estimators sit three experiments:
interpolation constants between scales, a sharp/flat frequency splitting
with an eta-tradeoff, and the smoothing measurement -- the quintic
convolution of a rough input decays measurably faster than the input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bessel import RadialGrid, default_grid
from .errors import ConfigError, PreconditionError
from .quintic import el_quintic, quintic_convolve
from .solver import decompose
from .spectral import (TAU, CircleFunction, l2_norm, rotate, synthesize)


LIP_GRID = 4096                        # smoothing's coarse Lipschitz samples
PROFILE_S = (0.25, 0.5, 0.75, 1.0, 1.5)  # regularity_profile's calH scales
PROFILE_ALPHAS = (0.25, 0.5, 1.0)        # and its Holder exponents


def dyadic_ts(lo: int = 1, hi: int = 12) -> np.ndarray:
    return 2.0 ** -np.arange(lo, hi + 1)


def difference_norm(f: CircleFunction, t: float) -> float:
    """|| f(. + t) - f ||_{L^2}, exact: |e^{int} - 1| = 2 |sin(nt/2)|."""
    n = np.arange(-f.N, f.N + 1)
    w = 4.0 * np.sin(0.5 * n * t) ** 2
    return float(np.sqrt(TAU * np.sum(w * np.abs(f.coeffs) ** 2)))


def spectral_derivative(f: CircleFunction, m: int = 1) -> CircleFunction:
    n = np.arange(-f.N, f.N + 1)
    return CircleFunction(f.coeffs * (1j * n) ** m)


def sup_quotient(f: CircleFunction, s: float) -> float:
    return max(difference_norm(f, t) / t ** s for t in dyadic_ts())


def calH_estimate(f: CircleFunction, s: float) -> float:
    """Difference-quotient Sobolev-scale estimator.

    s = 0 is the exact L^2 norm.  For s = k + alpha the first k derivatives
    enter through quotients with exponent clipped to (0, 1] -- the naive
    unclipped quotient of a smooth function degenerates as t -> 0.
    """
    if not (np.isfinite(s) and s >= 0):
        raise ConfigError(f"s must be finite and nonnegative, got {s!r}")
    if s == 0:
        return l2_norm(f)
    k = max(0, int(np.ceil(s)) - 1)
    total = l2_norm(f)
    for m in range(k + 1):
        alpha = min(s - m, 1.0)
        total += sup_quotient(spectral_derivative(f, m), alpha)
    return float(total)


@dataclass
class HolderReport:
    alpha: float
    value: float
    sup_norm: float
    quotients: dict
    slope: float
    diverging: bool


def holder_estimate(f: CircleFunction, alpha: float, M: int | None = None,
                    ts=None) -> HolderReport:
    """C^alpha estimator on a dense grid: sup |f| plus the sup-norm
    difference quotient over dyadic t; flags divergence (quotient growing
    as t -> 0, i.e. f rougher than alpha)."""
    if not (0.0 < alpha <= 1.0):
        raise ConfigError("alpha must lie in (0, 1]")
    M = M or max(1024, 8 * f.N + 8)
    ts = dyadic_ts() if ts is None else np.asarray(ts, dtype=float)
    s0 = synthesize(f, M)
    sup = float(np.max(np.abs(s0)))
    quot = {}
    for t in ts:
        diff = synthesize(rotate(f, t), M) - s0
        quot[float(t)] = float(np.max(np.abs(diff)) / t ** alpha)
    tv = np.array(sorted(quot))
    qv = np.array([quot[t] for t in tv])
    keep = qv > 0
    slope = 0.0
    if keep.sum() >= 2:
        slope = float(np.polyfit(np.log(tv[keep]), np.log(qv[keep]), 1)[0])
    return HolderReport(alpha, sup + max(qv), sup, quot, slope,
                        diverging=slope < -0.05)


@dataclass
class SlopeReport:
    slope: float
    intercept: float
    band: tuple
    n_used: int
    rms: float


def decay_slope(f: CircleFunction, band: tuple | None = None) -> SlopeReport:
    """Log-log least-squares decay rate of |c_n| against n over a band."""
    N = f.N
    if band is None:
        band = (max(2, N // 8), N)
    lo, hi = int(band[0]), int(min(band[1], N))
    if lo < 1 or hi <= lo:
        raise ConfigError(f"bad fit band {band}")
    n = np.arange(lo, hi + 1)
    a = 0.5 * (np.abs(f.coeffs[f.N + n]) + np.abs(f.coeffs[f.N - n]))
    keep = a > 1e-14
    if keep.sum() < 3:
        raise PreconditionError(
            f"only {int(keep.sum())} usable modes in band {band}")
    x = np.log(n[keep].astype(float))
    y = np.log(a[keep])
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((np.polyval([slope, intercept], x) - y) ** 2)))
    return SlopeReport(float(slope), float(intercept), (lo, hi),
                       int(keep.sum()), rms)


# ---------------------------------------------------------------------------
# sharp / flat splitting and the eta tradeoff
# ---------------------------------------------------------------------------

@dataclass
class SplitReport:
    K: int
    sharp: CircleFunction
    flat: CircleFunction
    eta: float
    s_scale: float
    scale_norm: float
    l2_flat: float
    lip_sharp: float


def _lip_upper(f: CircleFunction) -> float:
    """sup |f'| over a dense grid (slight underestimate of the true sup)."""
    d = spectral_derivative(f, 1)
    return float(np.max(np.abs(synthesize(d, max(8 * f.N + 16, 64)))))


def sharp_flat_split(f: CircleFunction, eta: float,
                     s_scale: float = 0.5) -> SplitReport:
    """Frequency split f = sharp + flat with ||flat||_2 < eta * scale norm,
    K minimal: solver.decompose at eps = eta * scale.  The sharp part is
    band-limited hence Lipschitz with an explicit constant; eta trades its
    size against the flat remainder."""
    if not (0 < eta < np.inf):
        raise ConfigError(f"eta must be positive and finite, got {eta!r}")
    scale = calH_estimate(f, s_scale)
    sharp, flat, K = decompose(f, eta * scale)
    return SplitReport(K, sharp, flat, eta, s_scale, float(scale),
                       float(l2_norm(flat)), _lip_upper(sharp))


@dataclass
class EtaReport:
    p: float
    delta_fit: float
    delta_theory: float
    etas: np.ndarray
    lips: np.ndarray
    flats: np.ndarray
    Ks: np.ndarray


def eta_optimization(f: CircleFunction) -> EtaReport:
    """Measure the sharp-Lipschitz growth Lip(eta) ~ eta^{-p} over a
    logarithmic eta sweep, and check the optimized modulus
    min_eta [Lip t + 2 flat] behaves like t^{1/(1+p)}."""
    etas = np.logspace(-3.0, -0.7, 12)
    lips, flats, Ks = [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for eta in etas:
            rep = sharp_flat_split(f, float(eta))
            lips.append(rep.lip_sharp)
            flats.append(rep.l2_flat)
            Ks.append(rep.K)
    lips = np.array(lips)
    flats = np.array(flats)
    Ks = np.array(Ks)
    use = (Ks > 0) & (Ks < f.N) & (lips > 0)
    if use.sum() < 3:
        raise PreconditionError("eta sweep left too few non-degenerate splits")
    p = -float(np.polyfit(np.log(etas[use]), np.log(lips[use]), 1)[0])
    tv = dyadic_ts(1, 10)
    B = np.array([np.min(lips[use] * t + 2.0 * flats[use]) for t in tv])
    delta_fit = float(np.polyfit(np.log(tv), np.log(B), 1)[0])
    return EtaReport(p, delta_fit, 1.0 / (1.0 + p), etas, lips, flats, Ks)


def interpolation_constant(f: CircleFunction, beta: float,
                           alpha: float) -> float:
    """Measured constant in the two-point interpolation inequality

        calH^beta  <=  C ||f||_2^{1-beta/alpha} (calH^alpha)^{beta/alpha}.
    """
    if not (0.0 < beta < alpha):
        raise ConfigError("need 0 < beta < alpha")
    num = calH_estimate(f, beta)
    den = (l2_norm(f) ** (1.0 - beta / alpha)
           * calH_estimate(f, alpha) ** (beta / alpha))
    if den == 0:
        raise ConfigError("interpolation constant undefined at f = 0")
    return float(num / den)


# ---------------------------------------------------------------------------
# canonical rough / Lipschitz inputs and the smoothing experiment
# ---------------------------------------------------------------------------

def square_wave(N: int) -> CircleFunction:
    """sign(cos theta) truncated at bandwidth N; |c_n| ~ 1/n (rough)."""
    c = np.zeros(2 * N + 1, dtype=np.complex128)
    for n in range(1, N + 1, 2):
        v = (2.0 / np.pi) * (-1.0) ** ((n - 1) // 2) / n
        c[N + n] = v
        c[N - n] = v
    return CircleFunction(c)


def triangle_wave(N: int) -> CircleFunction:
    """Even triangle wave, |c_n| ~ 1/n^2: Lipschitz with constant 1."""
    c = np.zeros(2 * N + 1, dtype=np.complex128)
    for n in range(1, N + 1, 2):
        v = 2.0 / (np.pi * n * n)
        c[N + n] = v
        c[N - n] = v
    return CircleFunction(c)


@dataclass
class SmoothingReport:
    n: int
    input_slope: float
    output_slope: float
    gain: float
    band: tuple                   # (4, n), for input and output slopes alike
    lip_coarse: float
    lip_fine: float
    lip_drift: float


def smoothing_experiment(n: int = 64,
                         grid: RadialGrid | None = None) -> SmoothingReport:
    """Two measurements on the quintic convolution as a smoothing map.

    (1) Slope gain: feed the square wave (decay slope -1) through
    Q(f,f,f,f~,f~) and compare log-log decay slopes over the band (4, n)
    of both.
    (2) Stability: convolve four Lipschitz inputs with one merely-L^2
    input and check the output Lipschitz quotient is stable from
    LIP_GRID to 2 LIP_GRID sample points.
    """
    if n < 16:
        raise ConfigError("smoothing experiment needs n >= 16")
    grid = grid or default_grid()
    sq = square_wave(n)
    band = (4, n)
    islope = decay_slope(sq, band=band)
    Q = el_quintic(sq, grid)
    oslope = decay_slope(Q, band=band)

    tri = triangle_wave(n)
    G = quintic_convolve([tri, tri, tri, tri, sq], grid=grid)
    # Lipschitz quotients: holder_estimate's alpha = 1 sup-norm quotients
    lc, lf = (max(holder_estimate(G, 1.0, M, dyadic_ts(1, 10))
                  .quotients.values())
              for M in (LIP_GRID, 2 * LIP_GRID))
    return SmoothingReport(
        n=n, input_slope=islope.slope, output_slope=oslope.slope,
        gain=islope.slope - oslope.slope, band=band,
        lip_coarse=lc, lip_fine=lf,
        lip_drift=abs(lf - lc) / (lc + 1e-300))


@dataclass
class RegularityProfile:
    n: int
    l2: float
    decay: SlopeReport | None
    calH: dict
    holder: dict

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "l2": self.l2,
            "decay_slope": None if self.decay is None else self.decay.slope,
            "decay_band": None if self.decay is None else list(self.decay.band),
            "calH": self.calH,
            "holder": self.holder,
        }


def regularity_profile(f: CircleFunction) -> RegularityProfile:
    """One-stop regularity fingerprint of a circle function: the decay
    slope, calH^s at PROFILE_S and C^alpha at PROFILE_ALPHAS."""
    try:
        decay = decay_slope(f)
    except (PreconditionError, ConfigError):
        decay = None
    calh = {float(s): calH_estimate(f, s) for s in PROFILE_S}
    hold = {float(a): holder_estimate(f, a).value for a in PROFILE_ALPHAS}
    return RegularityProfile(f.N, l2_norm(f), decay, calh, hold)
