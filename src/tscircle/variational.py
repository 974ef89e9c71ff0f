"""The sextic functional, its stationarity residual, and the constant chain.

Phi(f) = <Q(f,f,f,f~,f~), f> is real (conjugation-reflection symmetry) and
equals (2 pi)^{-2} ||F||_{L^6}^6 for the extended field F: maximizing the
extension quotient ||F||_6 / ||f||_2 is the same problem as maximizing Phi
on the L^2 sphere.  A critical point satisfies Q(f,f,f,f~,f~) = lambda f
with lambda = Phi / ||f||^2.

At f = 1 everything collapses onto the single number

    T0 = int_0^oo J_0(rho)^6 rho drho,

giving lambda_0 = (2 pi)^4 T0, Phi(1) = 2 pi lambda_0, and the quotient
((2 pi)^7 T0)^{1/6} / sqrt(2 pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bessel import BesselTensor, RadialGrid, six_bessel_integral
from .errors import ConfigError, NumericalError
from .extension import _polar_fields, _sixth_power, l6_norm
from .quintic import el_quintic, quintic_convolve
from .spectral import (TAU, CircleFunction, conjugate_reflect, inner_product,
                       l2_norm, synthesize)


def _self_quintic(f: CircleFunction, tensor: BesselTensor | None,
                  grid: RadialGrid | None,
                  M: int | None = None) -> CircleFunction:
    """Q(f,f,f,f~,f~), modes -M..M of it when M is given: tensor
    contraction if a tensor is given, else polar."""
    if tensor is not None:
        fr = conjugate_reflect(f)
        return quintic_convolve([f, f, f, fr, fr], tensor=tensor, M=M)
    return el_quintic(f, grid, M)


def ts_functional(f: CircleFunction, tensor: BesselTensor | None = None,
                  grid: RadialGrid | None = None) -> float:
    """Phi(f); raises if the computed value has detectable imaginary part.
    <Q, f> reads the modes |m| <= N of Q only, so only those are computed."""
    Q = _self_quintic(f, tensor, grid, f.N)
    val = inner_product(Q, f)
    scale = abs(val) + 1e-300
    if abs(val.imag) > 1e-9 * scale:
        raise NumericalError(
            f"functional has spurious imaginary part {val.imag:.3e} "
            f"(relative {abs(val.imag) / scale:.3e})")
    return float(val.real)


def quotient(f: CircleFunction, grid: RadialGrid | None = None) -> float:
    """||F||_{L^6(R^2)} / ||f||_{L^2}, the quantity being extremized.
    l6_norm reads mode 0 of |F|^6 only, so F is sampled on the angles the
    polar engine picks for that mode of its expression."""
    nrm = l2_norm(f)
    if nrm == 0:
        raise ConfigError("quotient undefined at f = 0")
    [F], _ = _polar_fields(_sixth_power, [f], 0, grid)
    return l6_norm(F) / nrm


@dataclass
class ELReport:
    n: int
    phi: float
    lambda_fit: float
    lambda_from_quotient: float
    quotient: float
    residual_l2: float
    residual_rel: float
    residual_sup: float
    leakage: float


def el_residual(f: CircleFunction, tensor: BesselTensor | None = None,
                grid: RadialGrid | None = None) -> ELReport:
    """How far f is from stationarity: Q(f,f,f,f~,f~) - lambda_fit f.

    lambda_fit is the Rayleigh value Phi/||f||^2; the residual is measured
    over the full output band (5N), so mass leaking beyond the input band
    is charged to it.  `leakage` isolates that part.  The independent
    cross-check lambda_from_quotient = (2 pi)^{-2} R^6 ||f||^4 comes from
    the sixth-power identity, not from Q.
    """
    nrm = l2_norm(f)
    if nrm == 0:
        raise ConfigError("residual undefined at f = 0")
    Q = _self_quintic(f, tensor, grid)
    phi = inner_product(Q, f).real
    lam = phi / nrm ** 2
    resid = Q - lam * f
    r_l2 = l2_norm(resid)
    q_l2 = l2_norm(Q)
    M = Q.N
    c = Q.coeffs.copy()
    c[M - f.N: M + f.N + 1] = 0.0
    leak = float(np.sqrt(TAU) * np.linalg.norm(c)) / (q_l2 + 1e-300)
    dense = synthesize(resid, max(4 * resid.N + 8, 256))
    quo = quotient(f, grid)
    lam_q = quo ** 6 * nrm ** 4 / TAU ** 2
    return ELReport(
        n=f.N, phi=float(phi), lambda_fit=float(lam),
        lambda_from_quotient=float(lam_q), quotient=float(quo),
        residual_l2=float(r_l2), residual_rel=float(r_l2 / (q_l2 + 1e-300)),
        residual_sup=float(np.max(np.abs(dense))),
        leakage=float(leak))


# ---------------------------------------------------------------------------
# the constant at the trivial critical point
# ---------------------------------------------------------------------------

def t0_value(grid: RadialGrid | None = None) -> float:
    return six_bessel_integral(0, 0, 0, 0, 0, 0, grid)


def lambda0_value(grid: RadialGrid | None = None) -> float:
    return TAU ** 4 * t0_value(grid)


def constant_from_t0(t0: float) -> float:
    """Quotient of the constant function: ((2 pi)^7 T0)^{1/6} / sqrt(2 pi)."""
    return (TAU ** 7 * t0) ** (1.0 / 6.0) / np.sqrt(TAU)
