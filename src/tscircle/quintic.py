"""Quintilinear convolution on the circle and the radial densities that
control it.

The convolution takes five circle functions to the restriction of
(f1 sigma * ... * f5 sigma) back on the circle.  In coefficients,

    Q(f1..f5)_m = (2 pi)^4  sum_{n1+..+n5 = m}  prod_i c_i(n_i)
                  int_0^oo J_{n1}..J_{n5} J_m  rho drho,

which is the "tensor" route: a contraction against the precomputed
six-factor integrals.  The independent "polar" route multiplies the five
extended fields pointwise and inverts mode by mode,

    Q_m = (2 pi)^{-1} i^m int_0^oo P_m(rho) J_m(rho) rho drho,

P_m the m-th angular coefficient of the product field.  Both routes carry
the same closed-form radial tail so their agreement tests bookkeeping, not
a shared truncation.

The controlling densities are the radial profiles of the k-fold
self-convolutions of arclength measure,

    mu_k(r) = (2 pi)^{k-1} int_0^oo J_0(rho)^k J_0(r rho) rho drho,

with mu_2 in closed form and mu_3 as an angular convolution of it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _sp

from .bessel import (BesselTensor, RadialGrid, bessel_product_tail,
                     default_grid, exp_tail_integral, first_order_coeff,
                     radial_integrate)
from .errors import ConfigError, PreconditionError, SingularRadiusError
from .extension import (angular_analyze, extend, hpoly_conj, hpoly_mul, i_pow)
from .spectral import (TAU, CircleFunction, analyze, constant_function,
                       inner_product, l2_norm, rotate, synthesize)

SINGULAR_RADII = {2: (0.0, 2.0), 3: (1.0, 3.0), 4: (0.0, 2.0, 4.0), 5: ()}


# ---------------------------------------------------------------------------
# the convolution, two routes
# ---------------------------------------------------------------------------

def _assemble_polar(product: np.ndarray, tail_reps, grid: RadialGrid,
                    J: int, M: int) -> np.ndarray:
    """Modes -M..M of the inverse transform of a five-field product."""
    P = grid.cutoff
    pm = np.fft.fft(product, axis=1) / J
    m = np.arange(-M, M + 1)
    Pm = pm[:, np.mod(m, J)]                          # (K, 2M+1)
    am = np.abs(m)
    sgn = np.where((m < 0) & (m % 2 != 0), -1.0, 1.0)
    Jrows = grid.j_matrix(int(am.max()))[am] * sgn[:, None]
    quad = (Pm.T * Jrows) @ (grid.weights * grid.nodes)

    T = tail_reps[0]
    for Ti in tail_reps[1:]:
        T = hpoly_mul(T, Ti)                          # (J, 11, 2), k = -5..5
    That = angular_analyze(np.moveaxis(T, 0, -1), M)  # (11, 2, 2M+1)
    ks = np.arange(-5, 6)
    i2 = exp_tail_integral(np.arange(-6, 7), 2.0, P)
    i3 = exp_tail_integral(np.arange(-6, 7), 3.0, P)
    up, dn = ks + 1 + 6, ks - 1 + 6
    # J_m two-term form: (1/2)[e^{i(rho-phi_m)}(1 + i a_m/rho) + c.c.] s_m
    s_p0 = That[:, 0, :].T @ i2[up]
    s_m0 = That[:, 0, :].T @ i2[dn]
    s_p1 = That[:, 1, :].T @ i3[up]
    s_m1 = That[:, 1, :].T @ i3[dn]
    s_pa = That[:, 0, :].T @ i3[up]
    s_ma = That[:, 0, :].T @ i3[dn]
    phim = am * (np.pi / 2.0) + np.pi / 4.0
    a_m = first_order_coeff(am, 1.0, P)
    tail = (2.0 / np.pi) ** 3 * 0.5 * sgn * (
        np.exp(-1j * phim) * (s_p0 + s_p1 + 1j * a_m * s_pa)
        + np.exp(1j * phim) * (s_m0 + s_m1 - 1j * a_m * s_ma))
    return i_pow(m) / TAU * (quad + tail)


def _convolve_polar(fs, grid: RadialGrid) -> CircleFunction:
    M = sum(f.N for f in fs)
    J = max(64, 2 * M + 8)
    fields = [extend(f, grid, J) for f in fs]
    prod = fields[0].values.copy()
    for fd in fields[1:]:
        prod *= fd.values
    reps = [fd.tail_rep() for fd in fields]
    return CircleFunction(_assemble_polar(prod, reps, grid, J, M))


def _convolve_tensor(fs, tensor: BesselTensor) -> CircleFunction:
    Ns = [f.N for f in fs]
    if max(Ns) > tensor.N:
        raise PreconditionError(
            f"input bandwidth {max(Ns)} exceeds tensor bandwidth {tensor.N}")
    M = sum(Ns)
    grids = np.meshgrid(*(np.arange(-N, N + 1) for N in Ns[1:]), indexing="ij")
    n2345 = np.stack([g.ravel() for g in grids], axis=1)       # (T, 4)
    cc = np.ones(n2345.shape[0], dtype=np.complex128)
    for j in range(4):
        cc = cc * fs[j + 1].coeffs[n2345[:, j] + Ns[j + 1]]
    s2345 = n2345.sum(axis=1)
    odd2345 = ((n2345 < 0) & (n2345 % 2 != 0)).sum(axis=1)

    out = np.zeros(2 * M + 1, dtype=np.complex128)
    for n1 in range(-Ns[0], Ns[0] + 1):
        m = n1 + s2345
        keys = np.empty((n2345.shape[0], 6), dtype=np.int64)
        keys[:, 0] = abs(n1)
        keys[:, 1:5] = np.abs(n2345)
        keys[:, 5] = np.abs(m)
        keys.sort(axis=1)
        odd = odd2345 + ((m < 0) & (m % 2 != 0))
        if n1 < 0 and n1 % 2 != 0:
            odd = odd + 1
        sign = np.where(odd % 2 == 0, 1.0, -1.0)
        w = fs[0].coeffs[n1 + Ns[0]] * cc * sign * tensor.lookup_sorted_abs(keys)
        idx = m + M
        out.real += np.bincount(idx, weights=w.real, minlength=2 * M + 1)
        out.imag += np.bincount(idx, weights=w.imag, minlength=2 * M + 1)
    return CircleFunction(out * TAU ** 4)


def quintic_convolve(fs, tensor: BesselTensor | None = None,
                     grid: RadialGrid | None = None,
                     method: str = "auto") -> CircleFunction:
    """Five circle functions -> their quintic convolution on the circle.

    method: "tensor" (contraction against a BesselTensor), "polar"
    (pointwise field product, per-mode inversion), or "auto" (tensor when
    one is supplied).
    """
    fs = list(fs)
    if len(fs) != 5:
        raise ConfigError(f"need exactly five inputs, got {len(fs)}")
    if method == "auto":
        method = "tensor" if tensor is not None else "polar"
    if method == "tensor":
        if tensor is None:
            raise ConfigError("method='tensor' requires a tensor")
        return _convolve_tensor(fs, tensor)
    if method != "polar":
        raise ConfigError(f"unknown method {method!r}")
    return _convolve_polar(fs, grid or default_grid())


def el_quintic(f: CircleFunction, grid: RadialGrid | None = None) -> CircleFunction:
    """Q(f, f, f, f~, f~): the combination driven by the sextic functional.

    Fast path: the extension of f~ is the pointwise conjugate of the
    extension of f, so a single field synthesis suffices.
    """
    grid = grid or default_grid()
    M = 5 * f.N
    J = max(64, 2 * M + 8)
    fd = extend(f, grid, J)
    prod = fd.values ** 3 * np.conj(fd.values) ** 2
    rep = fd.tail_rep()
    repc = hpoly_conj(rep)
    return CircleFunction(_assemble_polar(prod, [rep, rep, rep, repc, repc],
                                          grid, J, M))


# ---------------------------------------------------------------------------
# radial densities of iterated arclength convolutions
# ---------------------------------------------------------------------------

@dataclass
class RadialDensity:
    k: int
    radii: np.ndarray
    values: np.ndarray
    valid: np.ndarray
    singular_radii: tuple
    mass: float
    mass_expected: float
    exclusion: float
    meta: dict = dfield(default_factory=dict)

    def sup(self) -> float:
        return float(np.max(self.values[self.valid]))

    def arg_sup(self) -> float:
        vals = np.where(self.valid, self.values, -np.inf)
        return float(self.radii[int(np.argmax(vals))])


def _mu2(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = (r > 0) & (r < 2)
    ri = r[inside]
    out[inside] = 4.0 / (ri * np.sqrt(4.0 - ri * ri))
    out[(r <= 0) | (r == 2.0)] = np.inf
    return out


def _mu3_point(r: float) -> float:
    """Angular convolution of mu_2 against arclength (one radius)."""
    r = float(r)
    if r < 0:
        raise PreconditionError("radius must be nonnegative")
    if r > 3.0:
        return 0.0

    def g(u):
        d2 = r * r + 1.0 - 2.0 * r * np.cos(u)
        if d2 <= 0.0 or d2 >= 4.0:
            return 0.0
        return 4.0 / np.sqrt(d2 * (4.0 - d2))

    pts = [p for p in (0.0,) if abs(r - 1.0) < 1e-12]
    c = (r * r - 3.0) / (2.0 * r) if r > 0 else -2.0
    if -1.0 <= c <= 1.0:
        pts.append(float(np.arccos(c)))
    val, _ = _integrate.quad(g, 0.0, np.pi, points=pts or None, limit=400)
    return 2.0 * val


def _hankel_chunk(k: int, rr: np.ndarray, cutoff: float) -> np.ndarray:
    g = default_grid(cutoff)
    j0 = g.j_matrix(0)[0]
    w = (j0 ** k) * g.nodes * g.weights
    scales = np.ones((rr.size, k + 1))
    scales[:, k] = rr
    out = bessel_product_tail(np.zeros(k + 1, int), cutoff, scales)
    for lo in range(0, rr.size, 128):
        out[lo:lo + 128] += _sp.j0(np.outer(rr[lo:lo + 128], g.nodes)) @ w
    return out


def _mu5_at_zero(cutoff: float) -> float:
    val, _ = radial_integrate(lambda rho: _sp.j0(rho) ** 5 * rho, (0,) * 5,
                              default_grid(cutoff))
    return val


def _hankel_density(k: int, radii: np.ndarray, base_cutoff: float) -> np.ndarray:
    """mu_k/(2 pi)^{k-1} on a radius grid; per-radius effective cutoff keeps
    the last factor's asymptotics valid (r * P >= 40)."""
    vals = np.full(radii.shape, np.nan)
    buckets = [(0.2, base_cutoff), (0.1, max(400.0, base_cutoff)),
               (0.05, max(800.0, base_cutoff)), (0.025, max(1600.0, base_cutoff))]
    lo_edge = 0.025
    prev = np.inf
    for edge, cut in buckets:
        sel = (radii >= edge) & (radii < prev)
        prev = edge
        if np.any(sel):
            vals[sel] = _hankel_chunk(k, radii[sel], cut)
    tiny = radii < lo_edge
    if np.any(tiny):
        if k == 5:
            # even interpolation through exactly-computed anchors
            anchors = np.array([0.03, 0.05, 0.08, 0.12])
            av = _hankel_chunk(k, anchors, 1600.0)
            a0 = _mu5_at_zero(base_cutoff)
            xs = np.concatenate([[0.0], anchors]) ** 2
            ys = np.concatenate([[a0], av])
            coef = np.polynomial.polynomial.polyfit(xs, ys, 2)
            vals[tiny] = np.polynomial.polynomial.polyval(radii[tiny] ** 2, coef)
        # k = 4 diverges logarithmically at 0; leave NaN (masked)
    return vals


def _mass_profile(radii, values, valid):
    r = radii[valid]
    v = values[valid]
    return float(TAU * _integrate.simpson(r * v, x=r))


def auto_density(k: int, n_points: int = 801, r_max: float | None = None,
                 grid: RadialGrid | None = None,
                 exclusion: float = 0.05) -> RadialDensity:
    """Radial density profile of the k-fold arclength self-convolution.

    k = 2 is closed form; k = 3 integrates the k = 2 profile around the
    circle; k = 4, 5 go through the Hankel representation.  Radii within
    `exclusion` of a genuinely singular radius are masked out (k = 4 keeps
    a hard floor: below r ~ 0.03 its logarithmic blowup is unresolvable).

    Mass is 2 pi int r mu_k dr over the support, expected (2 pi)^k; for
    k = 4 the masked neighborhoods are simply omitted, so the reported
    number undershoots slightly.  `r_max` may not exceed k: mu_k vanishes
    beyond its support [0, k], and the radial grid resolves the Hankel
    integrands only up to r = k (see RadialGrid).
    """
    if k not in (2, 3, 4, 5):
        raise ConfigError(f"k must be 2..5, got {k}")
    grid = grid or default_grid()
    if exclusion <= 0:
        raise ConfigError("exclusion must be positive")
    if k == 4:
        exclusion = max(exclusion, 0.03)
    r_max = float(r_max if r_max is not None else k)
    if r_max > k:
        raise ConfigError(f"r_max {r_max:g} beyond the support [0, {k}] of mu_{k}")
    radii = np.linspace(0.0, r_max, n_points)
    sing = SINGULAR_RADII[k]
    valid = np.ones(n_points, dtype=bool)
    for s in sing:
        valid &= np.abs(radii - s) > exclusion

    meta: dict = {"cutoff": grid.cutoff}
    if k == 2:
        values = _mu2(radii)
        mass = 4.0 * np.pi ** 2                      # exact
        meta["mass_method"] = "analytic"
    elif k == 3:
        with warnings.catch_warnings():
            # radii skirting r = 1 converge slowly; they are masked anyway
            warnings.simplefilter("ignore", _integrate.IntegrationWarning)
            values = np.array([_mu3_point(r) for r in radii])
            mass, _ = _integrate.quad(lambda r: TAU * r * _mu3_point(r), 0.0,
                                      3.0, points=[1.0], limit=300)
        meta["mass_method"] = "adaptive"
    else:
        values = TAU ** (k - 1) * _hankel_density(k, radii, grid.cutoff)
        if k == 5:
            rd = np.linspace(0.0, 5.0, max(2 * n_points + 1, 2001))
            vd = TAU ** 4 * _hankel_density(5, rd, grid.cutoff)
            mass = _mass_profile(rd, vd, np.ones_like(rd, bool))
            meta["mass_method"] = "simpson_dense"
        else:
            valid &= ~np.isnan(values)
            mass = _mass_profile(radii, values, valid)
            meta["mass_method"] = "masked_simpson"
    valid &= ~np.isnan(values) & np.isfinite(values)
    return RadialDensity(k, radii, values, valid, sing, mass,
                         TAU ** k, exclusion, meta)


def mu_value(k: int, r: float, grid: RadialGrid | None = None) -> float:
    """Single-radius density value: zero beyond the support [0, k], and
    refused at genuinely singular radii."""
    if k not in (2, 3, 4, 5):
        raise ConfigError(f"k must be 2..5, got {k}")
    r = float(r)
    if r > k:
        return 0.0
    for s in SINGULAR_RADII[k]:
        if abs(r - s) < 1e-3:
            raise SingularRadiusError(f"mu_{k} is singular at r = {s:g}")
    if k == 2:
        return float(_mu2(np.array([r]))[0])
    if k == 3:
        return _mu3_point(r)
    grid = grid or default_grid()
    if r == 0.0:
        if k == 4:
            raise SingularRadiusError("mu_4 diverges at r = 0")
        return TAU ** 4 * _mu5_at_zero(grid.cutoff)
    return float(TAU ** (k - 1) * _hankel_density(k, np.array([r]), grid.cutoff)[0])


@dataclass
class SupBoundReport:
    k: int
    sup: float
    at_radius: float
    mass: float
    mass_expected: float
    n_points: int
    exclusion: float
    singular_radii: tuple


def sup_bound_check(k: int, n_points: int = 1001, r_max: float | None = None,
                    exclusion: float = 0.05,
                    grid: RadialGrid | None = None) -> SupBoundReport:
    """Sup of mu_k over a masked radial grid, with its mass diagnostic."""
    d = auto_density(k, n_points=n_points, r_max=r_max, grid=grid,
                     exclusion=exclusion)
    return SupBoundReport(k, d.sup(), d.arg_sup(), d.mass, d.mass_expected,
                          n_points, d.exclusion, d.singular_radii)


# ---------------------------------------------------------------------------
# the L^2 bound chain and its difference-quotient extension
# ---------------------------------------------------------------------------

def _abs2(f: CircleFunction) -> CircleFunction:
    """|f|^2 as a bandwidth-2N circle function (exact via oversampling)."""
    M = max(4 * f.N + 8, 16)
    s = synthesize(f, M)
    return analyze(s * np.conj(s), 2 * f.N)


@dataclass
class BoundRatioReport:
    s: float
    lhs: float
    rhs: float
    ratio: float
    mu5_at_1: float
    per_t: dict | None = None

    @property
    def max_t_ratio(self):
        if not self.per_t:
            return None
        return max(v[2] for v in self.per_t.values())


def leibniz_terms(fs, t: float) -> list:
    """Five slot lists whose convolutions sum to Q(rot fs) - Q(fs).

    Term i rotates slots < i, differences slot i, and leaves the rest:
    summing telescopes exactly, so the rotation difference of a product
    splits into per-slot differences with no remainder.
    """
    fs = list(fs)
    return [[rotate(f, t) for f in fs[:i]]
            + [rotate(fs[i], t) - fs[i]] + fs[i + 1:]
            for i in range(len(fs))]


def quintilinear_bound_ratio(fs, s: float = 0.0,
                             grid: RadialGrid | None = None,
                             tensor: BesselTensor | None = None,
                             mu5_at_1: float | None = None,
                             t_grid=None) -> BoundRatioReport:
    """Measured ratio of ||Q(f1..f5)|| against its convolution-density bound

        ||Q||_{L^2}^2 <= mu_5(1) <Q(|f1|^2,..,|f5|^2), 1>,

    saturated when every input is constant.  For s > 0 the same bound is
    pushed through difference quotients slot by slot (five-term telescoping
    of the rotation), and the ratio compares the quotient-augmented norms.
    """
    fs = list(fs)
    if len(fs) != 5:
        raise ConfigError("need exactly five inputs")
    grid = grid or default_grid()
    if mu5_at_1 is None:
        mu5_at_1 = mu_value(5, 1.0, grid)

    def bound(gs) -> float:
        qa = quintic_convolve([_abs2(g) for g in gs], grid=grid, method="polar")
        val = inner_product(qa, constant_function(1.0)).real
        return float(np.sqrt(mu5_at_1 * max(val, 0.0)))

    Q = quintic_convolve(fs, tensor=tensor, grid=grid)
    lhs0 = l2_norm(Q)
    rhs0 = bound(fs)
    if s == 0.0:
        return BoundRatioReport(0.0, lhs0, rhs0, lhs0 / rhs0, mu5_at_1)

    ts = np.asarray(t_grid if t_grid is not None else 2.0 ** -np.arange(1, 9))
    per_t = {}
    sup_n = 0.0
    sup_d = 0.0
    for t in ts:
        numer = l2_norm(rotate(Q, t) - Q) / t ** s
        denom = 0.0
        for slots in leibniz_terms(fs, t):
            denom += bound(slots)
        denom /= t ** s
        per_t[float(t)] = (numer, denom, numer / denom)
        sup_n = max(sup_n, numer)
        sup_d = max(sup_d, denom)
    lhs = lhs0 + sup_n
    rhs = rhs0 + sup_d
    return BoundRatioReport(s, lhs, rhs, lhs / rhs, mu5_at_1, per_t)
