"""Band-limited functions on the unit circle and their symmetries.

Conventions, fixed once for the whole package:

    f(theta) = sum_{|n| <= N} c_n e^{i n theta},
    c_n = (2 pi)^{-1} \\int_0^{2 pi} f(theta) e^{-i n theta} dtheta,

so Parseval reads ||f||_{L^2(dtheta)}^2 = 2 pi sum |c_n|^2.  The plane
transform used elsewhere is g^(xi) = \\int e^{-i x.xi} g(x) dx.

Symmetries of the extension inequality: rotation f(. + theta0), modulation
by e^{i x.xi0}, and the conjugation-reflection f~(x) = conj(f(-x)) whose
coefficients are d_n = (-1)^n conj(c_{-n}).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import BandwidthError, GridSizeError, PreconditionError

TAU = 2.0 * np.pi

# Modulations beyond this radius in frequency would force absurd bandwidths.
MAX_MODULATION = 50.0


class CircleFunction:
    """Finite Fourier series on S^1, coefficients indexed n = -N..N.

    Immutable: the coefficient array is copied on construction and frozen.
    """

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=np.complex128).copy()
        if c.ndim != 1 or c.size % 2 != 1:
            raise PreconditionError(
                "coefficients must be a 1-d array of odd length (n = -N..N)")
        c.flags.writeable = False
        self.coeffs = c
        self.N = (c.size - 1) // 2

    # -- accessors ---------------------------------------------------------

    def coeff(self, n: int) -> complex:
        if abs(n) > self.N:
            return 0.0 + 0.0j
        return self.coeffs[n + self.N]

    def padded(self, N: int) -> "CircleFunction":
        """Same function viewed at bandwidth N >= self.N."""
        if N < self.N:
            raise BandwidthError(f"cannot pad bandwidth {self.N} down to {N}")
        out = np.zeros(2 * N + 1, dtype=np.complex128)
        out[N - self.N:N + self.N + 1] = self.coeffs
        return CircleFunction(out)

    def truncated(self, N: int) -> "CircleFunction":
        if N >= self.N:
            return self.padded(N)
        return CircleFunction(self.coeffs[self.N - N:self.N + N + 1])

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "CircleFunction") -> "CircleFunction":
        N = max(self.N, other.N)
        return CircleFunction(self.padded(N).coeffs + other.padded(N).coeffs)

    def __sub__(self, other: "CircleFunction") -> "CircleFunction":
        N = max(self.N, other.N)
        return CircleFunction(self.padded(N).coeffs - other.padded(N).coeffs)

    def __mul__(self, z) -> "CircleFunction":
        return CircleFunction(self.coeffs * z)

    __rmul__ = __mul__

    def __repr__(self):
        return f"CircleFunction(N={self.N}, ||f||={l2_norm(self):.6g})"


def default_grid_size(N: int) -> int:
    return max(4 * N, 2 * N + 2, 16)


def synthesize(f: CircleFunction, M: int | None = None) -> np.ndarray:
    """Evaluate f on the uniform grid theta_m = 2 pi m / M.

    M must exceed the two-sided bandwidth (M >= 2N+2); the synthesis is a
    zero-padded inverse FFT so it is exact for band-limited f.
    """
    N = f.N
    if M is None:
        M = default_grid_size(N)
    if M < 2 * N + 2:
        raise GridSizeError(f"grid M={M} too small for bandwidth N={N}")
    spec = np.zeros(M, dtype=np.complex128)
    spec[:N + 1] = f.coeffs[N:]          # n = 0..N
    spec[M - N:] = f.coeffs[:N]          # n = -N..-1
    return np.fft.ifft(spec) * M


def analyze(samples, N: int) -> CircleFunction:
    """Fit coefficients n = -N..N to uniform samples (forward DFT / M).

    Warns when the sample spectrum carries relative energy above mode N
    exceeding 1e-8: those modes alias into the result.
    """
    s = np.asarray(samples, dtype=np.complex128)
    M = s.size
    if M < 2 * N + 2:
        raise GridSizeError(f"{M} samples cannot resolve bandwidth N={N}")
    spec = np.fft.fft(s) / M
    total = float(np.sum(np.abs(spec) ** 2))
    kept = float(np.sum(np.abs(spec[:N + 1]) ** 2)
                 + np.sum(np.abs(spec[M - N:]) ** 2))
    if total > 0 and (total - kept) / total > 1e-8:
        warnings.warn(
            f"aliasing: relative energy {(total - kept) / total:.3e} above mode {N}",
            stacklevel=2)
    out = np.empty(2 * N + 1, dtype=np.complex128)
    out[N:] = spec[:N + 1]
    out[:N] = spec[M - N:]
    return CircleFunction(out)


def inner_product(f: CircleFunction, g: CircleFunction) -> complex:
    """<f, g> = \\int f conj(g) dtheta = 2 pi sum c_n conj(d_n)."""
    N = max(f.N, g.N)
    return TAU * complex(np.vdot(g.padded(N).coeffs, f.padded(N).coeffs))


def l2_norm(f: CircleFunction) -> float:
    return float(np.sqrt(TAU) * np.linalg.norm(f.coeffs))


def weighted_norm(f: CircleFunction, s: float) -> float:
    """Sobolev-scale norm (2 pi sum (1+n^2)^s |c_n|^2)^(1/2).

    s = 0 reproduces the L^2 norm exactly.
    """
    n = np.arange(-f.N, f.N + 1)
    w = (1.0 + n.astype(float) ** 2) ** s
    return float(np.sqrt(TAU * np.sum(w * np.abs(f.coeffs) ** 2)))


def conjugate_reflect(f: CircleFunction) -> CircleFunction:
    """f~(x) = conj(f(-x)); coefficients d_n = (-1)^n conj(c_{-n})."""
    n = np.arange(-f.N, f.N + 1)
    signs = np.where(n % 2 == 0, 1.0, -1.0)
    return CircleFunction(signs * np.conj(f.coeffs[::-1]))


def rotate(f: CircleFunction, theta0: float) -> CircleFunction:
    """(Rot f)(theta) = f(theta + theta0): c_n -> c_n e^{i n theta0}."""
    n = np.arange(-f.N, f.N + 1)
    return CircleFunction(f.coeffs * np.exp(1j * n * theta0))


def modulate(f: CircleFunction, xi0) -> CircleFunction:
    """Multiply by e^{i x.xi0} on the circle.

    The plane wave restricted to S^1 has Fourier coefficients
    i^n J_n(|xi0|) e^{-i n beta} (Jacobi-Anger), so the result's bandwidth
    grows by roughly |xi0| + O(log).  Raises for |xi0| > MAX_MODULATION.
    """
    xi = np.asarray(xi0, dtype=float)
    r = float(np.hypot(xi[0], xi[1]))
    if r > MAX_MODULATION:
        raise BandwidthError(f"modulation |xi0|={r:.3g} exceeds {MAX_MODULATION}")
    if r == 0.0:
        return f
    # bandwidth growth: J_K(r) < 1e-15 for K beyond r + 30-ish at this scale
    K = int(np.ceil(r + 12.0 + 8.0 * np.cbrt(max(r, 1.0))))
    Nout = f.N + K
    M = default_grid_size(Nout)
    theta = TAU * np.arange(M) / M
    phase = np.exp(1j * (np.cos(theta) * xi[0] + np.sin(theta) * xi[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncation below 1e-14 by choice of K
        return analyze(synthesize(f, M) * phase, Nout)


def demodulate(f: CircleFunction, M: int | None = None):
    """Estimate and strip the best-fit plane-wave factor e^{i x.xi}.

    The unwrapped sample phase is least-squares fitted against
    a + xi_1 cos(theta) + xi_2 sin(theta) and the fitted wave divided out,
    giving the canonical representative of f modulo modulation.  Returns
    (centered, xi).  Only meaningful for nowhere-vanishing profiles (the
    near-constant orbit this lab cares about); a profile dipping below
    1e-9 of its peak raises PreconditionError.
    """
    M = M or max(1024, 4 * default_grid_size(f.N))
    v = synthesize(f, M)
    mag = np.abs(v)
    if mag.min() < 1e-9 * mag.max():
        raise PreconditionError("profile (nearly) vanishes: phase fit undefined")
    theta = TAU * np.arange(M) / M
    ph = np.unwrap(np.angle(v))
    A = np.stack([np.ones(M), np.cos(theta), np.sin(theta)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ph, rcond=None)
    xi = np.array([coef[1], coef[2]])
    centered = analyze(v * np.exp(-1j * (A[:, 1] * xi[0] + A[:, 2] * xi[1])), f.N)
    return centered, xi


def random_function(N: int, seed, decay: float = 0.0) -> CircleFunction:
    """Random coefficients, complex standard normal scaled by (1+|n|)^-decay."""
    rng = np.random.default_rng(seed)
    n = np.arange(-N, N + 1)
    scale = (1.0 + np.abs(n).astype(float)) ** (-decay)
    z = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
    return CircleFunction(z * scale)


def constant_function(value=1.0, N: int = 0) -> CircleFunction:
    c = np.zeros(2 * N + 1, dtype=np.complex128)
    c[N] = value
    return CircleFunction(c)
