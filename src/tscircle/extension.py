"""Extension operator: circle Fourier data to a field on the plane.

For f(theta) = sum c_n e^{i n theta}, the extended field in polar
coordinates is

    F(rho, phi) = 2 pi sum_n (-i)^n c_n J_n(rho) e^{i n phi},

sampled on a radial quadrature grid times a uniform angular grid, with its
large-rho form beyond the cutoff: every mode replaced by its two-term
asymptotics, a polynomial in e^{+-i rho} and 1/rho with angle-dependent
coefficients.  An ExtensionField carries both, and fields compose
(products, sums, the conjugate, which is the field of f~), so every
quantity built from them is one field expression reduced once: the quintic
convolution through quintic._assemble_polar, the L^6 norm here as the
integral of F^3 conj(F^3) plus its closed-form tail (|F|^6 rho ~ rho^-2 is
not negligible at the 1e-6 level).
"""

from __future__ import annotations

import numpy as np

from .bessel import (RadialGrid, default_grid, exp_tail_integral,
                     first_order_coeff)
from .errors import GridSizeError, NumericalError
from .spectral import TAU, CircleFunction

_I_POW = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


def i_pow(n):
    """Exact i^n for integer arrays (table lookup, no complex power)."""
    return _I_POW[np.mod(n, 4)]


def minus_i_pow(n):
    return _I_POW[np.mod(-np.asarray(n), 4)]


def angle_count(M: int, M_out: int | None = None) -> int:
    """Angular sample count for a product field of bandwidth M whose modes
    -M_out..M_out are read (M_out defaults to M).  J uniform samples alias
    mode m onto m + J, so modes |m| <= M_out come out of the FFT exactly
    when J > M + M_out; the count is M + M_out + 8, and never < 64."""
    if M_out is None:
        M_out = M
    return max(64, M + M_out + 8)


def angular_synthesize(modes: np.ndarray, J: int) -> np.ndarray:
    """Trig synthesis along the last axis; modes indexed n = -N..N.

    The J samples are exact for any J: mode n lands on FFT bin n mod J.
    Only reading modes back (angular_analyze, quintic._assemble_polar)
    needs J large enough, so a factor may have more modes than J bins."""
    modes = np.asarray(modes, dtype=np.complex128)
    N = (modes.shape[-1] - 1) // 2
    spec = np.zeros(modes.shape[:-1] + (J,), dtype=np.complex128)
    if 2 * N + 1 > J:
        n = np.arange(-N, N + 1)
        for s in range(0, n.size, J):   # J consecutive modes: distinct bins
            spec[..., np.mod(n[s:s + J], J)] += modes[..., s:s + J]
    else:
        spec[..., :N + 1] = modes[..., N:]
        spec[..., J - N:] = modes[..., :N]
    return np.fft.ifft(spec, axis=-1) * J


def angular_analyze(values: np.ndarray, M: int) -> np.ndarray:
    """Inverse of angular_synthesize: modes -M..M along the last axis."""
    values = np.asarray(values, dtype=np.complex128)
    J = values.shape[-1]
    if J < 2 * M + 2:
        raise GridSizeError(f"J={J} samples cannot resolve modes +-{M}")
    spec = np.fft.fft(values, axis=-1) / J
    out = np.empty(values.shape[:-1] + (2 * M + 1,), dtype=np.complex128)
    out[..., M:] = spec[..., :M + 1]
    out[..., :M] = spec[..., J - M:]
    return out


class ExtensionField:
    """F on grid.nodes x J uniform angles: the K x J samples `values`, the
    large-rho polynomial `tail` (J x (2d+1) x 2 for a product of d
    extensions, see field_tail_rep), the angular bandwidth `N` and F(0).
    `*` (by a field or a scalar), `+` and `conj()` act on samples and tail
    alike; N adds under `*` and takes the max under `+`."""

    def __init__(self, grid: RadialGrid, values: np.ndarray, tail: np.ndarray,
                 N: int, origin_value: complex):
        self.grid = grid
        self.values = values
        self.tail = tail
        self.N = int(N)
        self.origin_value = origin_value
        self.n_angles = values.shape[1]
        self.angles = np.arange(self.n_angles) * (TAU / self.n_angles)

    def __repr__(self):
        return (f"ExtensionField(K={self.grid.nodes.size}, J={self.n_angles}, "
                f"N={self.N}, cutoff={self.grid.cutoff:g})")

    def _check(self, other: "ExtensionField"):
        if (other.values.shape != self.values.shape
                or other.grid.cutoff != self.grid.cutoff):
            raise GridSizeError(f"cannot combine {self!r} with {other!r}")

    def __mul__(self, other):
        if not isinstance(other, ExtensionField):
            return ExtensionField(self.grid, self.values * other,
                                  self.tail * other, self.N,
                                  self.origin_value * other)
        self._check(other)
        return ExtensionField(self.grid, self.values * other.values,
                              hpoly_mul(self.tail, other.tail),
                              self.N + other.N,
                              self.origin_value * other.origin_value)

    __rmul__ = __mul__

    def __add__(self, other: "ExtensionField") -> "ExtensionField":
        self._check(other)
        return ExtensionField(self.grid, self.values + other.values,
                              self.tail + other.tail, max(self.N, other.N),
                              self.origin_value + other.origin_value)

    def conj(self) -> "ExtensionField":
        """The conjugate field; for the extension of f, that of f~."""
        return ExtensionField(self.grid, np.conj(self.values),
                              hpoly_conj(self.tail), self.N,
                              np.conj(self.origin_value))


def extend(f: CircleFunction, grid: RadialGrid | None = None,
           n_angles: int | None = None) -> ExtensionField:
    """Sample the extension of f on a polar grid, with its large-rho tail;
    the default angle count resolves a five-fold product of such fields."""
    grid = grid or default_grid()
    J = n_angles or angle_count(5 * f.N)
    n = np.arange(-f.N, f.N + 1)
    parity = np.where((n < 0) & (n % 2 != 0), -1.0, 1.0)
    factor = TAU * minus_i_pow(n) * parity * f.coeffs          # (2N+1,)
    jm = grid.j_matrix(f.N)                                    # (N+1, K)
    modes = factor[None, :] * jm[np.abs(n)].T                  # (K, 2N+1)
    values = angular_synthesize(modes, J)
    return ExtensionField(grid, values,
                          field_tail_rep(0.5 * factor, J, grid.cutoff),
                          f.N, TAU * f.coeff(0))


# ---------------------------------------------------------------------------
# tail representations: polynomials in (e^{+-i rho}, 1/rho) over angles
# ---------------------------------------------------------------------------

def field_tail_rep(base: np.ndarray, J: int, P: float) -> np.ndarray:
    """Large-rho form of the field sum_n 2 base_n J_n(rho) e^{i n phi} as an
    array T[j, k, p], k in {-1,0,+1}, p in {0,1}:

        F(rho,phi_j) ~ sqrt(2/pi) rho^{-1/2} sum_{k,p} T[j,k,p] e^{ik rho} rho^{-p}.

    Only k = +-1 occur.  The first-order slot of a mode is zeroed when its
    a_n exceeds P (factor-local validity rule shared with bessel tails).
    """
    N = (base.size - 1) // 2
    an = np.abs(np.arange(-N, N + 1))
    phase = np.exp(-1j * (an * (np.pi / 2.0) + np.pi / 4.0))
    a_eff = first_order_coeff(an, 1.0, P)
    u = base * phase
    v = base * np.conj(phase)
    w = u * (1j * a_eff)
    y = v * (-1j * a_eff)
    T = np.zeros((J, 3, 2), dtype=np.complex128)
    T[:, 2, 0] = angular_synthesize(u, J)
    T[:, 0, 0] = angular_synthesize(v, J)
    T[:, 2, 1] = angular_synthesize(w, J)
    T[:, 0, 1] = angular_synthesize(y, J)
    return T


def hpoly_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Multiply two (J, 2k+1, 2) harmonic polynomials, truncating rho^-2."""
    J, na, _ = A.shape
    nb = B.shape[1]
    C = np.zeros((J, na + nb - 1, 2), dtype=np.complex128)
    for i in range(na):
        for j in range(nb):
            for q, r in ((0, 0), (0, 1), (1, 0)):
                C[:, i + j, q + r] += A[:, i, q] * B[:, j, r]
    return C


def hpoly_conj(A: np.ndarray) -> np.ndarray:
    """Complex conjugate of the represented function (k axis flips)."""
    return np.conj(A[:, ::-1, :])


def l6_norm(field: ExtensionField) -> float:
    """|| F ||_{L^6(R^2)}: the field |F|^6 = F^3 conj(F^3) integrated over
    the polar samples, plus its closed-form tail beyond the cutoff."""
    F3 = field * field * field
    H = F3 * F3.conj()                                 # tail k = -6..6
    grid = field.grid
    J = field.n_angles
    quad = float(np.dot(grid.weights * grid.nodes, H.values.real.sum(axis=1))
                 * (TAU / J))
    mean = H.tail.sum(axis=0) * (TAU / J)              # angular integral
    k = np.arange(-6, 7)
    i2 = exp_tail_integral(k, 2.0, grid.cutoff)
    i3 = exp_tail_integral(k, 3.0, grid.cutoff)
    tail = (2.0 / np.pi) ** 3 * float(
        np.sum(mean[:, 0] * i2).real + np.sum(mean[:, 1] * i3).real)
    total = quad + tail
    if total < 0:
        raise NumericalError(f"negative sixth-power mass {total:.3e}")
    return total ** (1.0 / 6.0)


class DecayReport:
    """sup_{rho >= rho_min} rho^{1/2} max_phi |F| and where it is attained."""

    def __init__(self, sup: float, at_rho: float, rho_min: float):
        self.sup = sup
        self.at_rho = at_rho
        self.rho_min = rho_min
        self.envelope = sup / TAU          # comparable to sqrt(2/pi) per unit c_0

    def __repr__(self):
        return (f"DecayReport(sup={self.sup:.6g} at rho={self.at_rho:.3f}, "
                f"envelope={self.envelope:.6g})")


def decay_check(field: ExtensionField, rho_min: float = 10.0) -> DecayReport:
    nodes = field.grid.nodes
    sel = nodes >= rho_min
    if not np.any(sel):
        raise GridSizeError(f"no grid nodes beyond rho_min={rho_min}")
    prof = np.sqrt(nodes[sel]) * np.abs(field.values[sel]).max(axis=1)
    i = int(np.argmax(prof))
    return DecayReport(float(prof[i]), float(nodes[sel][i]), rho_min)
