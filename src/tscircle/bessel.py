"""Bessel rows by forward recurrence below the turning point and Miller
recurrence elsewhere, oscillatory radial quadrature, and the six-factor
product tensor.

Every integral in this package reduces to the form

    int_0^oo  prod_i J_{n_i}(s_i rho)  rho drho,

absolutely convergent once there are at least five factors (six factors
decay like rho^-3 before the measure).  Values are computed as composite
Gauss-Legendre quadrature on [0, P], P >= 30, plus a closed-form tail: each
factor is replaced by its large-argument form

    J_n(rho) ~ sqrt(2/(pi rho)) [cos chi_n - (a_n/rho) sin chi_n],
    chi_n = rho - n pi/2 - pi/4,    a_n = (4 n^2 - 1)/8,

the product is expanded into its oscillation classes (the factors of equal
scale taken together, see bessel_product_tail), and

    I_nu(omega) = int_P^oo rho^-nu e^{i omega rho} drho

is evaluated exactly through the exponential integral (integer nu) or
Fresnel integrals (half-integer nu), or, from |omega| P = 40 on, through
its large-argument series.  The head is one quadrature pass on a
grid sized from the highest frequency w in play, 32-point panels of length
57/w, 3.5 nodes per wavelength (see RadialGrid), so every reported error
bound is the tail model's bound.  First-order 1/rho terms are kept,
truncated at total order one; dropping them leaves non-oscillatory mass
~ sum(a_n)/P^2 which is visible at the 1e-6 level for P = 200.  The
first-order coefficient of a factor is dropped when a_n > s_n P, where the
asymptotic series is meaningless; the rule is factor-local so that every
code path organizing the same product truncates identically.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import (AdmissibilityError, CacheError, ConfigError,
                     PreconditionError)

DEFAULT_CUTOFF = 200.0
PRODUCT_PANEL = 57.0 / 6          # frequency <= 6: six-factor products
DENSITY_PANEL = 57.0 / 10         # frequency <= 10: the Hankel densities
ROW_CHUNK = 256                   # six-Bessel rows per product block
HANKEL_RHO = 30.0                 # J_0, J_1 from their Hankel series from here
HANKEL_TERMS = 17                 # series terms a_0..a_16
SERIES_X = 40.0                   # exp_tail_integral's series from |omega| P
SERIES_TERMS = 36                 # ... summed to this many terms
TAU = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Bessel rows
# ---------------------------------------------------------------------------

def parity_sign(n) -> np.ndarray:
    """The sign s_n with J_n = s_n J_|n|: -1 for odd n < 0, else +1, from
    J_{-n} = (-1)^n J_n."""
    n = np.asarray(n)
    return np.where((n < 0) & (n % 2 != 0), -1.0, 1.0)


def _hankel_j01(rho: np.ndarray) -> np.ndarray:
    """J_0 and J_1 at rho >= HANKEL_RHO, (2, K), from their Hankel series
    (DLMF 10.17.3): J_nu = sqrt(2/(pi rho)) (P_nu cos w_nu - Q_nu sin w_nu),
    w_nu = rho - nu pi/2 - pi/4, P_nu = sum_m (-1)^m a_2m(nu) rho^-2m,
    Q_nu = sum_m (-1)^m a_2m+1(nu) rho^-2m-1, a_k(nu) = prod_{j <= k}
    (4 nu^2 - (2j - 1)^2)/(8j).  The first omitted term is below 5e-18 at
    HANKEL_RHO.  sqrt 2 cos w_nu and sqrt 2 sin w_nu are sums of cos rho
    and sin rho of the node itself: a phase rho - w formed in floating
    point would lose digits of the envelope at large rho."""
    c, s = np.cos(rho), np.sin(rho)
    y = rho ** -2.0
    out = np.empty((2, rho.size))
    for nu, (cw, sw) in enumerate(((c + s, s - c), (s - c, -(c + s)))):
        a = np.cumprod([1.0] + [(4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j)
                                for j in range(1, HANKEL_TERMS)])
        a[2::4] *= -1.0                   # the signs (-1)^m of P and Q
        a[3::4] *= -1.0
        p = np.polynomial.polynomial.polyval(y, a[0::2])
        q = np.polynomial.polynomial.polyval(y, a[1::2]) / rho
        out[nu] = (p * cw - q * sw) / np.sqrt(np.pi * rho)
    return out


def _miller_start(nmax: int, top: float) -> int:
    """Even start order of the downward recurrence for rows 0..nmax at
    arguments up to `top`: above both nmax and the turning point."""
    n_start = int(max(nmax + 22, np.ceil(top + 16.0 * top ** (1 / 3) + 22)))
    return n_start + n_start % 2


def _miller_block(nmax: int, rho: np.ndarray, nmin: int = 0) -> np.ndarray:
    """J_n(rho) for all n = nmin..nmax at once, by normalized downward
    (Miller) recurrence with periodic rescaling against overflow.

    Stable in every regime; accuracy ~1e-14 relative.  Cost is one vector
    operation per descending order, starting safely above both nmax and the
    turning point of the largest argument (_miller_start), and running
    down to order 0 for the normalization whatever nmin is.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    K = rho.size
    out = np.zeros((nmax - nmin + 1, K))
    if K == 0:
        return out
    pos = rho > 0
    rp = np.where(pos, rho, 1.0)
    n_start = _miller_start(nmax, float(np.max(rho)))

    jp = np.zeros(K)                       # J_{k+1}, scaled
    jc = np.where(pos, 1e-35, 0.0)         # J_k, scaled
    norm = 2.0 * jc.copy()                 # running J0 + 2*sum J_{2m}; n_start even
    nscale = np.zeros(K, dtype=np.int16)
    row_scale = np.zeros((nmax - nmin + 1, K), dtype=np.int16)

    for k in range(n_start, 0, -1):
        jm = (2.0 * k / rp) * jc - jp
        jp = jc
        jc = jm
        kk = k - 1
        if nmin <= kk <= nmax:
            out[kk - nmin] = jc
            row_scale[kk - nmin] = nscale
        if kk % 2 == 0:
            norm += jc if kk == 0 else 2.0 * jc
        big = np.abs(jc) > 1e250
        if np.any(big):
            jc[big] *= 1e-250
            jp[big] *= 1e-250
            norm[big] *= 1e-250
            nscale[big] += 1

    norm = np.where(pos, norm, 1.0)
    with np.errstate(under="ignore"):
        out *= np.power(1e-250, (nscale[None, :] - row_scale).astype(float))
    out /= norm
    out[:, ~pos] = 0.0
    if nmin == 0 and not np.all(pos):
        out[0, ~pos] = 1.0
    return out


# ---------------------------------------------------------------------------
# radial quadrature grid
# ---------------------------------------------------------------------------

def check_cutoff(cutoff: float) -> float:
    """The radial cutoff P as a float, refused outside [HANKEL_RHO, 1e5]:
    below HANKEL_RHO the two-term tail does not hold even for J_0."""
    if not (HANKEL_RHO <= cutoff <= 1.0e5):
        raise ConfigError(f"cutoff {cutoff!r} outside [{HANKEL_RHO:g}, 1e5]")
    return float(cutoff)


class RadialGrid:
    """Composite 32-point Gauss-Legendre panels on (0, P].

    Gauss-Legendre rules need pi nodes per wavelength in the limit of
    many nodes, a factor pi/2 above the optimal 2, lost to the clustering
    of their nodes at the panel ends (Hale and Trefethen, SIAM J. Numer.
    Anal. 2008); short low-order panels fall further from that limit.  So
    a grid resolves an integrand of top frequency w to rounding with
    32-point panels of length 57/w, 2 pi 32/57 = 3.5 nodes per wavelength.
    Six-factor Bessel products (tensor, polar route, L^6 norm, T_0)
    oscillate at frequency <= 6 and take the default panel 57/6, K = 704
    nodes at P = 200; the density integrands J_0(rho)^k J_0(r rho) reach
    k + r <= 10, with r in the support [0, k], and take panel 57/10
    (DENSITY_PANEL), K = 1152.  The largest head deviation of each default
    grid from 16-point panels of 5/w (about 20 nodes per wavelength), next
    to that of the 16-point panels of 20/w (five nodes per wavelength,
    K = 960 and 1600) that this rule replaced; a test bounds the rows by
    3e-16 and 2e-17 and the mu_5 heads by 7e-16:

        heads                                    57/w, 32 pt   20/w, 16 pt
        six-factor rows, enumerate_keys(8)       2.2e-16       1.5e-16
        2000 six-factor rows, orders <= 80       5.1e-18       4.5e-18
        mu_5 at 49 radii in [0.2, 5], P = 200    3.9e-16       5.0e-16
        mu_5 at 49 radii in [0.2, 5], P = 1600   5.0e-16       5.6e-16

    16-point panels of length 5 put a six-factor row 1.1e-11 off and a
    mu_5 head 8.7e-6 off.  Nodes are strictly interior, weights positive
    and summing to P to rounding.
    """

    PANEL_NODES = 32     # Gauss-Legendre nodes per panel
    ROW_BLOCK = 64       # Bessel rows per Miller start

    def __init__(self, cutoff: float = DEFAULT_CUTOFF,
                 panel: float = PRODUCT_PANEL):
        if panel <= 0:
            raise ConfigError("bad panel parameters")
        self.cutoff = check_cutoff(cutoff)
        self.panel = float(panel)
        npan = int(np.ceil(self.cutoff / self.panel))
        edges = np.linspace(0.0, self.cutoff, npan + 1)
        x, w = np.polynomial.legendre.leggauss(self.PANEL_NODES)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        nodes.flags.writeable = False
        weights.flags.writeable = False
        self.nodes = nodes
        self.weights = weights
        self._jrows = np.zeros((0, nodes.size))

    def __repr__(self):
        return (f"RadialGrid(cutoff={self.cutoff:g}, panel={self.panel:g}, "
                f"points={self.nodes.size})")

    def refine(self) -> "RadialGrid":
        """The same cutoff on half-length panels: an oracle for the head."""
        return RadialGrid(self.cutoff, 0.5 * self.panel)

    def j_matrix(self, nmax: int) -> np.ndarray:
        """Rows J_0..J_nmax on the nodes; cached, grown on demand into one
        array of the new height, filled block by block in place, so growing
        peaks near the rows kept.

        Below the turning point forward recurrence is stable (Gautschi,
        SIAM Review 1967): at nodes rho >= HANKEL_RHO the orders n <= rho/2
        run J_{n+1} = (2n/rho) J_n - J_{n-1} up from the Hankel J_0, J_1.
        Every other (node, order) comes from _miller_block, one start per
        ROW_BLOCK orders over the nodes below max(HANKEL_RHO, 2 x the
        block's last order).  Regime and start depend on the node and the
        order's block alone, so row n depends on the grid and n alone and
        growing never moves a row; the cost is O(nmax K), not O(P K)."""
        have = self._jrows.shape[0]
        if have <= nmax:
            rows = np.empty((nmax + 1, self.nodes.size))
            rows[:have] = self._jrows
            self._jrows = rows
            while have <= nmax:
                end = have - have % self.ROW_BLOCK + self.ROW_BLOCK - 1
                hi = min(nmax, end)
                self._rows(have, hi, end)
                have = hi + 1
        return self._jrows[:nmax + 1]

    def _rows(self, lo: int, hi: int, end: int) -> None:
        """Fill rows lo..hi of the cache, rows below lo already there,
        within the block ending at order `end`.  The nodes ascend, so each
        regime is a run of them."""
        rho = self.nodes
        new = self._jrows[lo:hi + 1]
        f = np.searchsorted(rho, max(HANKEL_RHO, 2.0 * lo))
        if f < rho.size:                  # nodes with a forward row here
            t = 2.0 / rho[f:]
            n0 = max(lo - 2, 0)
            jn, jn1 = (_hankel_j01(rho[f:]) if lo < 2
                       else self._jrows[n0:lo, f:])      # J_n0, J_n0+1
            for n in range(n0, hi + 1):
                if n >= lo:
                    new[n - lo, f:] = jn
                jn, jn1 = jn1, (n + 1) * t * jn1 - jn
        m = np.searchsorted(rho, max(HANKEL_RHO, 2.0 * end))
        if m:                             # nodes with a Miller row in the block
            order = np.arange(lo, hi + 1)[:, None]
            np.copyto(new[:, :m],
                      _miller_block(end, rho[:m], nmin=lo)[:hi - lo + 1],
                      where=(rho[:m] < HANKEL_RHO) | (2 * order > rho[:m]))


@lru_cache(maxsize=16)
def _default_grid(cutoff: float = DEFAULT_CUTOFF,
                  panel: float = PRODUCT_PANEL) -> RadialGrid:
    return RadialGrid(cutoff, panel)


def default_grid(cutoff: float = DEFAULT_CUTOFF) -> RadialGrid:
    return _default_grid(float(cutoff))


# ---------------------------------------------------------------------------
# closed-form tails
# ---------------------------------------------------------------------------

def _fresnel_complement(a: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """int_a^oo e^{i omega u^2} du for real omega != 0, a > 0."""
    om = np.abs(omega)
    arg = a * np.sqrt(2.0 * om / np.pi)
    s, c = _sp.fresnel(arg)
    full = 0.5 * np.sqrt(np.pi / om) * np.exp(0.25j * np.pi)
    val = full - np.sqrt(np.pi / (2.0 * om)) * (c + 1j * s)
    return np.where(omega > 0, val, np.conj(val))


def exp_tail_integral(omega, nu: float, P: float):
    """The pair (I_nu, I_{nu+1}) of I_nu(omega) = int_P^oo rho^-nu
    e^{i omega rho} drho, nu > 1.  Vectorized over the array omega.

    Below |omega| P = SERIES_X the pair comes from one upward recurrence:
    integer nu builds up from E1, half-integer nu from Fresnel integrals.
    Each upward step loses a factor of about |omega| P, so from SERIES_X on
    I_{nu+1} is the large-argument series

        I_mu = (i/omega) P^-mu e^{i omega P} sum_k (mu)_k (-i/(omega P))^k

    summed by Horner's rule over the terms that omega needs, at most
    SERIES_TERMS (the smallest term sits near k = |omega| P - mu), and I_nu
    follows from one downward step,
    I_nu = (i/omega) (P^-nu e^{i omega P} - nu I_{nu+1}), which is stable
    there.  Each value depends on its own omega alone.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.empty((2,) + om.shape, dtype=complex)
    zero = om == 0.0
    if np.any(zero):
        if nu <= 1.0:
            raise ConfigError(
                f"tail integral diverges: omega = 0 with nu = {nu} <= 1")
        out[0, zero] = P ** (1.0 - nu) / (nu - 1.0)
        out[1, zero] = P ** -nu / nu
    far = np.abs(om) * P >= SERIES_X
    if np.any(far):
        # K terms after the first leave out (mu)_{K+1} |x|^-(K+1), below
        # 2^-60 once |x| > lim[K]: each x takes the fewest K, at most
        # SERIES_TERMS, and the rows are ordered by K so that step k of
        # Horner's rule updates those with K > k, a prefix
        k = np.arange(SERIES_TERMS)
        lim = np.minimum.accumulate(np.exp(
            (np.cumsum(np.log(nu + 1.0 + k)) + 60.0 * np.log(2.0)) / (k + 1)))
        terms = np.searchsorted(-lim, -np.abs(om[far]) * P, side="right")
        order = np.argsort(-terms, kind="stable")
        at = np.flatnonzero(far)[order]
        w, terms = om[at], terms[order]
        x = w * P
        rows = np.searchsorted(-terms, -np.arange(terms[0]))    # K > k
        re, im = np.ones_like(x), np.zeros_like(x)
        for k in range(terms[0] - 1, -1, -1):
            n = rows[k]
            c = (nu + 1.0 + k) / x[:n]
            re[:n], im[:n] = 1.0 + c * im[:n], -c * re[:n]
        e = np.exp(1j * x)
        hi = (1j / w) * P ** -(nu + 1.0) * e * (re + 1j * im)
        out[0, at], out[1, at] = (1j / w) * (P ** -nu * e - nu * hi), hi
    nz = ~zero & ~far
    if np.any(nz):
        w = om[nz]
        if float(nu).is_integer():
            cur = _sp.exp1(-1j * w * P)          # I_1
            base = 1.0
        else:
            cur = 2.0 * _fresnel_complement(np.sqrt(P), w)   # I_{1/2}
            base = 0.5
        e = np.exp(1j * w * P)
        k = base
        while k < nu + 0.5:                 # the last step is I_nu -> I_nu+1
            prev, cur = cur, e / (k * P ** k) + (1j * w / k) * cur
            k += 1.0
        out[0, nz], out[1, nz] = prev, cur
    return out[0], out[1]


_ROOTS8 = np.array([1, 1 - 1j, -1j, -1 - 1j, -1, -1 + 1j, 1j, 1 + 1j])
_ROOTS8[1::2] *= np.sqrt(0.5)      # e^{-i pi k/4}, k = 0..7, correctly rounded


def first_order_coeff(n, scale=1.0, P: float = DEFAULT_CUTOFF):
    """a_n = (4n^2-1)/8, zeroed where the expansion is invalid (a_n > s P)."""
    n = np.asarray(n, dtype=float)
    a = (4.0 * n * n - 1.0) / 8.0
    return np.where(np.abs(a) <= np.asarray(scale) * P, a, 0.0)


@lru_cache(maxsize=None)
def _class_weights(m: int) -> np.ndarray:
    """K[g, e + 1, p], the coefficient of t^p in (1 - t)^e (1 + t)^(g - e)
    for g <= m factors of which e have even order; the rows e = -1 and
    e = g + 1 are zero.  Read-only, one table per m."""
    K = np.zeros((m + 1, m + 3, m + 1), dtype=np.int64)
    K[0, 1, 0] = 1
    for g in range(m):
        old = K[g, 1:g + 2]                 # e = 0..g
        K[g + 1, 1:g + 2] = old             # one more odd factor: (1 + t)
        K[g + 1, 1:g + 2, 1:] += old[:, :-1]
        K[g + 1, g + 2] = old[-1]           # e = g + 1: (1 - t) times e = g
        K[g + 1, g + 2, 1:] -= old[-1, :-1]
    K.flags.writeable = False
    return K


def _class_table(weights, g, turn, ev, sig):
    """The classes of U rows of one group structure that enter the tail:
    phase and omega >= 0, each (U, H), and the integer weights,
    (1 + 2 len(g), U, H).

    Group G holds g[G] factors of scale sig[G], ev[G] of them of even
    order; turn is sum (2 n_j + 1) mod 8.  Weight 0 is that of I_nu, and
    weights 1 + 2G and 2 + 2G are those of -i I_{nu+1} for the b of group
    G's even and odd factors.  Of the F = prod(g + 1) choices of p per
    group, column f and its mirror p -> g - p, column F - 1 - f, have
    omega of opposite sign and conjugate terms, so each row keeps of every
    pair the one with omega > 0 (the first, if omega = 0) at weight 2, and
    the self-mirror class at weight 1: H = ceil(F/2) classes, from the
    fastest to the slowest, which carries the most mass, so that it is
    added last.
    """
    p = np.indices(g + 1).reshape(len(g), -1)
    F = p.shape[1]
    omega = (2 * p[0] - g[0]) * sig[0][:, None]
    for G in range(1, len(g)):
        omega = omega + (2 * p[G] - g[G]) * sig[G][:, None]
    col = np.arange(F)
    keep = (omega > 0) | ((omega == 0) & (col <= F - 1 - col))
    U, H = len(omega), (F + 1) // 2
    f = np.nonzero(keep)[1].reshape(U, H)
    slow = np.argsort(-omega[keep].reshape(U, H), axis=1, kind="stable")
    f = np.take_along_axis(f, slow, axis=1)
    p = p[:, f]                             # (len(g), U, H)
    phase = _ROOTS8[(-turn[:, None] - 2 * p.sum(axis=0)) % 8]
    # K at e - 1, e, e + 1 per group: the 1/rho part of an even factor
    # moves e down, of an odd one up, with a factor -1
    own = [weights[g[G]][ev[G][:, None] + np.arange(3)[:, None, None], p[G]]
           for G in range(len(g))]
    W = np.empty((1 + 2 * len(g), U, H), dtype=np.int64)
    for G in range(len(g)):
        rest = 1
        for other in range(len(g)):
            if other != G:
                rest = rest * own[other][1]
        W[1 + 2 * G], W[2 + 2 * G] = own[G][0] * rest, own[G][2] * rest
    W[0] = own[-1][1] * rest                # rest: every group but the last
    W *= np.where(f == F - 1 - f, 1, 2)
    return phase, np.take_along_axis(omega, f, axis=1), W


def bessel_product_tail(orders, P: float, scales=None):
    """Closed-form int_P^oo rho prod_i J_{n_i}(s_i rho) drho (orders >= 0).

    `orders` and `scales` are each one row of m entries or a stack of rows;
    stacks broadcast row by row.  Returns a float when both are single rows,
    else one value per row.

    Each factor's two-term form is (1/2) sqrt(2/(pi s rho)) tau^-1
    [(ubar + u t) + (i b/rho)(u t - ubar)], tau = e^{i s rho}, t = tau^2,
    u = e^{-i pi (2n + 1)/4}, b = a_n/s.  Since u^2 = -i for even n and +i
    for odd n, a group of g factors of equal scale multiplies out to
    prod(ubar) (1 - i t)^e (1 + i t)^(g - e), e of its orders even: its
    class p, the power of t, oscillates at (2p - g) s with the integer
    weight K_p(e, g) of t^p in (1 - t)^e (1 + t)^(g - e) (_class_weights)
    times i^p.  The 1/rho part of factor j is the same product with e
    moved by one, away from j's parity, and a factor -1.  So each row is
    grouped by scale, its classes are the products of its groups', and
    every phase is prod(ubar) i^(sum p), an exact multiple of pi/4 read
    from the eighth roots of unity at an integer mod 8.

    The tail is then h + sum over (group, parity) of B G, where B sums the
    b of that group's factors of that parity, and h and G are class sums
    of I_nu and I_{nu+1} (nu = m/2 - 1) that depend only on the scales,
    the order sum mod 8 and the even counts.  Rows sharing these share h
    and G, so six unit-scale factors cost O(m) per row.  Each distinct
    |omega| is integrated once, I(-omega) being conj I(omega).  A row's
    value depends on that row alone: its groups are its own, and every
    sum runs in a fixed order, without matrix products.
    """
    orders = np.asarray(orders, dtype=int)
    s = (np.ones(orders.shape[-1]) if scales is None
         else np.asarray(scales, dtype=float))
    if not np.all(s > 0):
        raise PreconditionError("tail scales must be positive")
    single = orders.ndim == 1 and s.ndim == 1
    orders, s = np.broadcast_arrays(np.atleast_2d(orders), np.atleast_2d(s))
    if not len(s):
        return np.empty(0)
    m = orders.shape[1]
    b = first_order_coeff(orders, s, P) / s
    if np.any(s[:, 1:] < s[:, :-1]):                # equal scales adjacent
        perm = np.argsort(s, axis=1, kind="stable")
        s, orders, b = (np.take_along_axis(x, perm, axis=1)
                        for x in (s, orders, b))
    prod, total = s[:, 0], orders[:, 0]             # in column order
    for j in range(1, m):
        prod, total = prod * s[:, j], total + orders[:, j]
    pref = (2.0 / np.pi) ** (0.5 * m) / np.sqrt(prod) / 2.0 ** m
    turn = (2 * total + m) % 8                      # sum (2 n_j + 1) mod 8
    even = (orders & 1) == 0
    b_even = np.where(even, b, 0.0)
    b_odd = b - b_even
    head = np.ones(s.shape, dtype=bool)             # a group starts here
    head[:, 1:] = s[:, 1:] != s[:, :-1]
    shape = np.zeros(len(s), dtype=np.int64)        # the group sizes, as bits
    for j in range(1, m):
        shape = 2 * shape + head[:, j]

    weights = _class_weights(m)
    parts = []
    for code in np.unique(shape):
        rows = shape == code
        lo = np.flatnonzero(head[np.argmax(rows)])
        hi = np.append(lo[1:], m)
        if rows.all():
            rows = slice(None)                      # views, not copies
        be, bo = b_even[rows], b_odd[rows]
        sig = [s[rows, a] for a in lo]
        ev = [even[rows, a:z].sum(axis=1) for a, z in zip(lo, hi)]
        B = []                                      # per group: even, odd
        for a, z in zip(lo, hi):
            for part in (be, bo):
                acc = part[:, a]                    # in column order
                for j in range(a + 1, z):
                    acc = acc + part[:, j]
                B.append(acc)
        # rows of equal (turn, even counts, scales) share h and G; a scale
        # equal in every row needs no sorting
        key = turn[rows]
        for e in ev:
            key = key * (m + 1) + e
        cols = [x for x in sig if not np.all(x == x[0])] + [key]
        order = np.lexsort(cols)
        new = np.zeros(len(order), dtype=bool)
        new[:1] = True
        for x in cols:
            new[1:] |= x[order[1:]] != x[order[:-1]]
        first = order[new]
        inv = np.empty(len(order), dtype=np.int64)
        inv[order] = np.cumsum(new) - 1
        parts.append((rows, inv, B) + _class_table(
            weights, hi - lo, turn[rows][first],
            [e[first] for e in ev], [x[first] for x in sig]))

    freq, slot = np.unique(np.concatenate([pt[4].ravel() for pt in parts]),
                           return_inverse=True)
    i2, i3 = exp_tail_integral(freq, 0.5 * m - 1.0, P)
    out = np.empty(len(s))
    at = 0
    for rows, inv, B, phase, omega, W in parts:
        k = slot[at:at + omega.size].reshape(omega.shape)
        at += omega.size
        # Re(phase I_nu) and Im(phase I_nu+1) in real arithmetic: numpy's
        # complex product is not bitwise commutative, and temporary elision
        # may swap its operands in large arrays
        c, d, x, y = phase.real, phase.imag, i2[k], i3[k]
        zh, zG = c * x.real - d * x.imag, c * y.imag + d * y.real
        h, G = W[0, :, 0] * zh[:, 0], W[1:, :, 0] * zG[:, 0]
        for f in range(1, W.shape[2]):
            h, G = h + W[0, :, f] * zh[:, f], G + W[1:, :, f] * zG[:, f]
        acc = B[0] * G[0][inv]
        for Bk, Gk in zip(B[1:], G[1:]):
            acc = acc + Bk * Gk[inv]
        out[rows] = pref[rows] * (acc + h[inv])
    return float(out[0]) if single else out


def _tail_error_bound(orders: np.ndarray, P: float) -> np.ndarray:
    """Bound on what the two-term tail model drops.

    The first omitted product terms sit at rho^-2 relative to the leading
    envelope, with coefficients a_i a_j (cross) and b_i (second Stokes
    coefficient per factor); |trig| <= 1 gives the triangle-inequality
    bound (2/pi)^3 (cross + sum b) P^-3 / 3.  Oscillation usually cancels
    most of this, so the bound is loose but honest.
    """
    n = np.asarray(orders, dtype=float)
    mu = 4.0 * n * n
    a = np.abs(first_order_coeff(orders, 1.0, P))
    b = np.abs((mu - 1.0) * (mu - 9.0) / 128.0)
    suma = a.sum(axis=-1)
    cross = 0.5 * (suma ** 2 - (a ** 2).sum(axis=-1))
    # invalid factors contribute their full (unknown-phase) leading mass
    dropped = np.any((np.abs((mu - 1.0) / 8.0) > P), axis=-1)
    base = (2.0 / np.pi) ** 3 / 3.0 * (cross + b.sum(axis=-1)) / P ** 3
    return np.where(dropped, base + 0.05 / P, base)


# ---------------------------------------------------------------------------
# radial integration
# ---------------------------------------------------------------------------

def radial_integrate(fn, tail_orders, grid: RadialGrid | None = None):
    """Integrate fn(rho) = rho prod_i J_{n_i}(rho) over (0, oo), with the
    orders n_i given as `tail_orders`: one quadrature pass on [0, P] plus
    the closed-form Bessel-product tail.

    Returns (value, error_bound); the bound is the tail model's, since the
    grid resolves the head to rounding.
    """
    grid = grid or default_grid()
    head = float(np.dot(grid.weights, np.asarray(fn(grid.nodes), dtype=float)))
    orders = np.asarray(tail_orders)
    P = grid.cutoff
    err = float(_tail_error_bound(orders[None, :], P)[0])
    return head + bessel_product_tail(orders, P), err


def _signed_key(ns) -> tuple[float, np.ndarray]:
    """Parity sign and sorted-magnitude key row of an admissible tuple.

    Admissible means n1+n2+n3 = n4+n5+n6 (the angular selection rule); the
    sign restores J_{-n} = (-1)^n J_n.
    """
    if sum(ns[:3]) != sum(ns[3:]):
        raise AdmissibilityError(f"tuple {ns} violates n1+n2+n3 = n4+n5+n6")
    ns = np.asarray(ns, dtype=np.int64)
    return float(np.prod(parity_sign(ns))), np.sort(np.abs(ns))[None, :]


def _six_bessel_rows(keys: np.ndarray,
                     grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """int_0^oo rho prod_j J_{k_j}(rho) drho for each row k of `keys`
    (nonnegative orders, six per row), with its error bound.

    Each row costs one six-row product over the grid's nodes plus the
    closed-form tail, one tail call for all rows, since a row's tail does
    not depend on its batch; products are formed in chunks of at most
    ROW_CHUNK rows, at which size BLAS sums a chunk alike under any thread
    count.
    Within a chunk the product J_{k1} J_{k2} J_{k3} is formed once per
    distinct leading triple and each row multiplies it by its last three
    rows, the same left-to-right product as row by row.  The error is the
    tail model's bound, since the grid resolves the head to rounding.
    """
    top = int(keys.max()) + 1
    jc = grid.j_matrix(top - 1)
    w = grid.weights * grid.nodes
    P = grid.cutoff
    vals = bessel_product_tail(keys, P)
    for lo in range(0, keys.shape[0], ROW_CHUNK):
        kk = keys[lo:lo + ROW_CHUNK]
        lead = kk[:, :3].astype(np.int64)
        _, first, row = np.unique((lead[:, 0] * top + lead[:, 1]) * top
                                  + lead[:, 2], return_index=True,
                                  return_inverse=True)
        lead = lead[first]
        part = jc[lead[:, 0]]
        part *= jc[lead[:, 1]]
        part *= jc[lead[:, 2]]
        prod = part[row]
        for j in range(3, 6):
            prod *= jc[kk[:, j]]
        vals[lo:lo + ROW_CHUNK] = prod @ w + vals[lo:lo + ROW_CHUNK]
    return vals, _tail_error_bound(keys, P)


def six_bessel_integral(n1: int, n2: int, n3: int, n4: int, n5: int, n6: int,
                        grid: RadialGrid | None = None, with_error: bool = False):
    """int_0^oo J_{n1}..J_{n6}(rho) rho drho for an admissible tuple.

    Admissible means n1+n2+n3 = n4+n5+n6 (the angular selection rule);
    any other tuple integrates to zero after the angular integration it is
    always paired with, and is rejected here.
    """
    sign, key = _signed_key((n1, n2, n3, n4, n5, n6))
    val, err = _six_bessel_rows(key, grid or default_grid())
    if not with_error:
        return sign * float(val[0])
    return sign * float(val[0]), float(err[0])


# ---------------------------------------------------------------------------
# the six-factor tensor
# ---------------------------------------------------------------------------

def _encode(keys: np.ndarray, base: int) -> np.ndarray:
    code = keys[:, 0].astype(np.int64)
    for j in range(1, 6):
        code = code * base + keys[:, j]
    return code


def enumerate_keys(N: int) -> np.ndarray:
    """Canonical storage keys at bandwidth N: sorted |order| sextuples, in
    lexicographic (storage) order.

    A sextuple of magnitudes is reachable iff some signed arrangement
    satisfies the selection rule, i.e. iff signs exist with
    sum eps_i a_i = 0.  Keys are generated as (five free magnitudes <= N,
    sixth = |signed sum|), which covers every contraction the quintic
    convolution needs (output mode up to 5N) and in particular every
    admissible tuple with all six magnitudes <= N.  Opposite signs give
    the same |sum|, so the first sign is kept at +1.
    """
    ms = np.array(list(itertools.combinations_with_replacement(range(N + 1), 5)),
                  dtype=np.int64)
    eps = np.array([(1,) + e for e in itertools.product((1, -1), repeat=4)],
                   dtype=np.int64)
    sums = np.abs(ms @ eps.T)                       # (M, 16)
    keys = np.concatenate([np.repeat(ms, eps.shape[0], axis=0),
                           sums.reshape(-1, 1)], axis=1)
    keys.sort(axis=1)
    _, first = np.unique(_encode(keys, 5 * N + 2), return_index=True)
    return keys[first]


class BesselTensor:
    """Values of the six-factor radial integral, deduplicated by symmetry.

    The integral depends on the orders only through their magnitudes, up to
    the parity sign of J_{-n} = (-1)^n J_n, so one entry per sorted
    magnitude sextuple suffices; `value` restores the sign.
    """

    def __init__(self, N: int, cutoff: float, keys: np.ndarray,
                 values: np.ndarray, errors: np.ndarray):
        self.N = int(N)
        self.cutoff = float(cutoff)
        self._base = 5 * self.N + 2
        codes = _encode(np.asarray(keys, dtype=np.int64), self._base)
        if not np.all(codes[1:] > codes[:-1]):   # not yet in storage order
            order = np.lexsort(keys.T[::-1])
            keys, values, errors = keys[order], values[order], errors[order]
            codes = codes[order]
        self.keys = np.array(keys, dtype=np.int16, order="C")
        self.values = np.array(values, order="C")       # copies: frozen below
        self.errors = np.array(errors, order="C")
        self._codes = codes
        for a in (self.keys, self.values, self.errors, self._codes):
            a.flags.writeable = False

    def __len__(self):
        return self.values.size

    def __repr__(self):
        return (f"BesselTensor(N={self.N}, cutoff={self.cutoff:g}, "
                f"entries={len(self)})")

    def lookup_sorted_abs(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized lookup; keys must be sorted magnitude rows."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and int(keys.max()) >= self._base:
            raise PreconditionError(
                f"order {int(keys.max())} outside tensor range N={self.N}")
        codes = _encode(keys, self._base)
        pos = np.searchsorted(self._codes, codes)
        bad = (pos >= self._codes.size) | (self._codes[np.minimum(pos, self._codes.size - 1)] != codes)
        if np.any(bad):
            k = np.asarray(keys)[np.argmax(bad)]
            raise PreconditionError(
                f"orders {tuple(int(x) for x in k)} outside tensor range N={self.N}")
        return self.values[pos]

    def value(self, n1: int, n2: int, n3: int, n4: int, n5: int, n6: int) -> float:
        sign, key = _signed_key((n1, n2, n3, n4, n5, n6))
        return float(sign * self.lookup_sorted_abs(key)[0])

    # -- persistence --------------------------------------------------------

    _MAGIC = b"B6T1"
    _HEADER = struct.Struct("<4sidqI")
    _RECORD = np.dtype([("idx", "<i2", (6,)), ("val", "<f8"), ("err", "<f8")])

    def save(self, path) -> None:
        rec = np.zeros(len(self), dtype=self._RECORD)
        rec["idx"] = self.keys
        rec["val"] = self.values
        rec["err"] = self.errors
        blob = rec.tobytes()
        head = self._HEADER.pack(self._MAGIC, self.N, self.cutoff, len(self),
                                 zlib.crc32(blob) & 0xFFFFFFFF)
        with open(path, "wb") as fh:
            fh.write(head)
            fh.write(blob)

    @classmethod
    def load(cls, path) -> "BesselTensor":
        with open(path, "rb") as fh:
            head = fh.read(cls._HEADER.size)
            if len(head) < cls._HEADER.size:
                raise CacheError("cache file truncated in header")
            magic, N, cutoff, count, crc = cls._HEADER.unpack(head)
            if magic != cls._MAGIC:
                raise CacheError(f"bad magic {magic!r}")
            blob = fh.read()
        expect = count * cls._RECORD.itemsize
        if len(blob) != expect:
            raise CacheError(f"cache payload {len(blob)} bytes, expected {expect}")
        if zlib.crc32(blob) & 0xFFFFFFFF != crc:
            raise CacheError("cache checksum mismatch")
        rec = np.frombuffer(blob, dtype=cls._RECORD)
        return cls(N, cutoff, rec["idx"].astype(np.int64),
                   rec["val"].copy(), rec["err"].copy())


def build_tensor(N: int, grid: RadialGrid | None = None) -> BesselTensor:
    """Evaluate every stored symmetry class at bandwidth N, in the
    deterministic chunked order of `_six_bessel_rows`."""
    if not (0 <= N <= 48):
        raise ConfigError(f"tensor bandwidth N={N} outside [0, 48]")
    grid = grid or default_grid()
    keys = enumerate_keys(N)
    vals, errs = _six_bessel_rows(keys, grid)
    return BesselTensor(N, grid.cutoff, keys, vals, errs)
