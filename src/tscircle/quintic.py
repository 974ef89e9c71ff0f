"""Quintilinear convolution on the circle and the radial densities that
control it.

The convolution takes five circle functions to the restriction of
(f1 sigma * ... * f5 sigma) back on the circle.  In coefficients,

    Q(f1..f5)_m = (2 pi)^4  sum_{n1+..+n5 = m}  prod_i c_i(n_i)
                  int_0^oo J_{n1}..J_{n5} J_m  rho drho,

which is the "tensor" route: a contraction against the precomputed
six-factor integrals.  It pays per symmetry class and per read mode: the
terms of the inner sum are grouped by the class and sum of n2..n5, one
lookup per (|n1|, class, |m|) resolves them, and a caller that reads modes
|m| <= M (Phi = <Q, f> reads |m| <= N) looks up and sums only the terms
that land there, each mode bit for bit the full contraction's.  The
independent "polar" route multiplies the five extended fields and inverts
mode by mode,

    Q_m = (2 pi)^{-1} i^|m| int_0^oo P_m(rho) J_|m|(rho) rho drho,

P_m the m-th angular coefficient of the product field (i^m J_m = i^|m|
J_|m|, as J_-m = (-1)^m J_m: the modes +-m read one Bessel row).
_assemble_polar is that one inversion: every polar caller writes its
product (sums of products included) as one field expression over the
extensions of its inputs and assembles it once, for the modes it needs,
through the blocked kernel extension._polar_reduce; the bound chain's
products, which share most of their factors, are one multi-product
expression (_bound_chain) assembled in one pass.  The angular grid is
sized for those modes too: J samples of a bandwidth-M product give its
modes |m| <= M_out exactly when J > M + M_out, and extension.angle_count
takes the smallest even such J (64 at least), so a caller that reads mode 0
only samples at M + 2 angles, not 2M + 2, and takes that mode as an angular
mean.  Both routes carry the same two-term radial tail model, coded twice
(bessel.bessel_product_tail for the tensor, extension.bessel_tail and
_tail_weights for the polar route), so their agreement tests bookkeeping,
not a shared truncation.  The kernel returns each mode's whole integral:
J_n's tail, bessel_tail's real samples of order n (the cached
extension._tail_rows), is folded once per cutoff and M into order n's
weights over the phase samples of the tails of P_{+-n}, so a polar mode is
the head plus one dot product.

The controlling densities are the radial profiles of the k-fold
self-convolutions of arclength measure,

    mu_k(r) = (2 pi)^{k-1} int_0^oo J_0(rho)^k J_0(r rho) rho drho,

that is (2 pi)^{k-1} p_k(r)/r, p_k the density of the distance after k unit
steps of a uniform planar random walk: mu_2 and mu_3 in closed form, mu_4
and mu_5 through that Hankel integral, a closed-form tail past the cutoff
plus a head on the density grid.  The heads of a profile, the J_0(r rho)
samples of 128 radii at a time against one weight row, are most of its
cost; they are dealt alternately to the calling thread and one helper
thread, which computes nothing but those samples and their products, so
each value is bit for bit the one-thread sum (_hankel_density).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .bessel import (DEFAULT_CUTOFF, DENSITY_PANEL, BesselTensor, RadialGrid,
                     _default_grid, bessel_product_tail, check_cutoff,
                     default_grid, parity_sign)
from .errors import ConfigError, PreconditionError, SingularRadiusError
from .extension import (TAIL_PHASES, _polar_reduce, _tail_rows, _tail_weights,
                        angle_count, extend, i_pow)
from .spectral import TAU, CircleFunction, l2_norm, rotate

SINGULAR_RADII = {2: (0.0, 2.0), 3: (1.0, 3.0), 4: (0.0, 2.0, 4.0), 5: ()}
EXCLUSION = 0.05          # half-width of the mask around each singular radius
HANKEL_FLOOR = 0.025      # smallest radius the Hankel buckets integrate


# ---------------------------------------------------------------------------
# the convolution, two routes
# ---------------------------------------------------------------------------

def _product(*F):
    """The product of the inputs: the field of Q(f1, .., f5)."""
    return F[0] * F[1] * F[2] * F[3] * F[4]


def _self_product(F):
    """F^3 conj(F^2): the field of Q(f, f, f, f~, f~) from that of f."""
    FF = F * F
    return FF * F * FF.conj()


@lru_cache(maxsize=64)
def _mode_tables(P: float, M: int):
    """i^|m|/2 pi for modes m = -M..M and the tail weights of the orders
    0..M, (M+1, 2, TAIL_PHASES): the product of a tail S with J_n's, A =
    _tail_rows (a dual product, rho^-2 dropped), integrated by the weights
    W, is sum S_0 (W_0 A_0 + W_1 A_1) + S_1 W_1 A_0."""
    A = _tail_rows(M, P).reshape(M + 1, 2, TAIL_PHASES)
    W = _tail_weights(P)
    tables = (i_pow(np.abs(np.arange(-M, M + 1))) / TAU,
              np.stack([W[0] * A[:, 0] + W[1] * A[:, 1], W[1] * A[:, 0]],
                       axis=1))
    for t in tables:
        t.flags.writeable = False          # shared by every caller
    return tables


def _assemble_polar(expr, fields, M: int) -> np.ndarray:
    """Modes -M..M of Q from the field expression expr(*fields) of its five
    inputs; the fields' J angles must exceed the expression's bandwidth
    plus M, or those modes alias."""
    grid = fields[0].grid
    if M < 0:
        raise ConfigError(f"mode count M={M} is negative")
    scale, tail = _mode_tables(grid.cutoff, M)
    return scale * _polar_reduce(expr, fields, M, grid.j_matrix(M), tail)


def _convolve_tensor(fs, tensor: BesselTensor, M: int) -> CircleFunction:
    """The tensor route, modes -M..M.  A row n2..n5 of the inner sum enters
    a term only through its class (the sorted |n2|..|n5|), its sum s and
    its parity sign, which is folded into the row's coefficient product.
    The rows that reach a read mode are sorted stably by s, and so are the
    distinct (class, s) pairs, so pass n1 reads a slice of each.  One
    lookup resolves the key (|n1|, class, |n1 + s|) of every n1 >= 0 and
    pair with |n1 + s| <= M; (-n1, class, -s) has the same key, and the
    parity signs of n1 and n1 + s are folded into the values.  Each read bin
    sums the per-tuple terms in their order, bit for bit."""
    Ns = [f.N for f in fs]
    if max(Ns) > tensor.N:
        raise PreconditionError(
            f"input bandwidth {max(Ns)} exceeds tensor bandwidth {tensor.N}")
    top, N1 = sum(Ns), Ns[0]
    rows = [g.ravel() for g in np.meshgrid(
        *(np.arange(-N, N + 1) for N in Ns[1:]), indexing="ij")]   # n2..n5
    s2345 = rows[0] + rows[1] + rows[2] + rows[3]
    order = np.argsort(s2345.astype(np.int16), kind="stable")
    order = order[np.abs(s2345[order]) <= M + N1]
    rows = [n[order] for n in rows]
    s2345 = s2345[order]
    cc = 1.0                       # J_n's parity sign rides on c(n), exactly
    for n, f in zip(rows, fs[1:]):
        cc = cc * (parity_sign(np.arange(-f.N, f.N + 1)) * f.coeffs)[n + f.N]
    mag = [np.abs(n) for n in rows]
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):   # sorting network
        mag[i], mag[j] = np.minimum(mag[i], mag[j]), np.maximum(mag[i], mag[j])
    base = top + 1
    code = s2345 + top
    for x in mag:
        code = code * base + x
    uniq, pair = np.unique(code, return_inverse=True)
    sp, cls = np.divmod(uniq, base ** 4)
    sp -= top                                             # each pair's s

    n1 = np.arange(N1 + 1)
    plo = np.searchsorted(sp, -M - n1, side="left")
    count = np.searchsorted(sp, M - n1, side="right") - plo
    i1 = np.repeat(n1, count)                    # the (n1 >= 0, pair) read
    ip = np.arange(i1.size) + np.repeat(plo - np.cumsum(count) + count, count)
    keys = ([i1] + [cls[ip] // base ** (3 - j) % base for j in range(4)]
            + [np.abs(i1 + sp[ip])])
    for i in (0, 1, 2, 3, 4, 3, 2, 1, 0):  # |n1| up the sorted class, |m| down
        keys[i], keys[i + 1] = (np.minimum(keys[i], keys[i + 1]),
                                np.maximum(keys[i], keys[i + 1]))
    half = np.zeros((N1 + 1, uniq.size))
    half[i1, ip] = tensor.lookup_sorted_abs(np.stack(keys, axis=1))
    mirror = np.searchsorted(uniq, uniq - 2 * sp * base ** 4)   # (class, -s)
    n1 = np.arange(-N1, N1 + 1)
    value = np.concatenate([half[:0:-1, mirror], half])   # -n1 reads |n1|
    value *= parity_sign(n1[:, None] + sp) * parity_sign(n1)[:, None]

    # pass n1 writes the modes n1 + s of its rows into out[i:i + L]; with
    # each weight's real and imaginary parts interleaved (bins 2k, 2k + 1)
    # one bincount sums both, each bin in row order
    lo = np.searchsorted(s2345, -M - n1, side="left")
    hi = np.searchsorted(s2345, M - n1, side="right")
    L = 2 * (M + N1) + 1
    bins = ((2 * (s2345 + M + N1))[:, None] + (0, 1)).ravel()
    out = np.zeros(2 * (M + 2 * N1) + 1, dtype=np.complex128)
    for i, c1 in enumerate(fs[0].coeffs):
        w = (c1 * cc[lo[i]:hi[i]]) * value[i][pair[lo[i]:hi[i]]]
        out[i:i + L] += np.bincount(bins[2 * lo[i]:2 * hi[i]],
                                    weights=w.view(np.float64),
                                    minlength=2 * L).view(np.complex128)
    return CircleFunction(out[2 * N1:2 * (N1 + M) + 1] * TAU ** 4)


def quintic_convolve(fs, tensor: BesselTensor | None = None,
                     grid: RadialGrid | None = None,
                     method: str = "auto",
                     M: int | None = None) -> CircleFunction:
    """Five circle functions -> their quintic convolution on the circle,
    modes -M..M of it when M is given (all N1 + .. + N5 by default).

    method: "tensor" (contraction against a BesselTensor), "polar"
    (pointwise field product, per-mode inversion), or "auto" (tensor when
    one is supplied).  Either route computes the modes it returns only:
    the tensor route looks up and sums the terms that land in them, bit
    for bit the full contraction's, and the polar route samples the
    product field at angle_count(N1 + .. + N5, M) angles.
    """
    fs = list(fs)
    if len(fs) != 5:
        raise ConfigError(f"need exactly five inputs, got {len(fs)}")
    top = sum(f.N for f in fs)
    if M is None:
        M = top
    elif M < 0:
        raise ConfigError(f"mode count M={M} is negative")
    M = min(int(M), top)
    if method == "auto":
        method = "tensor" if tensor is not None else "polar"
    if method == "tensor":
        if tensor is None:
            raise ConfigError("method='tensor' requires a tensor")
        return _convolve_tensor(fs, tensor, M)
    if method != "polar":
        raise ConfigError(f"unknown method {method!r}")
    grid = grid or default_grid()
    distinct = {id(f): f for f in fs}           # each input extended once
    fields = {key: extend(f, grid, angle_count(top, M))
              for key, f in distinct.items()}
    return CircleFunction(_assemble_polar(_product, [fields[id(f)] for f in fs],
                                          M))


def el_quintic(f: CircleFunction, grid: RadialGrid | None = None,
               M: int | None = None) -> CircleFunction:
    """Q(f, f, f, f~, f~): the combination driven by the sextic functional,
    modes -M..M of it when M is given (all 5N of them by default); the field
    of f~ is the conjugate of the field of f, so one extension serves all
    five slots."""
    M = 5 * f.N if M is None else min(M, 5 * f.N)
    F = extend(f, grid or default_grid(), angle_count(5 * f.N, M))
    return CircleFunction(_assemble_polar(_self_product, [F], M))


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


def _mu3(r):
    """(2 pi)^2 p_3(r)/r, with Borwein, Straub, Wan and Zudilin's (Densities
    of short uniform random walks, 2012) p_3(r) = (2 sqrt 3/pi) r/(3 + r^2)
    2F1(1/3, 2/3; 1; z): finite at 0, log-singular at 1 (z = 1), zero past
    3.  1 - z is formed as 27 (1 - r^2)^2/(3 + r^2)^3, so z <= 1."""
    r2 = np.asarray(r, dtype=float) ** 2
    z = 1.0 - 27.0 * (1.0 - r2) ** 2 / (3.0 + r2) ** 3
    val = (TAU ** 2 * 2.0 * np.sqrt(3.0) / np.pi / (3.0 + r2)
           * _sp.hyp2f1(1.0 / 3.0, 2.0 / 3.0, 1.0, z))
    return np.where(r2 > 9.0, 0.0, val)


def _hankel_heads(jobs, buf: np.ndarray) -> list:
    """j0(outer(r, nodes)) @ w for each job (r, nodes, w), the J_0 samples
    formed in place in the flat buffer buf.  numpy and scipy only, on the
    arrays handed in, so it may run off the calling thread."""
    heads = []
    for r, nodes, w in jobs:
        x = buf[:r.size * nodes.size].reshape(r.size, nodes.size)
        np.multiply.outer(r, nodes, out=x)
        heads.append(_sp.j0(x, out=x) @ w)
    return heads


@lru_cache(maxsize=1)
def _helper() -> ThreadPoolExecutor:
    """The one helper thread of the Hankel heads, started by its first job."""
    return ThreadPoolExecutor(max_workers=1,
                              thread_name_prefix="tscircle-hankel")


# a child forked after the helper started inherits its executor, not its
# thread, and would wait on it forever
os.register_at_fork(after_in_child=_helper.cache_clear)


def _mu5_at_zero(cutoff: float) -> float:
    """int_0^oo J_0^5 rho drho: mu_5(0)/(2 pi)^4, on _hankel_density's grid
    and J_0 row."""
    g = _default_grid(cutoff, DENSITY_PANEL)
    head = float(g.weights @ (g.j_matrix(0)[0] ** 5 * g.nodes))
    return head + bessel_product_tail(np.zeros(5, int), cutoff)


def _hankel_density(k: int, radii: np.ndarray, base_cutoff: float) -> np.ndarray:
    """mu_k/(2 pi)^{k-1} on a radius grid; per-radius effective cutoff keeps
    the last factor's asymptotics valid (r * P >= 40).  Below HANKEL_FLOOR
    mu_5 is an even quadratic in r^2 through mu_5(0) (_mu5_at_zero, as
    mu_value reports it), its other two coefficients fit to four exactly
    computed anchors; mu_4, which diverges logarithmically at 0, is left
    NaN.

    Each value is its tail, one bessel_product_tail call per bucket, plus
    its head: the samples J_0(r rho) at the bucket grid's nodes against the
    row w of J_0^k rho times the quadrature weights.  The heads, most of
    the work, run as jobs of 128 radii dealt alternately to two lanes, the
    calling thread and one helper thread (_helper), since scipy's j0 and
    the matrix-vector product release the GIL.  The calling thread
    resolves every grid, J_0 row and w before it hands out a job, because
    RadialGrid.j_matrix fills its rows in place and is not thread-safe; it
    also allocates each lane's buffer.  The helper runs _hankel_heads
    alone, no other tscircle function.  The caller submits the helper's
    lane, forms the tails, runs its own lane and adds each head into its
    tail, bit for bit the one-thread sum.  A call of one job runs inline
    and starts no thread."""
    vals = np.full(radii.shape, np.nan)
    edges = [(0.2, base_cutoff), (0.1, max(400.0, base_cutoff)),
             (0.05, max(800.0, base_cutoff)),
             (HANKEL_FLOOR, max(1600.0, base_cutoff))]
    buckets = []                             # (selector, radii, cutoff)
    prev = np.inf
    for edge, cut in edges:
        sel = (radii >= edge) & (radii < prev)
        prev = edge
        if np.any(sel):
            buckets.append((sel, radii[sel], cut))
    tiny = radii < HANKEL_FLOOR
    fit = k == 5 and bool(np.any(tiny))
    if fit:
        anchors = np.array([0.03, 0.05, 0.08, 0.12])
        buckets.append((None, anchors, 1600.0))
    jobs = []
    for _, rr, cut in buckets:
        g = _default_grid(cut, DENSITY_PANEL)
        w = (g.j_matrix(0)[0] ** k) * g.nodes * g.weights
        jobs += [(rr[lo:lo + 128], g.nodes, w)
                 for lo in range(0, rr.size, 128)]
    size = max(r.size * nodes.size for r, nodes, _ in jobs)
    helper = (_helper().submit(_hankel_heads, jobs[1::2], np.empty(size))
              if len(jobs) > 1 else None)
    tails = []
    for _, rr, cut in buckets:
        scales = np.ones((rr.size, k + 1))
        scales[:, k] = rr
        tails.append(bessel_product_tail(np.zeros(k + 1, int), cut, scales))
    heads = [None] * len(jobs)
    heads[::2] = _hankel_heads(jobs[::2], np.empty(size))
    if helper is not None:
        heads[1::2] = helper.result()
    it = iter(heads)
    for (sel, rr, _), out in zip(buckets, tails):
        for lo in range(0, rr.size, 128):
            out[lo:lo + 128] += next(it)
        if sel is not None:
            vals[sel] = out
    if fit:
        a0 = _mu5_at_zero(base_cutoff)
        x = anchors ** 2
        c12 = np.linalg.lstsq(np.stack([x, x * x], axis=1), tails[-1] - a0,
                              rcond=None)[0]
        coef = np.concatenate([[a0], c12])
        vals[tiny] = np.polynomial.polynomial.polyval(radii[tiny] ** 2, coef)
    return vals


def _mass_profile(radii, values, valid) -> float:
    """2 pi int r mu dr over the valid radii by Simpson's rule, bit for bit
    2 pi scipy.integrate.simpson(r mu, x=r): the irregular-spacing rule on
    pairs of intervals, Cartwright's correction for the last interval of an
    even count, the trapezoid for two points (masking leaves gaps)."""
    x = radii[valid]
    y = x * values[valid]
    h = np.diff(x)
    n = y.size
    if n == 2:
        return float(TAU * (0.5 * h[0] * (y[0] + y[1])))
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    out = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                               + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                               + y[2:stop + 2:2] * (2.0 - ratio)))
    if n % 2 == 0:
        a, b = h[-2], h[-1]
        out += ((2 * b ** 2 + 3 * a * b) / (6 * (b + a)) * y[-1]
                + (b ** 2 + 3.0 * a * b) / (6 * a) * y[-2]
                - b ** 3 / (6 * a * (a + b)) * y[-3])
    return float(TAU * out)


def auto_density(k: int, n_points: int = 801,
                 cutoff: float = DEFAULT_CUTOFF) -> RadialDensity:
    """Radial density profile of the k-fold arclength self-convolution at
    n_points equally spaced radii; k = 4, 5 integrate up to `cutoff`.

    k = 2, 3 are closed forms (_mu2, _mu3), whose mass is exactly the
    expected (2 pi)^k; k = 4, 5 go through the Hankel representation on the
    density grid at `cutoff`, panels of DENSITY_PANEL = 57/10.  Radii
    within EXCLUSION of a genuinely singular radius are masked out, and so
    is k = 4 below HANKEL_FLOOR, where its logarithmic blowup is
    unresolved.

    The profile covers the support [0, k]: mu_k vanishes beyond it, and the
    radial grid resolves the Hankel integrands only up to r = k (see
    RadialGrid).  Mass is 2 pi int r mu_k dr, expected (2 pi)^k; for k = 4,
    5 it is Simpson's rule on the reported profile, and k = 4 simply omits
    the masked neighborhoods, so its number undershoots slightly.
    """
    if k not in (2, 3, 4, 5):
        raise ConfigError(f"k must be 2..5, got {k}")
    if n_points < 3:
        raise ConfigError(f"n_points must be at least 3, got {n_points}")
    cutoff = check_cutoff(cutoff)
    radii = np.linspace(0.0, float(k), n_points)
    sing = SINGULAR_RADII[k]
    valid = np.ones(n_points, dtype=bool)
    for s in sing:
        valid &= np.abs(radii - s) > EXCLUSION
    if not valid.any():
        raise ConfigError(f"no radius of {n_points} points on [0, {k}] clears "
                          f"the singular radii of mu_{k}")

    if k < 4:
        values = (_mu2 if k == 2 else _mu3)(radii)
    else:
        values = TAU ** (k - 1) * _hankel_density(k, radii, cutoff)
    valid &= np.isfinite(values)
    mass = TAU ** k if k < 4 else _mass_profile(radii, values, valid)
    return RadialDensity(k, radii, values, valid, sing, mass,
                         TAU ** k, EXCLUSION)


def mu_value(k: int, r: float, cutoff: float = DEFAULT_CUTOFF) -> float:
    """Single-radius density value, k = 4, 5 integrated up to `cutoff`:
    zero beyond the support [0, k]; refused at negative radii, at genuinely
    singular radii, and for k = 4 below HANKEL_FLOOR, where the profile is
    unresolved."""
    if k not in (2, 3, 4, 5):
        raise ConfigError(f"k must be 2..5, got {k}")
    r = float(r)
    if not (r >= 0.0):
        raise PreconditionError(f"radius must be nonnegative, got {r:g}")
    if r > k:
        return 0.0
    for s in SINGULAR_RADII[k]:
        if abs(r - s) < 1e-3:
            raise SingularRadiusError(f"mu_{k} is singular at r = {s:g}")
    if k == 2:
        return float(_mu2(np.array([r]))[0])
    if k == 3:
        return float(_mu3(r))
    if k == 4 and r < HANKEL_FLOOR:
        raise SingularRadiusError(
            f"mu_4 is unresolved below r = {HANKEL_FLOOR:g}, near its "
            "logarithmic singularity at 0")
    if r == 0.0:                                    # k = 5
        return TAU ** 4 * _mu5_at_zero(cutoff)
    return float(TAU ** (k - 1) * _hankel_density(k, np.array([r]), cutoff)[0])


# ---------------------------------------------------------------------------
# the L^2 bound chain and its difference-quotient extension
# ---------------------------------------------------------------------------

def _abs2(f: CircleFunction) -> CircleFunction:
    """|f|^2 = f conj(f) as a bandwidth-2N circle function: the convolution
    of f's coefficients with those of conj(f), conj(c_{-n}), made exactly
    conjugate-symmetric, as those of a real function are, so that its field
    keeps half the angles."""
    c = np.convolve(f.coeffs, np.conj(f.coeffs[::-1]))
    return CircleFunction(0.5 * (c + np.conj(c[::-1])))


@dataclass
class BoundRatioReport:
    s: float
    lhs: float
    rhs: float
    ratio: float
    ratio0: float                 # the s = 0 ratio, which every call computes
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
    splits into per-slot differences with no remainder.  Each input is
    rotated once, so the lists share their slot objects: rot f_j in every
    term after j, f_j in every term before it.
    """
    fs = list(fs)
    rot = [rotate(f, t) for f in fs]
    return [rot[:i] + [rot[i] - fs[i]] + fs[i + 1:] for i in range(len(fs))]


def _bound_chain(*read):
    """The products of the bound chain as one multi-product expression over
    the fields of |f_0|^2..|f_4|^2 and then, nine per offset, of |rot
    f_j|^2 (j < 4) and |rot f_i - f_i|^2 (i < 5): the product of the
    |f_j|^2, then per offset Leibniz term i's, prefix_i D_i suffix_i, with
    suffix_i the product of the |f_j|^2 over j > i, formed once and shared
    by every offset, and prefix_i the running product of the offset's
    |rot f_j|^2 over j < i.  Each field is read once, just before its first
    use; products are formed in place on blocks read for them."""
    suffix = [None] * 5
    for i in (3, 2, 1, 0):
        suffix[i] = read[i + 1]()
        if i < 3:
            suffix[i] *= suffix[i + 1]
    term = read[0]()
    term *= suffix[0]
    yield term
    for k in range(5, len(read), 9):
        rot, diff = read[k:k + 4], read[k + 4:k + 9]
        prefix = None
        for i in range(5):
            term = diff[i]()
            if i < 4:
                term *= suffix[i]
            if prefix is not None:
                term *= prefix
            yield term
            if i == 0:
                prefix = rot[0]()
            elif i < 4:
                prefix *= rot[i]()


def quintilinear_bound_ratio(fs, s: float = 0.0,
                             grid: RadialGrid | None = None,
                             mu5_at_1: float | None = None,
                             t_grid=None) -> BoundRatioReport:
    """Measured ratio of ||Q(f1..f5)|| against its convolution-density bound

        ||Q||_{L^2}^2 <= mu_5(1) <Q(|f1|^2,..,|f5|^2), 1>,

    saturated when every input is constant.  For s > 0 the same bound is
    pushed through difference quotients slot by slot (five-term telescoping
    of the rotation), and the ratio compares the quotient-augmented norms.
    s must be finite and nonnegative, and for s > 0 t_grid (2^-1..2^-8 by
    default) a nonempty list of positive finite offsets.

    The bound reads mode 0 of a bandwidth-2(N1+..+N5) product, so its fields
    take angle_count(M, 0) angles, an even count, of which each real |g|^2
    field samples half; each distinct |g|^2 is extended once per call:
    |f_j|^2, and per offset |rot f_j|^2 (j < 4) and |rot f_j - f_j|^2.  The
    1 + 5T bounds of T offsets come out of one polar pass (_bound_chain),
    which reads each field's row block once and shares partial products.
    Every call also reports the s = 0 ratio as ratio0.
    """
    fs = list(fs)
    if len(fs) != 5:
        raise ConfigError("need exactly five inputs")
    if not (np.isfinite(s) and s >= 0.0):
        raise ConfigError(f"smoothness s={s} must be finite and nonnegative")
    if s > 0.0:
        ts = np.asarray(t_grid if t_grid is not None
                        else 2.0 ** -np.arange(1, 9), dtype=float)
        if ts.ndim != 1 or ts.size == 0:
            raise ConfigError(f"t_grid must be a nonempty list, got {ts}")
        if not np.all(np.isfinite(ts) & (ts > 0.0)):
            raise ConfigError(f"offsets must be positive and finite, got {ts}")
    else:
        ts = np.zeros(0)
    grid = grid or default_grid()
    if mu5_at_1 is None:
        mu5_at_1 = mu_value(5, 1.0, grid.cutoff)
    J = angle_count(2 * sum(f.N for f in fs), 0)

    def field(g):
        return extend(_abs2(g), grid, J)

    Q = quintic_convolve(fs, grid=grid)
    lhs0 = l2_norm(Q)
    distinct = {id(f): f for f in fs}       # each |f_j|^2 extended once
    base = {key: field(f) for key, f in distinct.items()}
    chain = [base[id(f)] for f in fs]
    for t in ts:
        terms = leibniz_terms(fs, t)
        chain += ([field(g) for g in terms[-1][:4]]          # rot f_j, j < 4
                  + [field(slots[i]) for i, slots in enumerate(terms)])
    # <Q(|g_i|^2), 1> = 2 pi Q_0: only mode 0 is assembled
    vals = TAU * _assemble_polar(_bound_chain, chain, 0)[:, 0].real
    bounds = [float(np.sqrt(mu5_at_1 * max(v, 0.0))) for v in vals]
    rhs0 = bounds[0]
    if s == 0.0:
        return BoundRatioReport(0.0, lhs0, rhs0, lhs0 / rhs0, lhs0 / rhs0,
                                mu5_at_1)

    per_t = {}
    sup_n = 0.0
    sup_d = 0.0
    for k, t in enumerate(ts):
        numer = l2_norm(rotate(Q, t) - Q) / t ** s
        denom = sum(bounds[5 * k + 1:5 * k + 6]) / t ** s
        per_t[float(t)] = (numer, denom, numer / denom)
        sup_n = max(sup_n, numer)
        sup_d = max(sup_d, denom)
    lhs = lhs0 + sup_n
    rhs = rhs0 + sup_d
    return BoundRatioReport(s, lhs, rhs, lhs / rhs, lhs0 / rhs0, mu5_at_1,
                            per_t)
