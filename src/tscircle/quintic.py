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
product (sums of products included) as a field expression, a generator over
readers of its inputs' extensions that yields it, and assembles it once,
for the modes it needs, through the blocked kernel extension._polar_reduce;
the bound chain's products, which share most of their factors, are yielded
by one expression (_bound_chain) assembled in one pass.  The angles are
sized for those modes by extension._polar_fields, the one home of that
rule, from the expression and its input circle functions: J samples of a
bandwidth-M product give its modes |m| <= M_out exactly when J > M + M_out,
and angle_count takes the smallest even such J (64 at least; past the
kernel's FFT crossover, the smallest with no prime factor above 5), so a
caller that reads mode 0 only samples at M + 2 angles, not 2M + 2, and
takes that mode as an angular mean.  Both routes carry the same two-term
radial tail model, coded twice (bessel.bessel_product_tail for the tensor,
extension for the polar route, whose kernel integrates J_|m|'s tail too),
so their agreement tests bookkeeping, not a shared truncation.

The controlling densities are the radial profiles of the k-fold
self-convolutions of arclength measure,

    mu_k(r) = (2 pi)^{k-1} int_0^oo J_0(rho)^k J_0(r rho) rho drho,

that is (2 pi)^{k-1} p_k(r)/r, p_k the density of the distance after k unit
steps of a uniform planar random walk: mu_2 and mu_3 in closed form, mu_4
and mu_5 through that Hankel integral, a closed-form tail past the cutoff
plus a head on the density grid.  The heads of a profile, the J_0(r rho)
samples of 128 radii at a time against one weight row, are most of its
cost; they are dealt alternately to the calling thread and one helper
thread, which computes nothing but those samples and their products and
is started and joined inside the call, so each value is bit for bit the
one-thread sum and no thread outlives the call (_hankel_density).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .bessel import (DEFAULT_CUTOFF, DENSITY_PANEL, BesselTensor, RadialGrid,
                     _default_grid, bessel_product_tail, check_cutoff,
                     default_grid, parity_sign)
from .errors import ConfigError, PreconditionError, SingularRadiusError
from .extension import _polar_fields, _polar_reduce, i_pow
from .spectral import TAU, CircleFunction, l2_norm, rotate

SINGULAR_RADII = {2: (0.0, 2.0), 3: (1.0, 3.0), 4: (0.0, 2.0, 4.0), 5: ()}
EXCLUSION = 0.05          # half-width of the mask around each singular radius
HANKEL_FLOOR = 0.025      # smallest radius the Hankel buckets integrate


# ---------------------------------------------------------------------------
# the convolution, two routes
# ---------------------------------------------------------------------------

def _product(*read):
    """The product of the inputs: the field of Q(f1, .., f5)."""
    yield read[0]() * read[1]() * read[2]() * read[3]() * read[4]()


def _self_product(read):
    """F^3 conj(F^2): the field of Q(f, f, f, f~, f~) from that of f."""
    F = read()
    FF = F * F
    yield FF * F * FF.conj()


def _assemble_polar(expr, fields, M: int) -> np.ndarray:
    """Modes -M..M of Q for each product that the field expression expr
    yields over the fields of its five inputs, (products, 2M+1); the
    fields' J angles must exceed the expression's bandwidth plus M, or
    those modes alias."""
    if M < 0:
        raise ConfigError(f"mode count M={M} is negative")
    return (i_pow(np.abs(np.arange(-M, M + 1))) / TAU
            * _polar_reduce(expr, fields, M))


def _polar_quintic(expr, fs, M: int | None,
                   grid: RadialGrid | None) -> CircleFunction:
    """Modes -M..M (all by default) of Q for the one product that the field
    expression expr yields over the circle functions fs, on the fields and
    M that extension._polar_fields picks."""
    return CircleFunction(
        _assemble_polar(expr, *_polar_fields(expr, fs, M, grid))[0])


def _convolve_tensor(fs, tensor: BesselTensor,
                     M: int | None) -> CircleFunction:
    """The tensor route, modes -M..M (M clamped to N1 + .. + N5, all of
    them when M is None).  A row n2..n5 of the inner sum enters
    a term only through its class (the sorted |n2|..|n5|), its sum s and
    its parity sign, which is folded into the row's coefficient product.
    The rows that reach a read mode are sorted stably by s, and so are the
    distinct (class, s) pairs, so pass n1 reads a slice of each.  One
    lookup resolves the key (|n1|, class, |n1 + s|) of every n1 >= 0 and
    pair with |n1 + s| <= M; (-n1, class, -s) has the same key, and the
    parity signs of n1 and n1 + s are folded into the values.  Each read bin
    sums the per-tuple terms in their order, bit for bit.

    The per-row bookkeeping is compact: orders and magnitudes in int8
    (int16 from bandwidth 64 on), s in int16, the (s, class) code in base
    max(N2..N5) + 1, pair indices in int32, each freed after its last use;
    each n1 forms its bins from the run lengths of its s slice.  The
    complex products stay on full-length arrays: the coefficient chain cc
    over every kept row, and each n1's weights w over its whole slice.
    numpy evaluates a * tmp, tmp a temporary of 256 KiB or more, as
    tmp *= a, operands swapped, and its SIMD complex multiply is not
    bitwise commutative (seen with AVX-512), so chunking either product
    would change which operand comes first and move last bits;
    the per-tuple reference makes the same full-length choices."""
    Ns = [f.N for f in fs]
    M = sum(Ns) if M is None else min(int(M), sum(Ns))
    if M < 0:
        raise ConfigError(f"mode count M={M} is negative")
    if max(Ns) > tensor.N:
        raise PreconditionError(
            f"input bandwidth {max(Ns)} exceeds tensor bandwidth {tensor.N}")
    N1, reach = Ns[0], M + Ns[0]
    base = max(Ns[1:]) + 1
    # per row: orders in int8 (n + N <= 126 for N < 64), their sum in int16
    small = np.int8 if base <= 64 else np.int16
    rows = [g.ravel() for g in np.meshgrid(
        *(np.arange(-N, N + 1, dtype=small) for N in Ns[1:]),
        indexing="ij")]                                           # n2..n5
    s2345 = rows[0].astype(np.int16)
    for n in rows[1:]:
        s2345 += n
    order = np.argsort(s2345, kind="stable")
    order = order[np.abs(s2345[order]) <= reach]
    rows = [n[order] for n in rows]
    s2345 = s2345[order]
    del order
    mag = [np.abs(n) for n in rows]
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):   # sorting network
        mag[i], mag[j] = np.minimum(mag[i], mag[j]), np.maximum(mag[i], mag[j])
    edges = np.searchsorted(s2345, np.arange(-reach, reach + 2,
                                             dtype=np.int16))
    wide = (2 * reach + 1) * base ** 4 >= 2 ** 31
    code = (s2345 + reach).astype(np.int64 if wide else np.int32)
    del s2345
    for x in mag:
        code *= base
        code += x
    del mag
    uniq, pair = np.unique(code, return_inverse=True)
    del code
    pair = pair.astype(np.int32)
    sp, cls = np.divmod(uniq, base ** 4)
    sp -= reach                                           # each pair's s

    n1 = np.arange(N1 + 1)
    plo = np.searchsorted(sp, -M - n1, side="left")
    count = np.searchsorted(sp, M - n1, side="right") - plo
    i1 = np.repeat(n1, count)                    # the (n1 >= 0, pair) read
    ip = np.arange(i1.size) + np.repeat(plo - np.cumsum(count) + count, count)
    keys = np.empty((i1.size, 6), dtype=np.int64)
    keys[:, 0], keys[:, 5] = i1, np.abs(i1 + sp[ip])
    for j in range(4):
        keys[:, j + 1] = cls[ip] // base ** (3 - j) % base
    for i in (0, 1, 2, 3, 4, 3, 2, 1, 0):  # |n1| up the sorted class, |m| down
        keys[:, i], keys[:, i + 1] = (np.minimum(keys[:, i], keys[:, i + 1]),
                                      np.maximum(keys[:, i], keys[:, i + 1]))
    half = np.zeros((N1 + 1, uniq.size))
    half[i1, ip] = tensor.lookup_sorted_abs(keys)
    del i1, ip, keys
    mirror = np.searchsorted(uniq, uniq - 2 * sp * base ** 4)   # (class, -s)
    n1 = np.arange(-N1, N1 + 1)
    value = np.concatenate([half[:0:-1, mirror], half])   # -n1 reads |n1|
    del half
    value *= parity_sign(n1[:, None] + sp) * parity_sign(n1)[:, None]
    cc = 1.0                       # J_n's parity sign rides on c(n), exactly
    for n, f in zip(rows, fs[1:]):
        cc = cc * (parity_sign(np.arange(-f.N, f.N + 1)) * f.coeffs)[n + f.N]
    del rows

    # pass n1 reads the runs k = s + M + N1 of s = -M - n1 .. M - n1, rows
    # edges[k]:edges[k + 1], and writes their modes n1 + s into out[i:i + L];
    # with each weight's real and imaginary parts interleaved (bins 2k,
    # 2k + 1) one bincount sums both, each bin in row order
    L = 2 * reach + 1
    runs = np.diff(edges)
    both = 2 * np.arange(L)[:, None] + (0, 1)
    out = np.zeros(2 * (M + 2 * N1) + 1, dtype=np.complex128)
    for i, c1 in enumerate(fs[0].coeffs):
        k = slice(2 * N1 - i, L - i)
        lo, hi = edges[k.start], edges[k.stop]
        w = (c1 * cc[lo:hi]) * value[i][pair[lo:hi]]
        bins = np.repeat(both[k], runs[k], axis=0).ravel()
        out[i:i + L] += np.bincount(bins, weights=w.view(np.float64),
                                    minlength=2 * L).view(np.complex128)
        del w, bins
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
    product field on the angles extension._polar_fields picks for them.
    """
    fs = list(fs)
    if len(fs) != 5:
        raise ConfigError(f"need exactly five inputs, got {len(fs)}")
    if method == "auto":
        method = "tensor" if tensor is not None else "polar"
    if method == "tensor":
        if tensor is None:
            raise ConfigError("method='tensor' requires a tensor")
        return _convolve_tensor(fs, tensor, M)
    if method != "polar":
        raise ConfigError(f"unknown method {method!r}")
    return _polar_quintic(_product, fs, M, grid)


def el_quintic(f: CircleFunction, grid: RadialGrid | None = None,
               M: int | None = None) -> CircleFunction:
    """Q(f, f, f, f~, f~): the combination driven by the sextic functional,
    modes -M..M of it when M is given (all 5N of them by default); the field
    of f~ is the conjugate of the field of f, so one extension serves all
    five slots."""
    return _polar_quintic(_self_product, [f], M, grid)


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
    row w of J_0^k rho times the quadrature weights.  Every bucket, the
    anchors' too, integrates up to at least base_cutoff.  The heads, most
    of the work, run as jobs of 128 radii dealt alternately to two lanes,
    the calling thread and one helper thread, since scipy's j0 and the
    matrix-vector product release the GIL.  The calling thread resolves
    every grid, J_0 row and w before it hands out a job, because
    RadialGrid.j_matrix fills its rows in place and is not thread-safe; it
    also allocates each lane's buffer.  The helper runs _hankel_heads
    alone, no other tscircle function, and lives for this call only: the
    caller starts it by submitting the helper's lane, forms the tails, runs
    its own lane, joins it, and adds each head into its tail, bit for bit
    the one-thread sum.  A call of one job submits nothing and starts no
    thread."""
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
        buckets.append((None, anchors, max(1600.0, base_cutoff)))
    jobs = []
    for _, rr, cut in buckets:
        g = _default_grid(cut, DENSITY_PANEL)
        w = (g.j_matrix(0)[0] ** k) * g.nodes * g.weights
        jobs += [(rr[lo:lo + 128], g.nodes, w)
                 for lo in range(0, rr.size, 128)]
    size = max(r.size * nodes.size for r, nodes, _ in jobs)
    # the executor starts its thread on the first submit and joins it on
    # leaving the block
    with ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="tscircle-hankel") as pool:
        helper = (pool.submit(_hankel_heads, jobs[1::2], np.empty(size))
                  if len(jobs) > 1 else None)
        tails = []
        for _, rr, cut in buckets:
            scales = np.ones((rr.size, k + 1))
            scales[:, k] = rr
            tails.append(bessel_product_tail(np.zeros(k + 1, int), cut,
                                             scales))
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

    The bound reads mode 0 of a bandwidth-2(N1+..+N5) product, on the even
    angle count extension._polar_fields picks for it, of which each real
    |g|^2 field samples half; each distinct |g|^2 is extended once per call:
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
    Q = quintic_convolve(fs, grid=grid)
    lhs0 = l2_norm(Q)
    base = {id(f): _abs2(f) for f in fs}    # each |f_j|^2 formed once
    chain = [base[id(f)] for f in fs]
    for t in ts:
        terms = leibniz_terms(fs, t)
        chain += ([_abs2(g) for g in terms[-1][:4]]          # rot f_j, j < 4
                  + [_abs2(slots[i]) for i, slots in enumerate(terms)])
    # <Q(|g_i|^2), 1> = 2 pi Q_0: only mode 0 is assembled
    fields, M = _polar_fields(_bound_chain, chain, 0, grid)
    vals = TAU * _assemble_polar(_bound_chain, fields, M)[:, 0].real
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
