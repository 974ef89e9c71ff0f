"""Bessel rows by Miller recurrence, oscillatory radial quadrature, and the
six-factor product tensor.

Every integral in this package reduces to the form

    int_0^oo  prod_i J_{n_i}(s_i rho)  rho drho,

absolutely convergent once there are at least five factors (six factors
decay like rho^-3 before the measure).  Values are computed as composite
Gauss-Legendre quadrature on [0, P] plus a closed-form tail: each factor is
replaced by its large-argument form

    J_n(rho) ~ sqrt(2/(pi rho)) [cos chi_n - (a_n/rho) sin chi_n],
    chi_n = rho - n pi/2 - pi/4,    a_n = (4 n^2 - 1)/8,

the product is expanded into combination-phase exponentials, and

    I_nu(omega) = int_P^oo rho^-nu e^{i omega rho} drho

is evaluated exactly through the exponential integral (integer nu) or
Fresnel integrals (half-integer nu).  The head is one quadrature pass on a
grid sized from the highest frequency in play (see RadialGrid), so every
reported error bound is the tail model's bound.  First-order 1/rho terms
are kept, truncated at total order one; dropping them leaves
non-oscillatory mass ~ sum(a_n)/P^2 which is visible at the 1e-6 level
for P = 200.  The first-order coefficient of a factor is dropped when
a_n > s_n P, where the asymptotic series is meaningless; the rule is
factor-local so that every code path organizing the same product
truncates identically.
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
TAU = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Bessel rows
# ---------------------------------------------------------------------------

def _miller_block(nmax: int, rho: np.ndarray) -> np.ndarray:
    """J_n(rho) for all n = 0..nmax at once, by normalized downward
    (Miller) recurrence with periodic rescaling against overflow.

    Stable in every regime; accuracy ~1e-14 relative.  Cost is one vector
    operation per descending order, starting safely above both nmax and the
    turning point of the largest argument.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    K = rho.size
    out = np.zeros((nmax + 1, K))
    if K == 0:
        return out
    pos = rho > 0
    rp = np.where(pos, rho, 1.0)
    top = float(np.max(rho))
    n_start = int(max(nmax + 22, np.ceil(top + 16.0 * top ** (1.0 / 3.0) + 22)))
    if n_start % 2 == 1:
        n_start += 1

    jp = np.zeros(K)                       # J_{k+1}, scaled
    jc = np.where(pos, 1e-35, 0.0)         # J_k, scaled
    norm = 2.0 * jc.copy()                 # running J0 + 2*sum J_{2m}; n_start even
    nscale = np.zeros(K, dtype=np.int16)
    row_scale = np.zeros((nmax + 1, K), dtype=np.int16)

    for k in range(n_start, 0, -1):
        jm = (2.0 * k / rp) * jc - jp
        jp = jc
        jc = jm
        kk = k - 1
        if kk <= nmax:
            out[kk] = jc
            row_scale[kk] = nscale
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
        fix = np.power(1e-250, (nscale[None, :] - row_scale).astype(float))
    out = out * fix / norm
    out[:, ~pos] = 0.0
    if not np.all(pos):
        out[0, ~pos] = 1.0
    return out


# ---------------------------------------------------------------------------
# radial quadrature grid
# ---------------------------------------------------------------------------

class RadialGrid:
    """Composite 16-point Gauss-Legendre panels on (0, P].

    Every radial integrand here oscillates at frequency <= 10: six-factor
    Bessel products (tensor, polar route, L^6 norm) at <= 6, and the
    density integrands J_0(rho)^k J_0(r rho) at k + r <= 10, with r in the
    support [0, k].  Gauss-Legendre needs about pi nodes per wavelength;
    panels of length 2 give five at frequency 10, so the head agrees with
    the doubled grid to rounding (a test checks it).  Panels of length 4
    give 2.5 and put the mu_5 head 1.7e-9 off at r = 5.  Nodes are
    strictly interior, weights positive and summing to P exactly.
    """

    def __init__(self, cutoff: float = DEFAULT_CUTOFF, panel: float = 2.0):
        if not (0.0 < cutoff <= 1.0e5):
            raise ConfigError(f"cutoff {cutoff!r} out of range")
        if panel <= 0:
            raise ConfigError("bad panel parameters")
        self.cutoff = float(cutoff)
        self.panel = float(panel)
        npan = int(np.ceil(self.cutoff / self.panel))
        edges = np.linspace(0.0, self.cutoff, npan + 1)
        x, w = np.polynomial.legendre.leggauss(16)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        nodes.flags.writeable = False
        weights.flags.writeable = False
        self.nodes = nodes
        self.weights = weights
        self._jcache: dict = {}

    def __repr__(self):
        return (f"RadialGrid(cutoff={self.cutoff:g}, panel={self.panel:g}, "
                f"points={self.nodes.size})")

    def refine(self) -> "RadialGrid":
        """The same cutoff on half-length panels: an oracle for the head."""
        return RadialGrid(self.cutoff, 0.5 * self.panel)

    def j_matrix(self, nmax: int) -> np.ndarray:
        """Rows J_0..J_nmax on the nodes; cached, grown on demand."""
        have = self._jcache.get("nmax", -1)
        if nmax > have:
            self._jcache["mat"] = _miller_block(nmax, self.nodes)
            self._jcache["nmax"] = nmax
        return self._jcache["mat"][:nmax + 1]


@lru_cache(maxsize=8)
def _default_grid(cutoff: float = DEFAULT_CUTOFF) -> RadialGrid:
    return RadialGrid(cutoff)


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
    """I_nu(omega) = int_P^oo rho^-nu e^{i omega rho} drho, nu > 1.

    Integer nu builds up from E1; half-integer nu from Fresnel integrals.
    Vectorized over omega.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.empty(om.shape, dtype=complex)
    zero = om == 0.0
    if np.any(zero):
        if nu <= 1.0:
            raise ConfigError(
                f"tail integral diverges: omega = 0 with nu = {nu} <= 1")
        out[zero] = P ** (1.0 - nu) / (nu - 1.0)
    nz = ~zero
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
        while k < nu - 0.5:
            cur = e / (k * P ** k) + (1j * w / k) * cur
            k += 1.0
        out[nz] = cur
    if np.ndim(omega) == 0:
        return complex(out[0])
    return out


_EPS_CACHE: dict = {}


def _sign_patterns(m: int) -> np.ndarray:
    """All sign vectors in {+1,-1}^m with leading +1 (conjugate halves)."""
    if m not in _EPS_CACHE:
        eps = np.array(list(itertools.product([1.0, -1.0], repeat=m - 1)))
        _EPS_CACHE[m] = np.hstack([np.ones((eps.shape[0], 1)), eps])
    return _EPS_CACHE[m]


def first_order_coeff(n, scale=1.0, P: float = DEFAULT_CUTOFF):
    """a_n = (4n^2-1)/8, zeroed where the expansion is invalid (a_n > s P)."""
    n = np.asarray(n, dtype=float)
    a = (4.0 * n * n - 1.0) / 8.0
    return np.where(np.abs(a) <= np.asarray(scale) * P, a, 0.0)


def bessel_product_tail(orders, P: float, scales=None):
    """Closed-form int_P^oo rho prod_i J_{n_i}(s_i rho) drho (orders >= 0).

    `orders` and `scales` are each one row of m entries or a stack of rows;
    stacks broadcast row by row.  Returns a float when both are single rows,
    else one value per row.  Each distinct combination frequency eps . s is
    integrated once, and each row is reduced on its own, without matrix
    products, so a row's value does not depend on the batch it sits in.
    """
    orders = np.asarray(orders, dtype=int)
    s = (np.ones(orders.shape[-1]) if scales is None
         else np.asarray(scales, dtype=float))
    if np.any(s <= 0):
        raise PreconditionError("tail scales must be positive")
    single = orders.ndim == 1 and s.ndim == 1
    orders, s = np.atleast_2d(orders), np.atleast_2d(s)
    m = orders.shape[1]
    eps = _sign_patterns(m)

    def combine(rows):                      # (R, m) -> (R, E): rows . eps
        return (rows[:, None, :] * eps).sum(axis=-1)

    omega = combine(s)
    psi = combine(orders * (np.pi / 2.0) + np.pi / 4.0)
    A = combine(first_order_coeff(orders, s, P) / s)
    freq, inv = np.unique(omega, return_inverse=True)
    inv = inv.reshape(omega.shape)
    i2 = exp_tail_integral(freq, 0.5 * m - 1.0, P)[inv]
    i3 = exp_tail_integral(freq, 0.5 * m, P)[inv]
    acc = (np.exp(-1j * psi) * (i2 + 1j * A * i3)).real.sum(axis=-1)
    pref = (2.0 / np.pi) ** (0.5 * m) / np.sqrt(np.prod(s, axis=-1)) / 2.0 ** m
    out = pref * 2.0 * acc
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
    odd = sum(1 for n in ns if n < 0 and n % 2 != 0)
    key = np.sort(np.abs(np.asarray(ns, dtype=np.int64)))[None, :]
    return (-1.0 if odd % 2 else 1.0), key


def _six_bessel_rows(keys: np.ndarray, grid: RadialGrid,
                     chunk: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """int_0^oo rho prod_j J_{k_j}(rho) drho for each row k of `keys`
    (nonnegative orders, six per row), with its error bound.

    Each row costs one six-row product over the grid's nodes plus the
    closed-form tail; rows are processed in chunks of at most `chunk`.  The
    error is the tail model's bound, since the grid resolves the head to
    rounding.
    """
    jc = grid.j_matrix(int(keys.max()))
    w = grid.weights * grid.nodes
    P = grid.cutoff
    vals = np.empty(keys.shape[0])
    for lo in range(0, keys.shape[0], chunk):
        kk = keys[lo:lo + chunk]
        prod = jc[kk[:, 0]].copy()
        for j in range(1, 6):
            prod *= jc[kk[:, j]]
        vals[lo:lo + chunk] = prod @ w + bessel_product_tail(kk, P)
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
    """Canonical storage keys at bandwidth N: sorted |order| sextuples.

    A sextuple of magnitudes is reachable iff some signed arrangement
    satisfies the selection rule, i.e. iff signs exist with
    sum eps_i a_i = 0.  Keys are generated as (five free magnitudes <= N,
    sixth = |signed sum|), which covers every contraction the quintic
    convolution needs (output mode up to 5N) and in particular every
    admissible tuple with all six magnitudes <= N.
    """
    ms = np.array(list(itertools.combinations_with_replacement(range(N + 1), 5)),
                  dtype=np.int64)
    eps = np.array(list(itertools.product([1, -1], repeat=5)), dtype=np.int64)
    sums = np.abs(ms @ eps.T)                       # (M, 32)
    keys = np.concatenate([np.repeat(ms, eps.shape[0], axis=0),
                           sums.reshape(-1, 1)], axis=1)
    keys.sort(axis=1)
    return np.unique(keys, axis=0)


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
        order = np.lexsort(keys.T[::-1])
        self.keys = np.ascontiguousarray(keys[order], dtype=np.int16)
        self.values = np.ascontiguousarray(values[order])
        self.errors = np.ascontiguousarray(errors[order])
        self._base = 5 * self.N + 2
        self._codes = _encode(self.keys.astype(np.int64), self._base)
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
        codes = _encode(np.asarray(keys, dtype=np.int64), self._base)
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


def build_tensor(N: int, grid: RadialGrid | None = None,
                 chunk: int = 1024) -> BesselTensor:
    """Evaluate every stored symmetry class at bandwidth N, in the
    deterministic chunked order of `_six_bessel_rows`."""
    if not (0 <= N <= 48):
        raise ConfigError(f"tensor bandwidth N={N} outside [0, 48]")
    grid = grid or default_grid()
    keys = enumerate_keys(N)
    vals, errs = _six_bessel_rows(keys, grid, chunk)
    return BesselTensor(N, grid.cutoff, keys, vals, errs)
