"""Extension operator: circle Fourier data to a field on the plane.

For f(theta) = sum c_n e^{i n theta}, the extended field in polar
coordinates is

    F(rho, phi) = 2 pi sum_n (-i)^|n| c_n J_|n|(rho) e^{i n phi},

sampled on a radial quadrature grid times a uniform angular grid, with its
large-rho form beyond the cutoff (a FieldTail): a polynomial in e^{+-i rho}
and 1/rho with angle-dependent coefficients, held as its values at the
phases e^{i rho} = z_l (TAIL_PHASES), where products are pointwise.  A
field holds only its folded phase table, from which its samples and its
tail (each Bessel row replaced by the real phase samples of its two-term
asymptotics, bessel_tail) are synthesized when read.  A field expression
is a generator over per-field readers that reads the fields' values and
yields one or more products of them, formed with `*`, `+`, scalar `*` and
`.conj()`.  The polar kernel _polar_reduce evaluates one on the tails and
on cache-sized row blocks of samples, and integrates each mode m of its
products against a measure of order |m|: J_|m| unless the caller gives
another (l6_norm gives the constant 1; the sign of J_m is the caller's
phase), beyond the cutoff through the measure's two-term tail and the
closed-form tail weights (_tail_measure): this module alone holds the
polar route's two-term tail model.  Its callers hand it circle functions,
and it alone sizes their fields' angles (_polar_fields).  A real input
(c_{-n} = conj c_n) has F(rho, phi + pi) = conj F(rho, phi): its field
keeps J/2 angles, and mode 0 of a product of such fields is the real part
of the mean over them.  The decay envelope rho^{1/2} |F| (decay_check) is
a maximum over the quadrature nodes, not a sup over rho.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bessel import (RadialGrid, default_grid, exp_tail_integral,
                     first_order_coeff)
from .errors import GridSizeError, NumericalError
from .spectral import TAU, CircleFunction

_I_POW = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])

# Up to this many modes, angular analysis is a matmul against a cached
# table, and _polar_reduce sums each block radially before that analysis,
# which then runs once; above, each block's modes are its FFT.  Synthesis
# is always a table matmul.  Measured in October 2026 on the generator-only
# kernel (2 cores, one BLAS thread, full-band el_quintic, the two paths
# interleaved, medians of 9): radial-first over FFT time 0.37-0.92 from 129
# to 241 modes, faster in every run; 0.69-1.46 from 251 to 311 modes, as
# the FFT length J = 2M + 2 factors well or not; 1.38-3.0 from 321 on.
DIRECT_ANALYSIS_MODES = 241
# samples per row block of _polar_reduce: 64 KB per complex array, so the
# temporaries of a Picard expression stay in L2 cache and stay below the
# C allocator's heap-trim threshold when a call frees them (at 8192 and
# K = 704 they did not: their pages went back to the system and were
# faulted in again by the next call, about 9,000 faults per contraction op)
BLOCK_SAMPLES = 4096
# decay_check reads the envelope rho^{1/2} |F| from this radius on
DECAY_RHO_MIN = 10.0
# tails are sampled at z_l = e^{2 pi i l/13}: exact to degree 6 in e^{i rho}
TAIL_PHASES = 13


def i_pow(n):
    """Exact i^n for integer arrays (table lookup, no complex power)."""
    return _I_POW[np.mod(n, 4)]


def angle_count(M: int, M_out: int | None = None) -> int:
    """Angular sample count for a product field of bandwidth M whose modes
    -M_out..M_out are read (M_out defaults to M).  J uniform samples alias
    mode m onto m + J, so modes |m| <= M_out come out exactly when
    J > M + M_out; the count is the smallest even J that does (even, so a
    real input's field keeps J/2 angles), and never < 64.  Past
    DIRECT_ANALYSIS_MODES read modes J is every block's FFT length, the
    smallest such one with no prime factor above 5 (twice a prime ran up
    to 2.3x slower)."""
    M_out = M if M_out is None else M_out
    J = max(64, M + M_out + 2 - (M + M_out) % 2)
    # J (< 2^31) divides 30^30 exactly when its prime factors are 2, 3, 5
    while 2 * M_out + 1 > DIRECT_ANALYSIS_MODES and 30 ** 30 % J:
        J += 2
    return J


@lru_cache(maxsize=32)
def _phase_table(N: int, J: int, count: int) -> np.ndarray:
    """e^{i n phi_j} for n = -N..N and the first `count` of J uniform
    angles, (2N+1, count); the phase n j is reduced mod J in integers."""
    n = np.arange(-N, N + 1)
    k = np.mod(np.outer(n, np.arange(count)), J)
    table = np.exp((1j * TAU / J) * k)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _analysis_table(M: int, J: int) -> np.ndarray:
    """e^{-i m phi_j} / J for the J angles and m = -M..M, (J, 2M+1)."""
    table = np.ascontiguousarray(np.conj(_phase_table(M, J, J)).T) / J
    table.flags.writeable = False
    return table


def _analyze(values: np.ndarray, M: int) -> np.ndarray:
    """Modes -M..M along the last axis of J uniform samples."""
    J = values.shape[-1]
    if 2 * M + 1 <= DIRECT_ANALYSIS_MODES:
        return values @ _analysis_table(M, J)
    spec = np.fft.fft(values, axis=-1) / J
    return spec[..., np.mod(np.arange(-M, M + 1), J)]


def _synthesize(rows: np.ndarray, table: np.ndarray,
                unfold: bool) -> np.ndarray:
    """Real rows (m, N+1), one per mode pair +-n, against a folded phase
    table (the real view of an (N+1) x J' complex matrix): (m, J') complex
    values, with the conjugates of the J' = J/2 angles appended (unfold) to
    give all J."""
    block = (rows @ table).view(np.complex128)
    if not unfold:
        return block
    return np.concatenate([block, np.conj(block)], axis=1)


class FieldTail:
    """The large-rho form of a field expression: its phase samples `poly`
    S[j, p, l] over J angles (see field_tail_rep), the bandwidth `N`, and
    `symmetric`: S(phi + pi) = conj S(phi), as every input is real (see
    ExtensionField) and every scalar too.  `*` (by a tail or a scalar),
    `+` and `conj()` (|z_l| = 1) act on the samples pointwise; N adds
    under `*`, maxes under `+`."""

    def __init__(self, poly: np.ndarray, N: int, symmetric: bool):
        self.poly = poly
        self.N = int(N)
        self.symmetric = bool(symmetric)

    def __mul__(self, other):
        if not isinstance(other, FieldTail):
            return FieldTail(self.poly * other, self.N,
                             self.symmetric and np.isreal(other))
        return FieldTail(hpoly_mul(self.poly, other.poly), self.N + other.N,
                         self.symmetric and other.symmetric)

    __rmul__ = __mul__

    def __add__(self, other: "FieldTail") -> "FieldTail":
        return FieldTail(self.poly + other.poly, max(self.N, other.N),
                         self.symmetric and other.symmetric)

    def conj(self) -> "FieldTail":
        """The conjugate; for the extension of f, the tail of that of f~."""
        return FieldTail(np.conj(self.poly), self.N, self.symmetric)


class ExtensionField:
    """The extension of one circle function, held as what defines it: the
    folded phase table `table`, the real view of the (N+1) x J' complex
    matrix whose row n is the angular factor shared by the modes +-n (J' =
    J/2 when `symmetric`, J = n_angles even and f real: the other angles
    are the conjugates of these; J' = J otherwise), the bandwidth N, the
    grid and F(0).  Neither samples nor the large-rho form are stored:
    rows() synthesizes row blocks, and `tail` is synthesized from the same
    table on each read; fields combine only in _polar_reduce."""

    def __init__(self, grid: RadialGrid, table: np.ndarray, N: int,
                 symmetric: bool, n_angles: int, origin_value: complex):
        self.grid = grid
        self.table = table
        self.N = int(N)
        self.symmetric = bool(symmetric)
        self.n_angles = int(n_angles)
        self.origin_value = origin_value

    def __repr__(self):
        return (f"ExtensionField(K={self.grid.nodes.size}, J={self.n_angles}, "
                f"N={self.N}, cutoff={self.grid.cutoff:g})")

    @property
    def tail(self) -> FieldTail:
        """The large-rho form, a new FieldTail built from the table."""
        return FieldTail(field_tail_rep(self.table, self.symmetric,
                                        self.grid.cutoff),
                         self.N, self.symmetric)

    def rows(self, lo: int, hi: int, half: bool = False) -> np.ndarray:
        """Samples of nodes lo..hi-1 on the angles j 2 pi / J, j < J, or on
        the table's J' (half), as one real matmul against the Bessel rows.
        A lone row would take numpy's matrix-vector product, which sums in
        another order than the matrix product: it borrows a neighbour, so
        no sample depends on the height of the block it comes in."""
        jm = self.grid.j_matrix(self.N)                        # (N+1, K)
        a = min(lo, max(hi - 2, 0))
        b = max(hi, min(a + 2, jm.shape[1]))
        return _synthesize(jm[:, a:b].T, self.table,
                           self.symmetric and not half)[lo - a:hi - a]


def extend(f: CircleFunction, grid: RadialGrid | None = None,
           n_angles: int | None = None) -> ExtensionField:
    """The extension of f on a polar grid, held as its folded phase table
    (its tail is built from that table when read); the default angle count
    resolves a five-fold product of such fields."""
    grid = grid or default_grid()
    J = n_angles or angle_count(5 * f.N)
    n = np.arange(-f.N, f.N + 1)
    # (-i)^n J_n = (-i)^|n| J_|n|: modes n and -n share the real row J_|n|,
    # so folding them gives one real table for the row-block matmuls
    factor = TAU * i_pow(-np.abs(n)) * f.coeffs                # (2N+1,)
    symmetric = (J % 2 == 0
                 and np.array_equal(f.coeffs, np.conj(f.coeffs[::-1])))
    C = factor[:, None] * _phase_table(f.N, J, J // 2 if symmetric else J)
    C[f.N + 1:] += C[f.N - 1::-1]
    table = C[f.N:].view(np.float64).copy()
    return ExtensionField(grid, table, f.N, symmetric, J, TAU * f.coeff(0))


@lru_cache(maxsize=64)
def _bandwidth(expr, Ns: tuple) -> int:
    """The bandwidth of the products that the field expression expr yields
    over inputs of bandwidths Ns: their largest N in one pass over tails
    with no phase samples, so FieldTail's `*` and `+` stay its one rule."""
    empty = np.empty((0, 2, TAIL_PHASES))
    return max(S.N for S in expr(*(lambda N=N: FieldTail(empty, N, True)
                                    for N in Ns)))


def _polar_fields(expr, fs, M: int | None, grid: RadialGrid | None = None):
    """The fields of the circle functions fs on which _polar_reduce reads
    modes -M..M of expr's products unaliased, and that M, clamped to their
    bandwidth (all modes when None): each distinct input, by identity,
    extended once on angle_count(bandwidth, M) angles."""
    N = _bandwidth(expr, tuple(f.N for f in fs))
    M = N if M is None else min(int(M), N)
    J = angle_count(N, M)
    distinct = {id(f): f for f in fs}
    fields = {key: extend(f, grid, J) for key, f in distinct.items()}
    return [fields[id(f)] for f in fs], M


def _polar_reduce(expr, fields, M: int, rows: np.ndarray | None = None,
                  tail: np.ndarray | None = None) -> np.ndarray:
    """The radial integrals of modes m = -M..M of each product that the
    field expression expr yields over the fields, (products, 2M+1), against
    a measure of order |m| given by its samples on the nodes, `rows` (M+1,
    K), and its two-term phase samples beyond the cutoff, `tail` (M+1, 2,
    TAIL_PHASES), J_0..J_M by default: sum_k rows[|m|, k] rho_k w_k
    P_m(rho_k), P_m the product's m-th angular mode, plus the closed-form
    integral of its tail's m-th mode times tail[|m|] (_tail_measure).

    An expression is a generator function: it gets one reader per field, a
    function of no arguments that returns the field's current value, and
    yields its products, each reduced as soon as it is formed, so the
    products of one pass share their reads and partial products.  It runs
    once on the tails (each built from its field's table when read), giving
    the bandwidth N, then on row blocks of BLOCK_SAMPLES samples, each
    field's block synthesized from its table when the expression reads it;
    the readers of each pass are made once, those of the blocks read the
    block the loop is at.  Up to DIRECT_ANALYSIS_MODES modes each product's
    block is summed radially first, one real matmul into that product's
    (M+1, J') accumulator Z, whose row |m| is then read at mode m once,
    after the last block, against the analysis table of the J' angles read
    (at mode 0, with inputs and tails symmetric, J/2 of them, real part
    taken); above that each block's modes are its FFT, summed radially at
    once.  The fields must share grid and angles, and J > N + M, or the
    modes alias."""
    grid = fields[0].grid
    J = fields[0].n_angles
    K = grid.nodes.size
    for F in fields:
        if (F.n_angles, F.grid.cutoff, F.grid.nodes.size) != (J, grid.cutoff, K):
            raise GridSizeError(f"cannot combine {fields[0]!r} with {F!r}")
    rows = grid.j_matrix(M) if rows is None else rows
    weights = (_j_tail_measure(M, grid.cutoff) if tail is None
               else _tail_measure(tail, grid.cutoff))
    order = np.abs(np.arange(-M, M + 1))
    ends, N, symmetric = [], 0, True
    for S in expr(*(lambda F=F: F.tail for F in fields)):
        modes = _analyze(np.moveaxis(S.poly, 0, -1), M)    # (2, TAIL_PHASES, 2M+1)
        ends.append(np.einsum("mpl,plm->m", weights[order], modes))
        N, symmetric = max(N, S.N), symmetric and S.symmetric
    if J <= N + M:
        raise GridSizeError(f"J={J} aliases modes +-{M} of a bandwidth-"
                            f"{N} product (needs J > {N + M})")
    half = M == 0 and symmetric and all(F.symmetric for F in fields)
    width = J // 2 if half else J
    step = max(1, BLOCK_SAMPLES // width)
    radial_first = 2 * M + 1 <= DIRECT_ANALYSIS_MODES
    measure = grid.weights * grid.nodes
    quad = np.zeros((len(ends), 2 * M + 1), dtype=np.complex128)
    Z = np.zeros((len(ends), M + 1, width if radial_first else 0),
                 dtype=np.complex128)
    # each product's accumulator as a view added to in place (Z[p] += x
    # would also copy the sum back)
    acc = list(Z.view(np.float64)) if radial_first else list(quad)
    readers = [lambda F=F: F.rows(lo, hi, half) for F in fields]
    for lo in range(0, K, step):
        hi = min(lo + step, K)
        head = rows[:, lo:hi] * measure[lo:hi]
        for p, block in enumerate(expr(*readers)):
            if radial_first:
                acc[p] += head @ block.view(np.float64)
            else:
                acc[p] += np.einsum("km,mk->m", _analyze(block, M),
                                    head[order])
    if radial_first:
        for p in range(len(ends)):
            quad[p] = np.einsum("mj,jm->m", Z[p][order],
                                _analysis_table(M, width))
    if half:
        quad = quad.real + 0j
    return quad + np.array(ends).reshape(quad.shape)


# ---------------------------------------------------------------------------
# tail representations: (e^{+-i rho}, 1/rho) polynomials at phases z_l
# ---------------------------------------------------------------------------

def field_tail_rep(table: np.ndarray, symmetric: bool, P: float) -> np.ndarray:
    """Large-rho form of the field with the folded phase table `table`:
    the synthesis of ExtensionField.rows() with each mode pair's Bessel row
    replaced by the phase samples of its bessel_tail, as S[j, p, l] over
    the J angles (the second half conjugates of the first when symmetric),
    at e^{i rho} = z_l:

        F(rho,phi_j) ~ sqrt(2/pi) rho^{-1/2} sum_p S[j,p,l] rho^{-p}."""
    S = _synthesize(_tail_rows(table.shape[0] - 1, P).T, table, symmetric)
    return np.ascontiguousarray(S.T).reshape(-1, 2, TAIL_PHASES)


@lru_cache(maxsize=32)
def _tail_rows(N: int, P: float) -> np.ndarray:
    """bessel_tail of the orders 0..N as rows, (N+1, 2 TAIL_PHASES)."""
    rows = bessel_tail(np.arange(N + 1), P).reshape(N + 1, -1)
    rows.flags.writeable = False
    return rows


def bessel_tail(n, P: float) -> np.ndarray:
    """The two-term large-rho form of J_|n| (DLMF 10.17.3) as its real
    (..., 2, TAIL_PHASES) phase samples, J_n(rho) ~ sqrt(2/pi) rho^{-1/2}
    (S[0, l] + S[1, l]/rho) at e^{i rho} = z_l: S[0, l] = cos(theta_l -
    chi_n) and S[1, l] = -a_n sin(theta_l - chi_n), theta_l = 2 pi l/13,
    chi_n = |n| pi/2 + pi/4 (taken mod 2 pi as (|n| mod 4) pi/2 + pi/4),
    a_n = first_order_coeff (zeroed where it exceeds P, the factor-local
    validity rule shared with the Bessel-product tails)."""
    n = np.abs(np.asarray(n))
    x = ((TAU / TAIL_PHASES) * np.arange(TAIL_PHASES)
         - (np.mod(n, 4) * (np.pi / 2.0) + np.pi / 4.0)[..., None])
    a = first_order_coeff(n, P)[..., None]
    return np.stack([np.cos(x), -a * np.sin(x)], axis=-2)


def hpoly_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Multiply two (..., 2, TAIL_PHASES) phase-sampled tails pointwise, the
    rho^-1 axis a dual part: (a0 b0, a0 b1 + a1 b0), rho^-2 truncated."""
    C = A[..., :1, :] * B
    C[..., 1, :] += A[..., 1, :] * B[..., 0, :]
    return C


@lru_cache(maxsize=16)
def _tail_weights(P: float) -> np.ndarray:
    """(2, TAIL_PHASES) weights W of the integral beyond P of rho times a
    six-factor tail, sum_{p,l} S[p, l] W[p, l] from its phase samples S:
    the tail is (2/pi)^3 rho^-3 sum_k T[k, p] e^{ik rho} rho^-p, k = -6..6,
    so the integral is (2/pi)^3 sum_k T[k, 0] I_2(k) + T[k, 1] I_3(k), the
    inverse phase transform folded into (2/pi)^3 I_{2+p}(k)."""
    i2, i3 = exp_tail_integral(np.arange(-6, 7), 2.0, P)
    W = ((2.0 / np.pi) ** 3 / TAIL_PHASES * np.stack([i2, i3])
         @ _phase_table(6, TAIL_PHASES, TAIL_PHASES)[::-1])     # z_l^{-k}
    W.flags.writeable = False
    return W


def _tail_measure(tail: np.ndarray, P: float) -> np.ndarray:
    """Weights on the phase samples S of a tail of its integral beyond P
    times a measure of phase samples A = `tail` (..., 2, TAIL_PHASES), the
    dual product on W = _tail_weights(P): S0 (W0 A0 + W1 A1) + S1 W1 A0."""
    W = _tail_weights(P)
    return np.stack([W[0] * tail[..., 0, :] + W[1] * tail[..., 1, :],
                     W[1] * tail[..., 0, :]], axis=-2)


@lru_cache(maxsize=64)
def _j_tail_measure(M: int, P: float) -> np.ndarray:
    """The kernel's default: _tail_measure of the tails of J_0..J_M."""
    weights = _tail_measure(_tail_rows(M, P).reshape(M + 1, 2, -1), P)
    weights.flags.writeable = False
    return weights


def _sixth_power(read):
    """|F|^6 as the field expression F^3 conj(F^3)."""
    F = read()
    F3 = F * F * F
    yield F3 * F3.conj()


def l6_norm(field: ExtensionField) -> float:
    """|| F ||_{L^6(R^2)}: |F|^6 = F^3 conj(F^3) integrated against the
    constant measure 1, a row of ones on the nodes and the dual unit (1 at
    every phase, no rho^-1 part) beyond the cutoff."""
    unit = np.repeat([[[1.0], [0.0]]], TAIL_PHASES, axis=-1)
    [[mass]] = _polar_reduce(_sixth_power, [field], 0,
                             np.ones((1, field.grid.nodes.size)), unit)
    total = TAU * float(mass.real)
    if total < 0:
        raise NumericalError(f"negative sixth-power mass {total:.3e}")
    return total ** (1.0 / 6.0)


class DecayReport:
    """max rho_k^{1/2} |F(rho_k, phi_j)| over the grid's nodes rho_k >=
    rho_min and the field's angles, and where it is attained: a maximum
    over samples at about 3.5 nodes per wavelength, not the sup over rho,
    so it moves with the quadrature rule."""

    def __init__(self, sup: float, at_rho: float, rho_min: float):
        self.sup = sup
        self.at_rho = at_rho
        self.rho_min = rho_min
        self.envelope = sup / TAU          # comparable to sqrt(2/pi) per unit c_0

    def __repr__(self):
        return (f"DecayReport(sup={self.sup:.6g} at rho={self.at_rho:.3f}, "
                f"envelope={self.envelope:.6g})")


def decay_check(field: ExtensionField) -> DecayReport:
    """The decay envelope of the field, its maximum over the quadrature
    nodes from DECAY_RHO_MIN on and the field's angles."""
    nodes = field.grid.nodes
    sel = nodes >= DECAY_RHO_MIN
    if not np.any(sel):
        raise GridSizeError(f"no grid nodes beyond rho_min={DECAY_RHO_MIN}")
    # |conj F| = |F|: the table's angles suffice; rows from the first node
    # beyond DECAY_RHO_MIN on, in the kernel's block height
    first, K = int(np.argmax(sel)), nodes.size
    step = max(1, BLOCK_SAMPLES // (field.table.shape[1] // 2))
    peak = np.concatenate([
        np.abs(field.rows(lo, min(lo + step, K), half=True)).max(axis=1)
        for lo in range(first, K, step)])
    prof = np.sqrt(nodes[sel]) * peak[sel[first:]]
    i = int(np.argmax(prof))
    return DecayReport(float(prof[i]), float(nodes[sel][i]), DECAY_RHO_MIN)
