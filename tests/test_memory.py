"""Peak traced memory of the polar route's heaviest calls.

Each call runs once to warm the caches (grids, Bessel rows, phase and
radial tables), then again under tracemalloc.  The bounds are 10% above
the warm peaks of the same calls before the radial-first kernel (1.99,
2.58 and 3.44 MB; el_quintic's first call peaked at 4.19 MB), so a change
that brings back a per-call K x J array or a per-call table shows here
before it shows in a process's resident size.

At a large cutoff the K-long tables dominate instead, and a fresh
process's peak resident size bounds them: a full-band el_quintic of the
n = 64 Dirichlet kernel at P = 12,800 (K = 43,136) peaked at 614 MB with
a signed (2M+1)-row table of weighted Bessel rows on the grid, and at 297
MB reading the rows J_0..J_M themselves by order |m|.  The peak is the
process's VmHWM, not its ru_maxrss: on Linux a process's ru_maxrss also
counts the resident size of the process it was started from, at the
fork, so under pytest it reads the test runner's size.

A field holds its folded phase table only and builds its tail when the
tail is read: 80 |g|^2 fields of N = 8 inputs at J = 82, about what the
bound chain holds at eight offsets, took 3.68 MB while each stored its
82 x 2 x 13 complex tail samples, and take 0.92 MB with tables alone.

The Bessel rows themselves are grown in place: a call that asks for more
rows allocates their new height once and fills it block by block, so its
peak stays near the rows it keeps (it was twice that while each 64-order
block was appended by a copy).

The tensor route's row bookkeeping is held in compact integers (orders
and magnitudes in int8, sums in int16, pair indices in int32) and each
array is freed after its last use: the N = 8 contraction that `functional
--tensor` runs, modes |m| <= 8 of Q(f, f, f, f~, f~), peaked at 14.1 MB
warm with int64 bookkeeping and a stored bin array, and at 3.89 MB with
compact integers and per-row bins over the rows sorted by their sum.  It
now sums each (sum, class) pair's rows once and bins pairs, not rows, and
peaks at 3.29 MB.  Its bound stays 10% above 3.89 MB.

A mu_4 or mu_5 profile is a radial convolution, 100 radii at a time, each
block's quadrature pieces the rows of one array, on the calling thread
alone: auto_density(5) at 801 points peaks at 3.40 MB warm.  Its bound
stays 10% above 3.79 MB, the peak of the Hankel-transform route that the
convolution replaced, which ran its heads on two threads.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import tscircle
from tscircle import (RadialGrid, auto_density, conjugate_reflect,
                      el_quintic, extend, mu_value, picard_iterate,
                      quintic_convolve, quintilinear_bound_ratio,
                      random_function)
from tscircle.quintic import _abs2

MB = 1e6

FULL_BAND_AT_LARGE_CUTOFF = """
import numpy as np
from tscircle import CircleFunction, RadialGrid, el_quintic
Q = el_quintic(CircleFunction(np.ones(129)), RadialGrid(12800.0))
assert Q.N == 320 and np.all(np.isfinite(Q.coeffs))
print(next(line for line in open("/proc/self/status")
           if line.startswith("VmHWM:")))
"""


def traced_peak(call):
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_picard_run_memory(extremizer16):
    peak = traced_peak(lambda: picard_iterate(extremizer16.f, 0.05))
    assert peak <= 1.1 * 1.99 * MB


def test_density_memory():
    peak = traced_peak(lambda: auto_density(5))
    assert peak <= 1.1 * 3.79 * MB


def test_bound_chain_memory():
    fs = [random_function(8, seed=10 + i, decay=0.6) for i in range(5)]
    mu5 = mu_value(5, 1.0)
    peak = traced_peak(lambda: quintilinear_bound_ratio(fs, 0.5,
                                                        mu5_at_1=mu5))
    assert peak <= 1.1 * 2.58 * MB


def test_abs2_fields_hold_only_their_tables():
    gs = [_abs2(random_function(8, seed=i, decay=0.6)) for i in range(80)]
    extend(gs[0], n_angles=82)                # warm the phase table
    tracemalloc.start()
    try:
        fields = [extend(g, n_angles=82) for g in gs]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(fields) == 80
    assert size <= 1.1 * 0.92 * MB


def test_el_quintic_memory(extremizer16):
    f = extremizer16.f
    peak = traced_peak(lambda: el_quintic(f))
    assert peak <= 1.1 * 3.44 * MB


def test_tensor_route_memory(tensor8):
    f = random_function(8, seed=5)
    fr = conjugate_reflect(f)
    peak = traced_peak(lambda: quintic_convolve([f, f, f, fr, fr],
                                                tensor=tensor8, M=8))
    assert peak <= 1.1 * 3.89 * MB


def test_full_band_el_quintic_at_large_cutoff_resident_size():
    src = str(Path(tscircle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", FULL_BAND_AT_LARGE_CUTOFF],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True,
                         timeout=120)
    peak_kib = int(out.stdout.split()[1])           # "VmHWM: <n> kB"
    assert peak_kib <= 400 * 1024


def test_j_matrix_growth_memory():
    # J_0..J_320 on the P = 3200 grid keep 27.7 MB; appending each block
    # by a copy peaked at 2.0x that
    grid = RadialGrid(3200.0)
    tracemalloc.start()
    try:
        rows = grid.j_matrix(320)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * rows.nbytes
