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

A mu_5 profile's Hankel heads run on two lanes, the calling thread and one
helper, each forming its J_0 samples in a buffer of 128 radii that the
calling thread allocates: auto_density(5) at 801 points peaked at 2.43 MB
warm on one lane, and peaks at 3.79 MB on two, the helper's 1.18 MB buffer
alive while the calling thread forms the tails.  Its bound is 10% above the
two-lane peak, below twice the one-lane peak.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import tscircle
from tscircle import (RadialGrid, auto_density, el_quintic, extend,
                      mu_value, picard_iterate, quintilinear_bound_ratio,
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
