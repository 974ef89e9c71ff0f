"""Peak traced memory of the polar route's heaviest calls.

Each call runs once to warm the caches (grids, Bessel rows, phase and
radial tables), then again under tracemalloc.  The bounds are 10% above
the warm peaks of the same calls before the radial-first kernel (1.99,
2.58 and 3.44 MB; el_quintic's first call peaked at 4.19 MB), so a change
that brings back a per-call K x J array or a per-call table shows here
before it shows in a process's resident size.
"""

import tracemalloc

from tscircle import (el_quintic, mu_value, picard_iterate,
                      quintilinear_bound_ratio, random_function)

MB = 1e6


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


def test_bound_chain_memory():
    fs = [random_function(8, seed=10 + i, decay=0.6) for i in range(5)]
    mu5 = mu_value(5, 1.0)
    peak = traced_peak(lambda: quintilinear_bound_ratio(fs, 0.5,
                                                        mu5_at_1=mu5))
    assert peak <= 1.1 * 2.58 * MB


def test_el_quintic_memory(extremizer16):
    f = extremizer16.f
    peak = traced_peak(lambda: el_quintic(f))
    assert peak <= 1.1 * 3.44 * MB
