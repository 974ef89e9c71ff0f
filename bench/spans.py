"""Span recorder for the traced benchmark run.

The tracer wraps tscircle's functions from outside the package: every
public function defined in a ``tscircle`` submodule, the two kernels
``bessel._miller_block`` and ``quintic._assemble_polar``, a few
``RadialGrid``/``BesselTensor`` methods, and ``numpy.fft.fft``/``ifft``.
Each module-level binding of a wrapped function is replaced, in every
``tscircle`` module, because ``quintic``, ``variational`` and ``cli``
import names directly.  A target that does not exist is skipped.

A span is (name, start, end, parent span, op id) plus optional work
counts.  Spans stay in memory until ``write`` is called.  A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# private names wrapped besides the public ones: the kernels that the
# per-layer figures are about
KERNELS = ("bessel._miller_block", "quintic._assemble_polar")

# (module, class, method) wrapped on the class itself
METHODS = (
    ("bessel", "RadialGrid", "refine"),
    ("bessel", "BesselTensor", "save"),
    ("bessel", "BesselTensor", "load"),
    ("bessel", "BesselTensor", "lookup_sorted_abs"),
)

FFT_NAMES = ("fft", "ifft")


def _digest(coeffs) -> str:
    return hashlib.blake2b(np.asarray(coeffs).tobytes(), digest_size=8).hexdigest()


def _route(tensor, method, result):
    if method == "auto":
        method = "tensor" if tensor is not None else "polar"
    return {"route": method}


def _out_bytes(argv, result):
    argv = list(argv or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"out_bytes": os.path.getsize(path)}
    return {"out_bytes": 0}


# span name -> (argument names read, function of those arguments and the
# result returning the span's work counts)
WORK = {
    "bessel._miller_block": (("nmax", "rho"), lambda nmax, rho, r: {
        "cells": (int(nmax) + 1) * int(np.size(rho))}),
    "bessel.bessel_j": (("rho",), lambda rho, r: {"points": int(np.size(rho))}),
    "bessel.build_tensor": ((), lambda r: {"entries": len(r)}),
    "bessel.BesselTensor.save": (("path",), lambda path, r: {
        "bytes": os.path.getsize(path)}),
    "bessel.BesselTensor.load": (("path",), lambda path, r: {
        "bytes": os.path.getsize(path)}),
    "bessel.BesselTensor.lookup_sorted_abs": (("keys",), lambda keys, r: {
        "keys": len(keys)}),
    "extension.extend": (("f",), lambda f, r: {"input": _digest(f.coeffs)}),
    "quintic._assemble_polar": (("M",), lambda M, r: {"modes": 2 * int(M) + 1}),
    "quintic.quintic_convolve": (("tensor", "method"), _route),
    "quintic.auto_density": ((), lambda r: {"radii": int(np.size(r.radii))}),
    "quintic.mu_value": ((), lambda r: {"radii": 1}),
    "solver.picard_iterate": ((), lambda r: {"iterations": int(r.iterations)}),
    "cli.main": (("argv",), _out_bytes),
    "fft.fft": (("a",), lambda a, r: {"points": int(np.size(a))}),
    "fft.ifft": (("a",), lambda a, r: {"points": int(np.size(a))}),
}


def _argument_getter(fn, name):
    """Read argument `name` of a call to `fn` from (args, kwargs)."""
    params = list(inspect.signature(fn).parameters.values())
    idx = [p.name for p in params].index(name)
    default = params[idx].default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        if idx < len(args):
            return args[idx]
        return default
    return get


def _work_reader(name, fn):
    spec = WORK.get(name)
    if spec is None:
        return None
    argnames, count = spec
    try:
        getters = [_argument_getter(fn, a) for a in argnames]
    except (TypeError, ValueError):
        return None              # signature changed or unreadable: no counts

    def read(args, kwargs, result):
        return count(*(g(args, kwargs) for g in getters), result)
    return read


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "child", "work")

    def __init__(self, id_, name, op, parent):
        self.id = id_
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = self.child = 0.0
        self.work = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Wraps tscircle from outside and records spans while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        self._undo: list = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn):
        read = _work_reader(name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, self.op,
                        stack[-1].id if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start
            if read is not None:
                try:
                    span.work = read(args, kwargs, result)
                except (AttributeError, KeyError, OSError, TypeError, ValueError):
                    pass         # a changed target loses its counts, not the run
            return result
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("tscircle.") and mod is not None}
        wrapped = {}
        for modname, mod in modules.items():
            short = modname.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == modname):
                    continue
                if attr.startswith("_") and f"{short}.{attr}" not in KERNELS:
                    continue
                wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        package = sys.modules.get("tscircle")
        for mod in list(modules.values()) + ([package] if package else []):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

        for short, clsname, meth in METHODS:
            cls = getattr(modules.get(f"tscircle.{short}"), clsname, None)
            raw = vars(cls).get(meth) if isinstance(cls, type) else None
            name = f"{short}.{clsname}.{meth}"
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, meth, self._wrap(name, raw))

        fft_mod = np.fft
        for attr in FFT_NAMES:
            if attr in vars(fft_mod):
                self._set(fft_mod, attr, self._wrap(f"fft.{attr}",
                                                    vars(fft_mod)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -----------------------------------------------------------

    def write(self, path, t_origin: float) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start - t_origin, "end": s.end - t_origin,
                    "self_s": s.self_s, "work": s.work}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; "per op" unless the name is in PER_RUN
LAYER_UNITS = {
    "bessel.miller.builds": "count",
    "bessel.miller.cells": "count",
    "bessel.miller.self_s": "s",
    "bessel.grid.nodes": "count",
    "bessel.grid.refines": "count",
    "bessel.six_bessel.calls": "count",
    "bessel.six_bessel.self_s": "s",
    "bessel.bessel_j.points": "count",
    "bessel.bessel_j.self_s": "s",
    "bessel.build_tensor.entries": "count",
    "bessel.build_tensor.self_s": "s",
    "bessel.tensor_io.bytes": "B",
    "bessel.tensor_io.self_s": "s",
    "bessel.tail.calls": "count",
    "bessel.tail.self_s": "s",
    "extension.extend.calls": "count",
    "extension.extend.self_s": "s",
    "extension.extend.distinct_frac": "fraction",
    "extension.tail_algebra.self_s": "s",
    "extension.hpoly_mul.calls": "count",
    "extension.l6_norm.calls": "count",
    "extension.l6_norm.self_s": "s",
    "fft.calls": "count",
    "fft.points": "count",
    "fft.self_s": "s",
    "quintic.el_quintic.calls": "count",
    "quintic.polar.calls": "count",
    "quintic.assemble.calls": "count",
    "quintic.assemble.modes": "count",
    "quintic.assemble.self_s": "s",
    "quintic.tensor.calls": "count",
    "quintic.tensor.keys": "count",
    "quintic.tensor.self_s": "s",
    "quintic.density.radii": "count",
    "quintic.density.self_s": "s",
    "variational.functional.calls": "count",
    "variational.t0.calls": "count",
    "variational.self_s": "s",
    "solver.picard.iterations": "count",
    "solver.nonlinear.calls": "count",
    "solver.self_s": "s",
    "spectral.calls": "count",
    "spectral.self_s": "s",
    "cli.commands": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
}
PER_RUN = {"bessel.grid.nodes", "extension.extend.distinct_frac"}

TAIL_ALGEBRA = ("extension.field_tail_rep", "extension.hpoly_mul",
                "extension.hpoly_conj")
DENSITY = ("quintic.auto_density", "quintic.mu_value", "quintic.sup_bound_check")


def layer_metrics(spans, n_ops: int, grid_nodes: int) -> dict:
    """Per-layer figures from the spans of `n_ops` traced ops."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def calls(*names):
        return sum(len(by[n]) for n in names)

    def self_s(*names):
        return sum(s.self_s for n in names for s in by[n])

    def work(names, key):
        return sum((s.work or {}).get(key, 0) for n in names for s in by[n])

    def prefix(p):
        return [n for n in by if n.startswith(p)]

    convolve = by["quintic.quintic_convolve"]
    tensor_route = [s for s in convolve if (s.work or {}).get("route") == "tensor"]
    polar_route = [s for s in convolve if (s.work or {}).get("route") == "polar"]
    lookup = "bessel.BesselTensor.lookup_sorted_abs"
    tensor_io = ("bessel.BesselTensor.save", "bessel.BesselTensor.load")

    inputs = defaultdict(set)
    for s in by["extension.extend"]:
        inputs[s.op].add((s.work or {}).get("input"))
    extends = calls("extension.extend")
    distinct = sum(len(v) for v in inputs.values())

    totals = {
        "bessel.miller.builds": calls("bessel._miller_block"),
        "bessel.miller.cells": work(["bessel._miller_block"], "cells"),
        "bessel.miller.self_s": self_s("bessel._miller_block"),
        "bessel.grid.refines": calls("bessel.RadialGrid.refine"),
        "bessel.six_bessel.calls": calls("bessel.six_bessel_integral"),
        "bessel.six_bessel.self_s": self_s("bessel.six_bessel_integral"),
        "bessel.bessel_j.points": work(["bessel.bessel_j"], "points"),
        "bessel.bessel_j.self_s": self_s("bessel.bessel_j"),
        "bessel.build_tensor.entries": work(["bessel.build_tensor"], "entries"),
        "bessel.build_tensor.self_s": self_s("bessel.build_tensor"),
        "bessel.tensor_io.bytes": work(tensor_io, "bytes"),
        "bessel.tensor_io.self_s": self_s(*tensor_io),
        "bessel.tail.calls": calls("bessel.exp_tail_integral"),
        "bessel.tail.self_s": self_s("bessel.exp_tail_integral"),
        "extension.extend.calls": extends,
        "extension.extend.self_s": self_s("extension.extend"),
        "extension.tail_algebra.self_s": self_s(*TAIL_ALGEBRA),
        "extension.hpoly_mul.calls": calls("extension.hpoly_mul"),
        "extension.l6_norm.calls": calls("extension.l6_norm"),
        "extension.l6_norm.self_s": self_s("extension.l6_norm"),
        "fft.calls": calls(*prefix("fft.")),
        "fft.points": work(prefix("fft."), "points"),
        "fft.self_s": self_s(*prefix("fft.")),
        "quintic.el_quintic.calls": calls("quintic.el_quintic"),
        "quintic.polar.calls": len(polar_route),
        "quintic.assemble.calls": calls("quintic._assemble_polar"),
        "quintic.assemble.modes": work(["quintic._assemble_polar"], "modes"),
        "quintic.assemble.self_s": self_s("quintic._assemble_polar"),
        "quintic.tensor.calls": len(tensor_route),
        "quintic.tensor.keys": work([lookup], "keys"),
        "quintic.tensor.self_s": (sum(s.self_s for s in tensor_route)
                                  + self_s(lookup)),
        "quintic.density.radii": work(DENSITY, "radii"),
        "quintic.density.self_s": self_s(*DENSITY),
        "variational.functional.calls": calls("variational.ts_functional"),
        "variational.t0.calls": calls("variational.t0_value"),
        "variational.self_s": self_s(*prefix("variational.")),
        "solver.picard.iterations": work(["solver.picard_iterate"], "iterations"),
        "solver.nonlinear.calls": calls("solver.nonlinear_part"),
        "solver.self_s": self_s(*prefix("solver.")),
        "spectral.calls": calls(*prefix("spectral.")),
        "spectral.self_s": self_s(*prefix("spectral.")),
        "cli.commands": calls("cli.main"),
        "cli.self_s": self_s(*prefix("cli.")),
        "cli.out_bytes": work(["cli.main"], "out_bytes"),
    }
    out = {name: value / max(n_ops, 1) for name, value in totals.items()}
    out["bessel.grid.nodes"] = grid_nodes
    out["extension.extend.distinct_frac"] = distinct / extends if extends else 0.0
    return {name: out[name] for name in LAYER_UNITS}
