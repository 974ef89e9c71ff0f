"""The benchmark tracer's targets still name functions of the package.

bench/spans.py wraps tscircle functions by dotted name and skips a target
that does not exist, so a renamed function would silently read 0 in its
per-layer figure; it also drops a target's work counts when an argument
name it reads is no longer a parameter.  These tests read the tracer's
source (without importing or editing it) and resolve every name it wraps
or counts, and every argument name its WORK table reads.
"""

import ast
import importlib
import inspect

import numpy as np
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# targets known to be gone from the package, each with why it stays listed
KNOWN_STALE = {
    "quintic.sup_bound_check": "removed with its command; ROADMAP item 4",
    "bessel.bessel_j": "folded into the Miller rows; ROADMAP item 4",
    "extension.hpoly_conj": "tails are phase samples; conj is np.conj",
}


def _span_names():
    """Every dotted tscircle name the tracer wraps or reads spans of: the
    KERNELS, TAIL_ALGEBRA and DENSITY tuples, the METHODS triples, the keys
    of WORK and the string arguments of layer_metrics' calls/self_s/work;
    the numpy.fft targets (fft.*) and the module prefixes ("cli.") are
    left out."""
    tree = ast.parse(SPANS.read_text())
    names = set()
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        target = node.targets[0].id
        if target in ("KERNELS", "TAIL_ALGEBRA", "DENSITY"):
            names.update(ast.literal_eval(node.value))
        elif target == "METHODS":
            names.update(".".join(m) for m in ast.literal_eval(node.value))
        elif target == "WORK":
            names.update(ast.literal_eval(k) for k in node.value.keys)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("calls", "self_s", "work")):
            names.update(leaf.value for arg in node.args
                         for leaf in ast.walk(arg)
                         if isinstance(leaf, ast.Constant)
                         and isinstance(leaf.value, str))
    return {n for n in names
            if "." in n.rstrip(".") and not n.startswith("fft.")}


def _resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"tscircle.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return callable(obj)


def test_span_targets_resolve_in_the_package():
    names = _span_names()
    for required in ("bessel._miller_block", "quintic._assemble_polar",
                     "extension.field_tail_rep", "extension.hpoly_mul"):
        assert required in names
    missing = sorted(n for n in names if not _resolves(n))
    assert missing == sorted(KNOWN_STALE)


def _work_arguments():
    """WORK's span names with the argument names each one reads."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "WORK"):
            return {ast.literal_eval(k): ast.literal_eval(v.elts[0])
                    for k, v in zip(node.value.keys, node.value.values)}
    raise AssertionError("bench/spans.py defines no WORK table")


def _resolve(name):
    module, *attrs = name.split(".")
    obj = (np.fft if module == "fft"
           else importlib.import_module(f"tscircle.{module}"))
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_span_work_arguments_are_parameters():
    work = _work_arguments()
    assert work["quintic.quintic_convolve"] == ("tensor", "method")
    stale = []
    for name, argnames in work.items():
        if name in KNOWN_STALE:
            continue
        params = inspect.signature(_resolve(name)).parameters
        stale += [f"{name}({a})" for a in argnames if a not in params]
    assert stale == []
