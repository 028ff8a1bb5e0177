"""Span tracing around the public functions of each rpc3bp layer.

The tracer replaces a function by a timing wrapper in every rpc3bp module
that bound it (``from .integrate import flow`` makes a second binding in
``manifolds`` and ``orbits``), records one span per call in memory and puts
the originals back on close.  A span is [name, start, end, parent index,
attributes]; attributes hold work counts read from the call's result, such
as ``sol.nfev`` of an integration.  Spans of one thread nest, so a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

FAR_R = 10.0   # accepted steps beyond this radius count as far-field steps


def _flow_counts(args, kwargs, sol):
    steps = len(sol.t) - 1
    return {"nfev": int(sol.nfev), "steps": steps,
            "far_steps": int(np.count_nonzero(sol.y[0, 1:] > FAR_R))}


def _contour_precision(args, kwargs, result):
    return {"extended": kwargs.get("mp_dps") is not None}


def _curve_counts(args, kwargs, curve):
    return {"orbits": int(curve.meta["n_phases"])}


def _demo_counts(args, kwargs, log):
    return {"returns": len(log.returns)}


# (module, function, span name, attribute reader)
TRACED = [
    ("rpc3bp.integrate", "flow", "integrate.flow", _flow_counts),
    ("rpc3bp.integrate", "refine_to_section", "integrate.refine", None),
    ("rpc3bp.manifolds", "compute_invariant_curve", "manifolds.curve", _curve_counts),
    ("rpc3bp.splitting", "splitting_report", "splitting.report", None),
    ("rpc3bp.splitting", "distance_profile", "splitting.profile", None),
    ("rpc3bp.splitting", "find_homoclinic_points", "splitting.roots", None),
    ("rpc3bp.melnikov", "contour_integral_I", "melnikov.contour_I", _contour_precision),
    ("rpc3bp.melnikov", "melnikov_coeff_quadrature", "melnikov.quadrature", None),
    ("rpc3bp.melnikov", "melnikov_coeff0_quadrature", "melnikov.quadrature", None),
    ("rpc3bp.melnikov", "predicted_distance", "melnikov.predicted_distance", None),
    ("rpc3bp.orbits", "oscillation_demo", "orbits.demo", _demo_counts),
    ("rpc3bp.cli", "main", "cli.main", None),
]


class Tracer:
    """Install with `install()`, run the workload, then `close()`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, reader):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), None,
                   stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if reader is not None:
                rec[4] = reader(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for modname, fname, name, reader in TRACED:
            # the package attribute rpc3bp.integrate is the function of that
            # name, so the module is reached through the import system
            home = importlib.import_module(modname)
            orig = getattr(home, fname)
            wrapped = self._wrap(orig, name, reader)
            for name_, mod in list(sys.modules.items()):
                if ((name_ == "rpc3bp" or name_.startswith("rpc3bp."))
                        and getattr(mod, fname, None) is orig):
                    setattr(mod, fname, wrapped)
                    self._undo.append((mod, fname, orig))
        # the CLI reaches the series routes through this classmethod
        from rpc3bp.melnikov import MelnikovSeries
        orig = MelnikovSeries.__dict__["compute"]
        MelnikovSeries.compute = classmethod(
            self._wrap(orig.__func__, "melnikov.series", None))
        self._undo.append((MelnikovSeries, "compute", orig))

    def close(self) -> None:
        for owner, fname, orig in reversed(self._undo):
            setattr(owner, fname, orig)
        self._undo.clear()

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "attrs": a}
                for n, s, e, p, a in self.spans]


def _ancestor(spans, i, name):
    p = spans[i][3]
    while p is not None:
        if spans[p][0] == name:
            return p
        p = spans[p][3]
    return None


def layer_metrics(spans: list[list], rounds: int = 1) -> dict[str, float]:
    """Per-layer counts and times per round, and work ratios, from the spans
    recorded over `rounds` identical rounds."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    total = defaultdict(float)
    calls = defaultdict(int)
    self_by_layer = defaultdict(float)
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        calls[s[0]] += 1
        self_by_layer[s[0].split(".")[0]] += dur[i] - child[i]

    flows = [i for i, s in enumerate(spans) if s[0] == "integrate.flow"]
    refines = [i for i, s in enumerate(spans) if s[0] == "integrate.refine"]

    def attr_sum(idx, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in idx)

    rhs = attr_sum(flows, "nfev")
    curve_flows = [i for i in flows if _ancestor(spans, i, "manifolds.curve") is not None]
    curve_refines = [i for i in refines if _ancestor(spans, i, "manifolds.curve") is not None]
    demo_flows = [i for i in flows if _ancestor(spans, i, "orbits.demo") is not None]
    curves = [i for i, s in enumerate(spans) if s[0] == "manifolds.curve"]
    demos = [i for i, s in enumerate(spans) if s[0] == "orbits.demo"]
    contour = [i for i, s in enumerate(spans) if s[0] == "melnikov.contour_I"]
    ext = [i for i in contour if spans[i][4] and spans[i][4]["extended"]]
    dbl = [i for i in contour if spans[i][4] and not spans[i][4]["extended"]]
    returns = attr_sum(demos, "returns")
    orbits = attr_sum(curves, "orbits")

    def ratio(a, b):
        return a / b if b else 0.0

    sums = {
        "integrate.flow_calls": len(flows),
        "integrate.flow_s": total["integrate.flow"],
        "integrate.rhs_evals": rhs,
        "integrate.steps": attr_sum(flows, "steps"),
        "integrate.far_steps": attr_sum(flows, "far_steps"),
        "integrate.refine_calls": len(refines),
        "integrate.refine_s": total["integrate.refine"],
        "manifolds.curves": len(curves),
        "manifolds.curve_s": total["manifolds.curve"],
        "manifolds.self_s": self_by_layer["manifolds"],
        "splitting.profile_s": total["splitting.profile"],
        "splitting.root_calls": calls["splitting.roots"],
        "splitting.roots_s": total["splitting.roots"],
        "splitting.self_s": self_by_layer["splitting"],
        "melnikov.contour_I_calls_double": len(dbl),
        "melnikov.contour_I_s_double": sum(dur[i] for i in dbl),
        "melnikov.contour_I_calls_extended": len(ext),
        "melnikov.contour_I_s_extended": sum(dur[i] for i in ext),
        "melnikov.quadrature_s": total["melnikov.quadrature"],
        "melnikov.predicted_distance_calls": calls["melnikov.predicted_distance"],
        "melnikov.predicted_s": total["melnikov.predicted_distance"],
        "melnikov.self_s": self_by_layer["melnikov"],
        "orbits.demo_s": total["orbits.demo"],
        "orbits.returns": returns,
        "orbits.self_s": self_by_layer["orbits"],
        "cli.self_s": self_by_layer["cli"],
    }
    out = {k: v / rounds for k, v in sums.items()}
    out.update({
        "integrate.us_per_rhs_eval": 1e6 * ratio(total["integrate.flow"], rhs),
        "manifolds.orbits_per_curve": ratio(orbits, len(curves)),
        "manifolds.steps_per_orbit": ratio(attr_sum(curve_flows, "steps"), len(curve_flows)),
        "manifolds.samples_per_orbit": ratio(len(curve_refines), len(curve_flows)),
        "orbits.steps_per_return": ratio(attr_sum(demo_flows, "steps"), returns),
    })
    return out
