"""Spans around calls into restalg's public functions, recorded from outside.

A :class:`Tracer` wraps the functions listed in :data:`TRACED` and patches
every ``restalg`` module namespace that binds them (``cstar``, ``reps`` and
``verify`` import with ``from .x import y``, so patching only the defining
module would miss those call sites).  Each call becomes a span
``(name, start, end, parent)`` kept in flat in-memory arrays; nothing is
written until :meth:`Tracer.save`.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# module -> public functions wrapped in that module
TRACED = {
    "algebra": ("dot", "conv", "dot_direct"),
    "linalg": ("op_norm", "svd_op_norm", "column_rank"),
    "cstar": (
        "reduced_cstar_norm",
        "quotient_cstar_norm",
        "minimized_quotient_norm",
        "sigma_r_cross_check",
    ),
    "reps": (
        "restricted_left_regular",
        "left_regular",
        "restricted_right_regular",
        "lift",
        "representation_report",
        "lift_rank",
        "trace_form_rank",
        "lambda_inner_identity_report",
        "rho_inner_identity_report",
        "rho_lift_identity_report",
    ),
    "semigroups": ("build_from_table",),
    "restricted": ("build_restricted_semigroup", "groupoid_law_violations"),
    "io_json": ("load_semigroup",),
    "families": (
        "gen_group",
        "gen_chain_semilattice",
        "gen_semilattice",
        "gen_symmetric_inverse_monoid",
        "gen_brandt",
        "adjoin_identity",
    ),
    "corpus": ("default_corpus",),
    "verify": (
        "run_suite",
        "finite_unit_laws_deviation",
        "delta_dot_deviation",
        "tau_homomorphism_deviation",
    ),
    "cli": ("main",),
}


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # per-span side values: (a, b) from a hook, NaN when the span has none
        self.qa = array("d")
        self.qb = array("d")
        self._stack = []
        self._patched = []  # (namespace, attribute, original)
        self._pairs = {}  # id(base) -> (base, composable pairs, n^2)

    # -- recording ------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        qa, qb = self.qa, self.qb
        nan = float("nan")

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            if hook is None:
                qa.append(nan)
                qb.append(nan)
            else:
                a, b = hook(args, kwargs)
                qa.append(a)
                qb.append(b)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _dot_hook(self, args, kwargs):
        """(composable pairs, n^2) of the operands' base."""
        base = args[0].base
        hit = self._pairs.get(id(base))
        if hit is None:
            # the entry keeps base alive, so its id is not reused
            hit = (base, float(base.composable_matrix().sum()), float(base.n * base.n))
            self._pairs[id(base)] = hit
        return hit[1], hit[2]

    @staticmethod
    def _dim_hook(args, kwargs):
        return float(np.shape(args[0])[-1]), 1.0

    def install(self):
        """Wrap every traced function in every restalg namespace binding it."""
        homes = {m: importlib.import_module(f"restalg.{m}") for m in TRACED}
        hooks = {"algebra.dot": self._dot_hook, "linalg.op_norm": self._dim_hook}
        spaces = [m for k, m in sorted(sys.modules.items()) if k == "restalg" or k.startswith("restalg.")]
        for mod_name, fn_names in TRACED.items():
            home = homes[mod_name]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                span = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(span, original, hooks.get(span))
                for ns in spaces:
                    if getattr(ns, fn_name, None) is original:
                        setattr(ns, fn_name, wrapper)
                        self._patched.append((ns, fn_name, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def arrays(self):
        """The spans as numpy arrays (copies), with durations and self times."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.array(self.name_of, dtype=np.int32),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
            "qa": np.array(self.qa, dtype=np.float64),
            "qb": np.array(self.qb, dtype=np.float64),
        }

    def save(self, path):
        """Write the spans as an uncompressed .npz (names listed separately)."""
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=a["name"],
            parent=a["parent"],
            start=a["start"],
            end=a["end"],
        )

    def summary(self):
        """Per span name: calls, self seconds, inclusive durations, and the
        sums of the hook values."""
        a = self.arrays()
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "self_s": float(a["self"][sel].sum()),
                "durations": a["dur"][sel],
                "qa": float(np.nansum(a["qa"][sel])),
                "qb": float(np.nansum(a["qb"][sel])),
            }
        return out


# ---------------------------------------------------------------------
# per-layer metrics: (name, unit, span names summed into it, statistic)

_SELF = "self_s"
_CALLS = "calls"

LAYER_SPANS = {
    "algebra.dot": ["algebra.dot"],
    "algebra.conv": ["algebra.conv"],
    "algebra.dot_direct": ["algebra.dot_direct"],
    "linalg.op_norm": ["linalg.op_norm"],
    "linalg.svd_op_norm": ["linalg.svd_op_norm"],
    "linalg.column_rank": ["linalg.column_rank"],
    "cstar.reduced_cstar_norm": ["cstar.reduced_cstar_norm"],
    "cstar.quotient_cstar_norm": ["cstar.quotient_cstar_norm"],
    "cstar.minimized_quotient_norm": ["cstar.minimized_quotient_norm"],
    "cstar.sigma_r_cross_check": ["cstar.sigma_r_cross_check"],
    "reps.build": ["reps.restricted_left_regular", "reps.left_regular", "reps.restricted_right_regular"],
    "reps.lift": ["reps.lift"],
    "reps.representation_report": ["reps.representation_report"],
    "reps.lift_rank": ["reps.lift_rank"],
    "reps.trace_form_rank": ["reps.trace_form_rank"],
    "reps.inner_identity": [
        "reps.lambda_inner_identity_report",
        "reps.rho_inner_identity_report",
        "reps.rho_lift_identity_report",
    ],
    "semigroups.build_from_table": ["semigroups.build_from_table"],
    "restricted.build_restricted_semigroup": ["restricted.build_restricted_semigroup"],
    "restricted.groupoid_law_violations": ["restricted.groupoid_law_violations"],
    "io_json.load_semigroup": ["io_json.load_semigroup"],
    "families.gen": [f"families.{f}" for f in TRACED["families"]],
    "corpus.default_corpus": ["corpus.default_corpus"],
    "verify.run_suite": ["verify.run_suite"],
    "verify.finite_unit_laws_deviation": ["verify.finite_unit_laws_deviation"],
    "verify.delta_dot_deviation": ["verify.delta_dot_deviation"],
    "verify.tau_homomorphism_deviation": ["verify.tau_homomorphism_deviation"],
    "cli.main": ["cli.main"],
}

# layer -> the statistics reported for it
LAYER_STATS = {
    "algebra.dot": (_CALLS, _SELF, "us_per_call", "useful_ratio"),
    "linalg.op_norm": (_CALLS, _SELF, "mean_dim"),
    "linalg.svd_op_norm": (_CALLS, _SELF),
    "cstar.reduced_cstar_norm": (_CALLS, _SELF, "ms_p50", "ms_p90"),
    "cstar.quotient_cstar_norm": (_CALLS, _SELF),
    "reps.build": (_CALLS, _SELF),
    "reps.lift": (_CALLS, _SELF),
    "semigroups.build_from_table": (_CALLS, _SELF),
}

UNITS = {
    _CALLS: "count",
    _SELF: "s",
    "us_per_call": "us",
    "useful_ratio": "ratio",
    "mean_dim": "dim",
    "ms_p50": "ms",
    "ms_p90": "ms",
}

SUITES = ("axioms", "algebra", "reps", "cstar")


def layer_metrics(summary, suite_seconds):
    """{metric name: (value, unit)} from a Tracer summary and the per-suite
    seconds the CLI reported."""
    empty = {"calls": 0, "self_s": 0.0, "durations": np.zeros(0), "qa": 0.0, "qb": 0.0}
    out = {}
    for layer, spans in LAYER_SPANS.items():
        parts = [summary.get(s, empty) for s in spans]
        calls = sum(p["calls"] for p in parts)
        self_s = sum(p["self_s"] for p in parts)
        durations = np.concatenate([p["durations"] for p in parts])
        qa = sum(p["qa"] for p in parts)
        qb = sum(p["qb"] for p in parts)
        values = {
            _CALLS: calls,
            _SELF: self_s,
            "us_per_call": 1e6 * self_s / calls if calls else 0.0,
            "useful_ratio": qa / qb if qb else 0.0,
            "mean_dim": qa / calls if calls else 0.0,
            "ms_p50": 1e3 * float(np.percentile(durations, 50)) if calls else 0.0,
            "ms_p90": 1e3 * float(np.percentile(durations, 90)) if calls else 0.0,
        }
        for stat in LAYER_STATS.get(layer, (_SELF,)):
            out[f"{layer}.{stat}"] = (values[stat], UNITS[stat])
    for suite in SUITES:
        out[f"verify.suite_{suite}.s"] = (suite_seconds.get(suite, 0.0), "s")
    return out
