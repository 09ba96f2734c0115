"""In-memory span tracer for the traced benchmark run.

A layer is a public gielab function.  The tracer wraps it by replacing the
name in each module that calls it (``gielab.gie.k_h``, ``gielab.verify.
minimize_kh``, ...), so the library itself carries no tracing code.  Every
call records one span (layer, start, end, parent span) in flat arrays; the
per-layer totals, self times and call counts are computed from the spans
after the run (their stamps mapped to the reference-speed clock of
``hostclock``), and the raw spans are written to a file.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

# layer name -> (defining module, attribute, modules whose namespace is patched)
LAYERS = {
    "purification.purify": ("gielab.purification", "purify", ("gielab.gie", "gielab.verify")),
    "purification.purify_asym_glems": ("gielab.purification", "purify_asym_glems", ("gielab.gie",)),
    "symplectic.williamson": ("gielab.symplectic", "williamson", ("gielab.purification", "gielab.verify")),
    "measurement.condition_on_e": ("gielab.measurement", "condition_on_e", ("gielab.gie", "gielab.information")),
    "gie.gie_numeric_sym_glems": ("gielab.gie", "gie_numeric_sym_glems", ("gielab.gie",)),
    "gie.gie_numeric_asym_glems": ("gielab.gie", "gie_numeric_asym_glems", ("gielab.gie",)),
    "gie.gie_numeric_sym_sq_thermal": ("gielab.gie", "gie_numeric_sym_sq_thermal", ("gielab.gie",)),
    "gie.minimize_kh": ("gielab.gie", "minimize_kh", ("gielab.gie", "gielab.verify")),
    # only the calls made inside gielab.gie: the descent objective plus the
    # heterodyne candidate, not the reduced-vs-determinant cross-check
    "gie.k_h": ("gielab.gie", "k_h", ("gielab.gie",)),
    "information.gcmi_numeric": ("gielab.information", "gcmi_numeric", ("gielab.information", "gielab.verify")),
    "information.mutual_information_f": ("gielab.information", "mutual_information_f", ("gielab.verify",)),
    "gie.gie_closed_form": ("gielab.gie", "gie_closed_form", ("gielab.gie", "gielab.verify", "gielab.renyi2")),
    "renyi2.conjecture_gap": ("gielab.renyi2", "conjecture_gap", ("gielab.renyi2", "gielab.verify")),
    "states.make_family": ("gielab.states", "make_family", ("gielab.states", "gielab.gie", "gielab.verify")),
    "verify.run_family_numeric": ("gielab.verify", "run_family_numeric", ("gielab.verify",)),
}
for _check in (
    "check_closed_form_identities",
    "check_minmax",
    "check_candidate_ordering",
    "check_gcmi_optimality",
    "check_kh_machinery",
    "check_thresholds",
    "check_conjecture",
    "check_faithfulness",
    "check_structural",
):
    LAYERS[f"verify.{_check}"] = ("gielab.verify", _check, ("gielab.verify",))

# minimizers whose deterministic grid stage evaluates n^3 points per call
GRID_LAYERS = ("gie.gie_numeric_sym_glems", "gie.gie_numeric_asym_glems", "gie.minimize_kh")


class Tracer:
    """Records one span per call of every layer in ``LAYERS``."""

    def __init__(self):
        self.names = list(LAYERS)
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved = []

    def _wrap(self, layer_id: int, fn):
        layer, parent, start, end, stack = self.layer, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        return traced

    def install(self):
        for layer_id, (owner, attr, callers) in enumerate(LAYERS.values()):
            wrapper = self._wrap(layer_id, getattr(importlib.import_module(owner), attr))
            for name in callers:
                module = importlib.import_module(name)
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self, to_ref) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds and self seconds (total minus
        children), with the spans' stamps mapped by ``to_ref``."""
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        durations = to_ref(np.frombuffer(self.end)) - to_ref(np.frombuffer(self.start))
        child = np.zeros(len(durations))
        nested = parent >= 0
        np.add.at(child, parent[nested], durations[nested])
        k = len(self.names)
        calls = np.bincount(layer, minlength=k)
        total = np.bincount(layer, weights=durations, minlength=k)
        own = np.bincount(layer, weights=durations - child, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """One JSON header line, then the int32 layer and parent columns and
        the float64 start and end columns, each ``count`` entries long."""
        header = {
            "layers": self.names,
            "count": len(self.start),
            "columns": [["layer", "int32"], ["parent", "int32"], ["start_s", "float64"], ["end_s", "float64"]],
            "byteorder": "native",
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in (self.layer, self.parent, self.start, self.end):
                column.tofile(fh)
