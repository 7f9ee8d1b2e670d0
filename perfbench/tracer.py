"""Outside-in span tracer for the neuroloop benchmark.

The program is not modified. ``install`` rebinds the public names that
``neuroloop.engine``, ``neuroloop.outputs`` and ``neuroloop.cli`` import
(and the defining module's own binding, for calls made inside that module)
to wrappers that record one span per call: (name, start, end, parent).
``uninstall`` puts every original back. Spans stay in memory until
``save`` writes them out.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# The functions whose calls are traced, by layer (= neuroloop module).
TRACED = {
    "plant": ("ieeg_frame", "beta_lfp_frame", "ecap_true", "seizure_step",
              "actuator_apply", "device_step"),
    "features": ("signal_quality", "line_length", "area_under_curve", "band_power",
                 "ecap_range_check", "detect"),
    "safety": ("trust_check_step", "supervisor_step", "clamp_and_slew",
               "therapy_and_episode_budget_step", "fallback_dose"),
    "control": ("bang_bang_responsive_step", "dual_threshold_step", "ecap_setpoint_step"),
    "engine": ("run_scenario", "sweep"),
    "metrics": ("scan_delivered_series", "scan_timeseries_csv", "step_response_metrics"),
    "outputs": ("timeseries_csv_text", "events_jsonl_text", "summary_json_text",
                "write_run", "replay_run"),
    "scenario": ("load_scenario_file", "validate_scenario", "scenario_from_dict"),
    "cli": ("main",),
}
NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
HOSTS = ("engine", "outputs", "cli")


class Tracer:
    """Records spans in a flat int64 array: name id, start ns, end ns, parent index."""

    def __init__(self) -> None:
        self.spans = array("q")
        self._stack = [-1]
        self._bindings: list = []   # (module, attribute, original)

    def _wrap(self, name_id: int, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((name_id, 0, 0, stack[-1]))
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[4 * idx + 1] = start
                spans[4 * idx + 2] = end

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        for name_id, name in enumerate(NAMES):
            layer, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"neuroloop.{layer}"), fn_name, None)
            if original is None:   # renamed or removed: reported as 0 calls
                continue
            wrapper = self._wrap(name_id, original)
            for host in dict.fromkeys((layer,) + HOSTS):
                module = importlib.import_module(f"neuroloop.{host}")
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._bindings.append((module, fn_name, original))

    def uninstall(self) -> None:
        while self._bindings:
            module, attr, original = self._bindings.pop()
            setattr(module, attr, original)

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)

    def self_time(self) -> tuple[np.ndarray, np.ndarray]:
        """(self ns, calls) per entry of NAMES.

        A span's self time is its duration minus the durations of the spans
        whose parent it is.
        """
        t = self.table()
        if t.size == 0:
            zeros = np.zeros(len(NAMES), dtype=np.int64)
            return zeros, zeros
        dur = t[:, 2] - t[:, 1]
        has_parent = t[:, 3] >= 0
        child = np.bincount(t[has_parent, 3], weights=dur[has_parent], minlength=len(t))
        self_ns = np.bincount(t[:, 0], weights=dur - child, minlength=len(NAMES))
        calls = np.bincount(t[:, 0], minlength=len(NAMES))
        return self_ns, calls

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), spans=self.table())
