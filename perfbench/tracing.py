"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each layer's public functions with timing
wrappers in every loaded ``gicirc`` module namespace that holds them (for
example ``gicirc.circuits.apply`` as well as ``gicirc.states.apply``), so
calls are caught where callers look them up.  Spans stay in memory; the
per-layer self time (span duration minus the time covered by child spans)
is accumulated as spans close.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# layer name -> (module, function names).  One layer per module of
# src/gicirc; a layer may group several functions of its module.
LAYERS = {
    "states.apply": ("gicirc.states", ("apply",)),
    "states.wigner": ("gicirc.states", ("wigner",)),
    "elements.maps": (
        "gicirc.elements",
        ("parametric_amplifier", "single_mode_squeezer", "beamsplitter", "phase_shift", "loss_channel"),
    ),
    "noise_model.kappa_from_qng": ("gicirc.noise_model", ("kappa_from_qng",)),
    "noise_model.noisy_pa": ("gicirc.noise_model", ("noisy_pa",)),
    "circuits.element_map": ("gicirc.circuits", ("element_map",)),
    "circuits.simulate": ("gicirc.circuits", ("simulate",)),
    "circuits.propagate_mean": ("gicirc.circuits", ("propagate_mean",)),
    "circuits.parse_circuit": ("gicirc.circuits", ("parse_circuit",)),
    "circuits.serialize_circuit": ("gicirc.circuits", ("serialize_circuit",)),
    "interferometers.engine_report": ("gicirc.interferometers", ("engine_report",)),
    "interferometers.closed_form": (
        "gicirc.interferometers",
        ("snr_sq_mzi_closed", "snr_sisni_closed", "phase_variance_closed", "mean_signal_and_variance"),
    ),
    "analysis.loss_plane": ("gicirc.analysis", ("loss_plane",)),
    "analysis.wigner_panel": ("gicirc.analysis", ("wigner_panel",)),
    "analysis.slope_vs_theta": ("gicirc.analysis", ("slope_vs_theta",)),
    "noise_fit.fit_noise_model": ("gicirc.noise_fit", ("fit_noise_model",)),
    "noise_fit.advantage_vs_qng": ("gicirc.noise_fit", ("advantage_vs_qng",)),
    "cli.main": ("gicirc.cli", ("main",)),
}

# Layers reported as "<layer>.calls" and "<layer>.ms" per operation.
CALL_METRICS = (
    "states.apply", "elements.maps", "noise_model.kappa_from_qng", "noise_model.noisy_pa",
    "circuits.element_map", "interferometers.engine_report", "interferometers.closed_form",
)
TIME_METRICS = (
    "states.apply", "states.wigner", "elements.maps", "noise_model.kappa_from_qng",
    "noise_model.noisy_pa", "circuits.element_map", "circuits.simulate",
    "circuits.propagate_mean", "circuits.parse_circuit", "circuits.serialize_circuit",
    "interferometers.engine_report", "interferometers.closed_form", "analysis.loss_plane",
    "analysis.wigner_panel", "analysis.slope_vs_theta", "noise_fit.fit_noise_model",
    "noise_fit.advantage_vs_qng", "cli.main",
)

# Spans kept for the trace file; the per-layer totals cover every span.
MAX_KEPT_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []  # (span id, parent id, operation, layer, start, end)
        self.operation = 0
        self._stack = []  # [child seconds, span id] per open span
        self._next_id = 0
        self._patches = []

    # --- installation ---------------------------------------------------

    def install(self):
        import gicirc.cli  # noqa: F401  (loads every module of the package)

        loaded = [m for name, m in sys.modules.items() if name == "gicirc" or name.startswith("gicirc.")]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                self._replace(loaded, getattr(module, name), self._span(layer, getattr(module, name)))
        noise_fit = sys.modules["gicirc.noise_fit"]
        if hasattr(noise_fit, "minimize"):
            penalty = getattr(noise_fit, "_INFEASIBLE", 1e12)
            self._replace(loaded, noise_fit.minimize, self._counting_minimize(noise_fit.minimize, penalty))
        cli = sys.modules["gicirc.cli"]
        if hasattr(cli, "_write"):
            self._replace(loaded, cli._write, self._sized_write(cli._write))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _replace(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    # --- wrappers -------------------------------------------------------

    def _span(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{layer}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer.calls[layer] += 1
                tracer.self_s[layer] += duration - frame[0]
                if len(tracer.spans) < MAX_KEPT_SPANS:
                    tracer.spans.append((sid, parent, tracer.operation, layer, start, end))
            if layer == "noise_fit.fit_noise_model":
                tracer.counts["noise_fit.objective_evals"] += result.iterations
            return result

        return traced

    def _counting_minimize(self, minimize, penalty):
        tracer = self

        @functools.wraps(minimize)
        def counted(fun, x0, *args, **kwargs):
            def objective(*a, **k):
                value = fun(*a, **k)
                tracer.counts["noise_fit.evaluations"] += 1
                if value < penalty:
                    tracer.counts["noise_fit.feasible"] += 1
                return value

            return minimize(objective, x0, *args, **kwargs)

        return counted

    def _sized_write(self, write):
        tracer = self

        @functools.wraps(write)
        def sized(args, *rest, **kwargs):
            code = write(args, *rest, **kwargs)
            if getattr(args, "output", "-") != "-":
                tracer.counts["cli.output_bytes"] += os.path.getsize(args.output)
            return code

        return sized

    # --- results --------------------------------------------------------

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": dict(self.counts)}

    def merge(self, summary: dict):
        for key, value in summary["calls"].items():
            self.calls[key] += value
        for key, value in summary["self_s"].items():
            self.self_s[key] += value
        for key, value in summary["counts"].items():
            self.counts[key] += value


def layer_metrics(summary: dict, operations: int) -> dict:
    """Per-operation layer metrics from accumulated totals."""
    n = max(operations, 1)
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    out = {}
    for layer in CALL_METRICS:
        out[f"{layer}.calls"] = (calls.get(layer, 0) / n, "count")
    for layer in TIME_METRICS:
        out[f"{layer}.ms"] = (1e3 * self_s.get(layer, 0.0) / n, "ms")
    out["noise_model.kappa_from_qng.unreachable"] = (
        counts.get("noise_model.kappa_from_qng.raised.NoSolutionError", 0) / n,
        "count",
    )
    out["noise_fit.objective_evals"] = (counts.get("noise_fit.objective_evals", 0) / n, "count")
    evaluations = counts.get("noise_fit.evaluations", 0)
    out["noise_fit.feasible_ratio"] = (
        counts.get("noise_fit.feasible", 0) / evaluations if evaluations else 0.0,
        "ratio",
    )
    out["cli.output_mb"] = (counts.get("cli.output_bytes", 0) / n / 1e6, "MB")
    return out


def child_main(argv) -> int:
    """Run ``gicirc.cli.main`` traced and write the totals to ``argv[0]``.

    Used as the body of traced cold CLI processes:
    ``python3 -c "<bootstrap>" SUMMARY.json <gicirc arguments>``.
    """
    out_path, cli_args = argv[0], argv[1:]
    import gicirc.cli

    tracer = Tracer()
    tracer.install()
    try:
        return gicirc.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
