#!/usr/bin/env python3
"""Benchmark of the gicirc package, run from the root of a source checkout.

    python3 perfbench/run.py --workload {oracle,fit,figures,cli,all} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``setup_s``, ``peak_rss_mb``, ``ops_per_s``, ``op_ms_p50``).  Times are
scaled to a reference host speed measured between operations
(calibration.py).  With
``--trace 1`` the run measures half its time untraced and half with every
layer wrapped, and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs the four workloads one after another, each in its
own process.  See README.md in this directory.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; inherited by every process the benchmark starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
from reference import CheckError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"
WORKLOAD_NAMES = ("oracle", "fit", "figures", "cli")
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60.0
# Longest stretch of operations between two calibration samples, and the
# length of the first sample.
CALIBRATE_EVERY_S = 0.05
CALIBRATE_FIRST_S = 0.1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


class Tally:
    """Operation times and outcome counts of one measured phase.

    ``times`` are scaled to the reference host speed, ``raw_times`` are
    as measured.
    """

    def __init__(self):
        self.times = []
        self.raw_times = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.problems = []

    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.times)

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.times)


def measure(wl, seconds: float, tally: Tally, tracer=None):
    """Repeat whole rounds of ``wl`` until ``seconds`` have passed.

    The reference kernel is timed whenever ``CALIBRATE_EVERY_S`` of
    operations have passed, and the operations in between are scaled by
    the kernel times on either side of them.
    """
    start = time.perf_counter()
    before, pending = calibration.sample(CALIBRATE_FIRST_S), []
    while True:
        for op in wl.round():
            if tracer is not None:
                tracer.operation = tally.attempted
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # a failed operation is counted, the run goes on
                pending.append(time.perf_counter() - t0)
                tally.failed += 1
                tally.problems.append(f"failed: {type(exc).__name__}: {exc}")
            else:
                pending.append(time.perf_counter() - t0)
                try:
                    wl.check(op, out)
                except CheckError as exc:
                    tally.incorrect += 1
                    tally.problems.append(f"incorrect: {exc}")
            if sum(pending) >= CALIBRATE_EVERY_S:
                before = _settle(tally, pending, before)
        if time.perf_counter() - start >= seconds:
            if pending:
                _settle(tally, pending, before)
            return tally


def _settle(tally: Tally, pending: list, before: float) -> float:
    """Scale the ``pending`` times into ``tally``; return the new kernel sample."""
    after = calibration.sample(calibration.SHARE * sum(pending))
    factor = calibration.scale(before, after)
    tally.raw_times += pending
    tally.times += [t * factor for t in pending]
    pending.clear()
    return after


def time_setups(args) -> tuple[list[float], list[float]]:
    """Seconds from process start to 'ready' for fresh set-up processes,
    scaled to the reference speed and as measured."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    scaled, raw = [], []
    before = calibration.sample(CALIBRATE_FIRST_S)
    for _ in range(SETUP_PROBES):
        raw.append(_time_until_ready(argv))
        after = calibration.sample(calibration.SHARE * raw[-1])
        scaled.append(raw[-1] * calibration.scale(before, after))
        before = after
    return scaled, raw


def time_imports() -> list[float]:
    """Seconds to ``import gicirc.cli`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import gicirc.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(done.stdout))
    return out


def _time_until_ready(argv) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code})")
    return elapsed


def plain_run(wl, args):
    tally = measure(wl, args.seconds, Tally())
    setups, raw_setups = time_setups(args)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "op_ms_p50": (tally.p50_ms(), "ms"),
    }
    detail = {"setup_samples_s": setups, "raw_setup_samples_s": raw_setups,
              "raw_op_ms_p50": 1e3 * statistics.median(tally.raw_times)}
    return tally, metrics, detail


def traced_run(wl, args):
    import tracing

    half = args.seconds / 2.0
    base = measure(wl, half, Tally())
    tracer = tracing.Tracer()
    if wl.in_process:
        tracer.install()
    else:
        wl.tracer = tracer
    try:
        traced = measure(wl, half, Tally(), tracer)
    finally:
        if wl.in_process:
            tracer.uninstall()
        else:
            wl.tracer = None
    imports = time_imports()
    metrics = tracing.layer_metrics(tracer.summary(), traced.attempted)
    metrics["cli.import_ms"] = (1e3 * statistics.median(imports), "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced.p50_ms() / base.p50_ms() - 1.0), "%")
    tally = Tally()
    for part in (base, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.incorrect += part.incorrect
        tally.problems += part.problems
        tally.times += part.times
        tally.raw_times += part.raw_times
    detail = {"untraced_op_ms_p50": base.p50_ms(), "traced_op_ms_p50": traced.p50_ms(),
              "traced_operations": traced.attempted, "layers": tracer.summary(),
              "spans_kept": len(tracer.spans), "spans": tracer.spans}
    return tally, metrics, detail


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"{name}: {json.dumps(result)}")
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def use_sources() -> bool:
    """Put the checkout's ``src`` first on the import path, here and in children."""
    if not (SRC / "gicirc" / "__init__.py").is_file():
        return False
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_sources():
        print(f"error: no gicirc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        tally, metrics, detail = (traced_run if args.trace else plain_run)(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "result": result, "problems": tally.problems[:50],
                   "op_times_s": tally.times, "raw_op_times_s": tally.raw_times, **detail}, fh)
    for problem in tally.problems[:10]:
        print(problem, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:40s} {value:14.6g} {unit}")
    if "raw_op_ms_p50" in detail:
        print(f"{args.workload:8s} {'op_ms_p50 as measured':40s} {detail['raw_op_ms_p50']:14.6g} ms")
    print(f"{args.workload:8s} attempted {tally.attempted}, failed {tally.failed}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
