#!/usr/bin/env python3
"""Fast self-test of the benchmark, run from the root of a source checkout.

    python3 perfbench/selftest.py

Runs one round of every workload at a tiny size and requires its checks to
pass, then perturbs each checked output in turn and requires the check that
guards it to fail (matched by a fragment of its message).  Exits 0 when all
of this holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import time

import run  # pins thread counts before numpy loads

if not run.use_sources():
    sys.exit(f"error: no gicirc sources under {run.SRC}")

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from reference import CheckError  # noqa: E402


def edit_json(text: str, change) -> str:
    doc = json.loads(text)
    change(doc["outputs"])
    return json.dumps(doc)


def set_item(container, key, value):
    container[key] = value
    return container


def scaled(seq, index, factor):
    seq[index] *= factor
    return seq


def oracle_cases():
    def cov_edit(change):
        def apply(out):
            out["cov"] = out["cov"].copy()
            change(out["cov"])
        return apply

    return [
        ("engine sq-mzi snr off by 1e-5", lambda o: set_item(o["engine"], 0, (o["engine"][0][0] * (1 + 1e-5), o["engine"][0][1])), "engine snr"),
        ("engine sisni variance off by 1e-9", lambda o: set_item(o["engine"], 1, (o["engine"][1][0], o["engine"][1][1] + 1e-9)), "engine variance"),
        ("closed sq-mzi snr off by 1e-10", lambda o: scaled(o["closed_snr"], 0, 1 + 1e-10), "closed snr"),
        ("closed report sisni snr off by 1e-10", lambda o: set_item(o["closed"], 1, (o["closed"][1][0] * (1 + 1e-10), o["closed"][1][1])), "closed report snr"),
        ("closed report variance off by 1e-10", lambda o: set_item(o["closed"], 0, (o["closed"][0][0], o["closed"][0][1] + 1e-10)), "closed variance"),
        ("parsed spec differs", lambda o: set_item(o, "same_spec", False), "!= spec"),
        ("re-serialization differs by a space", lambda o: set_item(o, "redoc", o["redoc"] + " "), "re-serialized"),
        ("document variance off by 1e-9", cov_edit(lambda c: c.__setitem__((1, 1), c[1, 1] + 1e-9)), "document variance"),
        ("unphysical undetected modes", cov_edit(lambda c: c.__setitem__((slice(2, 6), slice(2, 6)), 0.1 * c[2:6, 2:6])), "physicality"),
    ]


def fit_cases():
    return [
        (f"{key} off by {factor - 1:+.0%}", lambda o, k=key, f=factor: set_item(o, k, o[k] * f), key)
        for key, factor in (("rho1", 1.11), ("rho2", 0.89), ("eps1_sq", 1.06), ("eps2_sq", 0.94))
    ]


def figures_cases():
    def text_edit(name, change):
        def apply(texts):
            texts[name] = change(texts[name])
        return apply

    def csv_edit(change):
        def apply(text):
            lines = text.splitlines()
            cells = lines[2].split(",")
            cells[2] = change(cells[2])
            lines[2] = ",".join(cells)
            return "\n".join(lines)
        return apply

    def wigner_bump(out):
        out["density"][0][0][10][10] += 0.01

    return [
        ("NaN in the sweep JSON", text_edit("sweep_json", lambda t: edit_json(t, lambda o: o["values"][0].__setitem__(1, float("nan")))), "non-finite"),
        ("Infinity in the Wigner JSON", text_edit("wigner", lambda t: edit_json(t, lambda o: o["density"][0][0][0].__setitem__(0, float("inf")))), "non-finite"),
        ("lossless sweep corner off by 1e-6 dB", text_edit("sweep_json", lambda t: edit_json(t, lambda o: o["values"][0].__setitem__(0, o["values"][0][0] + 1e-6))), "lossless sq-mzi sweep"),
        ("nan in the sweep CSV", text_edit("sweep_csv", csv_edit(lambda v: "nan")), "non-finite"),
        ("zero-internal-loss row not flat", text_edit("sweep_csv", csv_edit(lambda v: repr(float(v) + 1e-6))), "not flat"),
        ("slope peak moved off the phase quadrature", text_edit("slope_sisni", lambda t: edit_json(t, lambda o: o.__setitem__("slope", list(np.roll(o["slope"], 1))))), "peaks at theta"),
        ("nested/MZI slope ratio off by 1e-6", text_edit("slope_mzi", lambda t: edit_json(t, lambda o: o.__setitem__("slope", [s * (1 + 1e-6) for s in o["slope"]]))), "slope ratio"),
        ("advantage curve dips", text_edit("advantage_curve", lambda t: edit_json(t, lambda o: o["advantage_db"].__setitem__(1, o["advantage_db"][0] - 1.0))), "does not rise"),
        ("advantage curve does not flatten", text_edit("advantage_curve", lambda t: edit_json(t, lambda o: o["advantage_db"].__setitem__(-1, o["advantage_db"][-1] + 1.0))), "does not saturate"),
        ("Wigner slice bumped by 0.01 at one point", text_edit("wigner", lambda t: edit_json(t, wigner_bump)), "Wigner integrals"),
    ]


def cli_cases():
    def stdout_edit(change):
        return lambda out: set_item(out, "stdout", edit_json(out["stdout"], change))

    return {
        "snr": [
            ("snr off by 1e-10", stdout_edit(lambda o: scaled(o["report"], "snr", 1 + 1e-10)), "snr"),
            ("nonzero exit", lambda out: set_item(out, "code", 1), "exit code"),
            ("Infinity in the output", lambda out: set_item(out, "stdout", out["stdout"].replace('"snr": ', '"snr": Infinity, "x": ', 1)), "non-finite"),
        ],
        "simulate_topology": [("engine snr off by 1e-5", stdout_edit(lambda o: scaled(o["report"], "snr", 1 + 1e-5)), "engine snr")],
        "simulate_circuit": [("variance off by 1e-11", stdout_edit(lambda o: set_item(o["stats"], "variance", o["stats"]["variance"] + 1e-11)), "variance")],
        "advantage_curve": [("curve reversed", stdout_edit(lambda o: o["advantage_db"].reverse()), "advantage curve")],
        "sweep": [("lossless corner off by 1e-6 dB", stdout_edit(lambda o: o["values"][0].__setitem__(0, o["values"][0][0] + 1e-6)), "lossless sweep")],
    }


def expect_failure(label, check, fragment, problems):
    try:
        check()
    except CheckError as exc:
        if fragment not in str(exc):
            problems.append(f"{label}: wrong check fired: {exc}")
        return
    problems.append(f"{label}: perturbed output passed its check")


def selftest_workload(name, workdir, problems) -> int:
    wl = workloads.WORKLOADS[name](0, workdir, tiny=True)
    wl.warm_up()
    cases = 0
    for i, op in enumerate(wl.round()):
        out = wl.run(op)
        wl.check(op, out)
        if name == "oracle" and i > 0:
            continue
        if name == "figures":
            texts = {k: open(p, encoding="utf-8").read() for k, p in out["paths"].items()}
            expect_failure("figures: nonzero exit", lambda: wl.check(op, {**out, "codes": {"wigner": 2}}), "nonzero exit", problems)
            cases += 1
            for label, perturb, fragment in figures_cases():
                bad = dict(texts)
                perturb(bad)
                expect_failure(f"figures: {label}", lambda: wl.check_outputs(bad), fragment, problems)
                cases += 1
            continue
        table = {"oracle": oracle_cases, "fit": fit_cases}
        perturbations = table[name]() if name in table else cli_cases()[op[0]]
        for label, perturb, fragment in perturbations:
            bad = copy.deepcopy(out)
            perturb(bad)
            expect_failure(f"{name}: {label}", lambda: wl.check(op, bad), fragment, problems)
            cases += 1
    return cases


def main() -> int:
    problems = []
    for name in run.WORKLOAD_NAMES:
        workdir = run.WORK / f"selftest-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            cases = selftest_workload(name, workdir, problems)
        except CheckError as exc:
            problems.append(f"{name}: unperturbed output failed: {exc}")
            cases = 0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name:8s} ran, {cases} perturbations, {time.perf_counter() - t0:.1f} s")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
