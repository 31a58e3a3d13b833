"""The four benchmark workloads.

Each workload makes its inputs from the workload seed in ``__init__``
(imports, input generation) and ``warm_up``; together these are the set-up
that ``setup_s`` times.  ``round()`` lists the operations of one round;
every run repeats whole rounds of the same operations.  ``run(op)`` is the
timed call into the program and returns plain data; ``check(op, out)``
raises ``reference.CheckError`` when that data is wrong.

In-process workloads call the package through module attributes
(``gicirc.engine_report``, ``gicirc.cli.main``) so the tracer's wrappers
are seen.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import reference as ref
from reference import require, rel_close

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TWO_PI = 2.0 * math.pi
CHILD_TIMEOUT_S = 60.0


class InProcess:
    """A workload that calls the package inside the benchmark's process."""

    in_process = True

    def warm_up(self):
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Oracle(InProcess):
    """Engine-versus-closed-form oracle on random parameter sets.

    One operation is one parameter set run through ``engine_report`` on
    both topologies, the closed forms, and the nested circuit's document
    round trip.  No noise model and no analysis layer is involved.
    """

    name = "oracle"
    DPHI = 1e-4

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        import gicirc

        self.gc = gicirc
        rng = np.random.default_rng(seed)
        n = 20 if tiny else 500
        gains = rng.uniform(0.0, 2.0, (n, 2))
        losses = rng.uniform(0.0, 0.9, (n, 3))
        alpha2 = rng.uniform(1.0, 100.0, n)
        self.sets = [
            (float(alpha2[i]), float(gains[i, 0]), float(gains[i, 1]), *map(float, losses[i]))
            for i in range(n)
        ]

    def warm_up(self):
        for op in self.sets[:20]:
            self.run(op)

    def round(self):
        return self.sets

    def run(self, op):
        gc = self.gc
        alpha2, g1, g2, l_is, l_ii, l_e = op
        alpha = math.sqrt(alpha2)
        mzi = gc.SqMziParams(alpha=alpha, g=g1, L_i=l_is, L_e=l_e)
        nested = gc.SisniParams(alpha=alpha, g1=g1, g2=g2, L_is=l_is, L_ii=l_ii, L_e=l_e)
        engine = [gc.engine_report(p, self.DPHI) for p in (mzi, nested)]
        closed_snr = [gc.snr_sq_mzi_closed(mzi, self.DPHI), gc.snr_sisni_closed(nested, self.DPHI)]
        closed = [gc.mean_signal_and_variance(p, self.DPHI) for p in (mzi, nested)]
        spec, _ = gc.build_sisni(nested)
        doc = gc.serialize_circuit(spec)
        parsed = gc.parse_circuit(doc)
        state = gc.simulate(parsed)
        return {
            "engine": [(r.snr, r.var_X2) for r in engine],
            "closed_snr": closed_snr,
            "closed": [(r.snr, r.var_X2) for r in closed],
            "same_spec": parsed == spec,
            "doc": doc,
            "redoc": gc.serialize_circuit(parsed),
            "cov": state.cov,
            "detect": (parsed.detect.mode, parsed.detect.theta),
        }

    def check(self, op, out):
        alpha2, g1, g2, l_is, l_ii, l_e = op
        snr_ref = [
            ref.sq_mzi_snr(alpha2, g1, l_is, l_e, self.DPHI),
            ref.sisni_snr(alpha2, g1, g2, l_is, l_ii, l_e, self.DPHI),
        ]
        var_ref = [ref.sq_mzi_noise(g1, l_is, l_e), ref.sisni_noise(g1, g2, l_is, l_ii, l_e)]
        for topo, (snr, var), (csnr, cvar), c_snr, s_ref, v_ref in zip(
            ("sq-mzi", "sisni"), out["engine"], out["closed"], out["closed_snr"], snr_ref, var_ref
        ):
            require(rel_close(snr, s_ref, 1e-6), f"{topo} engine snr {snr} != {s_ref}")
            require(_var_close(var, v_ref), f"{topo} engine variance {var} != {v_ref}")
            require(rel_close(c_snr, s_ref, 1e-12), f"{topo} closed snr {c_snr} != {s_ref}")
            require(rel_close(csnr, s_ref, 1e-12), f"{topo} closed report snr {csnr} != {s_ref}")
            require(_var_close(cvar, v_ref), f"{topo} closed variance {cvar} != {v_ref}")
        require(out["same_spec"], "parse_circuit(serialize_circuit(spec)) != spec")
        require(out["redoc"] == out["doc"], "re-serialized document differs")
        mode, theta = out["detect"]
        block = out["cov"][2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2]
        c, s = math.cos(theta), math.sin(theta)
        var = c * c * block[0, 0] + 2.0 * c * s * block[0, 1] + s * s * block[1, 1]
        require(_var_close(var, var_ref[1]), f"document variance {var} != {var_ref[1]}")
        margin = ref.physicality_margin(out["cov"])
        require(margin >= -1e-9, f"physicality margin {margin}")


def _var_close(value: float, expected: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


class Fit(InProcess):
    """Noise-model fits on criterion-7-style synthetic data with known truth.

    The data are two advantage curves (upstream QNG 4 and 8 dB) at three
    downstream QNGs, generated at the criterion-7 truth.  One operation is
    one ``fit_noise_model`` with one restart; a round holds one fit per
    restart seed of ``RESTART_SEEDS``, in an order drawn from the workload
    seed.  At this budget recovery depends on the restart seed (see the
    README), so the seeds are fixed and the workload seed only orders them.
    """

    name = "fit"
    TRUTH = ((5e-4, 2.0), (4e-4, 208.0))
    LOSSES = (0.16, 0.10, 0.15)
    QNG1 = (4.0, 8.0)
    QNG2 = (2.0, 7.0, 12.0)
    BUDGET = {"restarts": 1, "max_evals": 1000}
    RESTART_SEEDS = (3, 5)

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        import gicirc

        self.gc = gicirc
        self.data = []
        for q1 in self.QNG1:
            curve = gicirc.advantage_vs_qng(q1, self.QNG2, self.LOSSES, *self.TRUTH)
            self.data.extend((q1, q2, float(a)) for q2, a in zip(self.QNG2, curve))
        order = np.random.default_rng(seed).permutation(len(self.RESTART_SEEDS))
        self.seeds = [self.RESTART_SEEDS[i] for i in order][: 1 if tiny else None]

    def warm_up(self):
        self.gc.advantage_vs_qng(self.QNG1[0], self.QNG2, self.LOSSES, *self.TRUTH)

    def round(self):
        return self.seeds

    def run(self, restart_seed):
        r = self.gc.fit_noise_model(self.data, self.LOSSES, seed=restart_seed, **self.BUDGET)
        return {"rho1": r.rho1, "rho2": r.rho2, "eps1_sq": r.eps1_sq, "eps2_sq": r.eps2_sq}

    def check(self, op, out):
        (rho1, eps1), (rho2, eps2) = self.TRUTH
        for key, truth, tol in (
            ("rho1", rho1, 0.10), ("rho2", rho2, 0.10), ("eps1_sq", eps1, 0.05), ("eps2_sq", eps2, 0.05)
        ):
            require(rel_close(out[key], truth, tol), f"restart seed {op}: {key} {out[key]} vs truth {truth}")


class Figures(InProcess):
    """One in-process ``cli.main`` pass over the README's figure commands.

    sweep (101 x 101, JSON and CSV), slope on both topologies,
    advantage-curve, and wigner on the 241 x 241 grid, all written to files.
    """

    name = "figures"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        import gicirc.cli

        self.gc = gicirc
        self.dir = workdir
        rng = np.random.default_rng(seed)
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        self.p = {
            "sweep_qng": u(3.0, 8.0), "sweep_alpha2": u(16.0, 100.0), "nested_qng": u(3.0, 8.0),
            "slope_qng1": u(3.0, 8.0), "slope_qng2": u(3.0, 8.0), "slope_alpha2": u(16.0, 100.0),
            "l_is": u(0.0, 0.3), "l_ii": u(0.0, 0.3), "l_e": u(0.0, 0.3),
            "adv_qng1": u(3.0, 6.0), "rho1": u(3e-4, 7e-4), "eps1_sq": u(1.5, 3.0),
            "rho2": u(3e-4, 5e-4), "eps2_sq": u(150.0, 250.0),
            "wigner_qng": u(2.0, 4.0), "wigner_alpha2": u(16.0, 49.0),
        }
        grid = 11 if tiny else 101
        xs = 61 if tiny else 241
        thetas = [f"--thetas=0:{TWO_PI!r}:9"] if tiny else []
        p, out = self.p, lambda name: str(workdir / name)
        slope_common = ["--alpha2", f"{p['slope_alpha2']!r}", "--l-e", f"{p['l_e']!r}", *thetas]
        self.commands = {
            "sweep_json": ["sweep", "--topology", "sq-mzi", "--qng-db", f"{p['sweep_qng']!r}",
                           "--alpha2", f"{p['sweep_alpha2']!r}",
                           "--internal", f"0:0.9:{grid}", "--external", f"0:0.9:{grid}"],
            "sweep_csv": ["sweep", "--topology", "sisni", "--qng1-db", f"{p['nested_qng']!r}",
                          "--qng2-db", f"{p['nested_qng']!r}", "--internal", f"0:0.9:{grid}",
                          "--external", f"0:0.9:{grid}", "--format", "csv"],
            "slope_sisni": ["slope", "--topology", "sisni", "--qng1-db", f"{p['slope_qng1']!r}",
                            "--qng2-db", f"{p['slope_qng2']!r}", "--l-is", f"{p['l_is']!r}",
                            "--l-ii", f"{p['l_ii']!r}", *slope_common],
            "slope_mzi": ["slope", "--topology", "mzi", "--l-i", f"{p['l_is']!r}", *slope_common],
            "advantage_curve": ["advantage-curve", "--qng1-db", f"{p['adv_qng1']!r}", "--qng2", "2:12:21",
                                "--rho1", f"{p['rho1']!r}", "--eps1-sq", f"{p['eps1_sq']!r}",
                                "--rho2", f"{p['rho2']!r}", "--eps2-sq", f"{p['eps2_sq']!r}"],
            "wigner": ["wigner", "--topology", "sq-mzi", "--qng-db", f"{p['wigner_qng']!r}",
                       "--alpha2", f"{p['wigner_alpha2']!r}", "--phis", "3.09:3.19:3",
                       "--l-es", "0:0.6:3", f"--xs=-12:12:{xs}", f"--ps=-12:12:{xs}"],
        }
        for name, argv in self.commands.items():
            argv += ["-o", out(name + (".csv" if name == "sweep_csv" else ".json"))]

    def round(self):
        return [None]

    def run(self, op):
        codes = {name: self.gc.cli.main(argv) for name, argv in self.commands.items()}
        return {"codes": codes, "paths": {name: argv[-1] for name, argv in self.commands.items()}}

    def check(self, op, out):
        require(all(code == 0 for code in out["codes"].values()), f"nonzero exit {out['codes']}")
        texts = {name: Path(path).read_text(encoding="utf-8") for name, path in out["paths"].items()}
        self.check_outputs(texts)

    def check_outputs(self, texts: dict):
        docs = {name: ref.strict_json(text) for name, text in texts.items() if name != "sweep_csv"}
        outputs = {name: doc["outputs"] for name, doc in docs.items()}
        p = self.p

        G, g = ref.gain_from_qng_db(p["sweep_qng"])
        corner = outputs["sweep_json"]["values"][0][0]
        expected = -20.0 * math.log10(G + g)
        require(abs(corner - expected) < 1e-9, f"lossless sq-mzi sweep {corner} != {expected}")

        table = ref.finite_csv(texts["sweep_csv"], ["internal_loss", "external_loss", "advantage_db"])
        row = table[table[:, 0] == 0.0, 2]
        require(row.size > 1 and np.ptp(row) < 1e-9, f"matched-gain zero-loss row not flat: {np.ptp(row)}")

        G2, _ = ref.gain_from_qng_db(p["slope_qng2"])
        peaks = []
        for name in ("slope_sisni", "slope_mzi"):
            theta = np.array(outputs[name]["theta"])
            slope = np.abs(np.array(outputs[name]["slope"]))
            k = int(np.argmax(slope))
            require(abs(math.cos(theta[k])) < 1e-6, f"{name} peaks at theta {theta[k]}")
            peaks.append(slope[k])
        require(rel_close(peaks[0] / peaks[1], G2, 1e-9), f"nested/MZI slope ratio {peaks[0] / peaks[1]} != G2 {G2}")

        inc = np.diff(outputs["advantage_curve"]["advantage_db"])
        require(bool(np.all(inc > 0.0)), "advantage curve does not rise")
        require(inc[-1] < 0.05 * inc[0], f"advantage curve does not saturate: {inc[-1]} vs {inc[0]}")

        w = outputs["wigner"]
        density = np.array(w["density"])
        cell = (w["x"][1] - w["x"][0]) * (w["p"][1] - w["p"][0])
        integrals = density.sum(axis=(2, 3)) * cell
        require(bool(np.all(np.abs(integrals - 1.0) < 1e-6)), f"Wigner integrals {integrals.ravel()}")


class Cli:
    """Cold ``python -m gicirc`` processes cycling through light commands."""

    name = "cli"
    in_process = False

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.dir = workdir
        self.tracer = None
        self.peak_kb = 0
        rng = np.random.default_rng(seed)
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        self.p = p = {
            "qng1": u(3.0, 8.0), "qng2": u(3.0, 8.0), "l_is": u(0.0, 0.3), "l_ii": u(0.0, 0.3),
            "l_e": u(0.0, 0.3), "alpha2": u(1.0, 100.0), "mzi_qng": u(3.0, 8.0), "l_i": u(0.0, 0.3),
            "doc_alpha": u(1.0, 10.0), "doc_l_i": u(0.0, 0.9), "doc_l_e": u(0.0, 0.9),
            "adv_qng1": u(3.0, 6.0), "rho1": u(3e-4, 7e-4), "eps1_sq": u(1.5, 3.0),
            "rho2": u(3e-4, 5e-4), "eps2_sq": u(150.0, 250.0), "sweep_qng": u(3.0, 8.0),
        }
        doc_path = workdir / "mzi.json"
        doc_path.write_text(json.dumps(self._mzi_document()), encoding="utf-8")
        self.commands = [
            ("snr", ["snr", "--topology", "sisni", "--qng1-db", f"{p['qng1']!r}", "--qng2-db", f"{p['qng2']!r}",
                     "--l-is", f"{p['l_is']!r}", "--l-ii", f"{p['l_ii']!r}", "--l-e", f"{p['l_e']!r}",
                     "--alpha2", f"{p['alpha2']!r}", "--dphi", "0.001"]),
            ("simulate_topology", ["simulate", "--topology", "sq-mzi", "--qng-db", f"{p['mzi_qng']!r}",
                                   "--alpha2", f"{p['alpha2']!r}", "--l-i", f"{p['l_i']!r}",
                                   "--l-e", f"{p['l_e']!r}"]),
            ("simulate_circuit", ["simulate", "--circuit", str(doc_path)]),
            ("advantage_curve", ["advantage-curve", "--qng1-db", f"{p['adv_qng1']!r}", "--qng2", "2:12:6",
                                 "--rho1", f"{p['rho1']!r}", "--eps1-sq", f"{p['eps1_sq']!r}",
                                 "--rho2", f"{p['rho2']!r}", "--eps2-sq", f"{p['eps2_sq']!r}"]),
            ("sweep", ["sweep", "--topology", "sq-mzi", "--qng-db", f"{p['sweep_qng']!r}",
                       "--internal", "0:0.5:11", "--external", "0:0.5:11"]),
        ]

    def _mzi_document(self) -> dict:
        p = self.p
        return {
            "schema": "gicirc/1",
            "n_modes": 2,
            "inputs": [{"type": "vacuum"}, {"type": "coherent", "alpha": p["doc_alpha"]}],
            "elements": [
                {"type": "single_mode_squeezer", "mode": 0, "g": 0.0},
                {"type": "bs", "modes": [0, 1]},
                {"type": "loss", "mode": 0, "L": p["doc_l_i"]},
                {"type": "loss", "mode": 1, "L": p["doc_l_i"]},
                {"type": "phase", "mode": 1, "phi": math.pi},
                {"type": "bs", "modes": [0, 1]},
                {"type": "loss", "mode": 0, "L": p["doc_l_e"]},
            ],
            "detect": {"mode": 0},
        }

    def warm_up(self):
        # Loads the interpreter, the package and its libraries into the page cache.
        code, _, _ = self._spawn([sys.executable, "-m", "gicirc", "--version"])
        require(code == 0, "warm-up process failed")

    def round(self):
        return self.commands

    def _spawn(self, argv):
        out_path = self.dir / "stdout.txt"
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
            try:
                code, peak_kb = _wait(proc, CHILD_TIMEOUT_S)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    _wait(proc, None)
        return code, out_path.read_text(encoding="utf-8"), peak_kb

    def run(self, op):
        name, args = op
        if self.tracer is None:
            argv = [sys.executable, "-m", "gicirc", *args]
        else:
            summary = self.dir / "child-trace.json"
            summary.unlink(missing_ok=True)
            argv = [sys.executable, "-c", _TRACED_CHILD, str(HERE), str(summary), *args]
        code, text, peak_kb = self._spawn(argv)
        self.peak_kb = max(self.peak_kb, peak_kb)
        if self.tracer is not None:
            self.tracer.merge(json.loads(summary.read_text(encoding="utf-8")))
        return {"code": code, "stdout": text}

    def check(self, op, out):
        name, _ = op
        require(out["code"] == 0, f"{name}: exit code {out['code']}")
        doc = ref.strict_json(out["stdout"])
        self.check_output(name, doc["outputs"])

    def check_output(self, name, outputs):
        p = self.p
        if name == "snr":
            g1, g2 = ref.gain_from_qng_db(p["qng1"])[1], ref.gain_from_qng_db(p["qng2"])[1]
            expected = ref.sisni_snr(p["alpha2"], g1, g2, p["l_is"], p["l_ii"], p["l_e"], 1e-3)
            snr = outputs["report"]["snr"]
            require(rel_close(snr, expected, 1e-12), f"snr {snr} != {expected}")
        elif name == "simulate_topology":
            g = ref.gain_from_qng_db(p["mzi_qng"])[1]
            expected = ref.sq_mzi_snr(p["alpha2"], g, p["l_i"], p["l_e"], 1e-3)
            snr = outputs["report"]["snr"]
            require(rel_close(snr, expected, 1e-6), f"engine snr {snr} != {expected}")
        elif name == "simulate_circuit":
            var = outputs["stats"]["variance"]
            require(abs(var - 1.0) <= 1e-12, f"g = 0 MZI variance {var} != 1")
        elif name == "advantage_curve":
            curve = outputs["advantage_db"]
            require(len(curve) == 6 and bool(np.all(np.diff(curve) > 0.0)), f"advantage curve {curve}")
        elif name == "sweep":
            G, g = ref.gain_from_qng_db(p["sweep_qng"])
            corner, expected = outputs["values"][0][0], -20.0 * math.log10(G + g)
            require(abs(corner - expected) < 1e-9, f"lossless sweep {corner} != {expected}")

    def peak_rss_mb(self) -> float:
        return self.peak_kb * 1024 / 1e6


# Traced cold process: argv = [perfbench dir, summary path, gicirc arguments...].
_TRACED_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import tracing; "
    "sys.exit(tracing.child_main(sys.argv[2:]))"
)


def _wait(proc, timeout):
    """Reap ``proc`` and return (exit code, peak RSS in KiB) from its rusage.

    A timer kills the process if it outlives ``timeout`` seconds.
    """
    timer = threading.Timer(timeout, proc.kill) if timeout else None
    if timer:
        timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        if timer:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


WORKLOADS = {cls.name: cls for cls in (Oracle, Fit, Figures, Cli)}
