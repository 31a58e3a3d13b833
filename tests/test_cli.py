"""End-to-end tests of the command-line front end."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gicirc import (
    SisniParams,
    gain_from_qng,
    loss_plane,
    snr_sisni_closed,
)
from gicirc._shortest import _CHUNK
from gicirc.circuits import _BLOCK_MIN, _dump, _encode
from gicirc.cli import _grid_rows, _range_type, _write, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSnrCommand:
    def test_matches_closed_form(self, capsys):
        doc = run_json(
            capsys,
            "snr",
            "--topology", "sisni",
            "--qng1-db", "4", "--qng2-db", "6",
            "--l-is", "0.16", "--l-ii", "0.10", "--l-e", "0.15",
            "--alpha2", "36", "--dphi", "1e-3",
        )
        params = SisniParams(
            alpha=6.0,
            g1=gain_from_qng(4.0).g,
            g2=gain_from_qng(6.0).g,
            L_is=0.16,
            L_ii=0.10,
            L_e=0.15,
        )
        expected = snr_sisni_closed(params, 1e-3)
        assert doc["outputs"]["report"]["snr"] == pytest.approx(expected, rel=1e-12)
        assert doc["outputs"]["method"] == "closed_form"
        assert doc["schema_version"] == "gicirc-result/1"
        assert "parameter_hash" in doc["provenance"]

    def test_gain_flag_conflict(self, capsys):
        code, out, err = run_cli(
            capsys, "snr", "--topology", "sq-mzi", "--g", "0.7", "--qng-db", "6"
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_csv_format(self, capsys):
        code, out, err = run_cli(
            capsys, "snr", "--topology", "mzi", "--alpha2", "36", "--format", "csv"
        )
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0].startswith("mean_X2,var_X2,snr")
        assert len(lines) == 3 and lines[2] == ""


class TestSimulateCommand:
    def test_circuit_from_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            '{"schema":"gicirc/1","n_modes":1,"inputs":[{"type":"thermal","variance":2.0}],'
            '"elements":[{"type":"loss","mode":0,"L":0.15}],"detect":{"mode":0,"theta":0.0}}'
        )
        doc = run_json(capsys, "simulate", "--circuit", str(path))
        assert doc["outputs"]["stats"]["variance"] == pytest.approx(0.85 * 2 + 0.15)

    def test_circuit_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                '{"schema":"gicirc/1","n_modes":1,"inputs":[{"type":"vacuum"}],'
                '"elements":[],"detect":{"mode":0}}'
            ),
        )
        doc = run_json(capsys, "simulate", "--circuit", "-")
        assert doc["outputs"]["stats"]["variance"] == pytest.approx(1.0)

    def test_full_state(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            '{"schema":"gicirc/1","n_modes":2,"inputs":[{"type":"coherent","alpha":1.0},'
            '{"type":"vacuum"}],"elements":[],"detect":{"mode":0}}'
        )
        doc = run_json(capsys, "simulate", "--circuit", str(path), "--full-state")
        assert doc["outputs"]["state"]["mean"] == [2.0, 0.0, 0.0, 0.0]

    def test_full_state_of_a_wide_circuit_is_written_as_json_dumps(self, capsys, tmp_path):
        """A 17-mode covariance (1,156 floats) goes through the array writer with json's bytes."""
        n = 17
        elements = [{"type": "pa", "modes": [k, k + 1], "g": 0.3 + 0.05 * k} for k in range(n - 1)]
        elements += [{"type": "bs", "modes": [k, k + 1]} for k in range(0, n - 1, 2)]
        elements += [{"type": "loss", "mode": k, "L": 0.1} for k in range(n)]
        inputs = [{"type": "coherent", "alpha": 1.0 + k} for k in range(n)]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"schema": "gicirc/1", "n_modes": n, "inputs": inputs, "elements": elements, "detect": {"mode": 0}}
        ))
        out = tmp_path / "state.json"
        code, _, err = run_cli(capsys, "simulate", "--circuit", str(path), "--full-state", "-o", str(out))
        assert code == 0, err
        text = out.read_text()
        doc = json.loads(text)
        assert np.shape(doc["outputs"]["state"]["cov"]) == (2 * n, 2 * n)
        assert (2 * n) ** 2 >= _BLOCK_MIN
        assert text == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def test_topology_engine_report(self, capsys):
        doc = run_json(
            capsys, "simulate", "--topology", "sq-mzi", "--g", "0.75", "--alpha2", "36"
        )
        assert doc["outputs"]["report"]["var_X2"] == pytest.approx(0.25, abs=1e-12)
        assert doc["outputs"]["method"] == "engine"

    def test_circuit_topology_conflict(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        code, out, err = run_cli(
            capsys, "simulate", "--circuit", str(path), "--topology", "mzi"
        )
        assert code == 1
        assert "exactly one" in json.loads(err)["error"]["message"]

    def test_neither_source(self, capsys):
        code, out, err = run_cli(capsys, "simulate")
        assert code == 1

    def test_semantic_error_is_machine_readable(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"schema":"gicirc/1","n_modes":1,"inputs":[{"type":"vacuum"}],'
            '"elements":[{"type":"loss","mode":0,"L":1.5}],"detect":{"mode":0}}'
        )
        code, out, err = run_cli(capsys, "simulate", "--circuit", str(path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "CircuitError"
        assert "element 0" in payload["error"]["message"]


class TestSweepCommand:
    def test_flat_rows_and_csv_shape(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--topology", "sisni", "--qng1-db", "6", "--qng2-db", "6",
            "--internal", "0:0:1".replace("0:0:1", "0:0.0:2"),
            "--external", "0:0.9:10",
            "--format", "csv",
        )
        assert code == 0
        lines = [l for l in out.split("\r\n") if l]
        assert lines[0] == "internal_loss,external_loss,advantage_db"
        assert len(lines) == 1 + 2 * 10
        values = [float(l.split(",")[2]) for l in lines[1:11]]
        assert max(values) - min(values) < 1e-9

    def test_determinism(self, capsys):
        args = (
            "sweep", "--topology", "sq-mzi", "--qng-db", "6",
            "--internal", "0:0.8:5", "--external", "0:0.8:5",
            "--format", "csv",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_json_grid(self, capsys):
        doc = run_json(
            capsys,
            "sweep", "--topology", "sq-mzi", "--qng-db", "6",
            "--internal", "0:0.8:3", "--external", "0:0.8:4",
        )
        values = np.array(doc["outputs"]["values"])
        assert values.shape == (3, 4)
        assert doc["outputs"]["y_axis"]["name"] == "internal_loss"


class TestSlopeCommand:
    def test_peak_at_phase_quadrature(self, capsys):
        doc = run_json(
            capsys,
            "slope", "--topology", "mzi", "--alpha2", "36",
            "--thetas", f"0:{2 * math.pi}:361",
        )
        thetas = np.array(doc["outputs"]["theta"])
        slopes = np.array(doc["outputs"]["slope"])
        peak = thetas[np.argmax(np.abs(slopes))]
        assert min(abs(peak - math.pi / 2), abs(peak - 3 * math.pi / 2)) < 0.02
        assert np.abs(slopes).max() == pytest.approx(6.0, rel=1e-6)


class TestWignerCommand:
    def test_normalized_slices(self, capsys):
        doc = run_json(
            capsys,
            "wigner", "--topology", "sq-mzi", "--qng-db", "6", "--alpha2", "36",
            "--phis", f"{math.pi}:{math.pi}:2",
            "--l-es", "0:0.5:2",
            "--xs=-12:12:241", "--ps=-12:12:241",
        )
        density = np.array(doc["outputs"]["density"])
        step = 0.1
        totals = density.sum(axis=(2, 3)) * step * step
        assert np.allclose(totals, 1.0, atol=1e-4)


class TestAdvantageCurveCommand:
    def test_noise_off_lossless(self, capsys):
        doc = run_json(
            capsys,
            "advantage-curve", "--qng1-db", "6",
            "--qng2", "6:6:2",
            "--l-is", "0", "--l-ii", "0", "--l-e", "0",
        )
        expected = 10 * math.log10(gain_from_qng(6.0).G ** 2)
        assert doc["outputs"]["advantage_db"][0] == pytest.approx(expected, abs=1e-9)


class TestFitCommand:
    def test_smoke_and_determinism(self, capsys, tmp_path):
        from gicirc import advantage_vs_qng

        losses = (0.16, 0.10, 0.15)
        qng2s = [3.0, 6.0, 9.0, 12.0]
        curve = advantage_vs_qng(4.0, qng2s, losses, (0.0, 1.0), (0.0, 1.0))
        path = tmp_path / "data.csv"
        rows = "\n".join(f"4.0,{q},{a}" for q, a in zip(qng2s, curve))
        path.write_text("qng1_db,qng2_db,advantage_db\n" + rows + "\n")
        args = (
            "fit", "--data", str(path), "--seed", "7",
            "--restarts", "2", "--max-evals", "120", "--format", "csv",
        )
        code, out1, err = run_cli(capsys, *args)
        assert code == 0, err
        code, out2, err = run_cli(capsys, *args)
        assert out1 == out2
        header = out1.split("\r\n")[0]
        assert header.startswith("rho1,rho2,eps1_sq,eps2_sq,residual_rms")


class TestOutputPlumbing:
    def test_env_var_default_format(self, capsys, monkeypatch):
        monkeypatch.setenv("GICIRC_FORMAT", "csv")
        code, out, err = run_cli(capsys, "snr", "--topology", "mzi", "--alpha2", "4")
        assert code == 0
        assert out.startswith("mean_X2,")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, err = run_cli(
            capsys, "snr", "--topology", "mzi", "--alpha2", "4", "-o", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"]["name"] == "snr"

    def test_numbers_use_12_significant_digits(self, capsys):
        code, out, err = run_cli(
            capsys, "snr", "--topology", "mzi", "--alpha2", "36", "--format", "csv"
        )
        row = out.split("\r\n")[1].split(",")
        assert row[1] == "1"  # unit variance prints bare

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gicirc", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "gicirc" in proc.stdout


class TestNonFiniteResults:
    @pytest.mark.parametrize("alpha2", ["nan", "inf"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_is_an_error(self, capsys, alpha2, fmt):
        code, out, err = run_cli(
            capsys, "snr", "--topology", "mzi", "--alpha2", alpha2, "--format", fmt
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("block", [False, True], ids=["list", "block"])
    def test_non_finite_result_leaves_no_file(self, tmp_path, fmt, block):
        path = tmp_path / "out"
        path.write_text("an earlier result")
        args = argparse.Namespace(command="sweep", output=str(path), format=fmt)
        values = [1.0, 2.0, math.nan]
        if block:  # a float block above the kernel's cut-over, after other output
            values = [[0.5 * i + j for j in range(60)] for i in range(60)]
            values[30][7] = math.nan
        rows = [(v,) for v in np.ravel(values)]
        with pytest.raises(ValueError, match="non-finite"):
            _write(args, {"a": "first", "values": values}, ("value",), rows)
        assert not path.exists()

    def test_zero_dphi_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--topology", "sq-mzi", "--dphi", "0")
        assert code == 1
        assert out == ""
        assert "dphi" in json.loads(err)["error"]["message"]


class TestOutputFile:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("points", [5, 41])  # 41 x 41 panels go through the float-block kernel
    def test_file_holds_what_stdout_prints(self, capsys, tmp_path, fmt, points):
        argv = ["wigner", "--topology", "sq-mzi", "--qng-db", "3", "--phis", "3.09:3.19:2",
                "--l-es", "0:0.6:2", f"--xs=-4:4:{points}", f"--ps=-4:4:{points}", "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "out"
        assert run_cli(capsys, *argv, "-o", str(path))[0] == 0
        assert path.read_bytes() == out.encode("utf-8")


class TestParameterEcho:
    def hash_of(self, capsys, *argv):
        return run_json(capsys, *argv)["provenance"]["parameter_hash"]

    def test_wigner_hash_covers_losses(self, capsys):
        argv = (
            "wigner", "--topology", "sq-mzi", "--phis", "3:3.2:2", "--l-es", "0:0.5:2",
            "--xs=-1:1:3", "--ps=-1:1:3",
        )
        assert self.hash_of(capsys, *argv) != self.hash_of(capsys, *argv, "--l-i", "0.2")

    def test_simulate_hash_covers_full_state(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            '{"schema":"gicirc/1","n_modes":1,"inputs":[{"type":"vacuum"}],'
            '"elements":[],"detect":{"mode":0}}'
        )
        plain = self.hash_of(capsys, "simulate", "--circuit", str(path))
        full = self.hash_of(capsys, "simulate", "--circuit", str(path), "--full-state")
        assert plain != full

    LOSSY = (
        '{"schema":"gicirc/1","n_modes":1,"inputs":[{"type":"thermal","variance":2.0}],'
        '"elements":[{"type":"loss","mode":0,"L":%s}],"detect":{"mode":0}}'
    )

    def test_simulate_hash_covers_the_document_not_its_path(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        hashes, echoed = [], []
        for loss in ("0.15", "0.3"):
            path.write_text(self.LOSSY % loss)
            doc = run_json(capsys, "simulate", "--circuit", str(path))
            hashes.append(doc["provenance"]["parameter_hash"])
            echoed.append(doc["command"]["parameters"]["circuit"])
        assert hashes[0] != hashes[1]
        assert echoed == [str(path)] * 2

    def test_simulate_hash_is_the_same_from_a_file_and_from_stdin(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(self.LOSSY % "0.15")
        from_file = run_json(capsys, "simulate", "--circuit", str(path))
        monkeypatch.setattr("sys.stdin", io.StringIO(self.LOSSY % "0.15"))
        from_stdin = run_json(capsys, "simulate", "--circuit", "-")
        assert from_file["provenance"] == from_stdin["provenance"]
        assert from_file["outputs"] == from_stdin["outputs"]
        assert from_stdin["command"]["parameters"]["circuit"] == "-"

    def test_every_option_is_echoed(self, capsys):
        doc = run_json(capsys, "slope", "--topology", "mzi", "--thetas", "0:1:2")
        params = doc["command"]["parameters"]
        assert params["thetas"] == [0.0, 1.0, 2]
        assert {"topology", "alpha2", "dphi", "l_i", "l_e", "phi_pump"} <= params.keys()
        assert not {"func", "command", "output", "format"} & params.keys()


class TestWignerFlags:
    @pytest.mark.parametrize("value", ["0.5", "0:0.5:2"])
    def test_external_loss_flag_is_refused(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["wigner", "--topology", "sq-mzi", "--l-e", value, "--xs=-1:1:3", "--ps=-1:1:3"])
        assert exc.value.code == 2
        assert "--l-e" in capsys.readouterr().err

    def test_parameters_omit_l_e(self, capsys):
        doc = run_json(capsys, "wigner", "--topology", "sq-mzi", "--xs=-1:1:3", "--ps=-1:1:3")
        params = doc["command"]["parameters"]
        assert "l_e" not in params
        assert {"l_i", "l_is", "l_ii", "l_es"} <= params.keys()


class TestFitDataErrors:
    def test_nan_row_is_named(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("qng1_db,qng2_db,advantage_db\n4,3,1\n4,6,1.5\n8,3,nan\n8,6,1.2\n")
        code, out, err = run_cli(capsys, "fit", "--data", str(path), "--restarts", "1", "--max-evals", "10")
        assert code == 1
        assert out == ""
        assert "data row 2" in json.loads(err)["error"]["message"]


class TestFlagAbbreviations:
    @pytest.mark.parametrize(
        "argv",
        [
            ["snr", "--topology", "mzi", "--alpha", "6"],  # would be read as --alpha2 6
            ["sweep", "--topology", "sq-mzi", "--internal-t", "signal"],
            ["--vers"],  # would print the version
        ],
    )
    def test_abbreviated_flag_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
        commands = [
            shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("gicirc ")
        ]
        assert len(commands) >= 8
        parser = build_parser()
        for argv in commands:
            args = parser.parse_args(argv[1:])
            flags = {arg.split("=")[0] for arg in argv if arg.startswith("--")}
            assert {flag[2:].replace("-", "_") for flag in flags} <= vars(args).keys(), argv


def _fresh_run(argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "gicirc", *argv], capture_output=True)


class TestParserReuse:
    """``main`` parses with one parser a process, and a caller's parser is its own."""

    def test_runs_in_one_process_print_what_fresh_processes_print(self, capsys):
        runs = [
            ["snr", "--topology", "mzi", "--alpha2", "16", "--l-e", "0.2"],
            ["wigner", "--topology", "sq-mzi", "--xs=-1:1:3", "--ps=-1:1:3", "--l-e", "0.1"],  # exit 2
            ["simulate", "--topology", "sq-mzi"],
            ["snr", "--topology", "mzi"],  # the first run's flags are not kept
        ]
        codes = []
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = _fresh_run(argv)
            assert (code, captured.out.encode(), captured.err.encode()) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.append(code)
        assert codes == [0, 2, 0, 0]

    def test_a_built_parser_does_not_change_main(self, capsys):
        parser = build_parser()
        assert parser is not build_parser()
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        subs.choices["snr"].set_defaults(alpha2=1.0, func=lambda args: 99)
        code, out, err = run_cli(capsys, "snr", "--topology", "mzi")
        assert (code, out.encode()) == (0, _fresh_run(["snr", "--topology", "mzi"]).stdout), err


class TestWignerCsv:
    def test_rows_match_json_density(self, capsys):
        argv = ("wigner", "--topology", "sq-mzi", "--phis", "3:3.2:2", "--l-es", "0:0.5:2",
                "--xs=-1:1:3", "--ps=-2:2:5")
        density = np.array(run_json(capsys, *argv)["outputs"]["density"])
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "phi,l_e,x,p,density"
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
        assert table.shape == (2 * 2 * 3 * 5, 5)
        assert np.allclose(table[:, 4], density.ravel(), rtol=1e-11, atol=0.0)


# JSON trees like the result documents, and the corners of json's output:
# -0.0, subnormals, 1e16, big ints, numpy floats, escaped and non-ASCII text.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = (
    _FINITE
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1.7976931348623157e308])
    | _FINITE.map(np.float64)
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.booleans()
    | st.none()
    | st.text()
)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")])


def _trees(leaves):
    return st.recursive(
        leaves | st.lists(_FINITE | _FINITE.map(np.float64)),
        lambda children: (
            st.lists(children, max_size=5)
            | st.tuples(children, children)
            | st.dictionaries(st.text(max_size=8), children, max_size=5)
        ),
        max_leaves=40,
    )


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


class TestJsonEncoder:
    @settings(max_examples=300, deadline=None)
    @given(_trees(_SCALARS))
    def test_matches_json_dumps(self, tree):
        assert _encode(tree) == _reference(tree)

    @settings(max_examples=200, deadline=None)
    @given(_trees(_SCALARS | _NON_FINITE))
    def test_non_finite_values_raise(self, tree):
        try:
            expected = _reference(tree)
        except ValueError:
            with pytest.raises(ValueError):
                _encode(tree)
        else:
            assert _encode(tree) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    @pytest.mark.parametrize("where", ["scalar", "float list", "nested list", "mixed list"])
    def test_non_finite_anywhere_raises(self, bad, where):
        tree = {
            "scalar": {"a": bad},
            "float list": {"a": [1.0, bad, 2.0]},
            "nested list": [[1.0, 2.0], [3.0, bad]],
            "mixed list": [1, "x", bad],
        }[where]
        with pytest.raises(ValueError):
            _encode(tree)

    def test_unsupported_values_raise_type_error(self):
        with pytest.raises(TypeError):
            _encode({"a": [1.0, np.arange(2)]})
        with pytest.raises(TypeError):
            _encode({1: 2.0})
        with pytest.raises(TypeError):
            _encode({"a": _block(np.random.default_rng(1), (40, 40), (np.arange(2), (3, 4)))})


def _array(rng, shape) -> np.ndarray:
    """Float64 values of ``shape`` (1e-300 to 1e300, both signs, some round)."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
    values[..., ::7] = np.round(values[..., ::7] * 1e-290, 2)
    return values


def _block(rng, shape, *put):
    """Nested float lists of :func:`_array` values, ``put = (value, index)`` in place."""
    block = _array(rng, shape).tolist()
    for value, index in put:
        row = block
        for i in index[:-1]:
            row = row[i]
        row[index[-1]] = value
    return block


# Lists of float lists at or above the kernel's cut-over (circuits._BLOCK_MIN).
_BLOCKS = {
    "2-D": lambda rng: _block(rng, (40, 30)),
    "3-D": lambda rng: _block(rng, (3, 40, 30)),
    "ragged": lambda rng: [_block(rng, (n,)) for n in rng.integers(1, 80, 40)],
    "tuple rows": lambda rng: [tuple(row) for row in _block(rng, (40, 30))],
    "numpy floats": lambda rng: [list(map(np.float64, row)) for row in _block(rng, (40, 30))],
    "zeros and subnormals": lambda rng: [row[:20] + [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308]
                                         for row in _block(rng, (40, 30))],
    "an int": lambda rng: _block(rng, (40, 30), (7, (12, 3))),
    "a bool": lambda rng: _block(rng, (40, 30), (True, (39, 29))),
    "a None": lambda rng: _block(rng, (40, 30), (None, (0, 0))),
    "a string": lambda rng: _block(rng, (40, 30), ("x", (5, 5))),
    "a nested list": lambda rng: _block(rng, (40, 30), ([1.5, [2.5]], (20, 10))),
    "an empty row": lambda rng: _block(rng, (40, 30), ([], (20,))),
}


# A failing example of the float-writer properties holds up to a thousand
# floats, and shrinking it takes minutes: they report it as drawn.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


def assert_same_text(got: str, expected: str):
    """``got == expected``, reported at the first difference.

    pytest's own report of two unequal texts of a thousand floats is a
    ``difflib`` diff of their lines, which takes minutes.
    """
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        around = slice(max(at - 40, 0), at + 40)
        raise AssertionError(f"texts differ from character {at}: {got[around]!r} != {expected[around]!r}")


class TestFloatBlocks:
    """Lists of float lists large enough for the vectorized kernel are written as ``json.dumps`` writes them."""

    @pytest.mark.parametrize("kind", list(_BLOCKS))
    def test_matches_json_dumps(self, kind):
        tree = {"outputs": {"values": _BLOCKS[kind](np.random.default_rng(7)), "n": 3}}
        assert _encode(tree) == _reference(tree)

    @settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(40, 25), (1, 1000), (1000, 1), (2, 3, 200), (999,), (10, 99)]),
        st.lists(st.tuples(st.integers(0, 10**6), _SCALARS), max_size=4),
    )
    def test_random_blocks_match_json_dumps(self, seed, shape, odd):
        tree = _block(np.random.default_rng(seed), shape)
        for where, value in odd:  # replace some items, kernel path or not
            row = tree
            while isinstance(row[0], list):
                row = row[where % len(row)]
            row[where % len(row)] = value
        assert_same_text(_encode(tree), _reference(tree))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    @pytest.mark.parametrize("kind", ["2-D", "3-D", "numpy floats"])
    def test_non_finite_in_a_block_raises(self, bad, kind):
        tree = _BLOCKS[kind](np.random.default_rng(3))
        row = tree
        while isinstance(row[0], (list, tuple)):
            row = row[-1]
        row[len(row) // 2] = bad
        with pytest.raises(ValueError):
            _reference(tree)
        with pytest.raises(ValueError):
            _encode(tree)


# Arrays on both sides of the kernel's cut-over (circuits._BLOCK_MIN), 1-D to 4-D.
_ARRAY_SHAPES = [
    (5,), (999,), (1000,), (0,), (3, 0), (1, 1),
    (40, 24), (40, 25), (1, 1000), (1000, 1), (37, 29),
    (2, 3, 166), (2, 3, 167), (3, 40, 30),
    (1, 1, 1, 1), (2, 2, 15, 16), (2, 2, 16, 16), (3, 3, 12, 10),
]
# Values the kernel hands to float.__repr__ (zeros, subnormals), the ends of
# the double range and short decimals.
_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5, 0.1, 123456789.0,
])


class TestFloatArrays:
    """A float64 array is written as ``json.dumps`` writes its ``tolist()``."""

    @settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(_ARRAY_SHAPES),
        st.lists(st.tuples(st.integers(0, 10**6), _EDGE_FLOATS | _FINITE), max_size=6),
        st.booleans(),
    )
    def test_random_arrays_match_json_dumps(self, seed, shape, put, transposed):
        array = _array(np.random.default_rng(seed), shape)
        flat = array.reshape(-1)
        for where, value in put:
            if flat.size:
                flat[where % flat.size] = value
        if transposed:  # a view that is not C-contiguous
            array = array.T
        tree = {"outputs": {"values": array, "n": 3}}
        lists = {"outputs": {"values": array.tolist(), "n": 3}}
        assert_same_text(_encode(tree), _reference(lists))
        assert_same_text(_encode(array), _reference(array.tolist()))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 555, -1])
    @pytest.mark.parametrize("shape", [(1200,), (40, 30), (3, 40, 30), (2, 2, 20, 20), (2, 3, 100)])
    def test_non_finite_anywhere_raises(self, bad, where, shape):
        array = _array(np.random.default_rng(5), shape)
        array.reshape(-1)[where] = bad
        with pytest.raises(ValueError):
            _reference(array.tolist())
        with pytest.raises(ValueError):
            _encode({"a": 1.0, "values": array})

    @pytest.mark.parametrize("shape", [(40, 30), (3, 40, 30), (2, 2, 20, 20)])
    def test_a_kernel_array_is_checked_before_it_is_written(self, shape):
        assert math.prod(shape) >= _BLOCK_MIN
        array = _array(np.random.default_rng(6), shape)
        array.reshape(-1)[-1] = math.nan
        chunks = []
        with pytest.raises(ValueError):
            _dump(array, chunks.append)
        assert chunks == []

    def test_other_arrays_are_refused(self):
        for array in (np.arange(2000).reshape(40, 50), np.ones((40, 30), dtype=np.float32), np.array(1.0)):
            with pytest.raises(TypeError):
                _encode({"a": array})

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_array_leaves_no_file(self, tmp_path, fmt):
        path = tmp_path / "out"
        path.write_text("an earlier result")
        args = argparse.Namespace(command="sweep", output=str(path), format=fmt)
        axis = np.linspace(0.0, 1.0, 60)
        values = _array(np.random.default_rng(8), (60, 60))
        values[59, 59] = math.inf
        rows = _grid_rows((axis, axis), values)
        with pytest.raises(ValueError, match="^result holds a non-finite number \\(NaN or Infinity\\)$"):
            _write(args, {"a": "first", "values": values}, ("x", "y", "value"), rows)
        assert not path.exists()


# Values the kernel writes with float.__repr__ (zeros, a subnormal) or at a
# switch of its layout (1e16, 1e-5).
_CHUNK_EDGE_VALUES = [0.0, -0.0, 5e-324, 1e16, 1e-5]


class TestChunkEdges:
    """The array writer where the kernel's chunks of whole rows begin and end."""

    # (2, 150, 241) and (3, 3, 241, 241): a list of rows spans several chunks,
    # split unevenly; (5, 16_390): a row longer than a chunk; and a 5-D array.
    @pytest.mark.parametrize("shape", [(2, 150, 241), (3, 3, 241, 241), (5, 16_390), (2, 2, 2, 30, 40)])
    def test_matches_json_dumps(self, shape):
        array = _array(np.random.default_rng(11), shape)
        flat = array.reshape(-1)
        step = -(-_CHUNK // shape[-1]) * shape[-1]  # the kernel's chunk: whole rows, at least _CHUNK values
        for c, lo in enumerate(range(0, flat.size, step)):
            flat[lo] = _CHUNK_EDGE_VALUES[c % 5]
            flat[min(lo + step, flat.size) - 1] = _CHUNK_EDGE_VALUES[(c + 2) % 5]
        tree = {"outputs": {"values": array, "n": 3}}
        assert_same_text(_encode(tree), _reference({"outputs": {"values": array.tolist(), "n": 3}}))

    def test_one_write_a_chunk(self):
        chunks = []
        _dump(_array(np.random.default_rng(12), (3, 3, 241, 241)), chunks.append)
        assert len(chunks) < 100


def _csv_reference(header, axes, values) -> str:
    """A grid's CSV as ``csv.writer`` writes each value formatted by ``%.12g``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    points = zip(itertools.product(*axes), np.ravel(values))
    writer.writerows(["%.12g" % v for v in (*point, value)] for point, value in points)
    return buf.getvalue()


def _linspace(axis: dict) -> np.ndarray:
    return np.linspace(axis["start"], axis["stop"], axis["count"])


# Grid commands: argv, CSV header and (axes, values) read from the JSON outputs.
_GRID_COMMANDS = {
    "sweep": (
        ["sweep", "--topology", "sisni", "--qng1-db", "5", "--qng2-db", "6", "--l-ii", "0.1",
         "--internal-target", "signal", "--internal", "0:0.9:13", "--external", "0:0.9:17"],
        ("internal_loss", "external_loss", "advantage_db"),
        lambda out: ((_linspace(out["y_axis"]), _linspace(out["x_axis"])), out["values"]),
    ),
    "slope": (
        ["slope", "--topology", "sisni", "--qng1-db", "4", "--qng2-db", "6", "--thetas", "0:6.283185307179586:37"],
        ("theta", "slope"),
        lambda out: ((out["theta"],), out["slope"]),
    ),
    "wigner": (  # 4,356 rows: more than one block of the table writer
        ["wigner", "--topology", "sq-mzi", "--qng-db", "4", "--phis", "3.09:3.19:2", "--l-es", "0:0.6:2",
         "--xs=-6:6:33", "--ps=-6:6:33"],
        ("phi", "l_e", "x", "p", "density"),
        lambda out: ((out["phi_values"], out["l_e_values"], out["x"], out["p"]), out["density"]),
    ),
    "advantage-curve": (
        ["advantage-curve", "--qng1-db", "4", "--qng2", "2:12:21", "--rho1", "5e-4", "--eps1-sq", "2",
         "--rho2", "4e-4", "--eps2-sq", "208"],
        ("qng2_db", "advantage_db"),
        lambda out: ((out["qng2_db"],), out["advantage_db"]),
    ),
}


class TestCsvTables:
    @pytest.mark.parametrize("command", list(_GRID_COMMANDS))
    def test_matches_a_csv_writer(self, capsys, command):
        argv, header, grid = _GRID_COMMANDS[command]
        axes, values = grid(run_json(capsys, *argv)["outputs"])
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, err
        assert out == _csv_reference(header, axes, values)


def run_error(capsys, *argv):
    """Exit code 1, nothing on stdout and one line of JSON error on stderr."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    return json.loads(err)["error"]


class TestUnreadFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["snr", "--topology", "mzi", "--alpha2", "36", "--g1", "5"], "--g1"),
            (["snr", "--topology", "mzi", "--l-is", "0.5"], "--l-is"),
            (["snr", "--topology", "mzi", "--phi-pump", "1"], "--phi-pump"),
            (["snr", "--topology", "sq-mzi", "--qng2-db", "3"], "--qng2-db"),
            (["snr", "--topology", "sisni", "--alpha2", "36", "--g", "3"], "--g"),
            (["snr", "--topology", "sisni", "--l-i", "0.5"], "--l-i"),
            (["simulate", "--topology", "sisni", "--qng-db", "3"], "--qng-db"),
            (["slope", "--topology", "sq-mzi", "--l-ii", "0.1"], "--l-ii"),
            (["wigner", "--topology", "sq-mzi", "--l-is", "0.1"], "--l-is"),
        ],
    )
    def test_flag_of_another_topology_is_refused(self, capsys, argv, flag):
        error = run_error(capsys, *argv)
        assert error["type"] == "ValueError"
        assert f"{flag} does not apply to --topology" in error["message"]

    @pytest.mark.parametrize(
        "extra", [["--g1", "5"], ["--alpha2", "1"], ["--dphi", "0.01"], ["--l-e", "0.1"]]
    )
    def test_topology_flag_with_circuit_is_refused(self, capsys, tmp_path, extra):
        path = tmp_path / "c.json"
        path.write_text(
            '{"schema":"gicirc/1","n_modes":1,"inputs":[{"type":"vacuum"}],'
            '"elements":[],"detect":{"mode":0}}'
        )
        error = run_error(capsys, "simulate", "--circuit", str(path), *extra)
        assert f"{extra[0]} does not apply to --circuit" in error["message"]

    def test_flags_at_their_defaults_change_nothing(self, capsys):
        plain = run_cli(capsys, "snr", "--topology", "mzi", "--l-i", "0.1")
        explicit = run_cli(
            capsys, "snr", "--topology", "mzi", "--l-i", "0.1", "--l-is", "0", "--phi-pump", repr(math.pi)
        )
        assert plain[0] == 0 and plain == explicit

    def test_sq_mzi_sweep_takes_only_both(self, capsys):
        error = run_error(capsys, "sweep", "--topology", "sq-mzi", "--internal-target", "idler")
        assert error["message"] == "unknown internal loss target 'idler'"


class TestGainOverflow:
    @pytest.mark.parametrize(
        "argv, stage",
        [
            (["snr", "--topology", "sq-mzi", "--g", "1e200", "--alpha2", "36"], "closed form"),
            (["snr", "--topology", "sisni", "--g1", "1e200", "--g2", "0.5"], "closed form"),
            (["simulate", "--topology", "sq-mzi", "--g", "1e200"], "engine"),
            (["simulate", "--topology", "sisni", "--g1", "1e200", "--g2", "0.5"], "engine"),
        ],
    )
    def test_one_line_error(self, capsys, argv, stage):
        error = run_error(capsys, *argv)
        assert error["type"] == "InstabilityError"
        assert error["message"].startswith(f"{stage}: ")
        assert "1e+200" in error["message"]


class TestEngineOverflow:
    @pytest.mark.parametrize(
        "argv",
        [
            ["slope", "--topology", "sisni", "--g1", "1e200", "--g2", "0.5"],
            ["wigner", "--topology", "sq-mzi", "--g", "1.2e154", "--xs=-1:1:3", "--ps=-1:1:3"],
        ],
    )
    def test_analyses_give_one_line_error(self, capsys, argv):
        error = run_error(capsys, *argv)
        assert error["type"] == "InstabilityError"
        assert error["message"].startswith("engine: the readout overflows at gains")

    def test_circuit_document_gives_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            '{"schema":"gicirc/1","n_modes":2,"inputs":[{"type":"vacuum"},{"type":"coherent","alpha":1.0}],'
            '"elements":[{"type":"pa","modes":[0,1],"g":1e200}],"detect":{"mode":0}}'
        )
        error = run_error(capsys, "simulate", "--circuit", str(path))
        assert error == {"type": "InstabilityError", "message": "engine: the state overflows at element 0 (pa)"}


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--restarts", "0"], "restarts must be a positive integer, got 0"),
            (["--restarts", "-1"], "restarts must be a positive integer, got -1"),
            (["--max-evals", "0"], "max_evals must be a positive integer, got 0"),
            (["--seed=-1"], "seed must be a non-negative integer, got -1"),
            (["--eps2-max", "inf"], "unusable bounds ((0.0, 0.1), (1.0, inf))"),
            (["--rho-max", "inf"], "unusable bounds ((0.0, inf), (1.0, 10000.0))"),
            (["--alpha2", "-1"], "photon number alpha2 must be >= 0, got -1.0"),
        ],
    )
    def test_fit_arguments_are_named(self, capsys, tmp_path, flags, message):
        path = tmp_path / "d.csv"
        path.write_text("qng1_db,qng2_db,advantage_db\n4,3,1\n4,6,1.5\n8,3,0.8\n8,6,1.2\n")
        error = run_error(capsys, "fit", "--data", str(path), *flags)
        assert error["type"] == "ValueError" and message in error["message"]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("4,6", "fit data line 3: no advantage_db cell"),
            ("4,abc,1.5", "fit data line 3: qng2_db 'abc' is not a number"),
            ("4,6,1.5,9", "fit data line 3: 4 cells, but the header has 3"),
        ],
    )
    def test_a_malformed_fit_csv_names_its_line(self, capsys, tmp_path, row, message):
        path = tmp_path / "d.csv"
        path.write_text(f"qng1_db,qng2_db,advantage_db\n4,3,1\n{row}\n8,3,0.8\n8,6,1.2\n")
        assert run_error(capsys, "fit", "--data", str(path)) == {"type": "ValueError", "message": message}

    def test_a_fit_whose_residuals_overflow_everywhere_is_named(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("qng1_db,qng2_db,advantage_db,sigma_db\n" + "".join(
            f"{row},1e-300\n" for row in ("4,3,0.9", "4,6,1.6", "8,3,1.1", "8,6,2.0")
        ))
        assert run_error(capsys, "fit", "--data", str(path), "--restarts", "2", "--max-evals", "50") == {
            "type": "InstabilityError",
            "message": "the noise-model fit's weighted residuals overflow at every scored point: "
            "the smallest sigma_db is 1e-300",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["snr", "--topology", "mzi"],
            ["simulate", "--topology", "sisni"],
            ["advantage-curve", "--qng1-db", "4"],
        ],
    )
    def test_negative_alpha2_is_named(self, capsys, argv):
        error = run_error(capsys, *argv, "--alpha2", "-1")
        assert error == {"type": "ValueError", "message": "bright-port photon number alpha2 must be >= 0, got -1.0"}

    @pytest.mark.parametrize(
        "qng1, rho1, error",
        [
            (
                "4", "1e300",
                {
                    "type": "InstabilityError",
                    "message": "QNG 4.0 dB is out of reach: the noise model's terms overflow at rho = 1e+300, epsilon2 = 2.0",
                },
            ),
            (
                "400", "5e-4",
                {
                    "type": "InstabilityError",
                    "message": "QNG 400.0 dB puts kappa at the stability pole (1 + rho)/2 = 0.50025: "
                    "no float kappa reproduces it within a relative 1e-09",
                },
            ),
        ],
    )
    def test_overflow_and_pole_are_told_apart(self, capsys, qng1, rho1, error):
        argv = ["advantage-curve", "--qng1-db", qng1, "--qng2", "2:12:3", "--rho1", rho1, "--eps1-sq", "2"]
        assert run_error(capsys, *argv, "--rho2", "4e-4", "--eps2-sq", "208") == error


class TestSweepLossFlags:
    GRID = ("--internal", "0:0.5:3", "--external", "0:0.5:2")
    NESTED = SisniParams(alpha=6.0, g1=1.0, g2=1.2)

    @pytest.mark.parametrize("target, flag, field", [("signal", "--l-ii", "L_ii"), ("idler", "--l-is", "L_is")])
    def test_the_unswept_arm_is_read(self, capsys, target, flag, field):
        doc = run_json(
            capsys, "sweep", "--topology", "sisni", "--g1", "1", "--g2", "1.2", *self.GRID,
            "--internal-target", target, flag, "0.2",
        )
        fixed = replace(self.NESTED, **{field: 0.2})
        expected = loss_plane(fixed, (0.0, 0.5), (0.0, 0.5), (3, 2), internal_target=target)
        assert doc["outputs"]["values"] == expected.values.tolist()
        assert doc["command"]["parameters"][flag[2:].replace("-", "_")] == 0.2

    @pytest.mark.parametrize(
        "target, flag", [("signal", "--l-is"), ("idler", "--l-ii"), ("both", "--l-is"), ("both", "--l-ii")]
    )
    def test_a_swept_arm_flag_is_refused(self, capsys, target, flag):
        error = run_error(
            capsys, "sweep", "--topology", "sisni", *self.GRID, "--internal-target", target, flag, "0.1"
        )
        assert error["message"] == f"flag conflict: {flag} does not apply to --internal-target {target}"

    def test_parameters_echo_both_arm_losses(self, capsys):
        doc = run_json(capsys, "sweep", "--topology", "sq-mzi", *self.GRID)
        assert doc["command"]["parameters"]["l_is"] == doc["command"]["parameters"]["l_ii"] == 0.0


class TestCliRefusals:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0:1", "expected start:stop:count, got '0:1'"),
            ("0:x:3", "bad range '0:x:3': could not convert string to float: 'x'"),
            ("0:1:0", "range count must be >= 1, got 0"),
            ("0:inf:2", "range start, stop and stop - start must be finite, got '0:inf:2'"),
            ("nan:1:3", "range start, stop and stop - start must be finite, got 'nan:1:3'"),
            ("1e308:-1e308:3", "range start, stop and stop - start must be finite, got '1e308:-1e308:3'"),
        ],
    )
    def test_range_type(self, capsys, text, message):
        with pytest.raises(argparse.ArgumentTypeError, match=f"^{re.escape(message)}$"):
            _range_type(text)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--topology", "mzi", "--internal", text])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.endswith(f"gicirc sweep: error: argument --internal: {message}\n")

    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (["slope", "--topology", "mzi"], "--thetas", "0:inf:2"),
            (["advantage-curve", "--qng1-db", "4"], "--qng2", "1:inf:3"),
        ],
    )
    def test_non_finite_range_is_refused_before_the_grid(self, capsys, argv, flag, text):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, text])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        message = f"range start, stop and stop - start must be finite, got {text!r}"
        assert captured.err.endswith(f"gicirc {argv[0]}: error: argument {flag}: {message}\n")
        assert "Warning" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["snr", "--topology", "sisni", "--qng2-db", "1e5"],
            ["simulate", "--topology", "sisni", "--qng1-db", "1e5", "--qng2-db", "6"],
            ["slope", "--topology", "sq-mzi", "--qng-db", "1e5"],
            ["sweep", "--topology", "sisni", "--qng1-db", "6", "--qng2-db", "1e5"],
            ["wigner", "--topology", "sq-mzi", "--qng-db", "1e5"],
        ],
    )
    def test_qng_beyond_the_float_range(self, capsys, argv):
        assert run_error(capsys, *argv) == {
            "type": "ValueError",
            "message": "quantum noise gain 100000.0 dB is beyond the float range",
        }

    def test_largest_qng_reaches_the_overflow_guard(self, capsys):
        assert run_error(capsys, "snr", "--topology", "sq-mzi", "--qng-db", "3082") == {
            "type": "InstabilityError",
            "message": "closed form: the readout overflows at gains g = 8.90195e+153",
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["snr"], "missing --topology (or --circuit where supported)"),
            (["snr", "--topology", "mzi", "--g", "1"], "flag conflict: plain mzi takes no squeezer gain"),
        ],
    )
    def test_topology_flags(self, capsys, argv, message):
        assert run_error(capsys, *argv) == {"type": "ValueError", "message": message}

    def test_unknown_format_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("GICIRC_FORMAT", "xml")
        error = run_error(capsys, "snr", "--topology", "mzi")
        assert error == {"type": "ValueError", "message": "unknown output format 'xml'"}

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_infeasible_fit_is_refused_in_both_formats(self, capsys, tmp_path, fmt):
        # Every kappa sits at the stability pole, so no evaluation is feasible
        # and the fit names its optimum's refusal.
        data = tmp_path / "pole.csv"
        data.write_text("qng1_db,qng2_db,advantage_db\n300,300,1\n300,310,1\n310,300,1\n310,310,1\n")
        argv = ["fit", "--data", str(data), "--restarts", "1", "--max-evals", "40", "--format", fmt]
        assert run_error(capsys, *argv) == {
            "type": "NoSolutionError",
            "message": "the noise-model fit ends at a refused point: "
            "QNG 300.0 dB puts kappa at the stability pole (1 + rho)/2 = 0.5001437811045423: "
            "no float kappa reproduces it within a relative 1e-09",
        }


# --- the CLI contract, drawn from the parser's own declarations ---------------

# Edge floats for every float flag and range endpoint.
_CONTRACT_FLOATS = [0.0, -0.0, 1.0, -1.0, 1.0 - 2.0**-53, 1e-320, 1e5, 1e150, 1.7e308, math.inf, -math.inf, math.nan]
# Integer flags stay small, so a fit runs at most 2 restarts of 30 evaluations.
_CONTRACT_INTS = {"--restarts": [-1, 0, 1, 2], "--max-evals": [-1, 0, 1, 30], "--seed": [-1, 0, 7]}
_CONTRACT_DOCUMENT = {
    "schema": "gicirc/1", "n_modes": 2,
    "inputs": [{"type": "vacuum"}, {"type": "coherent", "alpha": 3.0}],
    "elements": [{"type": "bs", "modes": [0, 1]}, {"type": "phase", "mode": 1, "phi": 3.0},
                 {"type": "bs", "modes": [0, 1]}],
    "detect": {"mode": 0},
}


def _subcommands():
    """``{name: [action, ...]}`` of every subcommand: the flags it declares but help and ``-o``."""
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [a for a in sub._actions if a.option_strings and a.dest not in ("help", "output")]
        for name, sub in subs.choices.items()
    }


_SUBCOMMANDS = _subcommands()


@st.composite
def _invocations(draw, files):
    """A subcommand and some of its flags with drawn values.

    Required, choice, range and integer flags are always given, each other
    flag one time in four, so most draws pass the flag-conflict checks.
    Every range gets a count of 1 to 3, so no example makes a large grid.
    """
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [name]
    for action in _SUBCOMMANDS[name]:
        flag = action.option_strings[-1]
        always = action.required or action.choices or action.type in (_range_type, int)
        if not always and draw(st.integers(0, 3)):
            continue
        if action.nargs == 0:  # a store_true switch
            argv.append(flag)
            continue
        if action.choices:
            value = draw(st.sampled_from(action.choices))
        elif action.type is _range_type:  # mostly finite: argparse refuses the rest
            endpoints = st.sampled_from(_CONTRACT_FLOATS[:-3]) | st.sampled_from(_CONTRACT_FLOATS)
            start, stop = (repr(draw(endpoints)) for _ in range(2))
            value = f"{start}:{stop}:{draw(st.integers(1, 3))}"
        elif action.type is int:
            value = str(draw(st.sampled_from(_CONTRACT_INTS[flag])))
        elif action.type is float:
            value = repr(draw(st.sampled_from(_CONTRACT_FLOATS)))
        else:  # a path: --circuit or --data
            value = str(files[flag])
        argv.append(f"{flag}={value}")
    return argv


def _finite_constant(name):
    raise AssertionError(f"output holds {name}")


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    (root / "circuit.json").write_text(json.dumps(_CONTRACT_DOCUMENT))
    (root / "data.csv").write_text("qng1_db,qng2_db,advantage_db\n4,3,1.1\n4,6,1.5\n8,3,0.9\n8,6,1.2\n")
    return {"--circuit": root / "circuit.json", "--data": root / "data.csv"}


class TestCliContract:
    """Every invocation exits 0 with finite output, 1 with one JSON error line, or 2 from argparse."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_run_ends_in_one_of_three_ways(self, contract_files, data):
        argv = data.draw(_invocations(contract_files), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        if code == 2:  # argparse: usage and the error, nothing on stdout
            assert out == "" and "error: " in err
        elif code == 1:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n")
            assert set(json.loads(err)["error"]) == {"type", "message"}
        else:
            assert code == 0 and err == ""
            if "--format=csv" in argv:
                cells = [cell.lower() for row in csv.reader(io.StringIO(out)) for cell in row]
                assert not {"nan", "inf", "-inf", "infinity", "-infinity"} & set(cells)
            else:
                json.loads(out, parse_constant=_finite_constant)
