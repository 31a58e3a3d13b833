"""End-to-end tests of the command-line front end."""

import argparse
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
from hypothesis import given, settings
from hypothesis import strategies as st

from gicirc import (
    SisniParams,
    gain_from_qng,
    loss_plane,
    snr_sisni_closed,
)
from gicirc.circuits import _encode
from gicirc.cli import _range_type, _write, build_parser, main


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
    def test_non_finite_result_leaves_no_file(self, tmp_path, fmt):
        path = tmp_path / "out"
        path.write_text("an earlier result")
        args = argparse.Namespace(command="sweep", output=str(path), format=fmt)
        values = [1.0, 2.0, math.nan]
        with pytest.raises(ValueError, match="non-finite"):
            _write(args, {"values": values}, ("value",), [(v,) for v in values])
        assert not path.exists()

    def test_zero_dphi_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--topology", "sq-mzi", "--dphi", "0")
        assert code == 1
        assert out == ""
        assert "dphi" in json.loads(err)["error"]["message"]


class TestOutputFile:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_file_holds_what_stdout_prints(self, capsys, tmp_path, fmt):
        argv = ["wigner", "--topology", "sq-mzi", "--qng-db", "3", "--phis", "3.09:3.19:2",
                "--l-es", "0:0.6:2", "--xs=-4:4:5", "--ps=-4:4:5", "--format", fmt]
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
