"""Where the readouts are defined: the closed-form point, zero signal, unread flags."""

import gc
import json
import math
import warnings
from dataclasses import replace

import pytest

from gicirc import (
    SisniParams,
    SqMziParams,
    advantage_db,
    engine_report,
    mean_signal_and_variance,
    phase_variance_closed,
    snr_sisni_closed,
    snr_sq_mzi_closed,
)
from gicirc.cli import main
from gicirc.interferometers import _TOPOLOGIES

SNR_CLOSED = {SqMziParams: snr_sq_mzi_closed, SisniParams: snr_sisni_closed}
LOSSY = {
    SqMziParams: SqMziParams(alpha=6.0, g=0.4, L_i=0.1, L_e=0.15),
    SisniParams: SisniParams(alpha=6.0, g1=0.7, g2=0.9, L_is=0.16, L_ii=0.1, L_e=0.15),
}
ZERO_SIGNAL = "degenerate readout: no signal reaches the detector"


def run_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    line, rest = captured.err.split("\n", 1)
    assert rest == ""
    return json.loads(line)["error"]


# (parameters, field, value): one field of each topology off its closed-form point.
OFF_POINT = [
    (SqMziParams, "T", 0.3),
    (SqMziParams, "phi", 3.0),
    (SisniParams, "T", 0.3),
    (SisniParams, "phi_signal", 3.0),
    (SisniParams, "phi_pump", 2.0),
]


class TestClosedFormPoint:
    def test_point_is_a_topology_row_entry(self):
        assert _TOPOLOGIES[SqMziParams].closed_point == {"T": 0.5, "phi": math.pi}
        assert _TOPOLOGIES[SisniParams].closed_point == {
            "T": 0.5, "phi_signal": math.pi, "phi_pump": math.pi,
        }

    @pytest.mark.parametrize("cls, field, value", OFF_POINT)
    def test_closed_forms_refuse_the_field(self, cls, field, value):
        params = replace(LOSSY[cls], **{field: value})
        for call in (
            lambda: SNR_CLOSED[cls](params, 1e-3),
            lambda: phase_variance_closed(params),
            lambda: mean_signal_and_variance(params),
            lambda: advantage_db(params),
        ):
            with pytest.raises(ValueError, match=f"closed form holds only at {field} = .*got {field} = {value!r}"):
                call()
        report = engine_report(params)  # the engine models every set point
        assert math.isfinite(report.snr) and report.snr > 0.0

    @pytest.mark.parametrize("cls", [SqMziParams, SisniParams])
    def test_on_the_point_nothing_changes(self, cls):
        params = LOSSY[cls]
        closed = mean_signal_and_variance(params)
        assert closed.phase_variance == phase_variance_closed(params)
        assert closed.snr == pytest.approx(SNR_CLOSED[cls](params, 1e-3), rel=1e-12)

    @pytest.mark.parametrize("command", ["snr", "sweep"])
    @pytest.mark.parametrize(
        "topology, flag, value, field",
        [
            ("sq-mzi", "--bs-t", "0.3", "T"),
            ("sq-mzi", "--phi", "3", "phi"),
            ("sisni", "--bs-t", "0.3", "T"),
            ("sisni", "--phi", "3", "phi_signal"),
            ("sisni", "--phi-pump", "2", "phi_pump"),
        ],
    )
    def test_cli_refuses_the_flag(self, capsys, command, topology, flag, value, field):
        grid = ["--internal", "0:0.5:3", "--external", "0:0.5:3"] if command == "sweep" else []
        error = run_error(capsys, command, "--topology", topology, flag, value, *grid)
        assert error["type"] == "ValueError"
        assert f"closed form holds only at {field} = " in error["message"]
        assert f"got {field} = {float(value)!r}" in error["message"]

    def test_cli_engine_route_still_takes_the_flags(self, capsys):
        code = main(["simulate", "--topology", "sisni", "--bs-t", "0.3", "--phi", "3", "--phi-pump", "2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["method"] == "engine"


# Parameters under which a loss of 1 keeps every signal photon from the detector.
DARK = [
    SqMziParams(alpha=6.0, g=0.5, L_e=1.0),
    SqMziParams(alpha=6.0, L_i=1.0),
    SisniParams(alpha=6.0, g1=0.5, g2=0.5, L_is=1.0),
    SisniParams(alpha=6.0, g1=0.5, g2=0.5, L_e=1.0),
]


class TestZeroSignal:
    @pytest.mark.parametrize("params", DARK)
    def test_closed_form_and_engine_raise_one_error(self, params):
        for call in (
            lambda: phase_variance_closed(params),
            lambda: mean_signal_and_variance(params),
            lambda: advantage_db(params),
            lambda: engine_report(params),
        ):
            with pytest.raises(ValueError, match=ZERO_SIGNAL):
                call()

    @pytest.mark.parametrize("params", DARK)
    def test_closed_snr_is_zero(self, params):
        assert SNR_CLOSED[type(params)](params, 1e-3) == 0.0

    def test_dark_second_output(self):
        # Without a downstream amplifier nothing couples the signal into mode 1.
        with pytest.raises(ValueError, match=ZERO_SIGNAL):
            engine_report(SisniParams(alpha=6.0), detect_mode=1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["snr", "--topology", "sq-mzi", "--l-e", "1"],
            ["simulate", "--topology", "sq-mzi", "--l-e", "1"],
            ["snr", "--topology", "sisni", "--l-is", "1"],
            ["simulate", "--topology", "sisni", "--l-is", "1"],
            ["advantage-curve", "--qng1-db", "4", "--l-e", "1"],
        ],
    )
    def test_cli_one_line_error(self, capsys, argv):
        error = run_error(capsys, *argv)
        assert error["type"] == "ValueError"
        assert error["message"].startswith(ZERO_SIGNAL)


class TestUnreadPhaseFlags:
    @pytest.mark.parametrize("topology", ["sq-mzi", "sisni"])
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("sweep", "--dphi", "0.01"),
            ("wigner", "--dphi", "0.01"),
            ("wigner", "--phi", "3"),
        ],
    )
    def test_refused_off_default(self, capsys, topology, command, flag, value):
        error = run_error(capsys, command, "--topology", topology, flag, value)
        assert error == {"type": "ValueError", "message": f"flag conflict: {flag} does not apply to {command}"}

    @pytest.mark.parametrize("topology", ["sq-mzi", "sisni"])
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("sweep", ["--dphi", "0.001"]),
            ("wigner", ["--dphi", "0.001", "--phi", repr(math.pi)]),
        ],
    )
    def test_defaults_change_nothing(self, capsys, topology, command, extra):
        small = {
            "sweep": ["--internal", "0:0.5:3", "--external", "0:0.5:3"],
            "wigner": ["--xs=-3:3:5", "--ps=-3:3:5"],
        }[command]
        outs = []
        for argv in ([command, "--topology", topology, *small], [command, "--topology", topology, *small, *extra]):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestCircuitFile:
    def test_simulate_closes_the_circuit_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            '{"schema":"gicirc/1","n_modes":1,"inputs":[{"type":"vacuum"}],'
            '"elements":[],"detect":{"mode":0}}'
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--circuit", str(path)]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
