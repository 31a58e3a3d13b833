"""Library refusals that no other test reaches: each raises its own class with its own message."""

import json
import re

import numpy as np
import pytest

from gicirc import (
    Axis,
    CircuitError,
    CircuitSpec,
    Detection,
    ElementMap,
    GaussianState,
    ModeError,
    NoisyPaParams,
    PhysicalityError,
    SqMziParams,
    SweepGrid,
    Vacuum,
    engine_report,
    fit_noise_model,
    loss_plane,
    parse_circuit,
    sql_baseline,
    wigner,
    wigner_panel,
)
from gicirc.elements import PhaseElement


def _document(**fields) -> str:
    doc = {
        "schema": "gicirc/1",
        "n_modes": 2,
        "inputs": [{"type": "vacuum"}, {"type": "coherent", "alpha": 1.0}],
        "elements": [{"type": "bs", "modes": [0, 1]}],
        "detect": {"mode": 0},
    }
    return json.dumps(doc | fields)


class TestDocumentRefusals:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"elements": [{"type": "phase", "mode": 0, "phi": "0.1"}]},
             "element 0: phi: expected a number, got '0.1'"),
            ({"elements": [{"type": "bs", "modes": "01"}]},
             "element 0: modes: expected a list of mode indices, got '01'"),
            ({"elements": [{"type": "bs", "modes": [0, 1], "convention": 3}]},
             "element 0: convention: expected a string, got 3"),
            ({"inputs": [{"type": "vacuum"}, {"type": "coherent", "alpha": [1.0, 2.0, 3.0]}]},
             "input 1: alpha: expected a number or an [re, im] pair, got [1.0, 2.0, 3.0]"),
            ({"elements": [3]}, "element 0: expected an object, got 3"),
            ({"inputs": [{"type": "vacuum"}, "coherent"]}, "input 1: expected an object, got 'coherent'"),
            ({"detect": 0}, "detect: expected an object, got 0"),
            ({"n_modes": 0, "inputs": []}, "n_modes must be a positive integer, got 0"),
            ({"n_modes": 1.5}, "n_modes must be a positive integer, got 1.5"),
            ({"inputs": {"type": "vacuum"}}, "inputs must be a list of preparations"),
            ({"elements": {"type": "bs", "modes": [0, 1]}}, "elements must be a list"),
        ],
    )
    def test_entry(self, fields, message):
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            parse_circuit(_document(**fields))

    def test_document_must_be_an_object(self):
        with pytest.raises(CircuitError, match=r"^circuit document must be a JSON object, got list$"):
            parse_circuit("[]")


PHASE = {"type": "phase", "mode": 0, "phi": 0.1}
MODE_5 = {"type": "phase", "mode": 5, "phi": 0.1}
LOSS_1_5 = {"type": "loss", "mode": 0, "L": 1.5}
ONE_INPUT = [{"type": "vacuum"}]


class TestFirstRefusal:
    """Of several faults in a 2-mode document, the one reported: every entry's own values
    first, in document order, then the input count, the elements' modes and the detect mode."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"elements": [PHASE, MODE_5, PHASE, LOSS_1_5]}, "element 3: loss L must lie in [0, 1], got 1.5"),
            ({"inputs": ONE_INPUT, "elements": [PHASE, PHASE, PHASE, LOSS_1_5]},
             "element 3: loss L must lie in [0, 1], got 1.5"),
            ({"elements": [PHASE, PHASE, PHASE, LOSS_1_5], "detect": {"mode": 7}},
             "element 3: loss L must lie in [0, 1], got 1.5"),
            ({"inputs": ONE_INPUT, "elements": [MODE_5], "detect": {"mode": 7}}, "expected 2 input preparations, got 1"),
            ({"elements": [MODE_5], "detect": {"mode": 7}}, "element 0: mode 5 out of range for 2 modes"),
        ],
    )
    def test_first_refusal(self, fields, message):
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            parse_circuit(_document(**fields))


class TestCircuitSpecRefusals:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n_modes": 0, "inputs": ()}, "n_modes must be a positive integer, got 0"),
            ({"inputs": ("vacuum",)}, "input 0: unknown preparation 'vacuum'"),
            ({"elements": ("phase",)}, "element 0: not a circuit element: 'phase'"),
            ({"detect": 0}, "detect block must be a Detection, got 0"),
        ],
    )
    def test_field(self, fields, message):
        valid = {"n_modes": 1, "inputs": (Vacuum(),), "elements": (PhaseElement(0, 0.1),), "detect": Detection(0)}
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            CircuitSpec(**(valid | fields))


class TestStateRefusals:
    def test_mode_cov(self):
        cov = np.array([[1.0, 0.1, 0.0, 0.0], [0.1, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.2], [0.0, 0.0, 0.2, 4.0]])
        state = GaussianState(2, np.zeros(4), cov)
        assert np.array_equal(state.mode_cov(1), [[3.0, 0.2], [0.2, 4.0]])
        with pytest.raises(ModeError, match=r"^mode 2 out of range for 2 modes$"):
            state.mode_cov(2)

    @pytest.mark.parametrize(
        "linear, noise, displacement, message",
        [
            (np.eye(3), np.zeros((3, 3)), np.zeros(3), "linear part must be a 2n x 2n matrix, got (3, 3)"),
            (np.eye(2), np.zeros((4, 4)), np.zeros(2), "noise matrix must have shape (2, 2), got (4, 4)"),
            (np.eye(2), np.zeros((2, 2)), np.zeros(3), "displacement must have length 2, got shape (3,)"),
        ],
    )
    def test_element_map_shapes(self, linear, noise, displacement, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ElementMap(linear, noise, displacement)

    def test_then_needs_equal_mode_counts(self):
        with pytest.raises(ValueError, match=r"^cannot compose maps of different mode counts$"):
            ElementMap.identity(1).then(ElementMap.identity(2))

    def test_degenerate_wigner_covariance(self):
        state = GaussianState(1, [0.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(
            PhysicalityError, match=r"^degenerate single-mode covariance: Wigner density is not defined$"
        ):
            wigner(state, 0, 0.0, 0.0)


class TestLibraryRefusals:
    @pytest.mark.parametrize(
        "readout",
        [sql_baseline, loss_plane, lambda p: wigner_panel(p, [0.0], [0.0], [0.0], [0.0])],
        ids=["sql_baseline", "loss_plane", "wigner_panel"],
    )
    def test_unknown_params_type(self, readout):
        with pytest.raises(TypeError, match=r"^unknown topology parameters 'mzi'$"):
            readout("mzi")

    def test_fit_data_row_of_five_values(self):
        with pytest.raises(
            ValueError,
            match=re.escape("data rows must be (qng1_db, qng2_db, advantage_db[, sigma_db]), got (1.0, 2.0, 3.0, 4.0, 5.0)"),
        ):
            fit_noise_model([(1, 2, 3, 4, 5)] * 4)

    def test_sweep_grid_shape(self):
        with pytest.raises(ValueError, match=r"^values must have shape \(3, 2\), got \(2, 3\)$"):
            SweepGrid(x_axis=Axis("x", 0.0, 1.0, 2), y_axis=Axis("y", 0.0, 1.0, 3), values=np.zeros((2, 3)))

    def test_sweep_grid_finiteness(self):
        values = np.array([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError, match=r"^grid values must be finite$"):
            SweepGrid(x_axis=Axis("x", 0.0, 1.0, 2), y_axis=Axis("y", 0.0, 1.0, 2), values=values)


class TestEngineReportRefusals:
    MZI = SqMziParams(alpha=6.0, g=0.5)
    NOISY = NoisyPaParams(5e-4, 0.3, 2.0)

    @pytest.mark.parametrize("slot", ["noisy_pa1", "noisy_pa2"])
    def test_noisy_amplifiers_on_the_mzi(self, slot):
        with pytest.raises(ValueError, match=r"^noisy amplifiers apply to the nested topology only$"):
            engine_report(self.MZI, **{slot: self.NOISY})

    @pytest.mark.parametrize("dphi", [0.0, float("nan"), float("inf")])
    def test_dphi(self, dphi):
        with pytest.raises(ValueError, match=rf"^phase excursion dphi must be finite and nonzero, got {dphi}$"):
            engine_report(self.MZI, dphi)

    def test_the_amplifiers_are_refused_before_dphi(self):
        # The circuit is built before its phase excursion runs.
        with pytest.raises(ValueError, match=r"^noisy amplifiers apply to the nested topology only$"):
            engine_report(self.MZI, 0.0, noisy_pa1=self.NOISY)
