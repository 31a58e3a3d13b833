"""Tests for circuit documents: parsing, validation, serialization, execution."""

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gicirc import (
    CircuitError,
    CircuitSpec,
    GaussianState,
    ModeError,
    Coherent,
    Detection,
    SisniParams,
    SqMziParams,
    Thermal,
    Vacuum,
    build_sisni,
    build_sq_mzi,
    detect_stats,
    engine_report,
    gain_from_qng,
    parse_circuit,
    quadrature_stats,
    serialize_circuit,
    simulate,
)
from gicirc.circuits import (
    BsElement,
    LossElement,
    NoisyPaElement,
    PaElement,
    PhaseElement,
    SqueezerElement,
)

MINIMAL = '{"schema":"gicirc/1","n_modes":1,"inputs":[{"type":"vacuum"}],"elements":[],"detect":{"mode":0}}'


class TestParse:
    def test_minimal_document(self):
        spec = parse_circuit(MINIMAL)
        assert spec.n_modes == 1
        assert spec.inputs == (Vacuum(),)
        assert spec.elements == ()
        assert spec.detect == Detection(0, math.pi / 2)
        assert detect_stats(spec).variance == pytest.approx(1.0, abs=1e-15)

    def test_defaults_applied_and_echoed(self):
        doc = json.dumps(
            {
                "schema": "gicirc/1",
                "n_modes": 2,
                "inputs": [{"type": "vacuum"}, {"type": "coherent", "alpha": 2.0}],
                "elements": [{"type": "bs", "modes": [0, 1]}],
                "detect": {"mode": 0},
            }
        )
        spec = parse_circuit(doc)
        assert spec.elements[0].T == 0.5
        assert spec.elements[0].convention == "second_minus"
        assert spec.detect.theta == math.pi / 2
        echoed = json.loads(serialize_circuit(spec))
        assert echoed["elements"][0]["T"] == 0.5
        assert echoed["detect"]["theta"] == math.pi / 2

    def test_complex_alpha_forms(self):
        doc = MINIMAL.replace('{"type":"vacuum"}', '{"type":"coherent","alpha":[1.0,2.0]}')
        spec = parse_circuit(doc)
        assert spec.inputs[0].alpha == 1 + 2j

    def test_syntax_error_carries_position(self):
        with pytest.raises(CircuitError, match=r"line 1, column"):
            parse_circuit('{"schema": }')

    def test_unknown_top_level_key(self):
        bad = MINIMAL.replace('"n_modes"', '"modes_n"')
        with pytest.raises(CircuitError, match="unknown key|missing key"):
            parse_circuit(bad)

    def test_wrong_schema(self):
        with pytest.raises(CircuitError, match="unsupported schema"):
            parse_circuit(MINIMAL.replace("gicirc/1", "gicirc/2"))

    def test_semantic_error_names_element(self):
        doc = json.dumps(
            {
                "schema": "gicirc/1",
                "n_modes": 1,
                "inputs": [{"type": "vacuum"}],
                "elements": [{"type": "loss", "mode": 0, "L": 1.5}],
                "detect": {"mode": 0},
            }
        )
        with pytest.raises(CircuitError, match=r"element 0: loss L must lie in \[0, 1\]"):
            parse_circuit(doc)

    def test_mode_out_of_range_names_element(self):
        doc = json.dumps(
            {
                "schema": "gicirc/1",
                "n_modes": 2,
                "inputs": [{"type": "vacuum"}, {"type": "vacuum"}],
                "elements": [
                    {"type": "phase", "mode": 0, "phi": 0.1},
                    {"type": "pa", "modes": [0, 5], "g": 0.1},
                ],
                "detect": {"mode": 0},
            }
        )
        with pytest.raises(CircuitError, match="element 1: mode 5 out of range"):
            parse_circuit(doc)

    def test_unknown_element_key_rejected(self):
        doc = json.dumps(
            {
                "schema": "gicirc/1",
                "n_modes": 1,
                "inputs": [{"type": "vacuum"}],
                "elements": [{"type": "loss", "mode": 0, "L": 0.5, "lose": 1}],
                "detect": {"mode": 0},
            }
        )
        with pytest.raises(CircuitError, match="element 0: unknown key"):
            parse_circuit(doc)

    def test_unknown_input_type(self):
        doc = MINIMAL.replace('"vacuum"', '"squeezed"')
        with pytest.raises(CircuitError, match="input 0: unknown input type"):
            parse_circuit(doc)

    def test_thermal_floor_at_input(self):
        doc = MINIMAL.replace('{"type":"vacuum"}', '{"type":"thermal","variance":0.3}')
        with pytest.raises(CircuitError, match="input 0.*>= 1"):
            parse_circuit(doc)

    def test_detect_mode_range(self):
        with pytest.raises(CircuitError, match="detect: mode 4 out of range"):
            parse_circuit(MINIMAL.replace('"detect":{"mode":0}', '"detect":{"mode":4}'))

    def test_input_count_mismatch(self):
        with pytest.raises(CircuitError, match="expected 2 input preparations"):
            parse_circuit(MINIMAL.replace('"n_modes":1', '"n_modes":2'))


class TestRoundTrip:
    def both_topology_specs(self):
        sq, _ = build_sq_mzi(SqMziParams(alpha=6.0, g=0.75, L_i=0.1, L_e=0.15))
        nested, _ = build_sisni(
            SisniParams(
                alpha=6.0,
                g1=gain_from_qng(4.0).g,
                g2=gain_from_qng(6.0).g,
                L_is=0.16,
                L_ii=0.10,
                L_e=0.15,
            )
        )
        return sq, nested

    def test_serialize_parse_identity(self):
        for spec in self.both_topology_specs():
            text = serialize_circuit(spec)
            again = parse_circuit(text)
            assert again == spec
            assert serialize_circuit(again) == text

    def test_noisy_pa_round_trip(self):
        spec = CircuitSpec(
            2,
            (Vacuum(), Vacuum()),
            (NoisyPaElement((0, 1), 5e-4, 0.3, 208.0),),
            Detection(0),
        )
        again = parse_circuit(serialize_circuit(spec))
        assert again == spec

    def test_all_element_kinds_round_trip(self):
        spec = CircuitSpec(
            3,
            (Vacuum(), Vacuum(), Vacuum()),
            (
                PaElement((0, 1), 0.7),
                SqueezerElement(2, 0.4),
                BsElement((1, 2), 0.3, "first_plus"),
                PhaseElement(0, -1.2),
                LossElement(1, 0.25),
                NoisyPaElement((0, 2), 0.001, 0.2, 5.0),
            ),
            Detection(1, 0.4),
        )
        assert parse_circuit(serialize_circuit(spec)) == spec


class TestBuilderParserEquivalence:
    def test_reports_match_through_documents(self):
        # Serialize the built circuits at the set point and +/- dphi, parse
        # them back, and reassemble the report; must equal the direct
        # engine path bit-for-bit within 1e-12.
        dphi = 1e-3
        params = SisniParams(
            alpha=6.0,
            g1=gain_from_qng(4.0).g,
            g2=gain_from_qng(6.0).g,
            L_is=0.16,
            L_ii=0.10,
            L_e=0.15,
        )
        direct = engine_report(params, dphi)

        from dataclasses import replace

        stats = {}
        for label, phi in (("0", math.pi), ("+", math.pi + dphi), ("-", math.pi - dphi)):
            spec, mode = build_sisni(replace(params, phi_signal=phi))
            parsed = parse_circuit(serialize_circuit(spec))
            stats[label] = detect_stats(parsed)
        mean_signal = 0.5 * (stats["+"].mean - stats["-"].mean)
        var = stats["0"].variance
        assert mean_signal == pytest.approx(direct.mean_X2, abs=1e-12)
        assert var == pytest.approx(direct.var_X2, abs=1e-12)
        assert mean_signal**2 / var == pytest.approx(direct.snr, rel=1e-12)

    def test_simulate_accepts_builder_output(self):
        spec, mode = build_sq_mzi(SqMziParams(alpha=2.0, g=0.3))
        state = simulate(spec)
        assert state.n_modes == 2
        assert state.is_physical()

    def test_detect_stats_refuses_a_state_of_another_register(self):
        nested, _ = build_sisni(SisniParams(alpha=3.0, g1=0.5, g2=0.8))
        mzi, _ = build_sq_mzi(SqMziParams(alpha=3.0, g=0.5))
        with pytest.raises(ValueError, match=r"^the state has 2 modes, the circuit 3$"):
            detect_stats(nested, simulate(mzi))
        assert detect_stats(nested, simulate(nested)) == detect_stats(nested)


def _document(elements, inputs=None, detect=None, n_modes=2):
    return json.dumps(
        {
            "schema": "gicirc/1",
            "n_modes": n_modes,
            "inputs": inputs or [{"type": "vacuum"}] * n_modes,
            "elements": elements,
            "detect": detect or {"mode": 0},
        }
    )


# One valid document entry per element kind, every optional key given.
VALID_ELEMENTS = {
    "pa": {"type": "pa", "modes": [0, 1], "g": 0.5},
    "single_mode_squeezer": {"type": "single_mode_squeezer", "mode": 1, "g": 0.5},
    "bs": {"type": "bs", "modes": [0, 1], "T": 0.4, "convention": "first_plus"},
    "phase": {"type": "phase", "mode": 1, "phi": 0.3},
    "loss": {"type": "loss", "mode": 1, "L": 0.2},
    "noisy_pa": {"type": "noisy_pa", "modes": [0, 1], "rho": 1e-3, "kappa": 0.2, "epsilon2": 3.0},
}
NUMERIC_FIELDS = [
    (kind, key)
    for kind, entry in VALID_ELEMENTS.items()
    for key, value in entry.items()
    if isinstance(value, float)
]
SINGLE_MODE_KINDS = [kind for kind, entry in VALID_ELEMENTS.items() if "mode" in entry]
PAIR_KINDS = [kind for kind, entry in VALID_ELEMENTS.items() if "modes" in entry]
NON_FINITE = [math.nan, math.inf, -math.inf]
LEAD = {"type": "phase", "mode": 0, "phi": 0.1}


class TestStrictValues:
    def test_valid_entries_parse(self):
        spec = parse_circuit(_document([LEAD, *VALID_ELEMENTS.values()]))
        assert len(spec.elements) == 1 + len(VALID_ELEMENTS)
        again = json.loads(serialize_circuit(spec))["elements"][1:]
        assert again == list(VALID_ELEMENTS.values())

    @pytest.mark.parametrize("kind", SINGLE_MODE_KINDS)
    @pytest.mark.parametrize("mode", [0.7, True, "1", 1.0, None])
    def test_mode_must_be_an_integer(self, kind, mode):
        entry = dict(VALID_ELEMENTS[kind], mode=mode)
        with pytest.raises(CircuitError, match="element 1: mode: expected an integer"):
            parse_circuit(_document([LEAD, entry]))

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    @pytest.mark.parametrize("modes", [[0, 1, 1], [0], []])
    def test_modes_must_be_two_indices(self, kind, modes):
        entry = dict(VALID_ELEMENTS[kind], modes=modes)
        message = f"element 1: modes: expected two mode indices, got {modes}"
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            parse_circuit(_document([LEAD, entry]))

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_pair_modes_must_be_distinct(self, kind):
        entry = dict(VALID_ELEMENTS[kind], modes=[1, 1])
        with pytest.raises(CircuitError, match=r"^element 1: pair modes must be distinct, got \(1, 1\)$"):
            parse_circuit(_document([LEAD, entry]))

    @pytest.mark.parametrize("mode", [0.0, False, "0"])
    def test_detect_mode_must_be_an_integer(self, mode):
        with pytest.raises(CircuitError, match="detect: mode: expected an integer"):
            parse_circuit(_document([], detect={"mode": mode}))

    @pytest.mark.parametrize("kind, key", NUMERIC_FIELDS)
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_element_numbers_must_be_finite(self, kind, key, value):
        entry = dict(VALID_ELEMENTS[kind], **{key: value})
        with pytest.raises(CircuitError, match=f"element 1: {key}: expected a finite number"):
            parse_circuit(_document([LEAD, entry]))

    @pytest.mark.parametrize(
        "prep",
        [
            {"type": "thermal", "variance": math.inf},
            {"type": "thermal", "variance": math.nan},
            {"type": "coherent", "alpha": math.nan},
            {"type": "coherent", "alpha": [1.0, -math.inf]},
        ],
    )
    def test_input_numbers_must_be_finite(self, prep):
        with pytest.raises(CircuitError, match="input 1: .*expected a finite number"):
            parse_circuit(_document([], inputs=[{"type": "vacuum"}, prep]))

    @pytest.mark.parametrize("value", NON_FINITE + [10**400])
    def test_detect_theta_must_be_finite(self, value):
        with pytest.raises(CircuitError, match="detect: theta: expected a finite number"):
            parse_circuit(_document([], detect={"mode": 0, "theta": value}))

    @pytest.mark.parametrize("kind", [[], {}, 3, None])
    def test_type_must_be_a_known_string(self, kind):
        with pytest.raises(CircuitError, match="element 0: unknown element type"):
            parse_circuit(_document([{"type": kind}]))
        with pytest.raises(CircuitError, match="input 0: unknown input type"):
            parse_circuit(_document([], inputs=[{"type": kind}, {"type": "vacuum"}]))


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def random_circuits(draw):
    """Valid circuits over every preparation and element kind."""
    n = draw(st.integers(2, 4))
    mode = st.integers(0, n - 1)
    pair = st.lists(mode, min_size=2, max_size=2, unique=True).map(tuple)
    gain = _finite(0.0, 3.0)
    preps = st.one_of(
        st.just(Vacuum()),
        st.builds(Coherent, st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)),
        st.builds(Thermal, _finite(1.0, 50.0)),
    )
    elements = st.one_of(
        st.builds(PaElement, pair, gain),
        st.builds(SqueezerElement, mode, gain),
        st.builds(BsElement, pair, _finite(0.0, 1.0), st.sampled_from(["second_minus", "first_plus"])),
        st.builds(PhaseElement, mode, _finite(-10.0, 10.0)),
        st.builds(LossElement, mode, _finite(0.0, 1.0)),
        st.builds(NoisyPaElement, pair, _finite(0.0, 0.01), _finite(0.0, 0.45), _finite(1.0, 300.0)),
    )
    return CircuitSpec(
        n,
        tuple(draw(preps) for _ in range(n)),
        tuple(draw(st.lists(elements, max_size=8))),
        Detection(draw(mode), draw(_finite(-7.0, 7.0))),
    )


@settings(max_examples=60, deadline=None)
@given(random_circuits())
def test_random_circuits_round_trip(spec):
    text = serialize_circuit(spec)
    again = parse_circuit(text)
    assert again == spec
    assert serialize_circuit(again) == text


# Document type of each preparation and element class.
DOCUMENT_TYPES = {
    Vacuum: "vacuum",
    Coherent: "coherent",
    Thermal: "thermal",
    PaElement: "pa",
    SqueezerElement: "single_mode_squeezer",
    BsElement: "bs",
    PhaseElement: "phase",
    LossElement: "loss",
    NoisyPaElement: "noisy_pa",
}


def _reference_entry(entry) -> dict:
    doc = {"type": DOCUMENT_TYPES[type(entry)]}
    for field in fields(entry):
        value = getattr(entry, field.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, complex):
            value = value.real if value.imag == 0.0 else [value.real, value.imag]
        doc[field.name] = value
    return doc


def _reference_doc(spec) -> dict:
    """The document of ``spec`` as the README lays it out, built from its fields."""
    return {
        "schema": "gicirc/1",
        "n_modes": spec.n_modes,
        "inputs": [_reference_entry(p) for p in spec.inputs],
        "elements": [_reference_entry(e) for e in spec.elements],
        "detect": {"mode": spec.detect.mode, "theta": spec.detect.theta},
    }


@settings(max_examples=60, deadline=None)
@given(random_circuits(), st.sampled_from([2, 0, 4, "\t", None]))
def test_document_text_is_json_dumps(spec, indent):
    """The text is ``json.dumps`` of the document, at every indent and without one."""
    doc = _reference_doc(spec)
    assert serialize_circuit(spec, indent=indent) == json.dumps(doc, indent=indent)
    if indent == 2:
        assert serialize_circuit(spec) == json.dumps(doc, indent=2)


def _rebuilt(entry):
    """``entry`` built again from its field values through its public, checked constructor."""
    return type(entry)(**{field.name: getattr(entry, field.name) for field in fields(entry)})


def _typed(entry) -> list:
    """Each field's value with its type, and the types of a tuple's items."""
    values = [getattr(entry, field.name) for field in fields(entry)]
    return [(type(v), tuple(map(type, v)) if isinstance(v, tuple) else None, v) for v in values]


@settings(max_examples=60, deadline=None)
@given(random_circuits())
def test_parsed_specs_equal_checked_construction(spec):
    """A parsed document, assembled after one check of each value, is what the checked constructors build."""
    parsed = parse_circuit(serialize_circuit(spec))
    built = CircuitSpec(
        spec.n_modes,
        tuple(map(_rebuilt, spec.inputs)),
        tuple(map(_rebuilt, spec.elements)),
        _rebuilt(spec.detect),
    )
    assert parsed == built
    for mine, theirs in zip(
        (parsed, *parsed.inputs, *parsed.elements, parsed.detect),
        (built, *built.inputs, *built.elements, built.detect),
    ):
        assert type(mine) is type(theirs) and _typed(mine) == _typed(theirs)


class TestStrictLibraryValues:
    """Library constructors refuse what circuit documents refuse."""

    NESTED = SisniParams(alpha=3.0, g1=0.5, g2=0.8)

    @pytest.mark.parametrize("mode", [True, np.True_, 0.7, 1.0, "0"])
    def test_mode_must_be_an_integer(self, mode):
        with pytest.raises(ModeError, match="mode index must be an integer"):
            Detection(mode)
        with pytest.raises(ModeError, match="mode index must be an integer"):
            engine_report(self.NESTED, detect_mode=mode)
        with pytest.raises(ModeError, match="mode index must be an integer"):
            quadrature_stats(GaussianState.vacuum(2), mode)
        with pytest.raises(ModeError, match="mode index must be an integer"):
            PhaseElement(mode, 1.0)
        with pytest.raises(ModeError, match="mode index must be an integer"):
            BsElement((mode, 2))

    @pytest.mark.parametrize("n_modes", [1.5, 2.0, True])
    def test_n_modes_must_be_an_integer(self, n_modes):
        with pytest.raises(ModeError, match="n_modes must be an integer"):
            CircuitSpec(n_modes, (Vacuum(), Vacuum()), (), Detection(0))

    @pytest.mark.parametrize("mode", [1, np.int64(1), np.int32(1), np.uint8(1)])
    def test_python_and_numpy_integers_are_accepted(self, mode):
        assert type(Detection(mode).mode) is int and Detection(mode).mode == 1
        report = engine_report(self.NESTED, detect_mode=mode)
        assert report == engine_report(self.NESTED, detect_mode=1)
        assert type(report.detected_mode) is int
        spec = CircuitSpec(np.int64(2), (Vacuum(), Vacuum()), (PhaseElement(mode, 1.0),), Detection(mode))
        assert spec.n_modes == 2 and spec.elements[0].mode == 1

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_theta_must_be_finite(self, theta):
        with pytest.raises(ValueError, match="local-oscillator angle theta must be finite"):
            Detection(0, theta)
        with pytest.raises(ValueError, match="local-oscillator angle theta must be finite"):
            quadrature_stats(GaussianState.vacuum(1), 0, theta)
