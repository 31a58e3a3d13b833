"""The topology builders trust their checked parameters: what they assemble
without re-running any check equals the circuit rebuilt through the
validating constructors, field types included."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gicirc import (
    CircuitSpec,
    Coherent,
    Detection,
    NoisyPaParams,
    PaGain,
    SisniParams,
    SqMziParams,
    Vacuum,
    build_sisni,
    build_sq_mzi,
    parse_circuit,
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
from gicirc.interferometers import _build


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Field values as a caller may pass them: floats, ints, numpy floats.
def _number(lo, hi):
    return st.one_of(
        _finite(lo, hi),
        st.integers(math.ceil(lo), math.floor(hi)),
        _finite(lo, hi).map(np.float64),
    )


_GAIN = st.one_of(_number(0.0, 3.0), _finite(0.0, 3.0).map(PaGain))
_LOSS = _number(0.0, 1.0)
_PHASE = _number(-10.0, 10.0)
_ALPHA = _number(0.0, 20.0)


@st.composite
def _noisy(draw):
    rho = draw(_finite(0.0, 0.05))
    kappa = draw(_finite(0.0, 0.49)) * (1.0 + rho)
    return NoisyPaParams(rho, kappa, draw(_finite(1.0, 300.0)))


_SQ_MZI = st.builds(
    SqMziParams, alpha=_ALPHA, g=_GAIN, L_i=_LOSS, L_e=_LOSS, phi=_PHASE, T=_LOSS
)
_SISNI = st.builds(
    SisniParams,
    alpha=_ALPHA,
    g1=_GAIN,
    g2=_GAIN,
    L_is=_LOSS,
    L_ii=_LOSS,
    L_e=_LOSS,
    phi_signal=_PHASE,
    phi_pump=_PHASE,
    T=_LOSS,
)


def _revalidated(spec: CircuitSpec) -> CircuitSpec:
    """``spec`` rebuilt through the validating constructors of every part."""
    return CircuitSpec(
        spec.n_modes,
        tuple(dataclasses.replace(prep) for prep in spec.inputs),
        tuple(dataclasses.replace(element) for element in spec.elements),
        dataclasses.replace(spec.detect),
    )


def _reference_sq_mzi(p: SqMziParams) -> CircuitSpec:
    """The squeezed MZI of ``build_sq_mzi``'s docstring, through the validating constructors."""
    elements = (
        SqueezerElement(0, p.g.g),
        BsElement((0, 1), p.T),
        LossElement(0, p.L_i.L),
        LossElement(1, p.L_i.L),
        PhaseElement(1, p.phi),
        BsElement((0, 1), p.T),
        LossElement(0, p.L_e.L),
    )
    return CircuitSpec(2, (Vacuum(), Coherent(p.alpha)), elements, Detection(0))


def _reference_sisni(p: SisniParams, noisy_pa1, noisy_pa2) -> CircuitSpec:
    """The nested interferometer of ``build_sisni``'s docstring, through the validating constructors."""
    pa1, pa2 = (
        PaElement((0, 1), gain.g) if pa is None else NoisyPaElement((0, 1), pa.rho, pa.kappa, pa.epsilon2)
        for gain, pa in ((p.g1, noisy_pa1), (p.g2, noisy_pa2))
    )
    elements = (
        pa1,
        LossElement(1, p.L_ii.L),
        PhaseElement(1, p.phi_pump),
        BsElement((0, 2), p.T),
        LossElement(0, p.L_is.L),
        LossElement(2, p.L_is.L),
        PhaseElement(2, p.phi_signal),
        BsElement((0, 2), p.T),
        pa2,
        LossElement(0, p.L_e.L),
        LossElement(1, p.L_e.L),
    )
    return CircuitSpec(3, (Vacuum(), Vacuum(), Coherent(p.alpha)), elements, Detection(0))


def _assert_same(built: CircuitSpec, rebuilt: CircuitSpec):
    assert built == rebuilt
    # repr tells a float from an int, a complex or a numpy float.
    assert repr(built) == repr(rebuilt)
    assert hash(built) == hash(rebuilt)


@settings(max_examples=150, deadline=None)
@given(_SQ_MZI)
def test_sq_mzi_equals_the_validated_circuit(params):
    spec, mode = build_sq_mzi(params)
    assert mode == 0
    _assert_same(spec, _revalidated(spec))
    _assert_same(spec, _reference_sq_mzi(params))


@settings(max_examples=150, deadline=None)
@given(_SISNI, st.one_of(st.none(), _noisy()), st.one_of(st.none(), _noisy()))
def test_sisni_equals_the_validated_circuit(params, noisy_pa1, noisy_pa2):
    spec, mode = build_sisni(params, noisy_pa1, noisy_pa2)
    assert mode == 0
    _assert_same(spec, _revalidated(spec))
    _assert_same(spec, _reference_sisni(params, noisy_pa1, noisy_pa2))
    assert _build(params, noisy_pa1, noisy_pa2)[1] == spec


@settings(max_examples=40, deadline=None)
@given(_SISNI, st.one_of(st.none(), _noisy()))
def test_document_round_trip_validates_the_same_circuit(params, noisy_pa2):
    spec, _ = build_sisni(params, None, noisy_pa2)
    _assert_same(spec, parse_circuit(serialize_circuit(spec)))


def test_parameters_still_check_every_field():
    """The builders skip the element checks because the parameters make them first."""
    with pytest.raises(ValueError, match="parametric gain g must be >= 0"):
        SqMziParams(alpha=1.0, g=-0.1)
    with pytest.raises(ValueError, match="loss L must lie in"):
        SisniParams(alpha=1.0, L_e=1.5)
    with pytest.raises(ValueError, match="beamsplitter transmission T must lie in"):
        SisniParams(alpha=1.0, T=-0.5)
    with pytest.raises(ValueError, match="pump phase phi_pump must be finite"):
        SisniParams(alpha=1.0, phi_pump=math.inf)


def test_trusted_circuit_runs_like_the_validated_one():
    params = SisniParams(alpha=6, g1=1, g2=np.float64(0.7), L_is=0.16, L_ii=0.1, L_e=0.15)
    spec, _ = build_sisni(params, NoisyPaParams(5e-4, 0.3, 2.0))
    trusted, validated = simulate(spec), simulate(_revalidated(spec))
    assert np.array_equal(trusted.mean, validated.mean)
    assert np.array_equal(trusted.cov, validated.cov)
    assert type(spec.inputs[2].alpha) is complex and spec.inputs[2].alpha == 6.0
    assert type(spec.elements[8].g) is float and type(spec.elements[0].rho) is float
