"""Tests for the batched block-local propagation kernel and its batched callers.

The reference path is the full-register one: ``element_map`` of each
element applied to the state with ``apply``.
"""

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
    SisniParams,
    SqMziParams,
    Thermal,
    Vacuum,
    apply,
    build_sisni,
    build_sq_mzi,
    detect_stats,
    engine_report,
    gain_from_qng,
    kappa_from_qng,
    make_state,
    simulate,
)
from gicirc.circuits import (
    BsElement,
    LossElement,
    NoisyPaElement,
    PaElement,
    PhaseElement,
    SqueezerElement,
    _propagate,
    element_map,
)
from gicirc.noise_fit import _sisni_snr
from gicirc.noise_model import _kappa

PAPER_LOSSES = (0.16, 0.10, 0.15)


def assert_close(actual, expected, rel=1e-13, scale=None):
    """Equal within ``rel`` of ``scale`` (default: the largest ``|expected|``, at least 1)."""
    if scale is None:
        scale = max(1.0, float(np.abs(expected).max()))
    assert float(np.abs(actual - expected).max()) <= rel * scale


def reference_state(spec):
    """Output state by the full-register path, and the largest entry met on the way.

    Rounding errors scale with the largest intermediate entry, which can
    exceed the output's when amplifiers and beamsplitters cancel.
    """
    state = make_state(spec.n_modes, spec.inputs)
    scale = 1.0
    for el in spec.elements:
        state = apply(state, element_map(el, spec.n_modes))
        scale = max(scale, float(np.abs(state.mean).max()), float(np.abs(state.cov).max()))
    return state, scale


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Numeric element fields and the ranges drawn for them.
NUMBERS = {
    "g": _finite(0.0, 2.0),
    "T": _finite(0.0, 1.0),
    "phi": _finite(-10.0, 10.0),
    "L": _finite(0.0, 1.0),
    "rho": _finite(0.0, 0.01),
    "kappa": _finite(0.0, 0.45),
    "epsilon2": _finite(1.0, 300.0),
}
KINDS = {
    PaElement: ("modes", ("g",)),
    SqueezerElement: ("mode", ("g",)),
    BsElement: ("modes", ("T",)),
    PhaseElement: ("mode", ("phi",)),
    LossElement: ("mode", ("L",)),
    NoisyPaElement: ("modes", ("rho", "kappa", "epsilon2")),
}


@st.composite
def varied_circuits(draw):
    """A valid circuit over all element kinds, one element index and rows of its fields."""
    n = draw(st.integers(2, 4))
    mode = st.integers(0, n - 1)
    where = {"mode": mode, "modes": st.lists(mode, min_size=2, max_size=2, unique=True).map(tuple)}

    def element():
        cls = draw(st.sampled_from(list(KINDS)))
        target, numeric = KINDS[cls]
        values = {name: draw(NUMBERS[name]) for name in numeric}
        if cls is BsElement:
            values["convention"] = draw(st.sampled_from(["second_minus", "first_plus"]))
        return cls(draw(where[target]), **values)

    preps = st.one_of(
        st.just(Vacuum()),
        st.builds(Coherent, st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)),
        st.builds(Thermal, _finite(1.0, 50.0)),
    )
    elements = tuple(element() for _ in range(draw(st.integers(1, 8))))
    spec = CircuitSpec(n, tuple(draw(preps) for _ in range(n)), elements, Detection(draw(mode)))
    index = draw(st.integers(0, len(elements) - 1))
    _, numeric = KINDS[type(elements[index])]
    rows = [{name: draw(NUMBERS[name]) for name in numeric} for _ in range(draw(st.integers(1, 4)))]
    return spec, index, rows


@settings(max_examples=80, deadline=None)
@given(varied_circuits())
def test_batch_equals_separate_runs(case):
    spec, index, rows = case
    vary = {index: {name: np.array([row[name] for row in rows]) for name in rows[0]}}
    mean, cov = _propagate(spec, vary)
    dim = 2 * spec.n_modes
    assert mean.shape == (len(rows), dim) and cov.shape == (len(rows), dim, dim)
    for b, row in enumerate(rows):
        elements = list(spec.elements)
        elements[index] = dataclasses.replace(elements[index], **row)
        single = dataclasses.replace(spec, elements=tuple(elements))
        one_mean, one_cov = _propagate(single)
        assert_close(mean[b], one_mean[0])
        assert_close(cov[b], one_cov[0])
        reference, scale = reference_state(single)
        assert_close(mean[b], reference.mean, scale=scale)
        assert_close(cov[b], reference.cov, scale=scale)


class TestPropagate:
    def test_unvaried_batch_of_one(self):
        spec, _ = build_sisni(SisniParams(alpha=6.0, g1=0.8, g2=1.2, L_is=0.16, L_ii=0.1, L_e=0.15))
        mean, cov = _propagate(spec)
        assert mean.shape == (1, 6) and cov.shape == (1, 6, 6)
        reference, scale = reference_state(spec)
        assert_close(mean[0], reference.mean, scale=scale)
        assert_close(cov[0], reference.cov, scale=scale)

    def test_covariance_stays_exactly_symmetric(self, rng):
        spec, _ = build_sisni(SisniParams(alpha=3.0, g1=1.1, g2=0.7, L_is=0.2, L_ii=0.3, L_e=0.1))
        phis = rng.uniform(0.0, 2.0 * math.pi, 5)
        _, cov = _propagate(spec, {6: {"phi": phis}})
        assert np.array_equal(cov, cov.swapaxes(1, 2))

    def test_simulate_is_the_batch_of_one(self):
        spec, _ = build_sq_mzi(SqMziParams(alpha=5.0, g=0.9, L_i=0.1, L_e=0.2))
        mean, cov = _propagate(spec)
        state = simulate(spec)
        assert np.array_equal(state.mean, mean[0])
        assert np.array_equal(state.cov, cov[0])


class TestEngineReportExcursion:
    """One batched call equals three separate runs at phi0 and phi0 +/- dphi."""

    @pytest.mark.parametrize("dphi", [1e-4, 1e-2])
    def test_matches_separate_runs(self, rng, dphi):
        for _ in range(10):
            g1, g2 = rng.uniform(0.0, 2.0, 2)
            l_is, l_ii, l_e = rng.uniform(0.0, 0.9, 3)
            nested = SisniParams(alpha=4.0, g1=g1, g2=g2, L_is=l_is, L_ii=l_ii, L_e=l_e)
            report = engine_report(nested, dphi)
            means = []
            for phi in (nested.phi_signal + dphi, nested.phi_signal - dphi):
                spec, _ = build_sisni(dataclasses.replace(nested, phi_signal=phi))
                means.append(detect_stats(spec, reference_state(spec)[0]).mean)
            spec, _ = build_sisni(nested)
            variance = detect_stats(spec, reference_state(spec)[0]).variance
            assert report.var_X2 == pytest.approx(variance, rel=1e-13)
            assert report.mean_X2 == pytest.approx(0.5 * (means[0] - means[1]), rel=1e-9, abs=1e-15)


class TestBatchedNoiseModel:
    def test_rows_match_per_row_engine_reports(self):
        noise1, noise2 = (5e-4, 2.0), (4e-4, 208.0)
        qng1 = np.array([4.0, 4.0, 8.0, 8.0, 6.0])
        qng2 = np.array([2.0, 12.0, 2.0, 7.0, 9.5])
        batched = _sisni_snr(qng1, qng2, PAPER_LOSSES, noise1, noise2, 36.0, 1e-3)
        params = SisniParams(alpha=6.0, L_is=0.16, L_ii=0.10, L_e=0.15)
        for row, (q1, q2) in enumerate(zip(qng1, qng2)):
            pa1 = NoisyPaParams(noise1[0], kappa_from_qng(q1, *noise1), noise1[1])
            pa2 = NoisyPaParams(noise2[0], kappa_from_qng(q2, *noise2), noise2[1])
            single = engine_report(params, 1e-3, noisy_pa1=pa1, noisy_pa2=pa2).snr
            assert batched[row] == pytest.approx(single, rel=1e-13)

    def test_vector_kappa_equals_scalar(self, rng):
        rho, eps2 = 3e-3, 40.0
        floor_db = 10.0 * math.log10(((1 - rho) ** 2 + 4 * rho * eps2) / (1 + rho) ** 2)
        qngs = floor_db + rng.uniform(0.0, 20.0, 25)
        vector = _kappa(qngs, rho, eps2)
        assert vector.tolist() == [kappa_from_qng(q, rho, eps2) for q in qngs]

    def test_noise_off_lossless_is_the_ideal_topology(self):
        snr = _sisni_snr(4.0, np.array([3.0, 6.0]), (0.0, 0.0, 0.0), (0.0, 1.0), (0.0, 1.0), 36.0, 1e-3)
        for q2, value in zip((3.0, 6.0), snr):
            ideal = SisniParams(alpha=6.0, g1=gain_from_qng(4.0).g, g2=gain_from_qng(q2).g)
            assert value == pytest.approx(engine_report(ideal, 1e-3).snr, rel=1e-10)


# Field ranges that keep covariance entries small enough for a 1e-9
# eigenvalue margin to stand above rounding.
PHYSICAL_NUMBERS = NUMBERS | {
    "g": _finite(0.0, 1.0),
    "rho": _finite(0.0, 0.05),
    "kappa": _finite(0.0, 0.25),
    "epsilon2": _finite(1.0, 10.0),
}


@st.composite
def physical_circuits(draw):
    """A valid circuit of one to five elements over all element kinds."""
    n = draw(st.integers(1, 3)) + 1
    mode = st.integers(0, n - 1)
    where = {"mode": mode, "modes": st.lists(mode, min_size=2, max_size=2, unique=True).map(tuple)}
    elements = []
    for _ in range(draw(st.integers(1, 5))):
        cls = draw(st.sampled_from(list(KINDS)))
        target, numeric = KINDS[cls]
        values = {name: draw(PHYSICAL_NUMBERS[name]) for name in numeric}
        if cls is BsElement:
            values["convention"] = draw(st.sampled_from(["second_minus", "first_plus"]))
        elements.append(cls(draw(where[target]), **values))
    preps = st.one_of(
        st.just(Vacuum()),
        st.builds(Coherent, st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)),
        st.builds(Thermal, _finite(1.0, 4.0)),
    )
    return CircuitSpec(n, tuple(draw(preps) for _ in range(n)), tuple(elements), Detection(draw(mode)))


@settings(max_examples=100, deadline=None)
@given(physical_circuits())
def test_valid_circuits_stay_physical(spec):
    assert simulate(spec).physicality_margin() >= -1e-9
    for el in spec.elements:
        assert element_map(el, spec.n_modes).channel_margin() >= -1e-9
