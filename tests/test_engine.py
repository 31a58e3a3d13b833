"""Tests for the batched block-local propagation kernel and its batched callers.

The reference path is the full-register one: ``element_map`` of each
element applied to the state with ``apply``.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gicirc import (
    CircuitSpec,
    Coherent,
    Detection,
    InstabilityError,
    NoSolutionError,
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
    slope_vs_theta,
)
from gicirc import circuits, interferometers, noise_fit
from gicirc.circuits import (
    BsElement,
    LossElement,
    NoisyPaElement,
    PaElement,
    PhaseElement,
    SqueezerElement,
    _Adjoint,
    _amplification,
    _propagate,
    element_map,
)
from gicirc.interferometers import _TOPOLOGIES, _excursion_shift
from gicirc.noise_fit import _UNSET, _nested, _nested_snr, _sisni_snr
from gicirc.noise_model import _coupling, _floor, _kappa, _linear_targets, _rho_terms, _solve_kappa, _stability, _stretch, _terms
from gicirc.states import _quadrature

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


def _by_block_product(spec, vary=None):
    """``_propagate`` with the loss row updating through the generic block product."""
    kind = circuits._KIND_OF[LossElement]
    circuits._KIND_OF[LossElement] = kind._replace(update=circuits._transform)
    try:
        return _propagate(spec, vary)
    finally:
        circuits._KIND_OF[LossElement] = kind


def assert_same_values(actual, expected):
    """Equal arrays, bit for bit but for the sign of an exact zero (``-0.0 == 0.0``)."""
    for a, e in zip(actual, expected):
        assert a.shape == e.shape and np.array_equal(a, e)


@settings(max_examples=120, deadline=None)
@given(varied_circuits())
def test_loss_scaling_gives_the_values_of_the_block_product(case):
    """For losses in [0, 1], total losses in a batch included."""
    spec, index, rows = case
    vary = {index: {name: np.array([row[name] for row in rows]) for name in rows[0]}}
    assert_same_values(_propagate(spec), _by_block_product(spec))
    assert_same_values(_propagate(spec, vary), _by_block_product(spec, vary))


@st.composite
def grid_circuits(draw):
    """A circuit of ``varied_circuits`` with a second varied element: ``(R, 1)`` and ``(E,)`` values."""
    spec, first, rows = draw(varied_circuits().filter(lambda case: len(case[0].elements) > 1))
    second = draw(st.integers(0, len(spec.elements) - 2))
    second += second >= first
    _, numeric = KINDS[type(spec.elements[second])]
    cols = [{name: draw(NUMBERS[name]) for name in numeric} for _ in range(draw(st.integers(1, 4)))]
    return spec, (first, rows), (second, cols)


@settings(max_examples=80, deadline=None)
@given(grid_circuits())
def test_grid_equals_pointwise_runs(case):
    spec, (first, rows), (second, cols) = case
    vary = {
        first: {name: np.array([[row[name]] for row in rows]) for name in rows[0]},
        second: {name: np.array([col[name] for col in cols]) for name in cols[0]},
    }
    mean, cov = _propagate(spec, vary)
    dim = 2 * spec.n_modes
    assert mean.shape == (len(rows), len(cols), dim) and cov.shape == (len(rows), len(cols), dim, dim)
    for (r, row), (c, col) in itertools.product(enumerate(rows), enumerate(cols)):
        elements = list(spec.elements)
        elements[first] = dataclasses.replace(elements[first], **row)
        elements[second] = dataclasses.replace(elements[second], **col)
        point_mean, point_cov = _propagate(dataclasses.replace(spec, elements=tuple(elements)))
        assert np.array_equal(mean[r, c], point_mean[0])
        assert np.array_equal(cov[r, c], point_cov[0])


def test_noisy_amplifier_row_equals_its_scalar_run():
    """A squared field is a product, so an array row has the bits of its float run."""
    rho = 0.004687347717978302  # (1 + rho) ** 2 on a float differs from numpy's array square
    spec, _ = build_sisni(SisniParams(alpha=6.0, L_is=0.16, L_ii=0.1, L_e=0.15), NoisyPaParams(rho, 0.3, 2.0))
    mean, cov = _propagate(spec, {0: {"rho": np.array([rho])}})
    point_mean, point_cov = _propagate(spec)
    assert np.array_equal(mean, point_mean)
    assert np.array_equal(cov, point_cov)


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

    def test_elements_before_the_first_varied_one_run_once(self, monkeypatch):
        """Each block runs once: the prefix with its scalar fields, the varied element with the grid."""
        calls = {PaElement: [], PhaseElement: []}
        for cls in calls:
            kind = circuits._KIND_OF[cls]

            def spy(_block=kind.block, _calls=calls[cls], **values):
                _calls.append(values)
                return _block(**values)

            monkeypatch.setitem(circuits._KIND_OF, cls, kind._replace(block=spy))
        spec, _ = build_sisni(SisniParams(alpha=3.0, g1=0.9, g2=0.4, L_is=0.2, L_ii=0.1, L_e=0.3))
        phis = np.array([3.0, 3.1, 3.2])
        mean, cov = _propagate(spec, {6: {"phi": phis}})
        upstream, pump, signal = calls[PaElement][0], calls[PhaseElement][0], calls[PhaseElement][1]
        assert len(calls[PaElement]) == 2 and len(calls[PhaseElement]) == 2
        assert upstream == {"g": 0.9} and pump == {"phi": math.pi}
        assert signal["phi"] is phis
        assert mean.shape == (3, 6) and cov.shape == (3, 6, 6)

    def test_elements_after_the_signal_phase_run_once_per_row(self, rng, monkeypatch):
        """The downstream amplifier and the external losses move ``(B,)`` states, and no state widens at the phase."""
        seen, widened = [], []
        for cls in (NoisyPaElement, LossElement):
            kind = circuits._KIND_OF[cls]

            def spy(state, rows, cols, block, values, _update=kind.update, _type=kind.type):
                seen.append((_type, state.shape[:-2], {name: np.shape(v) for name, v in values.items()}))
                return _update(state, rows, cols, block, values)

            monkeypatch.setitem(circuits._KIND_OF, cls, kind._replace(update=spy))

        def widen(state, shape, _widen=circuits._widen):
            widened.append(shape[:-2])
            return _widen(state, shape)

        monkeypatch.setattr(circuits, "_widen", widen)
        topo = _TOPOLOGIES[SisniParams]
        spec, _ = topo.build(SisniParams(alpha=6.0, L_is=0.16, L_ii=0.1, L_e=0.15), _UNSET, _UNSET)
        _propagate(spec, _noisy_rows(rng, 5))
        assert widened == [(5,)]  # at the upstream amplifier, the first varied element
        downstream = [entry for entry in seen if entry[0] == "noisy_pa"][1]
        assert downstream == ("noisy_pa", (5,), dict.fromkeys(("rho", "kappa", "epsilon2"), (5,)))
        assert [grid for _, grid, _ in seen[-2:]] == [(5,), (5,)]  # the external losses
        seen.clear()
        spec, _ = topo.build(SisniParams(alpha=6.0, g1=0.5, g2=0.8, L_e=0.2))
        _propagate(spec)  # no rows: one circuit throughout
        assert widened == [(5,)] and [grid for _, grid, _ in seen] == [(1,), (1,), (1,), (1,), (1,)]

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


def _three_phase_grid(phase, spec, dphi, vary=None):
    """The grid pass of element ``phase`` at ``phi0`` and ``phi0 +/- dphi`` trailing the rows: the three means, and ``cov`` at ``phi0``."""
    grid = {i: {name: np.asarray(v)[..., None] for name, v in row.items()} for i, row in (vary or {}).items()}
    phi0 = spec.elements[phase].phi
    mean, cov = _propagate(spec, grid | {phase: {"phi": np.array([phi0, phi0 + dphi, phi0 - dphi])}})
    return mean, cov[..., 0, :, :]


def _random_params(rng, cls):
    """Random parameters of a topology, its set point (``T``, the phases) off the closed-form point."""
    g1, g2 = rng.uniform(0.0, 2.0, 2)
    l_is, l_ii, l_e = rng.uniform(0.0, 0.9, 3)
    alpha, T = rng.uniform(1.0, 10.0), rng.uniform(0.05, 0.95)
    phi, pump = rng.uniform(0.0, 2.0 * math.pi, 2)
    if cls is SqMziParams:
        return SqMziParams(alpha, g=g1, L_i=l_is, L_e=l_e, phi=phi, T=T)
    return SisniParams(alpha, g1=g1, g2=g2, L_is=l_is, L_ii=l_ii, L_e=l_e, phi_signal=phi, phi_pump=pump, T=T)


def _noisy_rows(rng, rows):
    """``vary`` setting both amplifiers of the nested circuit to random lossy-amplifier rows."""
    return {
        i: {
            "rho": rng.uniform(0.0, 0.01, rows),
            "kappa": rng.uniform(0.0, 0.45, rows),
            "epsilon2": rng.uniform(1.0, 300.0, rows),
        }
        for i in _TOPOLOGIES[SisniParams].amplifiers
    }


def _blocks(vary):
    """The lossy amplifiers' blocks at ``vary``'s fields, as ``_Adjoint.run`` takes them."""
    return {i: NoisyPaElement.block(**fields) for i, fields in vary.items()}


def _fields_pass(nested, amps):
    """``_nested_snr`` with both amplifiers at ``amps``' ``(rho, kappa, epsilon2)``, their terms formed from those fields."""
    rho, kappa, eps2 = (np.stack(np.broadcast_arrays(*values)) for values in zip(*amps))
    terms = _terms(rho, kappa)
    return _nested_snr(nested, eps2, _coupling(rho, kappa, terms), _stretch(kappa, terms))


@st.composite
def nested_rows(draw):
    """The nested circuit at random losses, ``T`` and phases, and ``vary`` rows of both lossy amplifiers.

    Its signal and idler inputs are thermal and its local-oscillator angle
    random, and each row's ``kappa`` is ``_solve_kappa``'s for a QNG up to
    15 dB above the amplifier's ``kappa = 0`` floor.
    """
    losses = [draw(_finite(0.0, 0.9)) for _ in range(3)]
    T, phi, pump = draw(_finite(0.05, 0.95)), draw(_finite(0.0, 2.0 * math.pi)), draw(_finite(0.0, 2.0 * math.pi))
    params = SisniParams(6.0, L_is=losses[0], L_ii=losses[1], L_e=losses[2], phi_signal=phi, phi_pump=pump, T=T)
    topo = _TOPOLOGIES[SisniParams]
    spec, _ = topo.build(params, _UNSET, _UNSET)
    inputs = (Thermal(draw(_finite(1.0, 4.0))), Thermal(draw(_finite(1.0, 4.0))), spec.inputs[2])
    spec = dataclasses.replace(spec, inputs=inputs, detect=Detection(0, draw(_finite(-10.0, 10.0))))
    rows = draw(st.integers(1, 6))
    vary = {}
    for i in topo.amplifiers:
        rho = np.array([draw(_finite(0.0, 0.1)) for _ in range(rows)])
        eps2 = np.array([draw(_finite(1.0, 1e4)) for _ in range(rows)])
        qng = 10.0 * np.log10(_floor(rho, eps2, _rho_terms(rho)[1])) + np.array([draw(_finite(0.01, 15.0)) for _ in range(rows)])
        kappa, unreachable, at_pole = _solve_kappa(_linear_targets(qng), rho, eps2)[:3]
        assert not (unreachable | at_pole).any()
        vary[i] = {"rho": rho, "kappa": kappa, "epsilon2": eps2}
    return topo, spec, vary


@st.composite
def noise_behind_the_shift(draw):
    """A two-mode circuit with a loss, then ``vary`` rows of a lossy amplifier, then the shifted phase.

    Returns the circuit, the phase's index and the rows.  The coherent
    input is on mode 0, the thermal one on mode 1, and beamsplitters mix
    the modes around each element.
    """
    T = [draw(_finite(0.05, 0.95)) for _ in range(3)]
    elements = (
        BsElement((0, 1), T[0]),
        LossElement(draw(st.integers(0, 1)), draw(_finite(0.05, 0.9))),
        NoisyPaElement((0, 1), 0.0, 0.0, 1.0),
        BsElement((0, 1), T[1]),
        PhaseElement(0, draw(_finite(0.0, 2.0 * math.pi))),
        BsElement((0, 1), T[2]),
    )
    alpha = complex(draw(_finite(1.0, 6.0)), draw(_finite(-1.0, 1.0)))
    inputs = (Coherent(alpha), Thermal(draw(_finite(1.0, 4.0))))
    spec = CircuitSpec(2, inputs, elements, Detection(draw(st.integers(0, 1)), draw(_finite(-10.0, 10.0))))
    rows = draw(st.integers(1, 4))
    fields = {name: np.array([draw(NUMBERS[name]) for _ in range(rows)]) for name in ("rho", "kappa", "epsilon2")}
    return spec, 4, {2: fields}


def _dark_fringe_rows():
    """:func:`nested_rows`'s circuit, lossless and near the dark fringe, with one row of ideal amplifiers.

    Its detected means are about 1e-3 of the coherent amplitude times the
    amplification, the scale on which both passes round them.
    """
    topo = _TOPOLOGIES[SisniParams]
    spec, _ = topo.build(SisniParams(6.0, phi_signal=3.125), _UNSET, _UNSET)
    spec = dataclasses.replace(spec, inputs=(Thermal(1.0), Thermal(1.0), spec.inputs[2]), detect=Detection(0, 0.0))
    row = {"rho": np.array([0.0]), "kappa": np.array([0.0872]), "epsilon2": np.array([1.0])}
    return topo, spec, {i: row for i in topo.amplifiers}


class TestBackwardReadout:
    """The detected row propagated backward, with the unvaried runs folded, reads what the forward three-phase grid reads."""

    @settings(max_examples=100, deadline=None)
    @given(nested_rows(), st.sampled_from([1e-4, 1e-3, 0.3]))
    @example(_dark_fringe_rows(), 1e-4)
    def test_equals_the_forward_excursion(self, case, dphi):
        topo, spec, vary = case
        means, var = _Adjoint(spec, topo.amplifiers, _excursion_shift(topo, spec, dphi)).run(_blocks(vary))
        three, cov = _three_phase_grid(topo.phase, spec, dphi, vary)
        shifted, variance = _quadrature(three[..., 1:, :], cov, spec.detect.mode, spec.detect.theta)
        assert means.shape == shifted.shape[:-1] + (3,) and var.shape == variance.shape
        # Both passes round the means on the scale of the coherent input's
        # mean quadrature times the circuit's amplification: near the dark
        # fringe the detected means are far smaller, and the signal is a
        # small difference of them.
        scale = 2.0 * abs(spec.inputs[2].alpha) * _amplification(spec, vary)
        signal = 0.5 * (means[..., 1] - means[..., 2])
        assert (np.abs(signal - 0.5 * (shifted[..., 0] - shifted[..., 1])) <= 1e-13 * scale).all()
        assert (np.abs(means[..., 1:] - shifted) <= 1e-13 * scale[..., None]).all()
        assert (np.abs(var - variance) <= 1e-13 * variance).all()

    @settings(max_examples=100, deadline=None)
    @given(noise_behind_the_shift(), st.sampled_from([1e-4, 1e-3, 0.3]))
    def test_a_folded_run_behind_the_shift_reads_the_first_row(self, case, dphi):
        # The loss sits before the varied amplifier, which sits before the
        # shifted phase: the walk meets the loss's folded run with the three
        # rows of the shift, and its noise is read with the set point's row.
        spec, phase, vary = case
        phi0 = spec.elements[phase].phi
        shift = (phase, {"phi": np.array([phi0, phi0 + dphi, phi0 - dphi])})
        adjoint = _Adjoint(spec, vary, shift)
        assert adjoint.rows.shape[-2] == 3 and adjoint.steps[-1][0] is None and adjoint.steps[-1][1][1] is not None
        means, var = adjoint.run(_blocks(vary))
        three, cov = _three_phase_grid(phase, spec, dphi, vary)
        forward, variance = _quadrature(three, cov, spec.detect.mode, spec.detect.theta)
        assert means.shape == forward.shape and var.shape == variance.shape
        scale = 2.0 * abs(spec.inputs[0].alpha) * _amplification(spec, vary)
        signal = 0.5 * (means[..., 1] - means[..., 2])
        assert (np.abs(signal - 0.5 * (forward[..., 1] - forward[..., 2])) <= 1e-13 * scale).all()
        assert (np.abs(means - forward) <= 1e-13 * scale[..., None]).all()
        assert (np.abs(var - variance) <= 1e-13 * variance).all()

    def test_a_row_has_the_same_bits_in_any_pass(self, rng):
        """Floats, a 6-row pass and a 48-row pass give a row the same means, variance and SNR."""
        topo = _TOPOLOGIES[SisniParams]
        nested = _nested(PAPER_LOSSES, 36.0, 1e-3)[1]
        spec, _ = topo.build(_random_params(rng, SisniParams), _UNSET, _UNSET)
        off_point = _Adjoint(spec, topo.amplifiers, _excursion_shift(topo, spec, 1e-3))
        wide = _noisy_rows(rng, 48)
        amps = [tuple(wide[i][name] for name in ("rho", "kappa", "epsilon2")) for i in topo.amplifiers]
        for adjoint in (nested[2], off_point):
            passes = [adjoint.run(_blocks({i: {n: v[:rows] for n, v in row.items()} for i, row in wide.items()})) for rows in (6, 48)]
            for row in range(6):
                floats = adjoint.run(_blocks({i: {n: float(v[row]) for n, v in fields.items()} for i, fields in wide.items()}))
                assert floats[0].shape == (3,) and floats[1].shape == ()
                for means, var in passes:
                    assert np.array_equal(floats[0], means[row]) and np.array_equal(floats[1], var[row])
        snr = [_fields_pass(nested, [tuple(v[:rows] for v in amp) for amp in amps]) for rows in (6, 48)]
        for row in range(6):
            single = _fields_pass(nested, [tuple(float(v[row]) for v in amp) for amp in amps])
            assert single == snr[0][row] == snr[1][row]


@st.composite
def off_point_params(draw, cls):
    """Random parameters of topology ``cls``, off the closed-form point, and a detected mode (0 or 1 on the nested one)."""
    g1, g2 = draw(_finite(0.0, 2.0)), draw(_finite(0.0, 2.0))
    l_is, l_ii, l_e = (draw(_finite(0.0, 0.9)) for _ in range(3))
    alpha, T = draw(_finite(1.0, 10.0)), draw(_finite(0.05, 0.95))
    phi, pump = draw(_finite(0.0, 2.0 * math.pi)), draw(_finite(0.0, 2.0 * math.pi))
    if cls is SqMziParams:
        return SqMziParams(alpha, g=g1, L_i=l_is, L_e=l_e, phi=phi, T=T), 0
    mode = draw(st.integers(0, 1))
    if mode == 1:  # the second output carries signal only through the downstream amplifier
        g2 = draw(_finite(0.1, 2.0))
    params = SisniParams(alpha, g1=g1, g2=g2, L_is=l_is, L_ii=l_ii, L_e=l_e, phi_signal=phi, phi_pump=pump, T=T)
    return params, mode


class TestBackwardReports:
    """``engine_report`` and ``slope_vs_theta`` read backward what the forward three-phase grid reads."""

    @pytest.mark.parametrize("cls", [SqMziParams, SisniParams])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dphi=st.sampled_from([1e-4, 1e-3, 0.3]))
    def test_equal_the_three_phase_grid(self, cls, data, dphi):
        params, mode = data.draw(off_point_params(cls))
        topo = _TOPOLOGIES[type(params)]
        spec, _ = topo.build(params)
        three, cov = _three_phase_grid(topo.phase, spec, dphi)
        forward, variance = _quadrature(three, cov, mode, spec.detect.theta)
        # The scale on which both passes round the means (see TestBackwardReadout).
        scale = 2.0 * abs(spec.inputs[-1].alpha) * _amplification(spec)
        report = engine_report(params, dphi, detect_mode=mode)
        assert report.detected_mode == mode
        assert abs(report.mean_X2 - 0.5 * (forward[1] - forward[2])) <= 1e-13 * scale
        assert abs(report.var_X2 - variance) <= 1e-13 * variance
        x = 2 * spec.detect.mode
        expected = (three[1, x : x + 2] - three[2, x : x + 2]) / (2.0 * dphi)
        slope = slope_vs_theta(params, [0.0, math.pi / 2], dphi)
        assert (np.abs(slope - expected) <= 1e-13 * scale / dphi).all()


def _same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    return actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


class TestSharedAmplifierTerms:
    """A pass builds the amplifiers' blocks and precision bound from ``_solve_kappa``'s terms, with the bits of the element's own."""

    @pytest.mark.parametrize("rows", [None, 1, 6, 48])  # None: a float for each amplifier's values
    def test_blocks_and_bound_equal_the_elements(self, rng, monkeypatch, rows):
        topo, spec, adjoint, inputs = _nested(PAPER_LOSSES, 36.0, 1e-3)[1]
        size = () if rows is None else (rows,)
        rho = rng.uniform(0.0, 0.01, (2, *size))
        eps2 = 10.0 ** rng.uniform(0.0, 3.0, (2, *size))
        qng = 10.0 * np.log10(_floor(rho, eps2, _rho_terms(rho)[1])) + rng.uniform(0.01, 15.0, (2, *size))
        solution = _solve_kappa(_linear_targets(qng), rho, eps2)
        assert not (solution.unreachable | solution.at_pole | solution.overflow).any()
        seen = {}

        class Spy:
            def run(self, blocks):
                seen["blocks"] = blocks
                return adjoint.run(blocks)

        def judge(plus, minus, variance, amplification, smallest):
            seen["amplification"] = amplification
            return interferometers._judge(plus, minus, variance, amplification, smallest)

        monkeypatch.setattr(noise_fit, "_judge", judge)
        nested = (topo, spec, Spy(), inputs)
        _nested_snr(nested, eps2, solution.coupling, solution.stretch)
        fields = {
            i: {"rho": rho[amp], "kappa": solution.kappa[amp], "epsilon2": eps2[amp]}
            for amp, i in enumerate(topo.amplifiers)
        }
        if rows is None:
            fields = {i: {name: float(v) for name, v in values.items()} for i, values in fields.items()}
        for i, values in fields.items():
            (linear, (weight, pattern)), (expected, (weight0, pattern0)) = seen["blocks"][i], NoisyPaElement.block(**values)
            assert _same_bits(linear, expected) and _same_bits(pattern, pattern0) and _same_bits(weight, weight0)
        assert _same_bits(seen["amplification"], _amplification(spec, fields))


class TestSolvedTerms:
    """``_solve_kappa``'s terms at its own ``kappa`` have the bits of the formulas written out, each in its own order of operations."""

    def test_terms_equal_the_formulas_at_its_kappa(self, rng):
        # Rows of every kind: reachable, below the floor, at or past the
        # pole (an infinite target from 4000 dB), and overflowing terms.
        rows = 400
        rho = 10.0 ** rng.uniform(-8.0, -1.0, rows)
        eps2 = 10.0 ** rng.uniform(0.0, 4.0, rows)
        rho[:40:2], eps2[1:40:2] = rng.choice([1e150, 4.4e92, 1e300], 20), 1e300
        qngs = rng.choice([0.5, 2.0, 7.0, 30.0, 60.0, 140.0, 170.0, 4000.0], rows)
        solution = _solve_kappa(_linear_targets(qngs), rho, eps2)
        refused = solution.unreachable | solution.at_pole | solution.overflow
        assert solution.unreachable.any() and solution.at_pole.any() and solution.overflow.any()
        assert refused.any() and not refused.all()
        kappa = solution.kappa
        with np.errstate(all="ignore"):
            floor = ((1.0 - rho) * (1.0 - rho) + 4.0 * rho * eps2) / ((1.0 + rho) * (1.0 + rho))
            m = (1.0 + rho) * (1.0 + rho) / 4.0 - kappa * kappa
            sqrt_rho = np.sqrt(rho)
            expected = (
                ((1.0 - rho * rho) / 4.0 + kappa * kappa) / m,
                kappa / m,
                sqrt_rho * (1.0 + rho) / (2.0 * m),
                kappa * sqrt_rho / m,
                ((1.0 - rho * rho) / 4.0 + kappa * (kappa + 1.0)) / m,
            )
            assert _same_bits(_floor(rho, eps2, _rho_terms(rho)[1]), floor)
            assert _same_bits(_stability(rho, kappa), m)
        for value, formula in zip((*solution.coupling, solution.stretch), expected, strict=True):
            assert _same_bits(value, formula)


class TestBatchedNoiseModel:
    def test_rows_match_per_row_engine_reports(self):
        noise1, noise2 = (5e-4, 2.0), (4e-4, 208.0)
        qng1 = np.array([4.0, 4.0, 8.0, 8.0, 6.0])
        qng2 = np.array([2.0, 12.0, 2.0, 7.0, 9.5])
        batched = _sisni_snr(qng1, qng2, _nested(PAPER_LOSSES, 36.0, 1e-3)[1], noise1, noise2)
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

    def test_row_masks_are_the_refusals_of_scalar_calls(self, rng):
        # Per-row rho and epsilon2 give each row the kappa bits, or the
        # refusal, of its own scalar call.
        qngs = rng.choice([0.5, 2.0, 7.0, 60.0, 140.0, 170.0], 300)
        rho, eps2 = 10.0 ** rng.uniform(-8.0, -1.0, 300), 10.0 ** rng.uniform(0.0, 4.0, 300)
        kappa, unreachable, at_pole = _solve_kappa(_linear_targets(qngs), rho, eps2)[:3]
        for row, args in enumerate(zip(qngs, rho.tolist(), eps2.tolist())):
            try:
                scalar = _kappa(*args)
            except NoSolutionError:
                assert unreachable[row]
            except InstabilityError:
                assert at_pole[row] and not unreachable[row]
            else:
                assert not (unreachable[row] or at_pole[row])
                assert kappa[row] == scalar[0]
        assert unreachable.any() and at_pole.any() and not (unreachable | at_pole).all()

    def test_noise_off_lossless_is_the_ideal_topology(self):
        snr = _sisni_snr(4.0, np.array([3.0, 6.0]), _nested((0.0, 0.0, 0.0), 36.0, 1e-3)[1], (0.0, 1.0), (0.0, 1.0))
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
