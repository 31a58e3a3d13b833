"""Tests for the backward propagation engine and its batched callers.

The reference path is the full-register one: ``element_map`` of each
element applied to the state with ``apply``, or, for the three-phase
oracle, to the factored state ``[A | mean]`` with each map's noise
factored by ``eigh``.
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
    element_map,
)
from gicirc.interferometers import _TOPOLOGIES, _excursion
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


def _row_circuits(spec, index, rows):
    """The circuit with element ``index``'s fields set to each row in turn."""
    for row in rows:
        elements = list(spec.elements)
        elements[index] = dataclasses.replace(elements[index], **row)
        yield dataclasses.replace(spec, elements=tuple(elements))


@settings(max_examples=80, deadline=None)
@given(varied_circuits())
def test_simulate_equals_the_full_register_path(case):
    dim = 2 * case[0].n_modes
    for spec in _row_circuits(*case):
        state = simulate(spec)
        assert state.mean.shape == (dim,) and state.cov.shape == (dim, dim)
        reference, scale = reference_state(spec)
        assert_close(state.mean, reference.mean, scale=scale)
        assert_close(state.cov, reference.cov, scale=scale)


def _varied_blocks(spec, vary):
    """Each varied element's block at ``vary``'s ``{index: {field: array}}``, its other fields the element's, as ``_Adjoint.run`` takes them."""
    blocks = {}
    for i, fields in vary.items():
        el = spec.elements[i]
        kind = circuits._KIND_OF[type(el)]
        blocks[i] = kind.block(**{n: getattr(el, n) for n in kind.params} | fields)
    return blocks


def detected_reference(spec):
    """The detected quadrature's mean and variance by the full-register path, and the largest entry met on the way."""
    reference, scale = reference_state(spec)
    return (*_quadrature(reference.mean, reference.cov, spec.detect.mode, spec.detect.theta), scale)


@settings(max_examples=80, deadline=None)
@given(varied_circuits())
def test_batch_equals_separate_runs(case):
    """One backward pass over a varied element's rows reads each row's circuit."""
    spec, index, rows = case
    vary = {index: {name: np.array([row[name] for row in rows]) for name in rows[0]}}
    means, cov = _Adjoint(spec, vary).run(_varied_blocks(spec, vary))
    assert means.shape == (len(rows), 1) and cov.shape == (len(rows), 1, 1)
    for b, single in enumerate(_row_circuits(spec, index, rows)):
        mean, variance, scale = detected_reference(single)
        assert_close(means[b, 0], mean, scale=scale)
        assert_close(cov[b, 0, 0], variance, scale=scale)


@st.composite
def grid_circuits(draw):
    """A circuit of ``varied_circuits`` with a second varied element: ``(R, 1)`` and ``(E,)`` values."""
    spec, first, rows = draw(varied_circuits().filter(lambda case: len(case[0].elements) > 1))
    second = draw(st.integers(0, len(spec.elements) - 2))
    second += second >= first
    _, numeric = KINDS[type(spec.elements[second])]
    cols = [{name: draw(NUMBERS[name]) for name in numeric} for _ in range(draw(st.integers(1, 4)))]
    return spec, (first, rows), (second, cols)


def _grid_vary(first, rows, second, cols):
    """``vary`` of a grid: element ``first``'s rows as ``(R, 1)`` values, element ``second``'s as ``(E,)``."""
    return {
        first: {name: np.array([[row[name]] for row in rows]) for name in rows[0]},
        second: {name: np.array([col[name] for col in cols]) for name in cols[0]},
    }


@settings(max_examples=80, deadline=None)
@given(grid_circuits())
def test_grid_equals_pointwise_runs(case):
    """Two varied elements' values broadcast to a grid; each cell reads what its float run and its circuit read."""
    spec, (first, rows), (second, cols) = case
    vary = _grid_vary(first, rows, second, cols)
    adjoint = _Adjoint(spec, vary)
    means, cov = adjoint.run(_varied_blocks(spec, vary))
    assert means.shape == (len(rows), len(cols), 1) and cov.shape == (len(rows), len(cols), 1, 1)
    for (r, row), (c, col) in itertools.product(enumerate(rows), enumerate(cols)):
        point_mean, point_cov = adjoint.run(_varied_blocks(spec, {first: row, second: col}))
        elements = list(spec.elements)
        elements[first] = dataclasses.replace(elements[first], **row)
        elements[second] = dataclasses.replace(elements[second], **col)
        mean, variance, scale = detected_reference(dataclasses.replace(spec, elements=tuple(elements)))
        for cell_mean, cell_var in ((means[r, c], cov[r, c, 0, 0]), (point_mean, point_cov[0, 0])):
            assert_close(cell_mean[0], mean, scale=scale)
            assert_close(cell_var, variance, scale=scale)


@settings(max_examples=400, deadline=None)
@given(grid_circuits(), st.booleans())
def test_a_grid_cell_has_the_bits_of_its_float_pass(case, identity):
    """Each cell of a batched pass has the bits of its float pass, means and covariance both, for one row or ``2n``."""
    spec, (first, rows), (second, cols) = case
    vary = _grid_vary(first, rows, second, cols)
    adjoint = _Adjoint(spec, vary, np.eye(2 * spec.n_modes) if identity else None)
    means, cov = adjoint.run(_varied_blocks(spec, vary))
    for (r, row), (c, col) in itertools.product(enumerate(rows), enumerate(cols)):
        point_mean, point_cov = adjoint.run(_varied_blocks(spec, {first: row, second: col}))
        assert _same_bits(means[r, c], point_mean) and _same_bits(cov[r, c], point_cov)


def _by_block_product(spec):
    """``simulate`` with each loss walked through its block product: its kind's row names no class, so the walk does not take it for a loss."""
    kind = circuits._KIND_OF[LossElement]
    circuits._KIND_OF[LossElement] = kind._replace(cls=None)
    try:
        state = simulate(spec)
    finally:
        circuits._KIND_OF[LossElement] = kind
    return state.mean, state.cov


def assert_same_values(actual, expected):
    """Equal arrays, bit for bit but for the sign of an exact zero (``-0.0 == 0.0``)."""
    for a, e in zip(actual, expected):
        assert a.shape == e.shape and np.array_equal(a, e)


@settings(max_examples=120, deadline=None)
@given(varied_circuits())
def test_loss_scaling_gives_the_values_of_the_block_product(case):
    """For losses in [0, 1], total losses included."""
    for spec in (case[0], *_row_circuits(*case)):
        state = simulate(spec)
        assert_same_values((state.mean, state.cov), _by_block_product(spec))


def test_noisy_amplifier_row_equals_its_scalar_run():
    """A squared field is a product, so the block of an array row has the bits of its float block."""
    rho = 0.004687347717978302  # (1 + rho) ** 2 on a float differs from numpy's array square
    (linear, (weight, pattern)), (point_linear, (point_weight, point_pattern)) = (
        NoisyPaElement.block(r, 0.3, 2.0) for r in (np.array([rho]), rho)
    )
    assert _same_bits(linear, point_linear[None]) and _same_bits(pattern, point_pattern[None])
    assert _same_bits(weight, point_weight)


class TestPropagate:
    """The backward walk: :func:`simulate` with the identity rows, ``_Adjoint`` with the detected one."""

    def test_equals_the_full_register_path(self):
        spec, _ = build_sisni(SisniParams(alpha=6.0, g1=0.8, g2=1.2, L_is=0.16, L_ii=0.1, L_e=0.15))
        state = simulate(spec)
        assert state.mean.shape == (6,) and state.cov.shape == (6, 6)
        reference, scale = reference_state(spec)
        assert_close(state.mean, reference.mean, scale=scale)
        assert_close(state.cov, reference.cov, scale=scale)

    def test_covariance_stays_exactly_symmetric(self, rng):
        params = SisniParams(alpha=3.0, g1=1.1, g2=0.7, L_is=0.2, L_ii=0.3, L_e=0.1)
        for phi in rng.uniform(0.0, 2.0 * math.pi, 5):
            cov = simulate(build_sisni(dataclasses.replace(params, phi_signal=phi))[0]).cov
            assert np.array_equal(cov, cov.T)

    def test_unvaried_batch_of_one(self):
        """With no element varied, a pass reads the one circuit: ``(1,)`` means and a scalar variance."""
        spec, _ = build_sisni(SisniParams(alpha=6.0, g1=0.8, g2=1.2, L_is=0.16, L_ii=0.1, L_e=0.15))
        means, cov = _Adjoint(spec, ()).run({})
        assert means.shape == (1,) and cov.shape == (1, 1)
        mean, variance, scale = detected_reference(spec)
        assert_close(means[0], mean, scale=scale)
        assert_close(cov[0, 0], variance, scale=scale)

    def test_elements_before_the_first_varied_one_run_once(self, monkeypatch):
        """Each unvaried block runs once, at the compile, with its scalar fields; a pass runs none, whatever its rows."""
        calls = {PaElement: [], PhaseElement: []}
        for cls in calls:
            kind = circuits._KIND_OF[cls]

            def spy(_block=kind.block, _calls=calls[cls], **values):
                _calls.append(values)
                return _block(**values)

            monkeypatch.setitem(circuits._KIND_OF, cls, kind._replace(block=spy))
        spec, _ = build_sisni(SisniParams(alpha=3.0, g1=0.9, g2=0.4, L_is=0.2, L_ii=0.1, L_e=0.3))
        adjoint = _Adjoint(spec, {6})
        assert calls[PaElement] == [{"g": 0.4}, {"g": 0.9}]  # walked last first: downstream, then upstream
        assert calls[PhaseElement] == [{"phi": math.pi}]  # the pump phase; the signal phase is varied
        for rows in (1, 3, 48):
            phis = np.linspace(3.0, 3.3, rows)
            means, cov = adjoint.run({6: PhaseElement.block(phis)})
            assert means.shape == (rows, 1) and cov.shape == (rows, 1, 1)
        assert len(calls[PaElement]) == 2 and len(calls[PhaseElement]) == 1

    def test_simulate_is_the_batch_of_one(self):
        """A pass over one row of an element's own values reads the detected quadrature of :func:`simulate`'s state."""
        spec, _ = build_sq_mzi(SqMziParams(alpha=5.0, g=0.9, L_i=0.1, L_e=0.2))
        phase = next(i for i, el in enumerate(spec.elements) if isinstance(el, PhaseElement))
        vary = {phase: {"phi": np.array([spec.elements[phase].phi])}}
        means, cov = _Adjoint(spec, vary).run(_varied_blocks(spec, vary))
        assert means.shape == (1, 1) and cov.shape == (1, 1, 1)
        state = simulate(spec)
        stats = detect_stats(spec, state)
        scale = max(1.0, float(np.abs(state.mean).max()), float(np.abs(state.cov).max()))
        assert_close(means[0, 0], stats.mean, scale=scale)
        assert_close(cov[0, 0, 0], stats.variance, scale=scale)


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


def factored_state(spec):
    """Output mean and covariance by the full-register path on the factored state ``[A | mean]``.

    Each ``element_map``'s ``S`` moves the whole state, and its noise ``N``
    goes in as the new columns ``P sqrt(lambda)`` of its eigendecomposition,
    so the covariance ``A diag(w) A^T`` is formed once, at the end, as a
    sum of non-negative terms where ``S cov S^T + N`` would cancel.
    """
    prepared = make_state(spec.n_modes, spec.inputs)
    state = np.column_stack((np.eye(2 * spec.n_modes), prepared.mean))
    weights = [np.diag(prepared.cov)]
    for el in spec.elements:
        channel = element_map(el, spec.n_modes)
        state = channel.linear @ state
        values, vectors = np.linalg.eigh(channel.noise)
        keep = values > 0.0
        state = np.column_stack((state[:, :-1], vectors[:, keep] * np.sqrt(values[keep]), state[:, -1]))
        weights.append(np.ones(keep.sum()))
    factor = state[:, :-1]
    cov = (factor * np.concatenate(weights)) @ factor.T
    return state[:, -1], 0.5 * (cov + cov.T)


def _three_phase_grid(phase, spec, dphi, vary=None):
    """Pointwise factored runs at element ``phase``'s ``phi0`` and ``phi0 +/- dphi`` per row of ``vary``: the three means and covariances.

    The means are ``(*rows, 3, 2n)`` and the covariances
    ``(*rows, 3, 2n, 2n)``, with no row axis without ``vary``.
    """
    phi0 = spec.elements[phase].phi
    columns = [v for fields in (vary or {}).values() for v in fields.values()]
    means, covs = [], []
    for row in range(len(columns[0])) if columns else [None]:
        elements = list(spec.elements)
        for i, fields in (vary or {}).items():
            elements[i] = dataclasses.replace(elements[i], **{name: float(v[row]) for name, v in fields.items()})
        three = []
        for phi in (phi0, phi0 + dphi, phi0 - dphi):
            elements[phase] = dataclasses.replace(elements[phase], phi=phi)
            three.append(factored_state(dataclasses.replace(spec, elements=tuple(elements))))
        means.append([mean for mean, _ in three])
        covs.append([cov for _, cov in three])
    if vary is None:
        return np.array(means[0]), np.array(covs[0])
    return np.array(means), np.array(covs)


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
def noise_behind_the_stack(draw):
    """A two-mode circuit with a loss, then ``vary`` rows of a lossy amplifier, then the phase to stack.

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
    """The detected row propagated backward, with the unvaried runs folded, reads what the forward three-phase runs read."""

    @settings(max_examples=100, deadline=None)
    @given(nested_rows(), st.sampled_from([1e-4, 1e-3, 0.3]))
    @example(_dark_fringe_rows(), 1e-4)
    def test_equals_the_forward_excursion(self, case, dphi):
        topo, spec, vary = case
        means, cov = _Adjoint(_excursion(spec, topo.phase, dphi), topo.amplifiers).run(_blocks(vary))
        assert means.shape[-2:] == (3, 1) and cov.shape == means.shape + (1,)
        means, var = means[..., 0], cov[..., 0, 0, 0]
        three, covs = _three_phase_grid(topo.phase, spec, dphi, vary)
        shifted, variance = _quadrature(three[..., 1:, :], covs[..., 0, :, :], spec.detect.mode, spec.detect.theta)
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
    @given(noise_behind_the_stack(), st.sampled_from([1e-4, 1e-3, 0.3]))
    def test_a_folded_run_behind_the_stack_reads_each_value(self, case, dphi):
        # The loss sits before the varied amplifier, which sits before the
        # stacked phase: the walk meets the loss's folded run with the
        # phase's three rows, and its noise is read with each value's row.
        # The run's step is [M | F], so its noise factor F widens it past 2n.
        spec, phase, vary = case
        adjoint = _Adjoint(_excursion(spec, phase, dphi), vary)
        step = adjoint.steps[-1]
        assert adjoint.rows.shape[:-2] == (3,) and step[0] is None and step[1].shape[-1] > 2 * spec.n_modes
        means, cov = adjoint.run(_blocks(vary))
        means, var = means[..., 0], cov[..., 0, 0, 0]
        three, covs = _three_phase_grid(phase, spec, dphi, vary)
        forward, variance = _quadrature(three, covs[..., 0, :, :], spec.detect.mode, spec.detect.theta)
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
        off_point = _Adjoint(_excursion(spec, topo.phase, 1e-3), topo.amplifiers)
        wide = _noisy_rows(rng, 48)
        amps = [tuple(wide[i][name] for name in ("rho", "kappa", "epsilon2")) for i in topo.amplifiers]
        for adjoint in (nested[2], off_point):
            passes = [adjoint.run(_blocks({i: {n: v[:rows] for n, v in row.items()} for i, row in wide.items()})) for rows in (6, 48)]
            for row in range(6):
                floats = adjoint.run(_blocks({i: {n: float(v[row]) for n, v in fields.items()} for i, fields in wide.items()}))
                assert floats[0].shape == (3, 1) and floats[1].shape == (3, 1, 1)
                for means, var in passes:
                    assert np.array_equal(floats[0], means[row]) and np.array_equal(floats[1], var[row])
        snr = [_fields_pass(nested, [tuple(v[:rows] for v in amp) for amp in amps]) for rows in (6, 48)]
        for row in range(6):
            single = _fields_pass(nested, [tuple(float(v[row]) for v in amp) for amp in amps])
            assert single == snr[0][row] == snr[1][row]


class TestEachExcursionValue:
    """Each value of the signal phase's stack is a whole readout: its covariance is the forward variance at that phase."""

    @pytest.mark.parametrize("cls", [SqMziParams, SisniParams])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dphi=st.sampled_from([1e-4, 1e-3, 0.3]))
    def test_in_the_excursion_readout(self, cls, data, dphi):
        params, mode = data.draw(off_point_params(cls))
        topo = _TOPOLOGIES[type(params)]
        spec, _ = topo.build(params)
        passes = []

        class Recording(_Adjoint):
            def run(self, blocks):
                passes.append(super().run(blocks))
                return passes[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(interferometers, "_Adjoint", Recording)
            interferometers._excursion_readout(topo, spec, dphi, mode)
        ((means, cov),) = passes
        three, covs = _three_phase_grid(topo.phase, spec, dphi)
        variance = _quadrature(three, covs, mode, spec.detect.theta)[1]
        assert means.shape == (3, 1) and cov.shape == (3, 1, 1)
        assert (np.abs(cov[1:, 0, 0] - variance[1:]) <= 1e-13 * variance[1:]).all()

    @settings(max_examples=60, deadline=None)
    @given(
        losses=st.tuples(_finite(0.0, 0.9), _finite(0.0, 0.9), _finite(0.0, 0.9)),
        dphi=st.sampled_from([1e-4, 1e-3, 0.3]),
        rows=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_the_fit_readout(self, losses, dphi, rows, seed):
        topo, spec, adjoint, _ = _nested(losses, 36.0, dphi)[1]
        vary = _noisy_rows(np.random.default_rng(seed), rows)
        means, cov = adjoint.run(_blocks(vary))
        three, covs = _three_phase_grid(topo.phase, spec, dphi, vary)
        variance = _quadrature(three, covs, spec.detect.mode, spec.detect.theta)[1]
        assert means.shape == (rows, 3, 1) and cov.shape == (rows, 3, 1, 1)
        assert (np.abs(cov[:, 1:, 0, 0] - variance[:, 1:]) <= 1e-13 * variance[:, 1:]).all()
        # The identity rows read each row's whole output state at each value.
        identity = _Adjoint(_excursion(spec, topo.phase, dphi), topo.amplifiers, np.eye(2 * spec.n_modes))
        means, cov = identity.run(_blocks(vary))
        assert means.shape == three.shape and cov.shape == covs.shape and np.array_equal(cov, cov.swapaxes(-1, -2))
        assert_close(means, three)
        assert_close(cov, covs)


# A valid value of each numeric element field.
VALID = {"g": 0.5, "T": 0.3, "phi": 0.7, "L": 0.2, "rho": 0.004, "kappa": 0.1, "epsilon2": 2.0}


class TestOnlyTheExcursionStacks:
    """An element field holds an array only where ``_excursion`` puts one."""

    @pytest.mark.parametrize("cls", list(KINDS))
    def test_constructors_take_a_0d_array_as_a_float_and_refuse_a_1d_one(self, cls):
        """The lossy amplifier takes real numbers only, so it refuses both."""
        target, numeric = KINDS[cls]
        where = (0, 1) if target == "modes" else 0
        values = {name: VALID[name] for name in numeric}
        for name in numeric:
            if cls is NoisyPaElement:
                with pytest.raises(ValueError, match="must be a real number"):
                    cls(where, **values | {name: np.array(VALID[name])})
            else:
                element = cls(where, **values | {name: np.array(VALID[name])})
                assert type(getattr(element, name)) is float and getattr(element, name) == VALID[name]
            with pytest.raises(ValueError if cls is NoisyPaElement else TypeError):
                cls(where, **values | {name: np.array([VALID[name], VALID[name]])})

    @settings(max_examples=60, deadline=None)
    @given(varied_circuits())
    def test_parsed_documents_hold_no_array(self, case):
        parsed = circuits.parse_circuit(circuits.serialize_circuit(case[0]))
        for entry in (*parsed.inputs, *parsed.elements, parsed.detect):
            assert not any(isinstance(value, np.ndarray) for value in vars(entry).values())


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
    """``engine_report`` and ``slope_vs_theta`` read backward what the forward three-phase runs read."""

    @pytest.mark.parametrize("cls", [SqMziParams, SisniParams])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dphi=st.sampled_from([1e-4, 1e-3, 0.3]))
    def test_equal_the_three_phase_grid(self, cls, data, dphi):
        params, mode = data.draw(off_point_params(cls))
        topo = _TOPOLOGIES[type(params)]
        spec, _ = topo.build(params)
        three, covs = _three_phase_grid(topo.phase, spec, dphi)
        forward, variance = _quadrature(three, covs[0], mode, spec.detect.theta)
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
