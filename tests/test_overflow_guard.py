"""One overflow guard for every built-in readout, and the argument checks beside it.

The suite runs with every warning as an error, so each readout here either
returns finite values or raises ``InstabilityError`` naming its stage, and
never warns.
"""

import json
import math
import re

import numpy as np
import pytest

from gicirc import (
    Axis,
    GaussianState,
    InstabilityError,
    ModeError,
    NoisyPaParams,
    SisniParams,
    SqMziParams,
    advantage_db,
    advantage_vs_qng,
    coupling_factors,
    engine_report,
    kappa_from_qng,
    loss_plane,
    mean_signal_and_variance,
    noisy_pa,
    phase_variance_closed,
    quantum_noise_gain,
    slope_vs_theta,
    snr_gain_db,
    snr_sisni_closed,
    snr_sq_mzi_closed,
    wigner,
    wigner_panel,
)
from gicirc import analysis, interferometers, noise_fit
from gicirc.cli import main

LOSSES = (0.16, 0.10, 0.15)
NOISE = (5e-4, 2.0)
NOISY = (NoisyPaParams(5e-4, 0.3, 2.0), NoisyPaParams(4e-4, 0.45, 208.0))


def _snr_closed(params, dphi):
    closed = snr_sq_mzi_closed if isinstance(params, SqMziParams) else snr_sisni_closed
    return closed(params, dphi)


# name -> (stage, readout(params, dphi), nested topology only)
READOUTS = {
    "snr_closed": ("closed form", _snr_closed, False),
    "mean_signal_and_variance": ("closed form", mean_signal_and_variance, False),
    "phase_variance_closed": ("closed form", lambda p, dphi: phase_variance_closed(p), False),
    "advantage_db": ("closed form", lambda p, dphi: advantage_db(p), False),
    "loss_plane": ("closed form", lambda p, dphi: loss_plane(p, resolution=3).values, False),
    "engine_report": ("engine", engine_report, False),
    "engine_report_mode_1": ("engine", lambda p, dphi: engine_report(p, dphi, detect_mode=1), True),
    "engine_report_noisy": (
        "engine",
        lambda p, dphi: engine_report(p, dphi, noisy_pa1=NOISY[0], noisy_pa2=NOISY[1]),
        True,
    ),
    "slope_vs_theta": ("engine", lambda p, dphi: slope_vs_theta(p, [0.0, 1.0, math.pi / 2], dphi), False),
    "wigner_panel": (
        "engine",
        lambda p, dphi: wigner_panel(p, [math.pi, 3.1], [0.0, 0.5], [-1.0, 0.0, 1.0], [0.0, 1.0]).density,
        False,
    ),
}

# A bright-port amplitude whose square underflows to 0.
TINY = 1e-170
# stage -> what it names for a tiny amplitude: the closed forms the squared
# amplitude, the engine the SNR that divides the phase variance.
UNDERFLOWS = {"closed form": "the squared amplitude underflows", "engine": "the SNR underflows"}


_BOTH = {1e7: SisniParams(alpha=6.0, g1=1e7, g2=1e7)}
# The engine refuses gains past its precision bound eps * prod(G + g) > 1e-6 where
# nothing overflows first: the pass overflows at g1 = g2 = 1e150, and the Wigner
# determinant at every g = 1e150.  The noisy amplifiers replace the gains.
# (readout, params) pairs; None stands for a test_known_overflows_raise row.
_IMPRECISE_PARAMS = (
    SqMziParams(alpha=6.0, g=1e150),
    SisniParams(alpha=6.0, g1=1e150, g2=0.5),
    SisniParams(alpha=6.0, g1=0.5, g2=1e150),
    _BOTH[1e7],
)
IMPRECISE = {
    *(
        (name, params)
        for name in ("engine_report", "engine_report_mode_1", "slope_vs_theta")
        for params in _IMPRECISE_PARAMS
    ),
    ("wigner_panel", _BOTH[1e7]),
    (None, _BOTH[1e7]),
}


def _imprecise(params) -> str:
    gains = [params.g.g] if isinstance(params, SqMziParams) else [params.g1.g, params.g2.g]
    bound = np.finfo(float).eps * math.prod(math.sqrt(1.0 + g * g) + g for g in gains)
    return f"the precision bound eps * prod(G + g) = {bound:.2g} exceeds 1e-06"


def _named(stage, params, name=None) -> str:
    if params.alpha == TINY:
        return UNDERFLOWS[stage]
    if (name, params) in IMPRECISE:
        return _imprecise(params)
    return "the readout overflows"


# (label, params, dphi)
CASES = [
    (f"{label} g = {g:g}", params, 1e-3)
    for g in (1e200, 1.2e154, 1e150)
    for label, params in (
        ("sq-mzi", SqMziParams(alpha=6.0, g=g)),
        ("nested upstream", SisniParams(alpha=6.0, g1=g, g2=0.5)),
        ("nested downstream", SisniParams(alpha=6.0, g1=0.5, g2=g)),
        ("nested both", SisniParams(alpha=6.0, g1=g, g2=g)),
    )
] + [
    ("sq-mzi alpha = 1e160", SqMziParams(alpha=1e160, g=0.5), 1e-3),
    ("nested alpha = 1e160", SisniParams(alpha=1e160, g1=0.5, g2=0.5), 1e-3),
    # The squared amplitude underflows to 0; the readouts that divide by it say so.
    ("sq-mzi alpha = 1e-170", SqMziParams(alpha=TINY, g=0.5), 1e-3),
    ("nested alpha = 1e-170", SisniParams(alpha=TINY, g1=0.5, g2=0.5), 1e-3),
    ("sq-mzi dphi = 1e200", SqMziParams(alpha=6.0, g=0.5), 1e200),
    ("nested dphi = 1e200", SisniParams(alpha=6.0, g1=0.5, g2=0.5), 1e200),
    # Past the engine's precision bound; the closed form stays finite.
    ("nested both g = 1e7", SisniParams(alpha=6.0, g1=1e7, g2=1e7), 1e-3),
]


def _finite(value) -> bool:
    if hasattr(value, "phase_variance"):
        value = [value.mean_X2, value.var_X2, value.snr, value.phase_variance]
    return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))


MATRIX = [
    pytest.param(name, params, dphi, id=f"{name}-{label}")
    for name, (_, _, nested_only) in READOUTS.items()
    for label, params, dphi in CASES
    if isinstance(params, SisniParams) or not nested_only
]


class TestOverflowMatrix:
    @pytest.mark.parametrize("name, params, dphi", MATRIX)
    def test_finite_or_named_stage(self, name, params, dphi):
        stage, readout, _ = READOUTS[name]
        try:
            value = readout(params, dphi)
        except InstabilityError as err:
            assert str(err).startswith(f"{stage}: {_named(stage, params, name)} at gains ")
        else:
            assert _finite(value), value

    @pytest.mark.parametrize(
        "params, stage, readout",
        [
            (SqMziParams(alpha=6.0, g=1e200), "closed form", lambda p: snr_sq_mzi_closed(p, 1e-3)),
            (SqMziParams(alpha=6.0, g=1.2e154), "closed form", phase_variance_closed),
            # 1 + g1² + g2² overflows, though the lossless variance is 1.
            (SisniParams(alpha=6.0, g1=1.2e154, g2=1.2e154), "closed form", lambda p: snr_sisni_closed(p, 1e-3)),
            (SqMziParams(alpha=1e160, g=0.5), "closed form", phase_variance_closed),
            (SqMziParams(alpha=TINY, g=0.5), "closed form", phase_variance_closed),
            (SisniParams(alpha=TINY, g1=0.5, g2=0.5), "engine", engine_report),
            (SqMziParams(alpha=6.0, g=0.5), "closed form", lambda p: mean_signal_and_variance(p, 1e200)),
            # The engine refuses gains past its precision bound.
            (SisniParams(alpha=6.0, g1=1e7, g2=1e7), "engine", engine_report),
            (SisniParams(alpha=6.0, g1=0.5, g2=0.5), "engine", lambda p: engine_report(p, 1e200)),
            (SqMziParams(alpha=6.0, g=1e100), "engine", lambda p: wigner_panel(p, [math.pi], [0.0], [0.0], [0.0])),
        ],
    )
    def test_known_overflows_raise(self, params, stage, readout):
        with pytest.raises(InstabilityError, match=f"^{stage}: {re.escape(_named(stage, params))} at gains "):
            readout(params)

    @pytest.mark.parametrize("alpha2, dphi", [(36.0, 1e200), (1e300, 1e-3), (1e300, 1e200)])
    def test_advantage_vs_qng(self, alpha2, dphi):
        try:
            curve = advantage_vs_qng(4.0, [2.0, 7.0], LOSSES, NOISE, NOISE, alpha2=alpha2, dphi=dphi)
        except InstabilityError as err:
            assert str(err).startswith("engine: the readout overflows at gains ")
        else:
            assert _finite(curve)

    def test_pole_keeps_its_message(self):
        with pytest.raises(InstabilityError, match="stability pole"):
            advantage_vs_qng(4.0, [200.0], LOSSES, (0.01, 2.0), (0.01, 2.0))
        message = (
            "QNG 400.0 dB puts kappa at the stability pole (1 + rho)/2 = 0.50025: "
            "no float kappa reproduces it within a relative 1e-09"
        )
        with pytest.raises(InstabilityError, match=f"^{re.escape(message)}$"):
            advantage_vs_qng(400.0, [2.0, 7.0, 12.0], LOSSES, (5e-4, 2.0), (4e-4, 208.0))
        with pytest.raises(InstabilityError, match=f"^{re.escape(message)}$"):
            kappa_from_qng(400.0, 5e-4, 2.0)

    @pytest.mark.parametrize("rho1, eps1", [(1e300, 2.0), (4.4e92, 1.5), (1e-3, 1e300)])
    def test_overflowing_terms_are_named(self, rho1, eps1):
        # The terms of kappa's quadratic leave the float range: an overflow, not the pole.
        message = f"QNG 4.0 dB is out of reach: the noise model's terms overflow at rho = {rho1}, epsilon2 = {eps1}"
        with pytest.raises(InstabilityError, match=f"^{re.escape(message)}$"):
            advantage_vs_qng(4.0, [2.0, 7.0, 12.0], LOSSES, (rho1, eps1), (4e-4, 208.0))
        with pytest.raises(InstabilityError, match=f"^{re.escape(message)}$"):
            kappa_from_qng(4.0, rho1, eps1)


class TestAmplifierTermsOverflow:
    """The lossy amplifier's public functions refuse terms past the float range by name, rather than return NaN."""

    @staticmethod
    def message(params):
        return f"the noise model's terms overflow at rho = {params.rho}, epsilon2 = {params.epsilon2}"

    @pytest.mark.parametrize("rho", [1e160, 1e300])
    def test_all_three_refuse(self, rho):
        params = NoisyPaParams(rho, 0.0, 2.0)  # the parameters themselves are accepted
        for call in (coupling_factors, quantum_noise_gain, lambda p: noisy_pa((0, 1), p, 2)):
            with pytest.raises(InstabilityError, match=f"^{re.escape(self.message(params))}$"):
                call(params)

    def test_each_refuses_where_its_own_values_overflow(self):
        # Near the pole with a huge epsilon2 the coupling factors are finite,
        # but the noise gain and the map's noise are not.
        params = NoisyPaParams(1e-3, 0.5004, 1e308)
        assert all(map(math.isfinite, vars(coupling_factors(params)).values()))
        for call in (quantum_noise_gain, lambda p: noisy_pa((0, 1), p, 2)):
            with pytest.raises(InstabilityError, match=f"^{re.escape(self.message(params))}$"):
                call(params)

    def test_finite_values_are_returned(self):
        params = NoisyPaParams(1e150, 0.0, 2.0)
        assert math.isfinite(quantum_noise_gain(params))
        channel = noisy_pa((0, 1), params, 2)
        assert np.isfinite(channel.linear).all() and np.isfinite(channel.noise).all()


class TestCancellation:
    """A noise variance that cancels to zero or below is named, not called an overflow; the
    engine refuses such gains by its precision bound first, and the closed forms cancel no
    longer.
    """

    def test_engine(self):
        message = "engine: the precision bound eps * prod(G + g) = 0.089 exceeds 1e-06 at gains g1 = 1e+07, g2 = 1e+07"
        with pytest.raises(InstabilityError) as err:
            engine_report(SisniParams(alpha=6.0, g1=1e7, g2=1e7))
        assert str(err.value) == message

    def test_closed_form(self):
        params = SisniParams(alpha=6.0, g1=1e10, g2=1e10)
        assert phase_variance_closed(params) == pytest.approx(1.0 / (36.0 * 1e20), rel=1e-12)
        message = "closed form: the noise variance cancels to zero or below at gains g1 = 1e+10, g2 = 1e+10"
        with pytest.raises(InstabilityError) as err:
            with interferometers._guard("closed form", params):
                interferometers._positive(np.float64(0.0))
        assert str(err.value) == message


class TestNoiseModelRefusals:
    """The SQL baseline and the nested rows name the caller's ``alpha2`` and ``dphi``, not gains."""

    @pytest.mark.parametrize("alpha2", [1e-320, 1e-316, 1e-305])
    def test_baseline_snr_underflows(self, alpha2):
        message = rf"^SQL baseline: the SNR underflows at alpha2 = {alpha2!r}, dphi = 0\.001$"
        with pytest.raises(InstabilityError, match=message):
            advantage_vs_qng(4.0, [2.0, 7.0], LOSSES, NOISE, NOISE, alpha2=alpha2)
        rows = [(4.0, 2.0, 0.5), (4.0, 7.0, 2.7), (8.0, 2.0, 0.4), (8.0, 7.0, 2.5)]
        with pytest.raises(InstabilityError, match=message):
            noise_fit.fit_noise_model(rows, LOSSES, restarts=1, max_evals=10, alpha2=alpha2)

    def test_rows_overflow(self):
        message = r"^noise model: the readout overflows at alpha2 = 1\.7e\+308, dphi = 1\.0$"
        with pytest.raises(InstabilityError, match=message):
            advantage_vs_qng(4.0, [2.0, 7.0], LOSSES, NOISE, NOISE, alpha2=1.7e308, dphi=1.0)

    def test_rows_past_the_precision_bound(self):
        message = r"^noise model: the precision bound eps \* prod\(G \+ g\) = 4\.4e-06 exceeds 1e-06 at alpha2 = 36\.0, dphi = 0\.001$"
        advantage_vs_qng(80.0, [80.0], LOSSES, NOISE, NOISE)  # G_bar + g_bar = 1.4e4 each: within the bound
        with pytest.raises(InstabilityError, match=message):
            advantage_vs_qng(100.0, [100.0], LOSSES, NOISE, NOISE)

    def test_huge_dphi_gives_the_same_curve(self):
        # Both SNRs carry the same sin(dphi)^2 factor, and the curve divides it out.
        curve = advantage_vs_qng(4.0, [2.0, 7.0], LOSSES, NOISE, NOISE, dphi=1e200)
        assert curve == pytest.approx(advantage_vs_qng(4.0, [2.0, 7.0], LOSSES, NOISE, NOISE), rel=1e-9)


class TestOneGuardPerReadout:
    """Each built-in readout enters the guard once; none nests it."""

    @pytest.fixture
    def entries(self, monkeypatch):
        guard = interferometers._guard
        log = {"entries": 0, "depth": 0, "deepest": 0}

        class Counting:
            def __init__(self, stage, params):
                self.inner = guard(stage, params)

            def __enter__(self):
                log["entries"] += 1
                log["depth"] += 1
                log["deepest"] = max(log["deepest"], log["depth"])
                return self.inner.__enter__()

            def __exit__(self, *exc):
                log["depth"] -= 1
                return self.inner.__exit__(*exc)

        for module in (interferometers, analysis, noise_fit):
            monkeypatch.setattr(module, "_guard", Counting)
        return log

    MZI = SqMziParams(alpha=6.0, g=0.5, L_i=0.1, L_e=0.1)
    NESTED = SisniParams(alpha=6.0, g1=0.7, g2=0.9, L_is=0.1, L_ii=0.1, L_e=0.1)

    @pytest.mark.parametrize(
        "readout",
        [
            lambda p: snr_sisni_closed(p, 1e-3),
            lambda p: mean_signal_and_variance(p, 1e-3),
            phase_variance_closed,
            lambda p: loss_plane(p, resolution=3),
            lambda p: engine_report(p, 1e-3, noisy_pa1=NOISY[0]),
            lambda p: slope_vs_theta(p, [0.0, 1.0]),
            lambda p: wigner_panel(p, [math.pi, 3.1], [0.0, 0.5], [0.0], [0.0]),
            lambda p, nested=noise_fit._nested(LOSSES, 36.0, 1e-3)[1]: noise_fit._sisni_snr(
                np.array([3.0, 5.0]), 4.0, nested, NOISE, NOISE
            ),
        ],
    )
    def test_once(self, entries, readout):
        readout(self.NESTED)
        assert (entries["entries"], entries["deepest"]) == (1, 1)

    def test_sq_mzi_once(self, entries):
        snr_sq_mzi_closed(self.MZI, 1e-3)
        assert (entries["entries"], entries["deepest"]) == (1, 1)

    def test_compositions_do_not_nest(self, entries):
        advantage_db(self.NESTED)
        advantage_vs_qng(4.0, [2.0, 7.0], LOSSES, NOISE, NOISE)
        assert entries["deepest"] == 1


class TestClosedFormDphi:
    @pytest.mark.parametrize("params", [SqMziParams(alpha=6.0, g=0.5), SisniParams(alpha=6.0, g1=0.5, g2=0.7)])
    @pytest.mark.parametrize("dphi", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_refused(self, params, dphi):
        for readout in (_snr_closed, mean_signal_and_variance):
            with pytest.raises(ValueError, match="phase excursion dphi must be finite"):
                readout(params, dphi)

    @pytest.mark.parametrize("params", [SqMziParams(alpha=6.0, g=0.5), SisniParams(alpha=6.0, g1=0.5, g2=0.7)])
    def test_zero_gives_zero_snr(self, params):
        assert _snr_closed(params, 0.0) == 0.0
        report = mean_signal_and_variance(params, 0.0)
        assert report.snr == 0.0 and report.mean_X2 == 0.0
        assert report.phase_variance == phase_variance_closed(params)

    def test_huge_finite_overflows_in_the_guard(self):
        params = SisniParams(alpha=6.0, g1=0.5, g2=0.7)
        for readout in (_snr_closed, mean_signal_and_variance):
            with pytest.raises(InstabilityError, match="^closed form: the readout overflows at gains g1 = 0.5, g2 = 0.7$"):
                readout(params, 1e200)


class TestPhaseVarianceUnderflow:
    """A closed-form phase variance that underflows to 0 raises an instability that says so."""

    @pytest.mark.parametrize(
        "readout",
        [
            phase_variance_closed,
            advantage_db,
            snr_gain_db,
            lambda p: loss_plane(p, resolution=3),
            mean_signal_and_variance,
        ],
        ids=["phase_variance_closed", "advantage_db", "snr_gain_db", "loss_plane", "mean_signal_and_variance"],
    )
    def test_raises_naming_the_closed_form(self, readout):
        with pytest.raises(InstabilityError, match=r"^closed form: the phase variance underflows at gains g = 1e\+08$"):
            readout(SqMziParams(alpha=1.3e154, g=1e8))

    def test_subnormal_phase_variance_is_returned(self):
        variance = phase_variance_closed(SqMziParams(alpha=1e154, g=0.5))
        assert 0.0 < variance < 2.2250738585072014e-308


# (params, its gains as an error names them) at a tiny amplitude
TINY_MZI = (SqMziParams(alpha=TINY, g=0.5), "g = 0.5")
TINY_NESTED = (SisniParams(alpha=TINY, g1=0.5, g2=0.5), "g1 = 0.5, g2 = 0.5")


class TestTinyAmplitudeUnderflow:
    """A squared amplitude that underflows to 0 is named, not reported as an overflow."""

    @pytest.mark.parametrize("params, gains", [TINY_MZI, TINY_NESTED], ids=["sq-mzi", "nested"])
    @pytest.mark.parametrize(
        "readout",
        [
            phase_variance_closed,
            mean_signal_and_variance,
            advantage_db,
            snr_gain_db,
            lambda p: loss_plane(p, resolution=3),
        ],
        ids=["phase_variance_closed", "mean_signal_and_variance", "advantage_db", "snr_gain_db", "loss_plane"],
    )
    def test_closed_forms_name_the_squared_amplitude(self, params, gains, readout):
        message = f"closed form: the squared amplitude underflows at gains {gains}"
        with pytest.raises(InstabilityError, match=f"^{message}$"):
            readout(params)

    @pytest.mark.parametrize(
        "params, gains, mode, noisy",
        [
            (*TINY_MZI, 0, (None, None)),
            (*TINY_MZI, 1, (None, None)),
            *[(*TINY_NESTED, mode, noisy) for mode in (0, 1, 2) for noisy in ((None, None), NOISY)],
        ],
    )
    def test_engine_names_the_snr(self, params, gains, mode, noisy):
        with pytest.raises(InstabilityError, match=f"^engine: the SNR underflows at gains {gains}$"):
            engine_report(params, detect_mode=mode, noisy_pa1=noisy[0], noisy_pa2=noisy[1])

    @pytest.mark.parametrize("params", [TINY_MZI[0], TINY_NESTED[0]], ids=["sq-mzi", "nested"])
    def test_closed_snr_rounds_to_zero(self, params):
        assert _snr_closed(params, 1e-3) == 0.0


class TestWignerOverflow:
    def test_public_wigner_raises(self):
        state = GaussianState(1, [0.0, 0.0], 1e200 * np.eye(2))
        with pytest.raises(InstabilityError, match="^Wigner density: the covariance determinant overflows$"):
            wigner(state, 0, 0.0, 0.0)

    def test_large_finite_covariance_still_has_a_density(self):
        state = GaussianState(1, [0.0, 0.0], 1e150 * np.eye(2))
        assert wigner(state, 0, 0.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi * 1e150), rel=1e-12)

    def test_panel_names_the_engine_and_gains(self):
        with pytest.raises(InstabilityError, match=r"^engine: the readout overflows at gains g = 1e\+100$"):
            wigner_panel(SqMziParams(alpha=6.0, g=1e100), [math.pi], [0.0], [0.0], [0.0])

    def test_cli_prints_one_json_line(self, capsys):
        argv = ["wigner", "--topology", "sq-mzi", "--g", "1e100", "--xs=-1:1:3", "--ps=-1:1:3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == {
            "type": "InstabilityError",
            "message": "engine: the readout overflows at gains g = 1e+100",
        }


class TestAnalysisGrids:
    """Non-finite angles and coordinates are refused before the guard could misname them."""

    def test_slope_angles(self):
        with pytest.raises(ValueError, match="local-oscillator angles theta must be finite"):
            slope_vs_theta(SqMziParams(alpha=6.0, g=0.5), [0.0, math.inf])

    @pytest.mark.parametrize("x, p, name", [([math.nan], [0.0], "x"), ([0.0], [-math.inf], "p")])
    def test_wigner_coordinates(self, x, p, name):
        with pytest.raises(ValueError, match=f"Wigner coordinates {name} must be finite"):
            wigner_panel(SqMziParams(alpha=6.0, g=0.5), [math.pi], [0.0], x, p)


class TestStrictCounts:
    @pytest.mark.parametrize("count", [2.5, 3.0, True, "3", None])
    def test_axis_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match=r"^axis 'x' point count must be an integer, got "):
            Axis("x", 0.0, 1.0, count)

    def test_axis_count_messages_stay(self):
        with pytest.raises(ValueError, match=r"^axis 'x' needs at least 2 points, got 1$"):
            Axis("x", 0.0, 1.0, 1)
        assert Axis("x", 0.0, 1.0, np.int64(3)).count == 3
        assert type(Axis("x", 0.0, 1.0, np.int64(3)).count) is int

    @pytest.mark.parametrize("resolution", [2.5, (3, 2.0)])
    def test_loss_plane_resolution(self, resolution):
        with pytest.raises(ValueError, match="point count must be an integer"):
            loss_plane(SqMziParams(alpha=6.0, g=0.5), resolution=resolution)

    @pytest.mark.parametrize("n_modes", [1.5, 1.0, True, "1"])
    def test_gaussian_state_modes_must_be_an_integer(self, n_modes):
        with pytest.raises(ModeError, match=r"^n_modes must be an integer, got "):
            GaussianState(n_modes, [0.0, 0.0], np.eye(2))

    def test_gaussian_state_messages_stay(self):
        with pytest.raises(ValueError, match=r"^n_modes must be a positive integer, got 0$"):
            GaussianState(0, [], np.zeros((0, 0)))
        state = GaussianState(np.int64(1), [0.0, 0.0], np.eye(2))
        assert state.n_modes == 1 and type(state.n_modes) is int
