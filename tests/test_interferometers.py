"""Tests for topology builders, closed forms, and the covariance engine."""

import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from gicirc import (
    CircuitSpec,
    Coherent,
    Detection,
    InstabilityError,
    NoisyPaParams,
    SisniParams,
    SqMziParams,
    Vacuum,
    build_sisni,
    build_sq_mzi,
    detect_stats,
    engine_report,
    gain_from_qng,
    loss_plane,
    mean_signal_and_variance,
    phase_variance_closed,
    simulate,
    snr_sisni_closed,
    snr_sq_mzi_closed,
    slope_vs_theta,
    sql_baseline,
    wigner_panel,
)
from gicirc.circuits import LossElement, NoisyPaElement, PaElement, PhaseElement, SqueezerElement
from gicirc.interferometers import _TOPOLOGIES

PAPER_LOSSES = dict(L_is=0.16, L_ii=0.10, L_e=0.15)


def paper_point(alpha2=36.0):
    return SisniParams(
        alpha=math.sqrt(alpha2),
        g1=gain_from_qng(4.0).g,
        g2=gain_from_qng(6.0).g,
        **PAPER_LOSSES,
    )


class TestBuildSqMzi:
    def test_plain_dark_fringe(self):
        spec, mode = build_sq_mzi(SqMziParams(alpha=6.0))
        stats = detect_stats(spec)
        assert abs(stats.mean) < 1e-12
        assert stats.variance == pytest.approx(1.0, abs=1e-12)
        assert mode == 0

    def test_bright_port_carries_power(self):
        spec, _ = build_sq_mzi(SqMziParams(alpha=6.0))
        state = simulate(spec)
        # all input power emerges on the undetected port at the dark fringe
        assert abs(state.mean[2]) == pytest.approx(12.0, rel=1e-12)

    def test_squeezed_dark_fringe_variance(self):
        # 6 dB of phase squeezing: output variance (G + g)^-2 = 0.25.
        spec, mode = build_sq_mzi(SqMziParams(alpha=6.0, g=0.75))
        assert detect_stats(spec).variance == pytest.approx(0.25, abs=1e-12)

    def test_loss_identity_gives_unit_variance(self):
        # (1 - L_i)(1 - L_e) + L_i (1 - L_e) + L_e = 1 for g = 0.
        spec, _ = build_sq_mzi(SqMziParams(alpha=6.0, L_i=0.1, L_e=0.15))
        assert detect_stats(spec).variance == pytest.approx(1.0, abs=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            SqMziParams(alpha=-1.0)


class TestBuildSisni:
    def test_amplifiers_off_reduces_to_mzi(self):
        # With both pumps off, the nested interferometer must report exactly
        # like the plain MZI at matched losses.
        nested = SisniParams(alpha=6.0, L_is=0.2, L_ii=0.3, L_e=0.1)
        plain = SqMziParams(alpha=6.0, L_i=0.2, L_e=0.1)
        a = engine_report(nested, 1e-3)
        b = engine_report(plain, 1e-3)
        assert a.mean_X2 == pytest.approx(b.mean_X2, abs=1e-12)
        assert a.var_X2 == pytest.approx(b.var_X2, abs=1e-12)
        assert a.snr == pytest.approx(b.snr, rel=1e-12)

    def test_lossless_matched_gains(self):
        # No loss, matched gains, pump at minimum amplification: unit
        # variance and mean slope G2 * alpha.
        g = gain_from_qng(6.0)
        params = SisniParams(alpha=6.0, g1=g.g, g2=g.g)
        rep = engine_report(params, 1e-4)
        assert rep.var_X2 == pytest.approx(1.0, abs=1e-11)
        assert abs(rep.mean_X2) / 1e-4 == pytest.approx(g.G * 6.0, rel=1e-8)
        assert rep.snr == pytest.approx(g.G**2 * 1e-8 * 36.0, rel=1e-7)

    def test_engine_matches_closed_form_at_paper_point(self):
        params = paper_point()
        rep = engine_report(params, 1e-4)
        assert rep.snr == pytest.approx(snr_sisni_closed(params, 1e-4), rel=1e-8)

    def test_both_outputs_dark(self):
        spec, _ = build_sisni(paper_point())
        state = simulate(spec)
        assert abs(state.mean[0]) < 1e-12
        assert abs(state.mean[2 * 1]) < 1e-12


class TestClosedForms:
    def test_sql_case(self):
        # Lossless g = 0: SNR = dphi^2 |alpha|^2.
        params = SqMziParams(alpha=6.0)
        assert snr_sq_mzi_closed(params, 1e-3) == pytest.approx(36e-6, rel=1e-14)

    def test_squeezing_multiplies_snr(self):
        # (G + g)^2 = 4 quadruples the lossless SNR.
        params = SqMziParams(alpha=6.0, g=0.75)
        assert snr_sq_mzi_closed(params, 1e-3) == pytest.approx(4 * 36e-6, rel=1e-14)

    def test_external_loss_kills_squeezed_snr(self):
        params = SqMziParams(alpha=6.0, g=0.75, L_e=0.999999)
        assert snr_sq_mzi_closed(params, 1e-3) < 1e-10

    def test_sisni_lossless_matched(self):
        g = gain_from_qng(6.0)
        params = SisniParams(alpha=6.0, g1=g.g, g2=g.g)
        assert snr_sisni_closed(params, 1e-3) == pytest.approx(
            g.G**2 * 1e-6 * 36.0, rel=1e-12
        )

    def test_sisni_internal_lossless_external_scaling(self):
        # Zero internal loss and matched gains: SNR = (1 - L_e) G2^2
        # dphi^2 alpha^2, so the advantage over the equal-loss MZI is flat.
        g = gain_from_qng(6.0)
        for le in (0.0, 0.3, 0.8):
            params = SisniParams(alpha=6.0, g1=g.g, g2=g.g, L_e=le)
            assert snr_sisni_closed(params, 1e-3) == pytest.approx(
                (1 - le) * g.G**2 * 1e-6 * 36.0, rel=1e-12
            )

    def test_phase_variance_plain_mzi_is_shot_noise(self):
        assert phase_variance_closed(SqMziParams(alpha=6.0)) == pytest.approx(
            1.0 / 36.0, rel=1e-14
        )

    def test_phase_variance_sisni_lossless(self):
        g = gain_from_qng(6.0)
        params = SisniParams(alpha=6.0, g1=g.g, g2=g.g)
        assert phase_variance_closed(params) == pytest.approx(
            1.0 / (g.G**2 * 36.0), rel=1e-12
        )

    def test_phase_variance_squeezed(self):
        params = SqMziParams(alpha=6.0, g=0.75)
        assert phase_variance_closed(params) == pytest.approx(1.0 / (4 * 36.0), rel=1e-12)

    def test_phase_variance_consistent_with_snr(self):
        params = paper_point()
        for dphi in (1e-4, 1e-3, 1e-2):
            assert phase_variance_closed(params) == pytest.approx(
                dphi**2 / snr_sisni_closed(params, dphi), rel=1e-12
            )

    def test_degenerate_alpha(self):
        with pytest.raises(ValueError, match="degenerate"):
            phase_variance_closed(SqMziParams(alpha=0.0))

    @pytest.mark.parametrize(
        "closed, params, expected",
        [
            (snr_sq_mzi_closed, SisniParams(alpha=6.0, g1=0.5, g2=0.5), "SqMziParams"),
            (snr_sisni_closed, SqMziParams(alpha=6.0, g=0.5), "SisniParams"),
        ],
    )
    def test_the_other_topology_is_refused(self, closed, params, expected):
        with pytest.raises(TypeError, match=f"^this closed form needs {expected}, got {type(params).__name__}$"):
            closed(params, 1e-3)


class TestMeanSignalAndVariance:
    def test_sisni_lossless_mean(self):
        g2 = gain_from_qng(6.0)
        params = SisniParams(alpha=6.0, g1=g2.g, g2=g2.g)
        rep = mean_signal_and_variance(params, 0.01)
        assert rep.mean_X2 == pytest.approx(-g2.G * 0.01 * 6.0, rel=1e-12)
        assert rep.mean_X2 == pytest.approx(-0.0947, abs=5e-4)

    def test_sq_mzi_lossless_mean(self):
        rep = mean_signal_and_variance(SqMziParams(alpha=6.0), 0.01)
        assert rep.mean_X2 == pytest.approx(-0.06, rel=1e-12)

    def test_zero_excursion(self):
        rep = mean_signal_and_variance(SqMziParams(alpha=6.0), 0.0)
        assert rep.mean_X2 == 0.0

    def test_snr_field_consistency(self):
        for params in (SqMziParams(alpha=3.0, g=0.5, L_i=0.1, L_e=0.2), paper_point()):
            rep = mean_signal_and_variance(params, 1e-3)
            assert rep.snr == pytest.approx(rep.mean_X2**2 / rep.var_X2, rel=1e-15)
            closed = (
                snr_sq_mzi_closed(params, 1e-3)
                if isinstance(params, SqMziParams)
                else snr_sisni_closed(params, 1e-3)
            )
            assert rep.snr == pytest.approx(closed, rel=1e-12)


class TestEngineOracle:
    def test_random_parameter_sample(self, rng):
        # Engine against the closed forms over a random parameter cloud;
        # the symmetric difference carries a sin(dphi)/dphi factor, so the
        # tolerance scales with dphi^2.
        for _ in range(200):
            g1, g2 = rng.uniform(0, 2, 2)
            l1, l2, l3 = rng.uniform(0, 0.9, 3)
            alpha = math.sqrt(rng.uniform(1, 100))
            dphi = 10 ** rng.uniform(-4, -2)
            tol = max(1e-9, dphi * dphi)
            mzi = SqMziParams(alpha=alpha, g=g1, L_i=l1, L_e=l3)
            assert engine_report(mzi, dphi).snr == pytest.approx(
                snr_sq_mzi_closed(mzi, dphi), rel=tol
            )
            nested = SisniParams(alpha=alpha, g1=g1, g2=g2, L_is=l1, L_ii=l2, L_e=l3)
            assert engine_report(nested, dphi).snr == pytest.approx(
                snr_sisni_closed(nested, dphi), rel=tol
            )

    def test_dark_fringe_is_mean_zero(self):
        for params in (SqMziParams(alpha=6.0, g=0.7), paper_point()):
            spec, mode = (
                build_sq_mzi(params)
                if isinstance(params, SqMziParams)
                else build_sisni(params)
            )
            assert abs(detect_stats(spec).mean) < 1e-12

    def test_dark_fringe_extremum(self):
        # The detected mean crosses zero at the set point: opposite signs on
        # the two sides and magnitude growing with the excursion.
        params = paper_point()
        rep_small = engine_report(params, 1e-3)
        rep_large = engine_report(params, 1e-2)
        assert abs(rep_large.mean_X2) > abs(rep_small.mean_X2)
        spec_plus, mode = build_sisni(replace(params, phi_signal=math.pi + 0.01))
        spec_minus, _ = build_sisni(replace(params, phi_signal=math.pi - 0.01))
        assert detect_stats(spec_plus).mean * detect_stats(spec_minus).mean < 0

    def test_external_loss_immunity_ratio(self):
        # Matched gains, no internal loss: the SNR ratio against the
        # equal-loss baseline is exactly G2^2 for any external loss.
        g = gain_from_qng(6.0)
        for le in np.linspace(0.0, 0.99, 12):
            params = SisniParams(alpha=6.0, g1=g.g, g2=g.g, L_e=le)
            ratio = snr_sisni_closed(params, 1e-3) / snr_sq_mzi_closed(
                sql_baseline(params), 1e-3
            )
            assert ratio == pytest.approx(g.G**2, rel=1e-12)

    def test_snr_linear_in_power(self):
        params = paper_point()
        base = engine_report(params, 1e-3).snr
        doubled = engine_report(replace(params, alpha=params.alpha * math.sqrt(2)), 1e-3).snr
        assert doubled == pytest.approx(2 * base, rel=1e-13)


class TestSqlBaseline:
    def test_sisni_maps_signal_loss(self):
        params = paper_point()
        base = sql_baseline(params)
        assert base.g.g == 0.0
        assert base.L_i.L == params.L_is.L
        assert base.L_e.L == params.L_e.L
        assert base.alpha == params.alpha

    def test_sq_mzi_keeps_losses(self):
        params = SqMziParams(alpha=2.0, g=1.0, L_i=0.3, L_e=0.2)
        base = sql_baseline(params)
        assert base.g.g == 0.0
        assert base.L_i.L == 0.3

    def test_baseline_snr_formula(self):
        # The g = 0 baseline has unit variance, so its SNR is
        # (1 - L_i)(1 - L_e) dphi^2 alpha^2 exactly.
        base = SqMziParams(alpha=5.0, L_i=0.25, L_e=0.4)
        assert snr_sq_mzi_closed(base, 1e-3) == pytest.approx(
            0.75 * 0.6 * 1e-6 * 25.0, rel=1e-12
        )


class TestNoisyBuilds:
    def test_noisy_amplifiers_reduce_to_ideal_at_rho_zero(self):
        from gicirc import NoisyPaParams, kappa_from_qng

        k1 = kappa_from_qng(4.0, 0.0, 1.0)
        k2 = kappa_from_qng(6.0, 0.0, 1.0)
        n1 = NoisyPaParams(0.0, k1, 1.0)
        n2 = NoisyPaParams(0.0, k2, 1.0)
        params = paper_point()
        noisy = engine_report(params, 1e-3, noisy_pa1=n1, noisy_pa2=n2)
        ideal = engine_report(params, 1e-3)
        assert noisy.snr == pytest.approx(ideal.snr, rel=1e-9)

    def test_noisy_rejected_for_mzi(self):
        from gicirc import NoisyPaParams

        with pytest.raises(ValueError, match="nested"):
            engine_report(
                SqMziParams(alpha=6.0),
                1e-3,
                noisy_pa1=NoisyPaParams(0.0, 0.1, 1.0),
            )


class TestSecondOutput:
    def test_second_dark_port_weaker_by_gain_ratio(self):
        # Both outputs are dark; the default port's signal exceeds the
        # second port's by G2/g2.
        g = gain_from_qng(6.0)
        params = SisniParams(alpha=6.0, g1=g.g, g2=g.g)
        main = engine_report(params, 1e-4)
        second = engine_report(params, 1e-4, detect_mode=1)
        assert abs(main.mean_X2) > abs(second.mean_X2)
        assert abs(main.mean_X2 / second.mean_X2) == pytest.approx(g.G / g.g, rel=1e-9)

    def test_detect_mode_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            engine_report(SisniParams(alpha=6.0), 1e-3, detect_mode=3)


class TestPhaseExcursion:
    @pytest.mark.parametrize("dphi", [0.0, -0.0, math.nan, math.inf])
    def test_degenerate_dphi_rejected(self, dphi):
        from gicirc import slope_vs_theta

        for params in (SqMziParams(alpha=6.0, g=0.75), paper_point()):
            with pytest.raises(ValueError, match="dphi"):
                engine_report(params, dphi)
            with pytest.raises(ValueError, match="dphi"):
                slope_vs_theta(params, [0.0, math.pi / 2], dphi)

    def test_slope_matches_engine_mean_signal(self):
        # Both go through one finite difference: the phase-quadrature slope
        # times dphi is the engine's mean signal.
        from gicirc import slope_vs_theta

        dphi = 1e-3
        for params in (SqMziParams(alpha=6.0, g=0.75, L_i=0.1), paper_point()):
            slope = slope_vs_theta(params, [math.pi / 2], dphi)[0]
            assert slope * dphi == pytest.approx(engine_report(params, dphi).mean_X2, rel=1e-12)

    def test_detect_mode_error_is_index_and_value_error(self):
        from gicirc import GicircError

        with pytest.raises(GicircError) as info:
            engine_report(SisniParams(alpha=6.0), 1e-3, detect_mode=-1)
        assert isinstance(info.value, IndexError) and isinstance(info.value, ValueError)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteParams:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field, name", [
        ("alpha", "alpha"), ("g", "gain g"), ("phi", "phi"),
    ])
    def test_sq_mzi_rejected(self, bad, field, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SqMziParams(**{"alpha": 6.0, field: bad})

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field, name", [
        ("alpha", "alpha"), ("g1", "gain g"), ("g2", "gain g"),
        ("phi_signal", "phi_signal"), ("phi_pump", "phi_pump"),
    ])
    def test_sisni_rejected(self, bad, field, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SisniParams(**{"alpha": 6.0, field: bad})


class TestTopologyRows:
    """Each row's element indices name the elements its builder puts there."""

    CASES = [
        SqMziParams(alpha=6.0, g=0.5, L_i=0.1, L_e=0.2, phi=3.0),
        SisniParams(alpha=6.0, g1=0.5, g2=0.7, L_is=0.1, L_ii=0.2, L_e=0.3, phi_signal=3.0),
    ]

    @pytest.mark.parametrize("params", CASES)
    def test_indices_match_the_builder(self, params):
        topo = _TOPOLOGIES[type(params)]
        spec, _ = topo.build(params)
        phase = spec.elements[topo.phase]
        assert isinstance(phase, PhaseElement)
        assert phase.phi == getattr(params, topo.phase_field) == 3.0
        for i in topo.external:
            assert spec.elements[i] == LossElement(spec.elements[i].mode, params.L_e.L)
        assert spec.detect.mode in {spec.elements[i].mode for i in topo.external}
        assert all(isinstance(spec.elements[i], PaElement) for i in topo.amplifiers)

    def test_noisy_amplifiers_sit_at_the_row_indices(self):
        topo = _TOPOLOGIES[SisniParams]
        noisy = (NoisyPaParams(1e-3, 0.1, 2.0), NoisyPaParams(2e-3, 0.2, 3.0))
        spec, _ = build_sisni(paper_point(), *noisy)
        for i, pa in zip(topo.amplifiers, noisy, strict=True):
            assert spec.elements[i] == NoisyPaElement((0, 1), pa.rho, pa.kappa, pa.epsilon2)

    @pytest.mark.parametrize("cls", [SqMziParams, SisniParams])
    def test_fields_exist(self, cls):
        topo = _TOPOLOGIES[cls]
        names = {f.name for f in fields(cls)}
        assert {topo.phase_field, *topo.gains, *topo.losses} <= names
        assert all(set(arms) <= set(topo.losses) for arms in topo.internal.values())
        assert set(topo.baseline.values()) <= set(topo.losses)
        assert set(topo.baseline) == {"L_i", "L_e"}


class TestGainOverflow:
    """Overflowing gains raise InstabilityError naming the stage, with no warning."""

    CASES = [
        (SisniParams(alpha=6.0, g1=1e200, g2=0.5), "g1 = 1e+200, g2 = 0.5"),
        (SisniParams(alpha=6.0, g1=0.5, g2=1e200), "g1 = 0.5, g2 = 1e+200"),
        (SqMziParams(alpha=6.0, g=1e200), "g = 1e+200"),
        # (G + g)^2 overflows while G and g are finite.
        (SqMziParams(alpha=6.0, g=1.2e154), "g = 1.2e+154"),
    ]

    @pytest.mark.parametrize("params, gains", CASES)
    def test_closed_forms(self, params, gains):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            snr = snr_sq_mzi_closed if isinstance(params, SqMziParams) else snr_sisni_closed
            for closed in (
                lambda: snr(params, 1e-3),
                lambda: mean_signal_and_variance(params, 1e-3),
                lambda: phase_variance_closed(params),
                lambda: loss_plane(params, resolution=3),
            ):
                with pytest.raises(InstabilityError, match=f"closed form: .*{re.escape(gains)}"):
                    closed()

    @pytest.mark.parametrize("params, gains", CASES)
    def test_engine(self, params, gains):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match=f"engine: .*{re.escape(gains)}"):
                engine_report(params, 1e-3)

    @pytest.mark.parametrize("params, gains", CASES)
    def test_analyses(self, params, gains):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for analysis in (
                lambda: slope_vs_theta(params, [0.0, 1.0]),
                lambda: wigner_panel(params, [math.pi, 3.0], [0.0, 0.5], [0.0], [0.0]),
            ):
                with pytest.raises(InstabilityError, match=f"engine: .*{re.escape(gains)}"):
                    analysis()

    def test_circuit_document(self):
        spec = CircuitSpec(2, (Vacuum(), Coherent(1.0)), (PaElement((0, 1), 1e200),), Detection(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match=r"^engine: the state overflows at element 0 \(pa\)$"):
                simulate(spec)

    def test_covariance_formed_past_the_float_range(self):
        # The factor's entries (G + g = 2.4e154) are finite; the covariance's square is not.
        spec = CircuitSpec(1, (Vacuum(),), (SqueezerElement(0, 1.2e154),), Detection(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match=r"^engine: the output covariance overflows$"):
                simulate(spec)

    def test_large_finite_gains_still_report(self):
        params = SisniParams(alpha=6.0, g1=1e3, g2=1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(snr_sisni_closed(params, 1e-3))
            assert math.isfinite(engine_report(params, 1e-3).snr)
