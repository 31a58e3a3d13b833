"""Tests for figure-level analysis: maps, slopes, Wigner panels, fits."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gicirc import (
    Axis,
    InstabilityError,
    SisniParams,
    SqMziParams,
    advantage_db,
    build_sisni,
    build_sq_mzi,
    engine_report,
    fit_snr_vs_power,
    from_db,
    gain_from_qng,
    loss_plane,
    marginal,
    simulate,
    slope_vs_theta,
    snr_gain_db,
    snr_sisni_closed,
    snr_sq_mzi_closed,
    to_db,
    wigner,
    wigner_panel,
)
from gicirc import analysis
from gicirc.circuits import _propagate


def lossless_sisni(alpha2=36.0, qng_db=6.0):
    g = gain_from_qng(qng_db)
    return SisniParams(alpha=math.sqrt(alpha2), g1=g.g, g2=g.g)


class TestDbConversions:
    def test_round_trip(self):
        assert from_db(to_db(2.4905)) == pytest.approx(2.4905, rel=1e-14)

    def test_six_db_squeezing(self):
        assert to_db(4.0) == pytest.approx(6.0206, abs=1e-4)

    @pytest.mark.parametrize("db", [3082.6, 1e5, np.float64(1e5)])
    def test_a_ratio_beyond_the_float_range_is_refused(self, db):
        with pytest.raises(ValueError) as exc:
            from_db(db)
        assert str(exc.value) == f"{db} dB is beyond the float range"

    def test_an_array_is_converted_element_wise(self):
        db = np.array([[-3.0, 0.0], [6.0, 3000.0]])
        assert from_db(db).tolist() == [[10.0 ** (v / 10.0) for v in row] for row in db.tolist()]

    def test_an_array_beyond_the_float_range_is_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="dB is beyond the float range"):
                from_db(np.array([1.0, 1e5]))

    @pytest.mark.parametrize("ratio", [0.0, -1.0, math.nan])
    def test_a_ratio_not_above_zero_is_refused_without_a_warning(self, ratio):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^a ratio in decibels must be > 0, got "):
                to_db(ratio)


class TestAdvantage:
    def test_identity_baseline_is_zero(self):
        params = SqMziParams(alpha=6.0)
        assert advantage_db(params) == pytest.approx(0.0, abs=1e-12)
        assert snr_gain_db(params) == pytest.approx(0.0, abs=1e-12)

    def test_lossless_sisni_gain(self):
        # 6 dB downstream gain: SNR ratio G2^2 = (10^0.6 + 1)/2, about
        # 3.963 dB over the shot-noise limit.
        expected = to_db((10**0.6 + 1) / 2)
        assert snr_gain_db(lossless_sisni()) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(3.963, abs=1e-3)

    def test_lossless_squeezed_mzi_gain(self):
        params = SqMziParams(alpha=6.0, g=0.75)
        assert snr_gain_db(params) == pytest.approx(to_db(4.0), abs=1e-12)
        assert advantage_db(params) == pytest.approx(-to_db(4.0), abs=1e-12)


class TestLossPlane:
    def test_flat_row_at_zero_internal_loss(self):
        grid = loss_plane(lossless_sisni(), (0.0, 0.0), (0.0, 0.9), resolution=(2, 21))
        row = grid.values[0]
        assert np.ptp(row) < 1e-9

    def test_squeezed_mzi_origin(self):
        params = SqMziParams(alpha=6.0, g=0.75)
        grid = loss_plane(params, (0.0, 0.5), (0.0, 0.5), resolution=6)
        assert grid.values[0, 0] == pytest.approx(-to_db(4.0), abs=1e-9)

    def test_all_gains_off_is_flat_zero(self):
        grid = loss_plane(SqMziParams(alpha=6.0), (0.0, 0.8), (0.0, 0.8), resolution=5)
        assert np.abs(grid.values).max() < 1e-12

    def test_squeezed_mzi_degrades_with_external_loss(self):
        # Variance-ratio advantage climbs monotonically toward 0 dB as
        # external loss destroys the squeezing.
        params = SqMziParams(alpha=6.0, g=0.75)
        grid = loss_plane(params, (0.0, 0.0), (0.0, 0.9), resolution=(2, 19))
        row = grid.values[0]
        assert np.all(np.diff(row) > 0)
        assert row[0] == pytest.approx(-to_db(4.0), abs=1e-9)
        assert row[-1] > -0.7

    def test_internal_target_selection(self):
        params = lossless_sisni()
        both = loss_plane(params, (0.3, 0.3), (0.0, 0.0), resolution=2).values[0, 0]
        signal = loss_plane(
            params, (0.3, 0.3), (0.0, 0.0), resolution=2, internal_target="signal"
        ).values[0, 0]
        assert both != signal

    def test_range_validation(self):
        with pytest.raises(ValueError, match="range"):
            loss_plane(lossless_sisni(), (0.0, 1.0), (0.0, 0.9))

    NESTED = SisniParams(alpha=4.0, g1=0.7, g2=1.1, L_is=0.12, L_ii=0.07, L_e=0.2)

    RANGES = ((0.05, 0.85), (0.0, 0.9))
    DEFAULT_RANGES = ((0.0, 0.9), (0.0, 0.9))

    @pytest.mark.parametrize(
        "params, target, fields, ranges, resolution",
        [
            (SqMziParams(alpha=5.0, g=0.6, L_i=0.2, L_e=0.3), "both", ("L_i",), RANGES, (7, 11)),
            (NESTED, "both", ("L_is", "L_ii"), RANGES, (7, 11)),
            (NESTED, "signal", ("L_is",), RANGES, (7, 11)),
            (NESTED, "idler", ("L_ii",), RANGES, (7, 11)),
            # Cell [5, 1] (L_is = 0.5625, L_e = 0.09) sits on a last-bit edge: where
            # the grid and a float round differently (a float's pow or math.log10),
            # it reads 0.7630339301047713 against 0.7630339301047722.
            (SisniParams(alpha=6.0, g1=2.2, g2=2.9, L_ii=0.1), "signal", ("L_is",), DEFAULT_RANGES, (9, 11)),
        ],
    )
    def test_matches_per_cell_advantage(self, params, target, fields, ranges, resolution):
        # Reference: one advantage_db per cell, with the swept internal
        # loss ``fields`` and the external loss set on the parameters.
        grid = loss_plane(params, *ranges, resolution=resolution, internal_target=target)
        expected = [
            [advantage_db(replace(params, L_e=le, **dict.fromkeys(fields, li))) for le in grid.x_axis.values]
            for li in grid.y_axis.values
        ]
        assert grid.values.shape == resolution
        assert np.array_equal(grid.values, np.array(expected))

    @pytest.mark.parametrize("params", [SqMziParams(alpha=0.0, g=0.5), lossless_sisni(alpha2=0.0)])
    def test_dark_input_is_refused(self, params):
        with pytest.raises(ValueError, match="alpha = 0"):
            loss_plane(params, resolution=3)

    def test_unknown_internal_target_is_refused(self):
        with pytest.raises(ValueError, match="internal loss target"):
            loss_plane(lossless_sisni(), resolution=3, internal_target="pump")

    @pytest.mark.parametrize(
        "params, target",
        [
            (SqMziParams(alpha=6.0, g=0.5), "signal"),
            (SqMziParams(alpha=6.0, g=0.5), "idler"),
            (SqMziParams(alpha=6.0, g=0.5), "pump"),
            (lossless_sisni(), "pump"),
        ],
    )
    def test_targets_the_topology_lacks_are_refused(self, params, target):
        with pytest.raises(ValueError, match=f"unknown internal loss target '{target}'"):
            loss_plane(params, resolution=3, internal_target=target)

    def test_axis_metadata(self):
        grid = loss_plane(lossless_sisni(), (0.0, 0.4), (0.1, 0.5), resolution=(3, 4))
        assert grid.y_axis == Axis("internal_loss", 0.0, 0.4, 3)
        assert grid.x_axis == Axis("external_loss", 0.1, 0.5, 4)
        assert grid.values.shape == (3, 4)


class TestSlopeVsTheta:
    def test_plain_mzi_extrema(self):
        # Slope magnitude |alpha| on the phase quadrature, zero a quarter
        # turn away.
        params = SqMziParams(alpha=6.0)
        thetas = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        slopes = slope_vs_theta(params, thetas, 1e-4)
        assert abs(slopes[0]) < 1e-9
        assert abs(slopes[1]) == pytest.approx(6.0, rel=1e-8)
        assert abs(slopes[2]) < 1e-9
        assert abs(slopes[3]) == pytest.approx(6.0, rel=1e-8)

    def test_sisni_slope_amplified(self):
        g = gain_from_qng(6.0)
        slopes = slope_vs_theta(lossless_sisni(), [math.pi / 2], 1e-4)
        assert abs(slopes[0]) == pytest.approx(g.G * 6.0, rel=1e-8)

    def test_grid_argmax_at_phase_quadrature(self):
        thetas = np.linspace(0.0, 2 * math.pi, 360, endpoint=False)
        slopes = slope_vs_theta(SqMziParams(alpha=6.0), thetas, 1e-4)
        peak = np.argmax(np.abs(slopes))
        assert thetas[peak] in (thetas[90], thetas[270])


class TestWignerPanel:
    def test_slices_normalize(self):
        params = SqMziParams(alpha=6.0, g=0.75)
        step = 0.05
        xs = np.arange(-12.0, 12.0, step) + step / 2
        panel = wigner_panel(
            params, [math.pi - 0.02, math.pi, math.pi + 0.02], [0.0, 0.5], xs, xs
        )
        totals = panel.density.sum(axis=(2, 3)) * step * step
        assert np.allclose(totals, 1.0, atol=1e-6)

    def test_dark_fringe_vacuum_peak(self):
        # Plain lossless MZI at the dark fringe emits vacuum: peak 1/(2 pi)
        # at the origin.
        params = SqMziParams(alpha=6.0)
        panel = wigner_panel(params, [math.pi], [0.0], [0.0], [0.0])
        assert panel.density[0, 0, 0, 0] == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)

    def test_displacement_linear_in_phase_offset(self):
        # Small offsets displace the output along p in proportion.
        params = SqMziParams(alpha=6.0)
        offsets = np.array([-0.02, 0.0, 0.02])
        ps = np.linspace(-1.0, 1.0, 801)
        panel = wigner_panel(params, math.pi + offsets, [0.0], [0.0], ps)
        peaks = ps[np.argmax(panel.density[:, 0, 0, :], axis=1)]
        assert peaks[1] == pytest.approx(0.0, abs=5e-3)
        assert peaks[0] == pytest.approx(-peaks[2], abs=5e-3)
        assert peaks[2] == pytest.approx(-6.0 * 0.02, abs=5e-3)

    def test_external_loss_contrast(self):
        # Large external loss drives the squeezed-MZI phase variance back to
        # vacuum while the amplified topology keeps its mean-to-noise ratio.
        from dataclasses import replace
        from gicirc import detect_stats, build_sq_mzi

        sq = SqMziParams(alpha=6.0, g=gain_from_qng(6.0).g)
        var_hi_loss = detect_stats(build_sq_mzi(replace(sq, L_e=0.95))[0]).variance
        assert var_hi_loss == pytest.approx(1.0, abs=0.05)

        nested = lossless_sisni()
        for le in (0.0, 0.95):
            rep = engine_report(replace(nested, L_e=le), 1e-3)
            assert rep.snr / (1 - le) == pytest.approx(
                engine_report(nested, 1e-3).snr, rel=1e-9
            )


class TestWignerPanelBatch:
    """The panel is one batched propagation; it matches one run per setting."""

    CASES = [
        SqMziParams(alpha=3.0, g=0.6, L_i=0.2, L_e=0.4, T=0.4),
        SisniParams(alpha=2.5, g1=0.8, g2=1.3, L_is=0.1, L_ii=0.3, L_e=0.2, phi_pump=3.0),
    ]

    @pytest.mark.parametrize("params", CASES)
    def test_one_propagation_matches_per_setting_runs(self, params, monkeypatch):
        calls = []

        def counted(spec, vary=None):
            calls.append(vary)
            return _propagate(spec, vary)

        monkeypatch.setattr(analysis, "_propagate", counted)
        phis, les = [3.0, math.pi, 3.3], [0.0, 0.25, 0.5, 0.9]
        xs, ps = np.linspace(-4.0, 4.0, 9), np.linspace(-3.0, 5.0, 7)
        panel = wigner_panel(params, phis, les, xs, ps)
        assert len(calls) == 1
        phase = "phi" if isinstance(params, SqMziParams) else "phi_signal"
        for i, phi in enumerate(phis):
            for j, le in enumerate(les):
                spec, mode = (build_sq_mzi if phase == "phi" else build_sisni)(
                    replace(params, **{phase: phi, "L_e": le})
                )
                state = marginal(simulate(spec), [mode])
                assert np.array_equal(panel.density[i, j], wigner(state, 0, xs[:, None], ps[None, :]))

    @pytest.mark.parametrize("params", CASES)
    def test_settings_are_checked(self, params):
        with pytest.raises(ValueError, match="phi.* must be finite, got nan"):
            wigner_panel(params, [math.pi, math.nan], [0.0], [0.0], [0.0])
        with pytest.raises(ValueError, match=r"loss L must lie in \[0, 1\], got 1.5"):
            wigner_panel(params, [math.pi], [0.0, 1.5], [0.0], [0.0])


class TestFitSnrVsPower:
    def test_two_point_slope(self):
        fit = fit_snr_vs_power([(1.0, 2.0), (2.0, 4.0)])
        assert fit.A == 2.0
        assert fit.residual_rms == 0.0

    def test_model_data_is_exactly_linear(self):
        params = lossless_sisni()
        pts = []
        for alpha2 in (1.0, 4.0, 9.0, 25.0, 100.0):
            p = SisniParams(alpha=math.sqrt(alpha2), g1=params.g1.g, g2=params.g2.g)
            pts.append((alpha2, snr_sisni_closed(p, 1e-2)))
        fit = fit_snr_vs_power(pts)
        assert fit.residual_rms < 1e-9
        assert fit.A == pytest.approx(snr_sisni_closed(
            SisniParams(alpha=1.0, g1=params.g1.g, g2=params.g2.g), 1e-2
        ), rel=1e-12)

    def test_slope_ratio_constant_in_power(self):
        # Amplified-vs-plain slope ratio at the measured loss point; the
        # experimental enhancement carries apparatus noise, so the model
        # value is computed, not asserted against it.
        nested = SisniParams(
            alpha=1.0,
            g1=gain_from_qng(4.0).g,
            g2=gain_from_qng(6.0).g,
            L_is=0.16,
            L_ii=0.10,
            L_e=0.15,
        )
        plain = SqMziParams(alpha=1.0, L_i=0.16, L_e=0.15)
        ratios = []
        for alpha2 in (4.0, 36.0, 144.0):
            a = math.sqrt(alpha2)
            from dataclasses import replace

            num = snr_sisni_closed(replace(nested, alpha=a), 1e-3)
            den = snr_sq_mzi_closed(replace(plain, alpha=a), 1e-3)
            ratios.append(num / den)
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-12)
        assert to_db(ratios[0]) > 0.0

    def test_rejects_underdetermined(self):
        with pytest.raises(ValueError):
            fit_snr_vs_power([(1.0, 2.0)])
        with pytest.raises(ValueError):
            fit_snr_vs_power([])

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError, match="positive"):
            fit_snr_vs_power([(0.0, 1.0), (1.0, 2.0)])

    @pytest.mark.parametrize(
        "points, named",
        [
            ([(1.0, math.nan), (2.0, 3.0)], r"point 0 \(power, snr\) = \(1\.0, nan\) must be finite"),
            ([(math.inf, 1.0), (2.0, 3.0)], r"point 0 \(power, snr\) = \(inf, 1\.0\) must be finite"),
            ([(1.0, 2.0), (2.0, -math.inf)], r"point 1 \(power, snr\) = \(2\.0, -inf\) must be finite"),
        ],
        ids=["nan-snr", "inf-power", "minus-inf-snr"],
    )
    def test_rejects_non_finite_points(self, points, named):
        with pytest.raises(ValueError, match=f"^{named}$"):
            fit_snr_vs_power(points)

    @pytest.mark.parametrize(
        "points, slope, rms",
        [
            ([(1e200, 1.0), (2e200, 3.0)], 1.4e-200, math.sqrt(0.1)),  # residuals -0.4 and 0.2
            ([(1e-200, 1.0), (2e-200, 3.0)], 1.4e200, math.sqrt(0.1)),
            ([(1.0, 1e300), (2.0, 1e308)], 2e299 + 4e307,
             math.hypot(1e300 - (2e299 + 4e307), 1e308 - 2.0 * (2e299 + 4e307)) / math.sqrt(2.0)),
        ],
        ids=["huge-powers", "tiny-powers", "huge-snrs"],
    )
    def test_sums_past_the_float_range(self, points, slope, rms):
        # Unscaled, the sums overflow or underflow: the slope came out 0 or
        # infinite, after a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_snr_vs_power(points)
        assert fit.A == pytest.approx(slope, rel=1e-12)
        assert fit.residual_rms == pytest.approx(rms, rel=1e-12)

    def test_in_range_points_keep_their_bits(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = rng.uniform(0.1, 10.0, 6) * 10.0 ** rng.integers(-30, 30)
            y = rng.normal(size=6) * 10.0 ** rng.integers(-30, 30)
            slope = float(np.dot(x, y) / np.dot(x, x))
            fit = fit_snr_vs_power(zip(x.tolist(), y.tolist()))
            assert fit.A == slope
            assert fit.residual_rms == float(np.sqrt(np.mean((y - slope * x) ** 2)))

    def test_slope_past_the_float_range_is_refused(self):
        with pytest.raises(InstabilityError, match="leaves the float range"):
            fit_snr_vs_power([(1e-300, 1e300), (2e-300, 1e300)])


class TestSnrLinearity:
    @pytest.mark.parametrize("factor", [2.0, 10.0])
    def test_closed_and_engine(self, factor):
        params = SisniParams(
            alpha=6.0, g1=0.9, g2=1.2, L_is=0.1, L_ii=0.05, L_e=0.2
        )
        from dataclasses import replace

        scaled = replace(params, alpha=params.alpha * math.sqrt(factor))
        assert snr_sisni_closed(scaled, 1e-3) == pytest.approx(
            factor * snr_sisni_closed(params, 1e-3), rel=1e-13
        )
        assert engine_report(scaled, 1e-3).snr == pytest.approx(
            factor * engine_report(params, 1e-3).snr, rel=1e-13
        )
