"""Tests for the optical element constructors and gain arithmetic."""

import math

import numpy as np
import pytest

from gicirc import (
    Coherent,
    GaussianState,
    LossSpec,
    PaGain,
    Thermal,
    Vacuum,
    apply,
    beamsplitter,
    gain_from_qng,
    loss_channel,
    make_state,
    marginal,
    parametric_amplifier,
    phase_shift,
    qng_of,
    quadrature_stats,
    single_mode_squeezer,
    symplectic_form,
)
from conftest import random_physical_state


def max_symplectic_defect(emap):
    omega = symplectic_form(emap.n_modes)
    return np.abs(emap.linear @ omega @ emap.linear.T - omega).max()


class TestPaGain:
    def test_derived_amplification_gain(self):
        gain = PaGain(0.75)
        assert gain.G == 1.25
        assert gain.G**2 - gain.g**2 == pytest.approx(1.0, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PaGain(-0.1)


class TestLossSpec:
    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_range(self, bad):
        with pytest.raises(ValueError):
            LossSpec(bad)


class TestParametricAmplifier:
    def test_zero_gain_is_identity(self):
        emap = parametric_amplifier((0, 1), 0.0, 2)
        assert np.array_equal(emap.linear, np.eye(4))
        assert not emap.noise.any()

    def test_phase_sum_quadrature_squeezed(self):
        # Two-mode squeezing oracle: the normalized p-sum quadrature of the
        # pair has variance (G - g)^2 = 0.25 for g = 0.75.
        g, G = 0.75, 1.25
        out = apply(GaussianState.vacuum(2), parametric_amplifier((0, 1), g, 2))
        c = np.array([0.0, 1.0, 0.0, 1.0]) / math.sqrt(2.0)
        var = c @ out.cov @ c
        assert var == pytest.approx((G - g) ** 2, abs=1e-14)
        assert var == pytest.approx(0.25, abs=1e-14)

    def test_qng_on_vacuum(self):
        out = apply(GaussianState.vacuum(2), parametric_amplifier((0, 1), 0.75, 2))
        assert out.cov[0, 0] == pytest.approx(qng_of(PaGain(0.75)), abs=1e-14)
        assert qng_of(PaGain(0.75)) == 2.125

    def test_flat_variance_all_angles_both_modes(self, rng):
        out = apply(GaussianState.vacuum(2), parametric_amplifier((0, 1), 1.3, 2))
        q = qng_of(PaGain(1.3))
        for mode in (0, 1):
            for theta in rng.uniform(0, 2 * math.pi, 16):
                assert quadrature_stats(out, mode, theta).variance == pytest.approx(q, rel=1e-12)

    def test_pair_order_symmetric(self):
        a = parametric_amplifier((0, 1), 0.9, 2)
        b = parametric_amplifier((1, 0), 0.9, 2)
        assert np.array_equal(a.linear, b.linear)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            parametric_amplifier((1, 1), 0.5, 2)


class TestSingleModeSqueezer:
    def test_quadrature_scalings(self):
        g, G = 0.75, 1.25
        out = apply(GaussianState.vacuum(1), single_mode_squeezer(0, g, 1))
        assert out.cov[0, 0] == pytest.approx((G + g) ** 2, abs=1e-14)
        assert out.cov[1, 1] == pytest.approx((G - g) ** 2, abs=1e-14)

    def test_symplectic(self):
        assert max_symplectic_defect(single_mode_squeezer(0, 1.7, 2)) < 1e-10


class TestBeamsplitter:
    def test_full_transmission_identity(self):
        emap = beamsplitter((0, 1), 1.0, 2)
        assert np.array_equal(emap.linear, np.eye(4))

    def test_balanced_splits_mean(self):
        st = make_state(2, [Coherent(3.0), Vacuum()])
        out = apply(st, beamsplitter((0, 1), 0.5, 2))
        root_half = math.sqrt(0.5)
        assert out.mean[0] == pytest.approx(6.0 * root_half, abs=1e-14)
        assert abs(out.mean[2]) == pytest.approx(6.0 * root_half, abs=1e-14)

    def test_double_pass_recombines(self):
        # 2x2 oracle: M^2 for the balanced matrix [[t, t], [-t, t]] maps
        # input 0 fully onto output 1 (with sign), so one port goes dark.
        t = math.sqrt(0.5)
        m = np.array([[t, t], [-t, t]])
        assert np.allclose(m @ m, [[0, 1], [-1, 0]], atol=1e-15)
        st = make_state(2, [Coherent(3.0), Vacuum()])
        bs = beamsplitter((0, 1), 0.5, 2)
        out = apply(apply(st, bs), bs)
        assert abs(out.mean[0]) < 1e-14
        assert abs(out.mean[2]) == pytest.approx(6.0, abs=1e-14)

    @pytest.mark.parametrize("convention", ["second_minus", "first_plus"])
    def test_symplectic_both_conventions(self, rng, convention):
        for T in rng.uniform(0, 1, 10):
            emap = beamsplitter((0, 2), T, 3, convention)
            assert max_symplectic_defect(emap) < 1e-10

    def test_first_plus_signs(self):
        emap = beamsplitter((0, 1), 0.5, 2, "first_plus")
        t = math.sqrt(0.5)
        assert emap.linear[0, 0] == emap.linear[0, 2] == t
        assert emap.linear[2, 0] == t
        assert emap.linear[2, 2] == -t

    def test_bad_transmission(self):
        with pytest.raises(ValueError, match="T"):
            beamsplitter((0, 1), 1.2, 2)

    def test_bad_convention(self):
        with pytest.raises(ValueError, match="convention"):
            beamsplitter((0, 1), 0.5, 2, "sideways")


class TestPhaseShift:
    def test_zero_identity(self):
        assert np.array_equal(phase_shift(0, 0.0, 1).linear, np.eye(2))

    def test_pi_negates_mean(self):
        st = make_state(1, [Coherent(2.0)])
        out = apply(st, phase_shift(0, math.pi, 1))
        assert out.mean[0] == pytest.approx(-4.0, rel=1e-14)
        assert np.allclose(out.cov, np.eye(2), atol=1e-14)

    def test_quarter_turn_moves_x_to_p(self):
        st = make_state(1, [Coherent(2.0)])
        out = apply(st, phase_shift(0, math.pi / 2, 1))
        assert abs(out.mean[0]) < 1e-14
        assert out.mean[1] == pytest.approx(4.0, rel=1e-14)

    def test_symplectic(self, rng):
        for phi in rng.uniform(-7, 7, 10):
            assert max_symplectic_defect(phase_shift(1, phi, 2)) < 1e-10


class TestLossChannel:
    def test_zero_identity(self):
        emap = loss_channel(0, 0.0, 1)
        assert np.array_equal(emap.linear, np.eye(2))
        assert not emap.noise.any()

    def test_full_loss_gives_vacuum(self, rng):
        st = random_physical_state(rng, 1)
        out = apply(st, loss_channel(0, 1.0, 1))
        assert np.allclose(out.mean, 0.0, atol=1e-14)
        assert np.allclose(out.cov, np.eye(2), atol=1e-14)

    def test_thermal_attenuation(self):
        # 15% external loss pulls a thermal variance toward vacuum:
        # 0.85 eps^2 + 0.15.
        st = make_state(1, [Thermal(2.0)])
        out = apply(st, loss_channel(0, 0.15, 1))
        assert out.cov[0, 0] == pytest.approx(0.85 * 2.0 + 0.15, abs=1e-15)

    def test_composition_law(self, rng):
        l1, l2 = 0.19, 0.4
        combined = loss_channel(0, l1, 1).then(loss_channel(0, l2, 1))
        direct = loss_channel(0, 1.0 - (1.0 - l1) * (1.0 - l2), 1)
        st = random_physical_state(rng, 1)
        a, b = apply(st, combined), apply(st, direct)
        assert np.allclose(a.mean, b.mean, rtol=0, atol=1e-15)
        assert np.allclose(a.cov, b.cov, rtol=0, atol=1e-15)

    def test_channel_positivity(self, rng):
        for L in rng.uniform(0, 1, 10):
            assert loss_channel(0, L, 2).channel_margin() > -1e-9

    def test_ancilla_oracle(self, rng):
        # Independent construction: couple the mode to an explicit vacuum
        # ancilla on a transmission-(1-L) beamsplitter and trace the ancilla
        # out.  Must reproduce the contracted channel on arbitrary states.
        L = 0.37
        st = random_physical_state(rng, 1)
        joint = GaussianState(
            2,
            np.concatenate([st.mean, [0.0, 0.0]]),
            np.block([[st.cov, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]),
        )
        mixed = apply(joint, beamsplitter((0, 1), 1.0 - L, 2))
        reduced = marginal(mixed, [0])
        direct = apply(st, loss_channel(0, L, 1))
        assert np.allclose(reduced.mean, direct.mean, atol=1e-14)
        assert np.allclose(reduced.cov, direct.cov, atol=1e-14)


class TestQngArithmetic:
    def test_zero_gain(self):
        assert qng_of(PaGain(0.0)) == 1.0
        assert gain_from_qng(0.0).g == 0.0

    def test_six_db(self):
        gain = gain_from_qng(6.0)
        assert gain.g == pytest.approx(1.2208750356885367, rel=1e-12)
        assert gain.G == pytest.approx(math.sqrt((10**0.6 + 1) / 2), rel=1e-12)

    def test_four_db(self):
        assert gain_from_qng(4.0).g == pytest.approx(
            math.sqrt((10**0.4 - 1) / 2), rel=1e-12
        )

    def test_inversion_postcondition(self):
        for db in (0.0, 1.5, 4.0, 6.0, 13.0):
            assert qng_of(gain_from_qng(db)) == pytest.approx(10 ** (db / 10), abs=1e-12)

    def test_round_trip_through_db(self, rng):
        for g in rng.uniform(0, 3, 20):
            db = 10 * math.log10(qng_of(PaGain(g)))
            assert gain_from_qng(db).g == pytest.approx(g, abs=1e-12)

    def test_negative_db_rejected(self):
        with pytest.raises(ValueError):
            gain_from_qng(-0.5)

    @pytest.mark.parametrize("db", [3082.6, 1e5, 1.7e308])
    def test_db_beyond_the_float_range_is_refused(self, db):
        with pytest.raises(ValueError) as exc:
            gain_from_qng(db)
        assert str(exc.value) == f"quantum noise gain {db} dB is beyond the float range"

    def test_largest_db_in_range_is_converted(self):
        assert gain_from_qng(3082.5).g == pytest.approx(math.sqrt(10**308.25 / 2), rel=1e-12)


class TestSymplecticSweep:
    def test_all_lossless_elements(self, rng):
        # Every lossless constructor must preserve the commutator form.
        for _ in range(50):
            g = rng.uniform(0, 2)
            T = rng.uniform(0, 1)
            phi = rng.uniform(-7, 7)
            for emap in (
                parametric_amplifier((0, 2), g, 3),
                single_mode_squeezer(1, g, 3),
                beamsplitter((1, 2), T, 3),
                phase_shift(0, phi, 3),
            ):
                assert max_symplectic_defect(emap) < 1e-10

    def test_physicality_preserved(self, rng):
        st = random_physical_state(rng, 3)
        for emap in (
            parametric_amplifier((0, 1), 1.4, 3),
            beamsplitter((0, 2), 0.3, 3),
            loss_channel(1, 0.6, 3),
            single_mode_squeezer(2, 0.9, 3),
        ):
            st = apply(st, emap)
            assert st.physicality_margin() > -1e-9


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_gain_rejected(self, bad):
        with pytest.raises(ValueError, match="gain g must be finite"):
            PaGain(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_phase_rejected(self, bad):
        with pytest.raises(ValueError, match="phase phi must be finite"):
            phase_shift(0, bad, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_thermal_variance_rejected(self, bad):
        with pytest.raises(ValueError, match="thermal variance must be finite"):
            Thermal(bad)

    @pytest.mark.parametrize("alpha", [complex(math.nan, 0.0), complex(1.0, math.inf), math.inf])
    def test_coherent_amplitude_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha .* must be finite"):
            Coherent(alpha)
