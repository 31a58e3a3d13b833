"""Tests for the lossy-amplifier noise model and its QNG inversion."""

import math
import re

import numpy as np
import pytest

from gicirc import (
    GaussianState,
    InstabilityError,
    NoSolutionError,
    NoisyPaParams,
    PhysicalityError,
    apply,
    coupling_factors,
    gain_from_qng,
    kappa_from_qng,
    noisy_pa,
    parametric_amplifier,
    quadrature_stats,
    quantum_noise_gain,
)
from gicirc.noise_model import _linear_targets, _noisy_pa_stretch, _solve_kappa
from conftest import random_physical_state


class TestParams:
    def test_stability_margin(self):
        p = NoisyPaParams(0.0, 0.3, 1.0)
        assert p.stability_margin == pytest.approx(0.25 - 0.09)

    def test_pole_rejected(self):
        with pytest.raises(InstabilityError):
            NoisyPaParams(0.0, 0.5, 1.0)
        with pytest.raises(InstabilityError):
            NoisyPaParams(0.2, 0.61, 1.0)

    def test_thermal_floor(self):
        with pytest.raises(PhysicalityError):
            NoisyPaParams(0.0, 0.1, 0.9)

    def test_negative_parameters(self):
        with pytest.raises(ValueError):
            NoisyPaParams(-0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            NoisyPaParams(0.1, -0.1, 1.0)


class TestCouplingFactors:
    def test_lossless_limit(self):
        # rho = 0 removes the auxiliary couplings and reduces to an ideal
        # amplifier: G = (1/4 + k^2)/(1/4 - k^2), g = k/(1/4 - k^2).
        k = 0.3
        f = coupling_factors(NoisyPaParams(0.0, k, 1.0))
        assert f.G_bar_prime == 0.0
        assert f.g_bar_prime == 0.0
        assert f.G_bar == pytest.approx((0.25 + k * k) / (0.25 - k * k), rel=1e-14)
        assert f.g_bar == pytest.approx(k / (0.25 - k * k), rel=1e-14)
        assert f.G_bar**2 - f.g_bar**2 == pytest.approx(1.0, abs=1e-12)

    def test_commutator_identity_random_grid(self, rng):
        for _ in range(500):
            rho = rng.uniform(0, 0.1)
            kappa = rng.uniform(0, 0.9 * (1 + rho) / 2)
            f = coupling_factors(NoisyPaParams(rho, kappa, 1.0))
            assert abs(f.commutator_defect()) < 1e-12

    def test_stretch_is_the_sum_of_the_signal_factors(self, rng):
        """The precision bound's ``G_bar + g_bar`` for the lossy amplifier."""
        for _ in range(200):
            rho = rng.uniform(0, 0.1)
            kappa = rng.uniform(0, 0.99 * (1 + rho) / 2)
            f = coupling_factors(NoisyPaParams(rho, kappa, 1.0))
            assert _noisy_pa_stretch(rho, kappa, 1.0) == pytest.approx(f.G_bar + f.g_bar, rel=1e-13)

    def test_factors_diverge_at_pole(self):
        rho = 0.05
        near = NoisyPaParams(rho, (1 + rho) / 2 * (1 - 1e-6), 1.0)
        assert coupling_factors(near).G_bar > 1e4


class TestNoisyPaChannel:
    def test_lossless_reduces_to_ideal(self, rng):
        # With rho = 0 the channel must equal the ideal amplifier whose g
        # matches g_bar (G_bar^2 - g_bar^2 = 1 guarantees a valid gain).
        p = NoisyPaParams(0.0, 0.35, 7.0)
        f = coupling_factors(p)
        noisy = noisy_pa((0, 1), p, 2)
        ideal = parametric_amplifier((0, 1), f.g_bar, 2)
        assert np.abs(noisy.noise).max() == 0.0
        for _ in range(20):
            st = random_physical_state(rng, 2)
            a, b = apply(st, noisy), apply(st, ideal)
            assert np.allclose(a.cov, b.cov, atol=1e-12)
            assert np.allclose(a.mean, b.mean, atol=1e-12)

    def test_vacuum_qng_dual_route(self):
        # Engine route (propagate vacuum, read the variance) against the
        # closed formula G^2 + g^2 + eps2 (G'^2 + g'^2).
        p = NoisyPaParams(0.02, 0.4, 3.0)
        out = apply(GaussianState.vacuum(2), noisy_pa((0, 1), p, 2))
        for mode in (0, 1):
            stats = quadrature_stats(out, mode, 0.9)
            assert stats.variance == pytest.approx(quantum_noise_gain(p), rel=1e-12)

    def test_excess_noise_grows_with_kappa(self):
        # At large auxiliary variance the added noise dominates and rises
        # steeply with gain.
        eps2 = 208.0
        rho = 4e-4
        noises = []
        for kappa in (0.1, 0.3, 0.45):
            f = coupling_factors(NoisyPaParams(rho, kappa, eps2))
            noises.append(eps2 * (f.G_bar_prime**2 + f.g_bar_prime**2))
        assert noises[0] < noises[1] < noises[2]

    def test_channel_physicality(self, rng):
        for _ in range(30):
            rho = rng.uniform(0, 0.1)
            kappa = rng.uniform(0, 0.9 * (1 + rho) / 2)
            eps2 = rng.uniform(1.0, 300.0)
            emap = noisy_pa((0, 1), NoisyPaParams(rho, kappa, eps2), 2)
            assert emap.channel_margin() > -1e-9

    def test_physicality_preserved_on_states(self, rng):
        emap = noisy_pa((0, 1), NoisyPaParams(0.01, 0.42, 208.0), 3)
        st = apply(random_physical_state(rng, 3), emap)
        assert st.physicality_margin() > -1e-9


class TestKappaFromQng:
    def test_ideal_limit_matches_gain_inversion(self):
        kappa = kappa_from_qng(6.0, 0.0, 1.0)
        f = coupling_factors(NoisyPaParams(0.0, kappa, 1.0))
        assert f.g_bar == pytest.approx(gain_from_qng(6.0).g, abs=1e-10)

    def test_zero_db_needs_zero_rho(self):
        assert kappa_from_qng(0.0, 0.0, 1.0) == 0.0
        # eps2 = 1 keeps the kappa = 0 floor at exactly 0 dB even for
        # rho > 0; a hot auxiliary raises the floor and 0 dB has no solution.
        assert kappa_from_qng(0.0, 0.01, 1.0) == 0.0
        with pytest.raises(NoSolutionError, match="unreachable"):
            kappa_from_qng(0.0, 4e-4, 208.0)

    def test_floor_value(self):
        rho, eps2 = 4e-4, 208.0
        floor_db = 10 * math.log10(((1 - rho) ** 2 + 4 * rho * eps2) / (1 + rho) ** 2)
        assert floor_db == pytest.approx(1.2416, abs=1e-3)
        kappa = kappa_from_qng(floor_db + 1e-9, rho, eps2)
        assert kappa < 0.02

    def test_round_trip_db(self, rng):
        for _ in range(50):
            rho = rng.uniform(0, 0.05)
            eps2 = rng.uniform(1, 300)
            floor = ((1 - rho) ** 2 + 4 * rho * eps2) / (1 + rho) ** 2
            db = max(0.0, 10 * math.log10(floor)) + rng.uniform(0.1, 8.0)
            kappa = kappa_from_qng(db, rho, eps2)
            back = 10 * math.log10(quantum_noise_gain(NoisyPaParams(rho, kappa, eps2)))
            assert back == pytest.approx(db, abs=1e-8)

    def test_monotonic_in_kappa(self):
        rho, eps2 = 0.01, 50.0
        kappas = np.linspace(0.0, 0.95 * (1 + rho) / 2, 40)
        qngs = [quantum_noise_gain(NoisyPaParams(rho, k, eps2)) for k in kappas]
        assert np.all(np.diff(qngs) > 0)


def _floor(rho, eps2):
    return ((1 - rho) ** 2 + 4 * rho * eps2) / (1 + rho) ** 2


class TestKappaClosedForm:
    def test_forward_round_trip(self, rng):
        for _ in range(300):
            rho = 10 ** rng.uniform(-8, -1)
            eps2 = 10 ** rng.uniform(0, 4)
            q = max(0.0, 10 * math.log10(_floor(rho, eps2))) + rng.uniform(1e-6, 30.0)
            kappa = kappa_from_qng(q, rho, eps2)
            gain = quantum_noise_gain(NoisyPaParams(rho, kappa, eps2))
            assert gain == pytest.approx(10 ** (q / 10), rel=1e-12)

    def test_near_the_stability_pole(self):
        # 60 dB puts kappa within 1e-3 of the pole; the root stays below it
        # and still reproduces the target gain.
        rho, eps2 = 0.01, 2.0
        kappa = kappa_from_qng(60.0, rho, eps2)
        assert 0.0 < (1 + rho) / 2 - kappa < 1e-3
        gain = quantum_noise_gain(NoisyPaParams(rho, kappa, eps2))
        assert gain == pytest.approx(1e6, rel=1e-12)

    @pytest.mark.parametrize("qng_db", [400.0, 4000.0])
    def test_pole_out_of_reach(self, qng_db):
        with pytest.raises(InstabilityError, match="pole"):
            kappa_from_qng(qng_db, 0.01, 2.0)

    @pytest.mark.parametrize("qng_db", [80.0, 120.0, 140.0])
    def test_round_trip_holds_to_the_tolerance(self, qng_db):
        kappa = kappa_from_qng(qng_db, 0.01, 2.0)
        gain = quantum_noise_gain(NoisyPaParams(0.01, kappa, 2.0))
        assert gain == pytest.approx(10 ** (qng_db / 10), rel=1e-9)

    @pytest.mark.parametrize("qng_db", [150.0, 200.0, 250.0])
    def test_missed_round_trip_near_the_pole(self, qng_db):
        # A float kappa this close to the pole misses the target by more
        # than a relative 1e-9.
        with pytest.raises(InstabilityError, match="pole"):
            kappa_from_qng(qng_db, 0.01, 2.0)

    @pytest.mark.parametrize("rho, eps2", [(0.0, 1.0), (4e-4, 208.0), (0.05, 3.0)])
    def test_floor(self, rho, eps2):
        floor = _floor(rho, eps2)
        floor_db = 10 * math.log10(floor)
        # At the floor kappa is (numerically) zero; just under it there is
        # no solution.
        kappa = kappa_from_qng(max(floor_db, 0.0), rho, eps2)
        assert quantum_noise_gain(NoisyPaParams(rho, kappa, eps2)) == pytest.approx(
            max(floor, 1.0), rel=1e-12
        )
        if floor_db > 0.01:
            with pytest.raises(NoSolutionError, match="unreachable"):
                kappa_from_qng(floor_db - 0.01, rho, eps2)

    @pytest.mark.parametrize("rho", [1e150, 1e300])
    def test_rows_past_the_float_range_are_refused_without_a_warning(self, rho):
        # Array rows, as a fit's search box up to rho = 1e150 makes them;
        # under the suite's -W error a numpy overflow warning would raise.
        targets = _linear_targets(np.array([6.0, 6.0]))
        kappa, unreachable, at_pole, overflow = _solve_kappa(targets, np.array([1e-3, rho]), 2.0)[:4]
        assert (unreachable | at_pole).tolist() == [False, True]
        assert overflow.tolist() == [False, True]
        assert kappa[0] == kappa_from_qng(6.0, 1e-3, 2.0)

    def test_negative_qng_rejected(self):
        with pytest.raises(ValueError, match=">= 0 dB"):
            kappa_from_qng(-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.array([3.0, 5.0]), [3.0, 5.0], True, "3", [], np.array(3.0)])
    def test_qng_that_is_not_one_real_number_rejected(self, bad):
        # Unchecked, an array or a list gives its first target's kappa, a
        # bool runs as 1 dB, a string is parsed and an empty list raises
        # IndexError.
        message = f"quantum noise gain qng_db must be a real number, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kappa_from_qng(bad, 0.01, 2.0)

    @pytest.mark.parametrize("qng", [3, np.float64(3.0), np.int64(3)])
    def test_real_scalars_accepted(self, qng):
        assert kappa_from_qng(qng, 0.01, 2.0) == kappa_from_qng(3.0, 0.01, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position, name", [(0, "quantum noise gain"), (1, "rho"), (2, "epsilon2")])
    def test_non_finite_inputs_rejected(self, bad, position, name):
        args = [6.0, 1e-3, 2.0]
        args[position] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            kappa_from_qng(*args)


class TestNonFiniteParams:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["rho", "kappa", "epsilon2"])
    def test_rejected(self, bad, field):
        values = {"rho": 1e-3, "kappa": 0.2, "epsilon2": 2.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            NoisyPaParams(**values)
