"""Tests for advantage curves and noise-model fitting."""

import collections
import io
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gicirc
from gicirc import (
    CircuitSpec,
    InstabilityError,
    NoisyPaParams,
    NoSolutionError,
    SisniParams,
    advantage_vs_qng,
    fit_noise_model,
    gain_from_qng,
    load_fit_data,
    to_db,
)
from gicirc import interferometers, noise_fit

PAPER_LOSSES = (0.16, 0.10, 0.15)
NOISE_OFF = (0.0, 1.0)


class TestAdvantageVsQng:
    def test_noise_off_lossless_matches_ideal_gain(self):
        curve = advantage_vs_qng(6.0, [6.0], (0.0, 0.0, 0.0), NOISE_OFF, NOISE_OFF)
        assert curve[0] == pytest.approx(to_db(gain_from_qng(6.0).G ** 2), abs=1e-9)

    def test_alpha_independent(self):
        a = advantage_vs_qng(4.0, [3.0, 6.0], PAPER_LOSSES, NOISE_OFF, NOISE_OFF, alpha2=4.0)
        b = advantage_vs_qng(4.0, [3.0, 6.0], PAPER_LOSSES, NOISE_OFF, NOISE_OFF, alpha2=81.0)
        assert np.allclose(a, b, atol=1e-10)

    def test_saturation_with_hot_auxiliary(self):
        # A hot downstream auxiliary caps the achievable advantage: the
        # curve increments shrink by orders of magnitude across the sweep.
        grid = np.linspace(2.0, 14.0, 13)
        curve = advantage_vs_qng(4.0, grid, PAPER_LOSSES, (5e-4, 2.0), (4e-4, 208.0))
        inc = np.diff(curve)
        assert np.all(inc > 0)
        assert inc[-1] < 0.05 * inc[0]

    def test_low_upstream_gain_wins_in_studied_window(self):
        # Ordering holds where the downstream amplifier is the weaker one
        # (up to its 6 dB operating point); at higher downstream gain,
        # matching favors the larger upstream gain instead.
        grid = np.linspace(2.0, 6.0, 9)
        low = advantage_vs_qng(4.0, grid, PAPER_LOSSES, (5e-4, 2.0), (4e-4, 208.0))
        high = advantage_vs_qng(8.0, grid, PAPER_LOSSES, (5e-4, 2.0), (4e-4, 208.0))
        assert np.all(high < low)

    @pytest.mark.parametrize("grid", [[], np.zeros((0, 3))])
    def test_empty_grid_gives_an_empty_curve(self, grid):
        curve = advantage_vs_qng(4.0, grid, PAPER_LOSSES, (5e-4, 2.0), (4e-4, 208.0))
        assert curve.shape == np.shape(grid) and curve.dtype == np.float64

    @pytest.mark.parametrize("qng1", [np.zeros((2, 1)), [4.0, 5.0, 6.0], True, np.True_, "4", None, 4.0j])
    def test_qng1_that_is_not_a_real_number_is_refused(self, qng1):
        message = r"^upstream quantum noise gain qng1_db must be a real number, got "
        with pytest.raises(ValueError, match=message):
            advantage_vs_qng(qng1, [2.0, 7.0], PAPER_LOSSES, (5e-4, 2.0), (4e-4, 208.0))

    @pytest.mark.parametrize("qng1", [4, np.float64(4.0), np.int64(4), np.float32(4.0)])
    def test_real_numbers_give_the_float_curve(self, qng1):
        curve = advantage_vs_qng(qng1, [2.0, 7.0], PAPER_LOSSES, (5e-4, 2.0), (4e-4, 208.0))
        assert np.array_equal(curve, advantage_vs_qng(4.0, [2.0, 7.0], PAPER_LOSSES, (5e-4, 2.0), (4e-4, 208.0)))


class TestLoadFitData:
    def test_reads_with_and_without_sigma(self):
        text = "qng1_db,qng2_db,advantage_db,sigma_db\n4,6,1.2,0.5\n8,6,0.9,\n"
        rows = load_fit_data(io.StringIO(text))
        assert rows[0] == (4.0, 6.0, 1.2, 0.5)
        assert rows[1][3] == 1.0

    def test_missing_columns_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            load_fit_data(io.StringIO("a,b\n1,2\n"))

    HEADER = "qng1_db,qng2_db,advantage_db\n"

    @staticmethod
    def load(text, source, tmp_path):
        if source == "file-like":
            return load_fit_data(io.StringIO(text))
        path = tmp_path / "fit.csv"
        path.write_text(text, encoding="utf-8")
        return load_fit_data(str(path))

    @pytest.mark.parametrize("source", ["path", "file-like"])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("4,7", "fit data line 3: no advantage_db cell"),
            ("4,abc,1", "fit data line 3: qng2_db 'abc' is not a number"),
            ("4,7,1.5,9", "fit data line 3: 4 cells, but the header has 3"),
        ],
    )
    def test_a_malformed_row_names_its_line(self, tmp_path, source, row, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.load(f"{self.HEADER}4,3,1\n{row}\n8,3,0.8\n", source, tmp_path)

    @pytest.mark.parametrize("source", ["path", "file-like"])
    def test_a_byte_order_mark_is_read_past(self, tmp_path, source):
        # Excel's "CSV UTF-8" starts the header with U+FEFF.
        rows = self.load(f"\ufeff{self.HEADER}4,3,1.5\n8,6,0.5\n", source, tmp_path)
        assert rows == [(4.0, 3.0, 1.5, 1.0), (8.0, 6.0, 0.5, 1.0)]


class TestFitNoiseModel:
    def synthetic(self, noise1, noise2, qng1s=(4.0, 8.0), qng2s=(3.0, 6.0, 9.0, 12.0)):
        data = []
        for q1 in qng1s:
            curve = advantage_vs_qng(q1, qng2s, PAPER_LOSSES, noise1, noise2)
            data.extend((q1, q2, float(a)) for q2, a in zip(qng2s, curve))
        return data

    def test_ideal_data_drives_rho_to_floor(self):
        # Noise-free data generated by the ideal model: the fit must push
        # both rho values to the lower bound and fit essentially exactly.
        data = self.synthetic(NOISE_OFF, NOISE_OFF)
        result = fit_noise_model(data, PAPER_LOSSES, seed=3, restarts=2, max_evals=400)
        assert result.rho1 < 1e-6
        assert result.rho2 < 1e-6
        assert result.residual_rms < 1e-6
        assert result.converged

    def test_deterministic_under_seed(self):
        data = self.synthetic((1e-3, 3.0), (1e-3, 50.0), qng1s=(4.0,), qng2s=(3.0, 6.0, 9.0, 12.0))
        a = fit_noise_model(data, PAPER_LOSSES, seed=11, restarts=2, max_evals=150)
        b = fit_noise_model(data, PAPER_LOSSES, seed=11, restarts=2, max_evals=150)
        assert a == b

    def test_weighted_points_dominate(self):
        # Give one corrupted point a huge sigma: the fit should track the
        # clean points and report a small weighted residual.
        data = self.synthetic(NOISE_OFF, NOISE_OFF, qng1s=(4.0,), qng2s=(3.0, 6.0, 9.0, 12.0))
        corrupted = [data[0][:2] + (data[0][2] + 3.0, 1e6)] + [
            row + (1.0,) for row in data[1:]
        ]
        result = fit_noise_model(corrupted, PAPER_LOSSES, seed=5, restarts=2, max_evals=400)
        assert result.residual_rms < 1e-3

    @pytest.mark.parametrize("eps2_hi, recovered", [(100.0, False), (1e4, True)])
    def test_converged_only_off_the_box_edges(self, eps2_hi, recovered):
        # Criterion-7 data.  A box whose eps2 edge lies below the truth's
        # eps2^2 = 208 holds the optimum on that edge, away from the truth;
        # the default box lets the fit recover the truth.
        truth = (5e-4, 4e-4, 2.0, 208.0)
        data = self.synthetic((5e-4, 2.0), (4e-4, 208.0), qng2s=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0))
        result = fit_noise_model(data, PAPER_LOSSES, ((0.0, 0.1), (1.0, eps2_hi)), seed=7)
        fitted = (result.rho1, result.rho2, result.eps1_sq, result.eps2_sq)
        assert all(type(v) is float for v in fitted)
        assert all(abs(v / t - 1.0) < 0.1 for v, t in zip(fitted, truth)) is recovered
        assert result.converged is recovered
        if not recovered:
            assert result.eps2_sq == pytest.approx(eps2_hi, rel=1e-5)

    def test_no_feasible_evaluation_is_refused(self):
        # Every evaluation's readout overflows at this photon number and excursion.
        rows = [(4.0, 2.0, 0.5), (4.0, 7.0, 2.7), (8.0, 2.0, 0.4), (8.0, 7.0, 2.5)]
        message = (
            "^the noise-model fit ends at a refused point: "
            r"noise model: the readout overflows at alpha2 = 1\.7e\+308, dphi = 1\.0$"
        )
        with pytest.raises(NoSolutionError, match=message):
            fit_noise_model(rows, restarts=1, max_evals=30, alpha2=1.7e308, dphi=1.0)

    def test_data_far_from_the_model_give_a_feasible_optimum(self):
        # Criterion-7 data shifted by 3 dB with a tiny sigma: every residual
        # sum is huge, and the fit still ends on a feasible point with its
        # true residual (infeasible points are rejected steps, not a penalty).
        data = self.synthetic((5e-4, 2.0), (4e-4, 208.0), qng2s=(2.0, 7.0))
        shifted = [(q1, q2, a + 3.0, 1e-7) for q1, q2, a in data]
        result = fit_noise_model(shifted, PAPER_LOSSES, restarts=2, max_evals=200)
        z = np.log10([result.rho1, result.rho2, result.eps1_sq, result.eps2_sq])
        residuals = noise_fit._Objective(noise_fit._normalize_data(shifted), PAPER_LOSSES, 36.0, 1e-3).residual(z)
        assert np.isfinite(residuals).all() and 1e6 < result.residual_rms < np.inf
        assert result.residual_rms == pytest.approx(np.sqrt(np.mean(residuals * residuals)), rel=1e-12)

    # Four rows whose weighted residuals, at sigma_db = 1e-300, overflow at every point.
    FAR = [(4.0, 3.0, 0.9), (4.0, 6.0, 1.6), (8.0, 3.0, 1.1), (8.0, 6.0, 2.0)]

    def test_residuals_that_overflow_at_every_point_are_named(self):
        message = (
            "^the noise-model fit's weighted residuals overflow at every scored point: "
            "the smallest sigma_db is 1e-300$"
        )
        with pytest.raises(InstabilityError, match=message):
            fit_noise_model([row + (1e-300,) for row in self.FAR], PAPER_LOSSES, restarts=2, max_evals=50)

    def test_a_tiny_sigma_whose_sums_stay_finite_still_fits(self, monkeypatch):
        # Some steps on these data overflow Moré's Newton iteration and
        # overrun their region.  They are scored, not retried without end.
        calls = 0
        trust_step = noise_fit._trust_step

        def bounded(*args):
            nonlocal calls
            calls += 1
            assert calls < 10_000, "the step's retries do not end"
            return trust_step(*args)

        monkeypatch.setattr(noise_fit, "_trust_step", bounded)
        result = fit_noise_model([row + (1e-150,) for row in self.FAR], PAPER_LOSSES, restarts=2, max_evals=200)
        assert 1e149 < result.residual_rms < np.inf

    def test_huge_residual_scales_converge_within_the_budget(self):
        # Residuals near 1e140 put the step's coefficients near 1e151: Moré's
        # Newton iteration must not square them, or the damping never moves.
        result = fit_noise_model([row + (1e-140,) for row in self.FAR], PAPER_LOSSES)
        assert result.converged and result.iterations < 4_000  # the budget is 8 x 2000 points
        assert 1e139 < result.residual_rms < np.inf

    def test_data_validation(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_noise_model([(4, 6, 1.0)] * 3, PAPER_LOSSES)
        with pytest.raises(ValueError, match="distinct qng2"):
            fit_noise_model([(4, 6, 1.0)] * 5, PAPER_LOSSES)
        with pytest.raises(ValueError, match="bounds"):
            fit_noise_model(
                [(4, q, 1.0) for q in (3, 6, 9, 12)],
                PAPER_LOSSES,
                bounds=((0.5, 0.1), (1.0, 10.0)),
            )


def counter(counts):
    """A wrapper maker that counts the calls of each wrapped function in ``counts`` under its name."""

    def counting(name, func):
        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return counted

    return counting


class TestFitWork:
    # The fit benchmark's data: criterion 7's truth at three downstream QNGs.
    DATA = TestFitNoiseModel().synthetic((5e-4, 2.0), (4e-4, 208.0), qng2s=(2.0, 7.0, 12.0))

    def test_builds_the_nested_circuit_once(self, monkeypatch):
        counts = collections.Counter()
        counting = counter(counts)
        for cls in (SisniParams, NoisyPaParams, CircuitSpec):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
        monkeypatch.setattr(interferometers, "_assemble", counting("_assemble", interferometers._assemble))
        seen = []
        for max_evals in (40, 80):
            counts.clear()
            result = fit_noise_model(self.DATA, PAPER_LOSSES, seed=3, restarts=1, max_evals=max_evals)
            seen.append((result.iterations, dict(counts)))
        (short, built), (long, built_again) = seen
        assert short < long
        assert built == built_again
        assert (built["SisniParams"], built.get("NoisyPaParams", 0), built.get("CircuitSpec", 0)) == (1, 0, 0)

    @pytest.mark.parametrize("budget", [dict(restarts=2, max_evals=30), dict(restarts=2, max_evals=300)])
    def test_iterations_count_the_objective_calls(self, monkeypatch, budget):
        # The hook sees each value a search reads, not the points a batched
        # step evaluated in case its branch needed them.
        calls = 0

        def counted(z, value):
            nonlocal calls
            calls += 1

        monkeypatch.setattr(noise_fit, "_evaluated", counted)
        result = fit_noise_model(self.DATA, PAPER_LOSSES, seed=5, **budget)
        assert result.iterations == calls

    @pytest.mark.parametrize("max_evals", [1, 2, 3, 4, 5, 6])
    def test_a_spent_budget_is_not_converged(self, max_evals):
        # A start and its 4 probes take 5 evaluations: these budgets end the
        # search at its start or its first trial point.
        result = fit_noise_model(self.DATA, PAPER_LOSSES, seed=3, restarts=3, max_evals=max_evals)
        assert not result.converged
        assert 0 < result.iterations <= 3 * max_evals

    def test_a_rejected_step_reuses_the_decomposition(self, monkeypatch):
        # Restart seed 3 rejects steps on these data.  Each accepted point's
        # gram is decomposed at most once, however many damping values its
        # step tries and however many of its trial points are rejected.
        counts = collections.Counter()
        counting = counter(counts)
        for name in ("eigh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for name in ("_step", "_accept"):
            monkeypatch.setattr(noise_fit._Search, name, counting(name, getattr(noise_fit._Search, name)))
        fit_noise_model(self.DATA, PAPER_LOSSES, seed=3, restarts=1, max_evals=1000)
        factors = counts["eigh"] + counts["cholesky"]
        assert 0 < factors <= counts["_accept"] < counts["_step"]


    def test_every_judged_trial_predicts_a_reduction(self, monkeypatch):
        # A trial whose clipped step the model says cannot lower the sum of
        # squares is rejected before a pass, so no pass scores one: on these
        # data (restart seeds 3 and 5) and on a noisy draw of criterion 7.
        predicted = []
        judge = noise_fit._Search._judge

        def spy(self, *args):
            predicted.append(self.predicted)
            return judge(self, *args)

        monkeypatch.setattr(noise_fit._Search, "_judge", spy)
        for seed in (3, 5):
            fit_noise_model(self.DATA, PAPER_LOSSES, seed=seed, restarts=1, max_evals=1000)
        data = TestFitNoiseModel().synthetic((5e-4, 2.0), (4e-4, 208.0), qng2s=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0))
        noise = np.random.default_rng(100).normal(0.0, 0.1, len(data))
        fit_noise_model([(q1, q2, a + e, 0.1) for (q1, q2, a), e in zip(data, noise)], PAPER_LOSSES, seed=7)
        assert len(predicted) > 100 and min(predicted) > 0.0

    def test_a_step_too_short_to_move_ends_the_search_without_a_pass(self):
        # A radius so small that z + step rounds to z: the step has zero
        # length, so it meets the xtol stop and leaves the radius at 0, with
        # no trial proposed and no budget spent.
        objective = noise_fit._Objective(noise_fit._normalize_data(self.DATA), PAPER_LOSSES, 36.0, 1e-3)
        lo = np.log10([noise_fit._RHO_FLOOR] * 2 + [1.0] * 2)
        hi = np.log10([0.1] * 2 + [1e4] * 2)
        search = noise_fit._Search(np.random.default_rng(3).uniform(lo, hi), lo, hi, 1000)
        points = np.array(search.points)
        rows = objective.residuals(points)
        search.take(points, rows, noise_fit._costs(rows).tolist())
        assert search.z is not None and search.points is not None  # the start accepted, a trial proposed
        left = search.left
        search.points, search.radius = None, 1e-20
        search._step()
        assert search.met and search.points is None and search.left == left and search.radius == 0.0


class TestTrustStep:
    @staticmethod
    def step(jac, r, radius):
        return noise_fit._trust_step(noise_fit._decompose(jac.T @ jac, jac.T @ r), radius)

    def test_the_gauss_newton_step_when_the_region_holds_it(self, rng):
        for _ in range(20):
            jac, r = rng.normal(size=(6, 4)), rng.normal(size=6)
            newton = np.linalg.solve(jac.T @ jac, -jac.T @ r)
            step = self.step(jac, r, 2.0 * np.linalg.norm(newton))
            assert np.allclose(step, newton, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("shrink", [0.5, 0.1, 1e-3])
    def test_on_the_edge_the_step_solves_the_damped_system(self, rng, shrink):
        for _ in range(20):
            jac, r = rng.normal(size=(6, 4)), rng.normal(size=6)
            gram, grad = jac.T @ jac, jac.T @ r
            radius = shrink * np.linalg.norm(np.linalg.solve(gram, -grad))
            step = self.step(jac, r, radius)
            length = np.linalg.norm(step)
            assert radius <= length <= 1.1 * radius

            def damped(damping):
                return np.linalg.solve(gram + damping * np.eye(4), -grad)

            # The reference damping, by bisection: |p(λ)| falls as λ grows.
            lo, hi = 0.0, 1.0
            while np.linalg.norm(damped(hi)) > length:
                lo, hi = hi, 2.0 * hi
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if np.linalg.norm(damped(mid)) > length else (lo, mid)
            assert np.allclose(step, damped(hi), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("radius", [1e3, 1e-3])
    def test_a_zero_column_gives_a_finite_step_that_leaves_its_coordinate(self, rng, radius):
        # eigh can give a zero column's null direction a rounding-sized
        # eigenvalue; 200 draws meet that case.
        for _ in range(200):
            jac, r, dead = rng.normal(size=(6, 4)), rng.normal(size=6), rng.integers(4)
            jac[:, dead] = 0.0
            step = self.step(jac, r, radius)
            assert np.isfinite(step).all() and step[dead] == 0.0
            assert np.linalg.norm(step) <= 1.1 * radius

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 4),
        cells=st.lists(st.integers(-1000, 1000), min_size=30, max_size=30),
        radius=st.floats(1e-4, 1e3),
    )
    def test_the_step_stays_in_the_region_and_predicts_no_rise(self, k, cells, radius):
        values = np.array(cells) / 100.0
        jac, r = values[: 6 * k].reshape(6, k), values[24:]
        assume(jac.any())  # a zero Jacobian has a zero gradient, where the search stops before a step
        step = self.step(jac, r, radius)
        moved = jac @ step
        assert np.linalg.norm(step) <= 1.1 * radius
        # ≥ 0 up to the rounding of the two terms' sum
        predicted = -(2.0 * (r @ moved) + moved @ moved)
        assert predicted >= -4.0 * np.finfo(float).eps * np.linalg.norm(r) * np.linalg.norm(moved)


class TestNoisyDraws:
    # The chi^2 that the Nelder-Mead simplex this search replaced reached on
    # criterion 7's curve plus N(0, 0.1 dB) noise, noise seeds 100-103.
    SIMPLEX = {100: 10.0253801412237, 101: 10.6560443448911, 102: 21.5344596028532, 103: 13.5472214569977}

    @pytest.mark.parametrize("noise_seed", sorted(SIMPLEX))
    def test_chi2_is_no_worse_than_the_simplex(self, noise_seed):
        data = TestFitNoiseModel().synthetic((5e-4, 2.0), (4e-4, 208.0), qng2s=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0))
        noise = np.random.default_rng(noise_seed).normal(0.0, 0.1, len(data))
        result = fit_noise_model([(q1, q2, a + e, 0.1) for (q1, q2, a), e in zip(data, noise)], PAPER_LOSSES, seed=7)
        assert result.residual_rms**2 * len(data) <= self.SIMPLEX[noise_seed] * (1.0 + 1e-6)


class TestNoiseDecoding:
    def test_python_float_powers_have_the_numpy_scalars_bits(self, rng):
        # Decoding over Python floats calls the C pow that a numpy scalar's
        # power calls: the same bits on every point of the default box.
        (rho_lo, rho_hi), (eps_lo, eps_hi) = noise_fit.DEFAULT_BOUNDS
        lo = np.log10([noise_fit._RHO_FLOOR] * 2 + [eps_lo] * 2)
        hi = np.log10([rho_hi] * 2 + [eps_hi] * 2)
        for z in rng.uniform(lo, hi, size=(10_000, 4)):
            decoded = noise_fit._noise(z)
            assert all(type(v) is float for v in decoded)
            assert [v.hex() for v in decoded] == [float(10.0 ** np.float64(v)).hex() for v in z]


class TestBatchedObjective:
    # Rows at 140 dB put some points' kappa at the stability pole; a 93.6 dB
    # pair of gains passes the precision bound for some points only, so the
    # engine refuses a pass that holds the others as a whole.
    DATASETS = {
        "in reach": [(q1, q2, 1.0) for q1 in (4.0, 8.0) for q2 in (2.0, 7.0, 12.0)],
        "pole": [(q1, q2, 1.0) for q1 in (4.0, 8.0) for q2 in (2.0, 140.0)],
        "precision": [(4.0, 2.0, 1.0), (4.0, 7.0, 1.0), (93.6, 93.6, 1.0), (8.0, 7.0, 1.0)],
    }
    CAUSES = {
        "in reach": {"unreachable", None},
        "pole": {"unreachable", "pole", None},
        "precision": {"unreachable", "precision", None},
    }

    @staticmethod
    def cause(objective, z):
        try:
            objective.snr(z)
        except (NoSolutionError, InstabilityError) as exc:
            return next(word for word in ("unreachable", "pole", "precision") if word in str(exc))
        return None

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_mixed_batch_scores_as_single_points(self, rng, name):
        rows = noise_fit._normalize_data(self.DATASETS[name])
        objective = noise_fit._Objective(rows, PAPER_LOSSES, 36.0, 1e-3)
        lo, hi = np.log10([1e-8, 1e-8, 1.0, 1.0]), np.log10([0.1, 0.1, 1e4, 1e4])
        points = rng.uniform(lo, hi, size=(60, 4))
        single = [objective(z) for z in points]
        assert {self.cause(objective, z) for z in points} == self.CAUSES[name]
        assert objective.batch(points) == single
        assert objective.batch(points[::-1]) == single[::-1]
        assert objective.batch(points[:7]) + objective.batch(points[7:8]) == single[:8]


class TestFitDataValidation:
    ROWS = [(4.0, 3.0, 1.0), (4.0, 6.0, 1.5), (8.0, 3.0, 0.8), (8.0, 6.0, 1.2)]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_value_names_the_row(self, bad, column):
        rows = [list(r) for r in self.ROWS]
        rows[2][column] = bad
        with pytest.raises(ValueError, match="data row 2: values must be finite"):
            fit_noise_model(rows, PAPER_LOSSES, restarts=1, max_evals=10)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
    def test_bad_sigma_names_the_row(self, sigma):
        rows = [r + (1.0,) for r in self.ROWS]
        rows[1] = rows[1][:3] + (sigma,)
        with pytest.raises(ValueError, match="data row 1: .*"):
            fit_noise_model(rows, PAPER_LOSSES, restarts=1, max_evals=10)

    def test_csv_nan_names_the_row(self):
        text = "qng1_db,qng2_db,advantage_db\n4,3,1\n4,6,nan\n8,3,0.8\n8,6,1.2\n"
        rows = load_fit_data(io.StringIO(text))
        with pytest.raises(ValueError, match="data row 1: values must be finite"):
            fit_noise_model(rows, PAPER_LOSSES, restarts=1, max_evals=10)


class TestFitArguments:
    ROWS = TestFitDataValidation.ROWS

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"restarts": 0}, "restarts must be a positive integer, got 0"),
            ({"restarts": -1}, "restarts must be a positive integer, got -1"),
            ({"restarts": 1.5}, "restarts must be a positive integer, got 1.5"),
            ({"max_evals": 0}, "max_evals must be a positive integer, got 0"),
            ({"seed": -1}, "seed must be a non-negative integer, got -1"),
            ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
            ({"seed": "3"}, "seed must be a non-negative integer, got '3'"),
            ({"seed": True}, "seed must be a non-negative integer, got True"),
            ({"seed": None}, "seed must be a non-negative integer, got None"),
            ({"bounds": ((0.0, float("inf")), (1.0, 10.0))}, "unusable bounds .*: need finite"),
            ({"bounds": ((0.0, 0.1), (1.0, float("inf")))}, "unusable bounds .*: need finite"),
            ({"alpha2": -1.0}, "photon number alpha2 must be >= 0, got -1.0"),
            ({"bounds": ((0.0, 0.1),)}, r"^unusable bounds \(\(0\.0, 0\.1\),\): need finite"),
            ({"bounds": None}, "^unusable bounds None: need finite"),
            ({"bounds": "ab"}, "^unusable bounds 'ab': need finite"),
            ({"bounds": (("0", 0.1), (1.0, 10.0))}, r"^unusable bounds \(\('0', 0\.1\), \(1\.0, 10\.0\)\): need finite"),
            ({"bounds": ((False, 0.1), (1.0, 10.0))}, r"^unusable bounds \(\(False, 0\.1\), \(1\.0, 10\.0\)\): need finite"),
            ({"alpha2": True}, "^bright-port photon number alpha2 must be a real number, got True$"),
            ({"alpha2": "36"}, "^bright-port photon number alpha2 must be a real number, got '36'$"),
            ({"dphi": True}, "^phase excursion dphi must be a real number, got True$"),
            ({"dphi": "1e-3"}, "^phase excursion dphi must be a real number, got '1e-3'$"),
        ],
    )
    def test_bad_argument_is_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fit_noise_model(self.ROWS, PAPER_LOSSES, **({"restarts": 1, "max_evals": 10} | kwargs))

    @pytest.mark.parametrize("name", ["restarts", "max_evals"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_count_is_refused(self, name, flag):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {flag}$"):
            fit_noise_model(self.ROWS, PAPER_LOSSES, **({"restarts": 1, "max_evals": 10} | {name: flag}))

    @pytest.mark.parametrize("losses", [(0.16, 0.1), (0.16, 0.1, 0.15, 0.0), "abc", None, (0.16, "0.1", 0.15), (True, 0.1, 0.15)])
    @pytest.mark.parametrize("call", ["fit", "curve"])
    def test_losses_that_are_not_three_reals_are_refused(self, losses, call):
        message = re.escape(f"losses must be three real numbers (L_is, L_ii, L_e), got {losses!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            if call == "fit":
                fit_noise_model(self.ROWS, losses, restarts=1, max_evals=10)
            else:
                advantage_vs_qng(4.0, [3.0], losses, NOISE_OFF, NOISE_OFF)

    @pytest.mark.parametrize("kwargs", [{"alpha2": True}, {"dphi": "1e-3"}])
    def test_non_real_scalars_in_advantage_curve(self, kwargs):
        with pytest.raises(ValueError, match="must be a real number, got "):
            advantage_vs_qng(4.0, [3.0], PAPER_LOSSES, NOISE_OFF, NOISE_OFF, **kwargs)

    def test_negative_alpha2_in_advantage_curve(self):
        with pytest.raises(ValueError, match="photon number alpha2 must be >= 0, got -4.0"):
            advantage_vs_qng(4.0, [3.0], PAPER_LOSSES, NOISE_OFF, NOISE_OFF, alpha2=-4.0)


def test_no_command_imports_scipy(tmp_path):
    # With scipy blocked (None in sys.modules makes any import of it fail),
    # a fit runs through the library and through the CLI.
    data = tmp_path / "fit.csv"
    data.write_text("qng1_db,qng2_db,advantage_db\n4,3,0.9\n4,6,1.6\n8,3,1.1\n8,6,2.0\n", encoding="utf-8")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import gicirc, gicirc.cli\n"
        "curve = gicirc.advantage_vs_qng(4.0, [3.0, 6.0, 9.0, 12.0], (0.16, 0.1, 0.15), (0.0, 1.0), (0.0, 1.0))\n"
        "rows = [(4.0, q, float(a)) for q, a in zip([3.0, 6.0, 9.0, 12.0], curve)]\n"
        "assert gicirc.fit_noise_model(rows, restarts=2, max_evals=50).iterations > 0\n"
        "assert gicirc.cli.main(['fit', '--data', sys.argv[1], '--restarts', '1', '--max-evals', '30']) == 0\n"
        "loaded = [m for m, module in sys.modules.items() if m.split('.')[0] == 'scipy' and module is not None]\n"
        "assert sys.modules['scipy'] is None and not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(gicirc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(data)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert '"iterations"' in proc.stdout
