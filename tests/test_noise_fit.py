"""Tests for advantage curves and noise-model fitting."""

import collections
import io
import os
import subprocess
import sys

import numpy as np
import pytest

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

    @pytest.mark.parametrize("budget, recovered", [(dict(restarts=2, max_evals=600), False), ({}, True)])
    def test_converged_only_off_the_box_edges(self, budget, recovered):
        # Criterion-7 data.  On the short budget the search ends pinned at
        # rho1 = 1e-8 (the floor) and eps1^2 = 1e4 (the upper bound), far
        # from the truth; on the default budget it recovers the truth.
        truth = (5e-4, 4e-4, 2.0, 208.0)
        data = self.synthetic((5e-4, 2.0), (4e-4, 208.0), qng2s=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0))
        result = fit_noise_model(data, PAPER_LOSSES, seed=7, **budget)
        fitted = (result.rho1, result.rho2, result.eps1_sq, result.eps2_sq)
        assert all(type(v) is float for v in fitted)
        assert all(abs(v / t - 1.0) < 0.1 for v, t in zip(fitted, truth)) is recovered
        assert result.converged is recovered
        if not recovered:
            assert (result.rho1, result.eps1_sq) == pytest.approx((1e-8, 1e4), rel=1e-5)

    def test_no_feasible_evaluation_is_refused(self):
        # Every evaluation's readout overflows at this photon number and excursion.
        rows = [(4.0, 2.0, 0.5), (4.0, 7.0, 2.7), (8.0, 2.0, 0.4), (8.0, 7.0, 2.5)]
        message = (
            "^the noise-model fit ends at a refused point: "
            r"noise model: the readout overflows at alpha2 = 1\.7e\+308, dphi = 1\.0$"
        )
        with pytest.raises(NoSolutionError, match=message):
            fit_noise_model(rows, restarts=1, max_evals=30, alpha2=1.7e308, dphi=1.0)

    def test_an_infeasible_optimum_is_refused(self):
        # Criterion-7 data shifted by 3 dB with a tiny sigma: every feasible
        # residual sum exceeds the penalty a refused proposal scores, so the
        # simplex ends on a refused point although others were feasible.
        data = self.synthetic((5e-4, 2.0), (4e-4, 208.0), qng2s=(2.0, 7.0))
        shifted = [(q1, q2, a + 3.0, 1e-7) for q1, q2, a in data]
        message = r"^the noise-model fit ends at a refused point: QNG 4\.0 dB is unreachable: "
        with pytest.raises(NoSolutionError, match=message):
            fit_noise_model(shifted, PAPER_LOSSES, restarts=2, max_evals=200)

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


class TestFitWork:
    DATA = TestFitNoiseModel().synthetic((5e-4, 2.0), (4e-4, 208.0), qng2s=(2.0, 7.0, 12.0))

    def test_builds_the_nested_circuit_once(self, monkeypatch):
        counts = collections.Counter()

        def counting(name, func):
            def counted(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return counted

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
