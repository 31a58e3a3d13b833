"""The fit's simplex against its reference, scipy's bounded adaptive Nelder-Mead.

The fit runs its own reimplementation of scipy 1.17's ``_minimize_neldermead``
in batched steps (``noise_fit._nelder_mead`` and ``_lockstep``).  Each search
must end where ``scipy.optimize.minimize`` ends from the same start on the
same objective: the same ``nfev``, ``nit`` and ``success``, and the same bits
of ``x``, ``fun`` and the final simplex.  scipy is a test-only dependency;
without it, or with a scipy older than the 1.17 this code follows, these
tests are skipped.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy", minversion="1.17")
from scipy.optimize import minimize  # noqa: E402

from gicirc import NoSolutionError, advantage_vs_qng, fit_noise_model, noise_fit  # noqa: E402

PAPER_LOSSES = (0.16, 0.10, 0.15)
TRUTH = ((5e-4, 2.0), (4e-4, 208.0))


def synthetic(qng2s, qng1s=(4.0, 8.0)):
    data = []
    for q1 in qng1s:
        curve = advantage_vs_qng(q1, qng2s, PAPER_LOSSES, *TRUTH)
        data.extend((q1, q2, float(a)) for q2, a in zip(qng2s, curve))
    return data


CRITERION_7 = synthetic((2.0, 4.0, 6.0, 8.0, 10.0, 12.0))
FIT_WORKLOAD = synthetic((2.0, 7.0, 12.0))
# Every feasible residual sum exceeds the penalty: the searches end on the
# 1e12 plateau, where the simplex values tie.
PLATEAU = [(q1, q2, a + 3.0, 1e-7) for q1, q2, a in synthetic((2.0, 7.0))]


@contextlib.contextmanager
def recorded_searches():
    """Record the arguments and the result of each search a fit runs."""
    seen = []
    real = noise_fit._nelder_mead

    def recording(*args):
        result = yield from real(*args)
        seen.append((args, result))
        return result

    with mock.patch.object(noise_fit, "_nelder_mead", recording):
        yield seen


def scipy_search(objective, x0, lower, upper, maxfev, xatol, fatol):
    options = {"maxfev": maxfev, "xatol": xatol, "fatol": fatol, "adaptive": True}
    return minimize(objective, x0, method="Nelder-Mead", bounds=list(zip(lower, upper)), options=options)


def assert_same(result, reference):
    assert (result.nfev, result.nit, result.success) == (reference.nfev, reference.nit, reference.success)
    assert result.x.tobytes() == reference.x.tobytes()
    assert np.float64(result.fun).tobytes() == np.float64(reference.fun).tobytes()
    for got, expected in zip(result.final_simplex, reference.final_simplex):
        assert got.tobytes() == expected.tobytes()


def check_fit(data, restarts=8, **kwargs):
    """Run a fit and check each of its searches against scipy on the fit's own objective.

    Returns the fit, or the refusal it raised.
    """
    with recorded_searches() as seen:
        try:
            fit = fit_noise_model(data, PAPER_LOSSES, restarts=restarts, **kwargs)
        except NoSolutionError as exc:
            fit = exc
    assert len(seen) == restarts + 1
    objective = noise_fit._Objective(noise_fit._normalize_data(data), PAPER_LOSSES, 36.0, 1e-3)
    for args, result in seen:
        assert_same(result, scipy_search(objective, *args))
    if isinstance(fit, noise_fit.FitResult):
        assert fit.iterations == sum(result.nfev for _, result in seen)
    return fit


class TestFitSearches:
    def test_criterion_7(self):
        assert check_fit(CRITERION_7, seed=7).converged

    @pytest.mark.parametrize("seed", [3, 5])
    def test_fit_workload_seeds(self, seed):
        assert check_fit(FIT_WORKLOAD, seed=seed, restarts=1, max_evals=1000).converged

    def test_pinned_run(self):
        assert check_fit(CRITERION_7, seed=7, restarts=2, max_evals=600).converged is False

    @pytest.mark.parametrize("max_evals", [1, 2, 3, 4, 5, 6])
    def test_budgets_that_end_in_the_initial_simplex(self, max_evals):
        fit = check_fit(FIT_WORKLOAD, seed=3, restarts=3, max_evals=max_evals)
        assert fit.iterations == 3 * max_evals + 2 * max_evals
        assert not fit.converged

    def test_plateau_of_refused_points(self):
        fit = check_fit(PLATEAU, restarts=2, max_evals=200)
        assert isinstance(fit, NoSolutionError)

    @settings(max_examples=15, deadline=None)
    @given(
        data=st.sampled_from([FIT_WORKLOAD, CRITERION_7[:6], PLATEAU]),
        seed=st.integers(0, 2**32 - 1),
        restarts=st.integers(1, 3),
        max_evals=st.integers(1, 60),
    )
    def test_random_fits(self, data, seed, restarts, max_evals):
        check_fit(data, seed=seed, restarts=restarts, max_evals=max_evals)


def run_search(f, x0, lower, upper, maxfev, xatol=1e-4, fatol=1e-4):
    search = noise_fit._nelder_mead(x0, lower, upper, maxfev, xatol, fatol)
    (result,) = noise_fit._lockstep([search], lambda points: [f(z) for z in points])
    return result


def terraced(z) -> float:
    """A bowl in steps: flat terraces make simplex values tie."""
    return math.floor(8.0 * float(np.sum((z - 0.3) * (z - 0.3)))) / 8.0


def bowl(z) -> float:
    return float(np.sum((z - 0.3) * (z - 0.3) * np.arange(1.0, len(z) + 1.0)))


class TestSimplexAlone:
    @settings(max_examples=60, deadline=None)
    @given(
        f=st.sampled_from([terraced, bowl]),
        x0=st.lists(st.sampled_from([0.0, -1.0, 0.96, 1.0, 0.3]) | st.floats(-1.0, 1.0), min_size=1, max_size=5),
        maxfev=st.integers(1, 120),
        xatol=st.sampled_from([1e-4, 1e-8]),
    )
    def test_matches_scipy(self, f, x0, maxfev, xatol):
        # Starts at 0 (scipy's zdelt step), on the upper bound and just under
        # it (its initial vertices are reflected into the box).
        x0 = np.array(x0)
        lower, upper = np.full(len(x0), -1.0), np.full(len(x0), 1.0)
        result = run_search(f, x0, lower, upper, maxfev, xatol)
        assert_same(result, scipy_search(f, x0, lower, upper, maxfev, xatol, 1e-4))

    def test_converges_inside_the_budget(self):
        x0 = np.array([0.9, -0.5, 0.1, 0.0])
        result = run_search(bowl, x0, np.full(4, -1.0), np.full(4, 1.0), 2000, 1e-10, 1e-16)
        assert result.success and result.nfev < 2000
        assert np.allclose(result.x, 0.3, atol=1e-6)
