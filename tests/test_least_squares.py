"""The fit's optimum against a reference least-squares solver, scipy's trust-region reflective.

``fit_noise_model`` runs its own projected Levenberg-Marquardt search.
Each fit here must end with a sum of squared residuals no larger than
``scipy.optimize.least_squares(method="trf", x_scale="jac")`` reaches on
the same residuals, in the same log10 box, from the same seeded starts:
at most the best reference's times ``1 + 1e-6``, plus ``1e-24`` for data
that the model fits exactly.  scipy is a test-only dependency; without it
these tests are skipped.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import least_squares  # noqa: E402

from gicirc import advantage_vs_qng, fit_noise_model, noise_fit  # noqa: E402

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


def noisy(seed):
    """Criterion 7's curve plus N(0, 0.1 dB) noise, with sigma_db = 0.1."""
    noise = np.random.default_rng(seed).normal(0.0, 0.1, len(CRITERION_7))
    return [(q1, q2, a + e, 0.1) for (q1, q2, a), e in zip(CRITERION_7, noise)]


def reference_cost(data, seed, restarts):
    """The least sum of squares scipy's ``trf`` reaches from the fit's seeded starts.

    A start with refused residuals is moved as the fit's ladder moves it:
    its rho coordinates toward the floor, to the first rung whose residuals
    are finite.
    """
    objective = noise_fit._Objective(noise_fit._normalize_data(data), PAPER_LOSSES, 36.0, 1e-3)
    (rho_lo, rho_hi), (eps_lo, eps_hi) = noise_fit.DEFAULT_BOUNDS
    lo = np.log10([noise_fit._RHO_FLOOR] * 2 + [eps_lo] * 2)
    hi = np.log10([rho_hi] * 2 + [eps_hi] * 2)
    costs = []
    for z0 in np.random.default_rng(seed).uniform(lo, hi, size=(restarts, 4)):
        rungs = [z0 + t * np.array([1.0, 1.0, 0.0, 0.0]) * (lo - z0) for t in np.linspace(0.0, 1.0, 5)]
        start = next((z for z in rungs if np.isfinite(objective.residual(z)).all()), None)
        if start is None:
            continue
        found = least_squares(objective.residual, start, bounds=(lo, hi), method="trf", x_scale="jac", max_nfev=20_000)
        costs.append(float(found.fun @ found.fun))
    return min(costs)


@pytest.mark.parametrize(
    "data, budget",
    [
        pytest.param(CRITERION_7, dict(seed=7), id="criterion-7"),
        pytest.param(FIT_WORKLOAD, dict(seed=3, restarts=1, max_evals=1000), id="fit-workload-3"),
        pytest.param(FIT_WORKLOAD, dict(seed=5, restarts=1, max_evals=1000), id="fit-workload-5"),
        *(pytest.param(noisy(s), dict(seed=7), id=f"noisy-{s}") for s in range(100, 104)),
    ],
)
def test_reaches_the_reference_optimum(data, budget):
    fit = fit_noise_model(data, PAPER_LOSSES, **budget)
    cost = fit.residual_rms**2 * len(data)
    assert cost <= reference_cost(data, budget["seed"], budget.get("restarts", 8)) * (1.0 + 1e-6) + 1e-24
