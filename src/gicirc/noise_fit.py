"""Advantage-versus-noise-gain curves and noise-model parameter fitting.

The model ties the lossy-amplifier parameters ``(rho, epsilon2)`` of each
amplifier to observable quantum noise gains: for a target QNG the gain
``kappa`` is recovered by inversion, the nested interferometer is run with
both lossy amplifiers through the covariance engine, and its SNR is divided
by the equal-loss ``g = 0`` MZI SNR at the same input power.  Fitting
minimizes squared dB residuals of that advantage with a derivative-free
simplex search restarted from seeded random points (the inner QNG inversion
makes the objective non-smooth at the no-solution boundary, so gradient
methods are avoided).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, NoSolutionError
from .interferometers import SisniParams, _noisy_sisni_readout, engine_report, sql_baseline
from .noise_model import NoisyPaParams, _kappa

__all__ = [
    "FitResult",
    "advantage_vs_qng",
    "fit_noise_model",
    "load_fit_data",
    "DEFAULT_BOUNDS",
]

# (rho_lo, rho_hi), (eps2_lo, eps2_hi)
DEFAULT_BOUNDS = ((0.0, 0.1), (1.0, 1e4))

_RHO_FLOOR = 1e-8  # stands in for rho = 0 in log-space search
_INFEASIBLE = 1e12  # penalty when a data point's QNG is unreachable
_PINNED = 1e-6  # log10 distance from a box edge within which the optimum is pinned to it


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call: only a fit needs scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class FitResult:
    """Best-fit noise parameters with residual and convergence metadata.

    ``residual_rms`` is the root-mean-square of the (sigma-weighted) dB
    residuals at the optimum; ``iterations`` counts objective evaluations
    across all restarts and the polish stage.  ``converged`` is false when
    the simplex did not finish, no proposal was feasible, or the optimum
    sits within ``1e-6`` (in log10 search coordinates) of a bound of the
    search box other than the physical limits ``rho = 0`` and
    ``eps2 = 1``.
    """

    rho1: float
    rho2: float
    eps1_sq: float
    eps2_sq: float
    residual_rms: float
    iterations: int
    converged: bool


def _nested(losses, alpha2: float) -> SisniParams:
    """The nested topology at losses ``(L_is, L_ii, L_e)``; its amplifiers are set per row."""
    l_is, l_ii, l_e = losses
    return SisniParams(alpha=math.sqrt(alpha2), L_is=l_is, L_ii=l_ii, L_e=l_e)


def _sql_snr(losses, alpha2: float, dphi: float) -> float:
    return engine_report(sql_baseline(_nested(losses, alpha2)), dphi).snr


def _sisni_snr(qng1_db, qng2_db, losses, noise1, noise2, alpha2: float, dphi: float) -> np.ndarray:
    """Nested-interferometer SNR with both lossy amplifiers, per ``(qng1, qng2)`` row.

    ``qng1_db`` and ``qng2_db`` are scalars or arrays that broadcast to the
    rows; every row runs in one batched engine call.  Raises
    :class:`NoSolutionError`/:class:`InstabilityError` when some row's QNG
    is out of reach.
    """
    pa1, pa2 = (NoisyPaParams(rho, 0.0, eps2) for rho, eps2 in (noise1, noise2))
    kappa1, kappa2 = np.broadcast_arrays(
        _kappa(qng1_db, pa1.rho, pa1.epsilon2), _kappa(qng2_db, pa2.rho, pa2.epsilon2)
    )
    mean, var = _noisy_sisni_readout(_nested(losses, alpha2), pa1, pa2, kappa1, kappa2, dphi)
    return mean * mean / var


def advantage_vs_qng(
    qng1_db: float,
    qng2_grid,
    losses,
    noise1,
    noise2,
    *,
    alpha2: float = 36.0,
    dphi: float = 1e-3,
) -> np.ndarray:
    """SNR advantage (dB) over the equal-loss MZI versus downstream QNG.

    Args:
        qng1_db: upstream amplifier quantum noise gain (dB).
        qng2_grid: downstream QNG values (dB) to sweep.
        losses: ``(L_is, L_ii, L_e)`` intensity losses.
        noise1, noise2: ``(rho, epsilon2)`` per amplifier.
        alpha2: bright-port photon number (the advantage is independent of
            it; both SNRs scale linearly).
        dphi: phase excursion for the engine finite difference.

    Returns:
        Advantage in dB at each grid point (positive = better than the MZI).
    """
    grid = np.asarray(qng2_grid, dtype=float)
    base = _sql_snr(losses, alpha2, dphi)
    snr = _sisni_snr(qng1_db, grid.ravel(), losses, noise1, noise2, alpha2, dphi)
    return (10.0 * np.log10(snr / base)).reshape(grid.shape)


def load_fit_data(source) -> list[tuple[float, float, float, float]]:
    """Read advantage measurements from CSV.

    Expects a header row with columns ``qng1_db, qng2_db, advantage_db`` and
    an optional ``sigma_db`` column enabling weighted least squares (missing
    or empty sigmas default to 1).
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    reader = csv.DictReader(io.StringIO(text))
    required = {"qng1_db", "qng2_db", "advantage_db"}
    if reader.fieldnames is None or not required <= set(reader.fieldnames):
        raise ValueError(
            f"fit data needs columns {sorted(required)} (optional sigma_db); "
            f"got {reader.fieldnames}"
        )
    rows = []
    for rec in reader:
        sigma = rec.get("sigma_db")
        rows.append(
            (
                float(rec["qng1_db"]),
                float(rec["qng2_db"]),
                float(rec["advantage_db"]),
                float(sigma) if sigma not in (None, "") else 1.0,
            )
        )
    return rows


def _normalize_data(data) -> list[tuple[float, float, float, float]]:
    rows = []
    for i, rec in enumerate(data):
        rec = tuple(float(v) for v in rec)
        if len(rec) == 3:
            rec = rec + (1.0,)
        if len(rec) != 4:
            raise ValueError(
                f"data rows must be (qng1_db, qng2_db, advantage_db[, sigma_db]), got {rec}"
            )
        if not all(map(math.isfinite, rec)):
            raise ValueError(f"data row {i}: values must be finite, got {rec}")
        if rec[3] <= 0.0:
            raise ValueError(f"data row {i}: sigma_db must be > 0, got {rec[3]}")
        rows.append(rec)
    if len(rows) < 4:
        raise ValueError(f"need at least 4 data points, got {len(rows)}")
    if len({r[1] for r in rows}) < 2:
        raise ValueError("data must span at least 2 distinct qng2_db values")
    return rows


def fit_noise_model(
    data,
    losses=(0.16, 0.10, 0.15),
    bounds=DEFAULT_BOUNDS,
    *,
    seed: int = 0,
    restarts: int = 8,
    max_evals: int = 2000,
    alpha2: float = 36.0,
    dphi: float = 1e-3,
) -> FitResult:
    """Fit ``(rho1, rho2, eps1^2, eps2^2)`` to measured advantage data.

    Minimizes the sum of squared (optionally sigma-weighted) dB residuals of
    :func:`advantage_vs_qng` with Nelder-Mead simplex searches started from
    ``restarts`` seeded random points in log-transformed coordinates, then
    polishes the best candidate.  Deterministic for a fixed seed.  Parameter
    proposals for which some data point's QNG is unreachable score infinity,
    which the simplex contracts away from.

    Args:
        data: rows ``(qng1_db, qng2_db, advantage_db[, sigma_db])``; at
            least 4 points spanning at least 2 distinct qng2 values.
        losses: fixed ``(L_is, L_ii, L_e)``.
        bounds: ``((rho_lo, rho_hi), (eps2_lo, eps2_hi))`` box, shared by
            both amplifiers.
        seed: RNG seed for the restart points.
        restarts: number of random starts.
        max_evals: objective-evaluation budget per start (the polish stage
            gets twice this).
    """
    rows = _normalize_data(data)
    (rho_lo, rho_hi), (eps_lo, eps_hi) = bounds
    if not (0.0 <= rho_lo < rho_hi and 1.0 <= eps_lo < eps_hi):
        raise ValueError(f"unusable bounds {bounds}")
    w_lo = math.log10(max(rho_lo, _RHO_FLOOR))
    w_hi = math.log10(rho_hi)
    v_lo = math.log10(eps_lo)
    v_hi = math.log10(eps_hi)
    lo = np.array([w_lo, w_lo, v_lo, v_lo])
    hi = np.array([w_hi, w_hi, v_hi, v_hi])
    box = list(zip(lo, hi))

    base = _sql_snr(losses, alpha2, dphi)
    ln10_10 = 10.0 / math.log(10.0)
    qng1, qng2, measured, sigma = np.array(rows).T
    evals = 0

    def objective(z) -> float:
        nonlocal evals
        evals += 1
        rho1, rho2 = 10.0 ** z[0], 10.0 ** z[1]
        eps1, eps2 = 10.0 ** z[2], 10.0 ** z[3]
        try:
            snr = _sisni_snr(qng1, qng2, losses, (rho1, eps1), (rho2, eps2), alpha2, dphi)
        except (NoSolutionError, InstabilityError):
            return _INFEASIBLE
        r = (ln10_10 * np.log(snr / base) - measured) / sigma
        return sum((r * r).tolist())

    def simplex(z0, maxfev: int, xatol: float, fatol: float):
        return minimize(
            objective,
            z0,
            method="Nelder-Mead",
            bounds=box,
            options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol, "adaptive": True},
        )

    rng = np.random.default_rng(seed)
    starts = rng.uniform(lo, hi, size=(restarts, 4))
    best = None
    for z0 in starts:
        res = simplex(z0, max_evals, 1e-4, 1e-10)
        if best is None or res.fun < best.fun:
            best = res
    polish = simplex(best.x, 2 * max_evals, 1e-7, 1e-16)
    if polish.fun <= best.fun:
        best = polish
    z = best.x
    # rho = 0 (stood in for by the floor) and eps2 = 1 are physical limits
    # where the true minimum can lie, as it does for noise-free data; a point
    # on any other edge of the box is held there by the box, not the data.
    box_lo = np.array([rho_lo > 0.0] * 2 + [eps_lo > 1.0] * 2)
    pinned = np.any(box_lo & (z - lo <= _PINNED)) or np.any(hi - z <= _PINNED)
    rho1, rho2, eps1_sq, eps2_sq = (float(10.0**v) for v in z)
    return FitResult(
        rho1=rho1,
        rho2=rho2,
        eps1_sq=eps1_sq,
        eps2_sq=eps2_sq,
        residual_rms=math.sqrt(best.fun / len(rows)) if best.fun < _INFEASIBLE else math.inf,
        iterations=evals,
        converged=bool(best.success and best.fun < _INFEASIBLE and not pinned),
    )
