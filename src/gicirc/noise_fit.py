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
from .interferometers import (
    SisniParams,
    _amplitude,
    _build,
    _guard,
    _phase_excursion,
    _readout,
    _require_bright,
    sql_baseline,
)
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
_UNSET = NoisyPaParams(0.0, 0.0)  # the circuit's amplifier fields, which every row sets
_TINY = np.finfo(float).tiny  # a smaller SNR has lost the precision a ratio of SNRs needs


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
    the simplex did not finish or the optimum sits within ``1e-6`` (in
    log10 search coordinates) of a bound of the search box other than the
    physical limits ``rho = 0`` and ``eps2 = 1``.  A fit whose optimum is
    refused raises instead of returning one.
    """

    rho1: float
    rho2: float
    eps1_sq: float
    eps2_sq: float
    residual_rms: float
    iterations: int
    converged: bool


def _nested(losses, alpha2: float, dphi: float):
    """Check the fixed inputs, run the SQL baseline and build the nested circuit, once per call.

    Returns the baseline's SNR and ``(topo, spec, dphi, inputs)``: each row of :func:`_sisni_snr`
    sets the circuit's placeholder amplifier fields, and a refusal names ``inputs``.
    """
    l_is, l_ii, l_e = losses
    params = SisniParams(alpha=_amplitude(alpha2), L_is=l_is, L_ii=l_ii, L_e=l_e)
    _require_bright(params)
    inputs = f"alpha2 = {float(alpha2)!r}, dphi = {float(dphi)!r}"
    with _guard("SQL baseline", inputs):
        excursion = _phase_excursion(*_build(sql_baseline(params)), dphi)
        base = _readout(excursion, excursion.spec.detect.mode, _TINY)[2]
    return base, (*_build(params, _UNSET, _UNSET), float(dphi), inputs)


def _sisni_snr(qng1_db, qng2_db, nested, noise1, noise2) -> np.ndarray:
    """Nested-interferometer SNR with both lossy amplifiers, per ``(qng1, qng2)`` row.

    ``qng1_db`` and ``qng2_db`` are scalars or arrays that broadcast to the
    rows, and ``noise1``, ``noise2`` valid ``(rho, epsilon2)`` floats.  Each
    row sets both amplifiers' ``rho``, ``kappa`` and ``epsilon2`` in the
    circuit from :func:`_nested`, and every row runs in one engine pass.
    Raises :class:`NoSolutionError`/:class:`InstabilityError` when some
    row's QNG is out of reach.
    """
    topo, spec, dphi, inputs = nested
    vary = {
        i: {"rho": rho, "kappa": _kappa(qng, rho, eps2), "epsilon2": eps2}
        for i, qng, (rho, eps2) in zip(topo.amplifiers, (qng1_db, qng2_db), (noise1, noise2))
    }
    with _guard("noise model", inputs):
        return _readout(_phase_excursion(topo, spec, dphi, vary), spec.detect.mode, _TINY)[2]


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
    base, nested = _nested(losses, alpha2, dphi)
    pa1, pa2 = (NoisyPaParams(rho, 0.0, eps2) for rho, eps2 in (noise1, noise2))
    snr = _sisni_snr(qng1_db, grid, nested, (pa1.rho, pa1.epsilon2), (pa2.rho, pa2.epsilon2))
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
    proposals for which some data point's QNG is unreachable score a ``1e12``
    penalty, which the simplex contracts away from; when the optimum is such
    a proposal, :class:`NoSolutionError` quotes its refusal.

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
    if not (0.0 <= rho_lo < rho_hi < math.inf and 1.0 <= eps_lo < eps_hi < math.inf):
        raise ValueError(
            f"unusable bounds {bounds}: need finite 0 <= rho_lo < rho_hi and 1 <= eps2_lo < eps2_hi"
        )
    for name, value in (("restarts", restarts), ("max_evals", max_evals)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    w_lo, w_hi, v_lo, v_hi = np.log10([max(rho_lo, _RHO_FLOOR), rho_hi, eps_lo, eps_hi])
    lo = np.array([w_lo, w_lo, v_lo, v_lo])
    hi = np.array([w_hi, w_hi, v_hi, v_hi])
    box = list(zip(lo, hi))

    base, nested = _nested(losses, alpha2, dphi)
    qng1, qng2, measured, sigma = np.array(rows).T

    def snr_at(z):
        rho1, rho2, eps1, eps2 = (float(10.0**v) for v in z)
        return _sisni_snr(qng1, qng2, nested, (rho1, eps1), (rho2, eps2))

    def objective(z) -> float:
        try:
            snr = snr_at(z)
        except (NoSolutionError, InstabilityError):
            return _INFEASIBLE
        r = (10.0 * np.log10(snr / base) - measured) / sigma
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
    runs = [simplex(z0, max_evals, 1e-4, 1e-10) for z0 in starts]
    best = min(runs, key=lambda res: res.fun)  # the first of equal minima
    polish = simplex(best.x, 2 * max_evals, 1e-7, 1e-16)
    best = min(polish, best, key=lambda res: res.fun)  # the polish wins a tie
    z = best.x
    # A refused proposal scores the penalty, and a residual sum can reach it
    # too: only the optimum's own readout tells them apart.
    if best.fun >= _INFEASIBLE:
        try:
            snr_at(z)
        except (NoSolutionError, InstabilityError) as exc:
            raise NoSolutionError(f"the noise-model fit ends at a refused point: {exc}") from exc
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
        residual_rms=math.sqrt(best.fun / len(rows)),
        iterations=sum(res.nfev for res in runs) + polish.nfev,
        converged=bool(best.success and not pinned),
    )
