"""Advantage-versus-noise-gain curves and noise-model parameter fitting.

The model ties the lossy-amplifier parameters ``(rho, epsilon2)`` of each
amplifier to observable quantum noise gains: for a target QNG the gain
``kappa`` is recovered by inversion, the nested interferometer is run with
both lossy amplifiers, and its SNR is divided by the equal-loss ``g = 0``
MZI SNR at the same input power.  The nested circuit is built and its
readout compiled once per curve or fit: the detected quadrature's row is
propagated backward, and the runs of elements between and after the two
amplifiers, the same in every row, are folded into one row map and one
noise factor each (see :class:`~gicirc.circuits._Adjoint`), so a pass
applies only the amplifiers' blocks per row.  Fitting
minimizes squared dB residuals of that advantage with a derivative-free
simplex search restarted from seeded random points (the inner QNG inversion
makes the objective non-smooth at the no-solution boundary, so gradient
methods are avoided).

The simplex is scipy 1.17's bounded adaptive Nelder-Mead (Gao & Han,
*Comput. Optim. Appl.* 51, 259 (2012)), reimplemented here so that no
command imports scipy, and run in batched steps: each restart is a
generator that yields every point its next step may read, and one engine
pass evaluates the pending points of all live restarts.  A point has the
bits of its own evaluation in any batch, so a fit has scipy's bits.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InstabilityError, NoSolutionError
from .circuits import _Adjoint
from .interferometers import (
    SisniParams,
    _amplitude,
    _build,
    _excursion_shift,
    _guard,
    _judge,
    _phase_excursion,
    _readout,
    _require_bright,
    sql_baseline,
)
from .noise_model import NoisyPaParams, _check_qng, _pa_blocks, _refuse, _solve_kappa, _stretch

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


@dataclass(frozen=True)
class FitResult:
    """Best-fit noise parameters with residual and convergence metadata.

    ``residual_rms`` is the root-mean-square of the (sigma-weighted) dB
    residuals at the optimum; ``iterations`` counts the objective values
    the simplex searches read (scipy's ``nfev``), across all restarts and
    the polish stage, not the points a batched step evaluated in case its
    branch needed them.  ``converged`` is false when the simplex did not
    finish or the optimum sits within ``1e-6`` (in log10 search
    coordinates) of a bound of the search box other than the physical
    limits ``rho = 0`` and ``eps2 = 1``.  A fit whose optimum is refused
    raises instead of returning one.
    """

    rho1: float
    rho2: float
    eps1_sq: float
    eps2_sq: float
    residual_rms: float
    iterations: int
    converged: bool


def _nested(losses, alpha2: float, dphi: float):
    """Check the fixed inputs, run the SQL baseline and compile the nested circuit's readout, once per call.

    Returns the baseline's SNR and ``(topo, spec, adjoint, inputs)``: the
    nested circuit with placeholder amplifier fields, its backward readout
    (a :class:`~gicirc.circuits._Adjoint` over the two amplifiers and the
    signal phase's excursion), which each row of :func:`_nested_snr` runs
    with its own amplifier fields, and ``inputs``, which a refusal names.
    """
    l_is, l_ii, l_e = losses
    params = SisniParams(alpha=_amplitude(alpha2), L_is=l_is, L_ii=l_ii, L_e=l_e)
    _require_bright(params)
    inputs = f"alpha2 = {float(alpha2)!r}, dphi = {float(dphi)!r}"
    with _guard("SQL baseline", inputs):
        excursion = _phase_excursion(*_build(sql_baseline(params)), dphi)
        base = _readout(excursion, excursion.spec.detect.mode, _TINY)[2]
    topo, spec = _build(params, _UNSET, _UNSET)
    return base, (topo, spec, _Adjoint(spec, topo.amplifiers, _excursion_shift(topo, spec, dphi)), inputs)


def _sisni_snr(qng1_db, qng2_db, nested, noise1, noise2) -> np.ndarray:
    """Nested-interferometer SNR with both lossy amplifiers, per ``(qng1, qng2)`` row.

    ``qng1_db`` and ``qng2_db`` are checked targets (see
    :func:`~gicirc.noise_model._check_qng`), scalars or arrays that
    broadcast to the rows, and ``noise1``, ``noise2`` valid
    ``(rho, epsilon2)`` floats.  Raises
    :class:`NoSolutionError`/:class:`InstabilityError` when some row's QNG
    is out of reach, the upstream amplifier's rows first; see
    :func:`_nested_snr` for the pass.
    """
    qngs = np.stack(np.broadcast_arrays(qng1_db, qng2_db))
    rho, eps2 = (np.array(values).reshape((2,) + (1,) * (qngs.ndim - 1)) for values in zip(noise1, noise2))
    solution = _solve_kappa(qngs, rho, eps2)
    for amp, noise in enumerate((noise1, noise2)):
        _refuse(qngs[amp], *noise, *(mask[amp] for mask in solution[1:4]))
    return _nested_snr(nested, rho, eps2, solution.kappa, solution.stability, solution.coupling)


def _nested_snr(nested, rho, epsilon2, kappa, stability, coupling) -> np.ndarray:
    """SNR of the circuit from :func:`_nested` with its amplifiers set to solved rows, in one backward pass.

    Each argument holds both amplifiers' values on its first axis, the
    upstream one first, and broadcasts to the rows on the others: ``rho``
    and ``epsilon2``, and the ``kappa``, stability ``M`` and four coupling
    factors that :func:`~gicirc.noise_model._solve_kappa` formed at them
    (refused rows left out).  Both amplifiers' blocks come from the
    coupling factors in one :func:`~gicirc.noise_model._pa_blocks`, and
    their ``G_bar + g_bar`` from ``M``: the precision bound's product over
    the circuit's amplifiers, which are these two.  So the pass forms no
    term of the amplifiers again.  The compiled readout carries the
    detected row back through the blocks and the folded runs between them,
    and the readout is judged as the forward one is (see
    :func:`~gicirc.interferometers._judge`), with refusals that name the
    inputs.
    """
    topo, _, adjoint, inputs = nested
    with _guard("noise model", inputs):
        linear, auxiliary = _pa_blocks(coupling)
        blocks = {i: (linear[amp], (epsilon2[amp], auxiliary[amp])) for amp, i in enumerate(topo.amplifiers)}
        means, var = adjoint.run(blocks)
        stretch = _stretch(rho, kappa, stability)
        return _judge(means[..., 1], means[..., 2], var, stretch[0] * stretch[1], _TINY)[2]


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
        qng1_db: upstream amplifier quantum noise gain (dB), a real number
            (a bool, an array or a string raises ``ValueError``).
        qng2_grid: downstream QNG values (dB) to sweep, an array of any
            shape (an empty one gives an empty curve).
        losses: ``(L_is, L_ii, L_e)`` intensity losses.
        noise1, noise2: ``(rho, epsilon2)`` per amplifier.
        alpha2: bright-port photon number (the advantage is independent of
            it; both SNRs scale linearly).
        dphi: phase excursion for the engine finite difference.

    Returns:
        Advantage in dB at each grid point (positive = better than the MZI),
        in the grid's shape.
    """
    if isinstance(qng1_db, bool) or not isinstance(qng1_db, numbers.Real):
        raise ValueError(f"upstream quantum noise gain qng1_db must be a real number, got {qng1_db!r}")
    grid = np.asarray(qng2_grid, dtype=float)
    base, nested = _nested(losses, alpha2, dphi)
    pa1, pa2 = (NoisyPaParams(rho, 0.0, eps2) for rho, eps2 in (noise1, noise2))
    qng1_db, grid = _check_qng(qng1_db), _check_qng(grid)
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


def _noise(z) -> list[float]:
    """``[rho1, rho2, eps1_sq, eps2_sq]`` at a point of the log10 search coordinates."""
    # One power a value, not one 10.0 ** z over the array: numpy's SIMD power
    # differs from this by 1 ULP for 5.3 % of 200,000 exponents drawn from
    # [-8, 4] (numpy 2.4.6 on an AVX-512 host), which would move the fit's bits.
    return [float(10.0**v) for v in z]


class _Objective:
    """The fit's objective: the sum of squared sigma-weighted dB residuals of the advantage.

    Calling it scores one point of the log10 search coordinates, and
    :meth:`batch` scores many with the same bits.  A point for which some
    data row's QNG is out of reach, or whose readout is refused, scores
    :data:`_INFEASIBLE`.
    """

    def __init__(self, rows, losses, alpha2: float, dphi: float):
        self.base, self.nested = _nested(losses, alpha2, dphi)
        self.qng1, self.qng2, self.measured, self.sigma = np.array(rows).T
        for qng in (self.qng1, self.qng2):  # refuse bad QNG data as a first evaluation would
            _check_qng(qng)
        # A batch's rows, (amplifier, point, data row), broadcast from these
        # targets and each point's (amplifier, point, 1) noise parameters.
        self.qngs = np.stack([self.qng1, self.qng2])[:, None, :]

    def snr(self, z) -> np.ndarray:
        """The nested SNR of each data row at ``z``; raises where :func:`_sisni_snr` does."""
        rho1, rho2, eps1, eps2 = _noise(z)
        return _sisni_snr(self.qng1, self.qng2, self.nested, (rho1, eps1), (rho2, eps2))

    def __call__(self, z) -> float:
        try:
            snr = self.snr(z)
        except (NoSolutionError, InstabilityError):
            return _INFEASIBLE
        r = (10.0 * np.log10(snr / self.base) - self.measured) / self.sigma
        return sum((r * r).tolist())

    def batch(self, points) -> list[float]:
        """The value of each row of ``points``: every point whose QNGs are in reach runs in one engine pass.

        A point with a refused :func:`_solve_kappa` row scores the penalty
        without the engine; a pass that the engine refuses as a whole is
        run again point by point.
        """
        noise = np.array([_noise(z) for z in points]).T[:, :, None]
        rho, eps2 = noise[:2], noise[2:]
        solution = _solve_kappa(self.qngs, rho, eps2)
        feasible = ~(solution.unreachable | solution.at_pole | solution.overflow).any(axis=(0, 2))
        values = [_INFEASIBLE] * len(points)
        if not feasible.any():
            return values
        fields = [rho, eps2, solution.kappa, solution.stability, *solution.coupling]
        if not feasible.all():
            fields = [v[:, feasible] for v in fields]
        try:
            snr = _nested_snr(self.nested, *fields[:4], fields[4:])
        except (NoSolutionError, InstabilityError):
            scores = [self(z) for z in points[feasible]]
        else:
            r = (10.0 * np.log10(snr / self.base) - self.measured) / self.sigma
            scores = [sum(row) for row in (r * r).tolist()]
        for i, score in zip(np.flatnonzero(feasible), scores):
            values[i] = score
        return values


def _evaluated(z, value) -> None:
    """Called once for each objective value a simplex search reads, with its point; does nothing.

    A hook for counting evaluations from outside: the points a batched step
    evaluated in case a branch needed them, and did not read, are not
    reported.
    """


class _Spent(Exception):
    """A search read past its evaluation budget (scipy's ``_MaxFuncCallError``)."""


class _Simplex(NamedTuple):
    """The end of a search, in the fields of scipy's ``OptimizeResult``."""

    x: np.ndarray
    fun: np.float64
    nfev: int
    nit: int
    success: bool
    final_simplex: tuple[np.ndarray, np.ndarray]


def _nelder_mead(x0, lower, upper, maxfev: int, xatol: float, fatol: float):
    """Scipy 1.17's ``minimize(method="Nelder-Mead")`` with ``bounds`` and ``adaptive=True``, as a generator.

    Follows ``scipy.optimize._optimize._minimize_neldermead`` with
    ``maxfev`` (``maxiter`` unbounded) operation for operation, so a search
    has scipy's bits.  Each step yields, as the rows of an array, every point
    whose value it may read: the initial simplex, then per iteration the
    reflection, expansion, outside and inside contraction, and after a
    failed contraction the shrunk vertices, none past the budget.  It is
    sent their values in that order and reads them in scipy's order; each
    read counts against ``maxfev`` and goes to :func:`_evaluated`, and a
    read past the budget ends the search as scipy's ``_MaxFuncCallError``
    does, also inside the initial simplex.  Returns a :class:`_Simplex`.
    """
    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    n = len(x0)
    dim = float(n)
    rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    nonzdelt, zdelt = 0.05, 0.00025
    # The reflection, expansion, outside and inside contraction, as
    # ``to_xbar * xbar - to_worst * sim[-1]``: products and a difference
    # with scipy's bits (``x - (-c) y`` is ``x + c y`` exactly).
    to_xbar = np.array([[1 + rho], [1 + rho * chi], [1 + psi * rho], [1 - psi]])
    to_worst = np.array([[rho], [rho * chi], [psi * rho], [-psi]])
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + nonzdelt) * y[k] if y[k] != 0 else zdelt
        sim[k + 1] = y
    # Vertices past an upper bound are reflected into the box, then clipped.
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def read(values, i, x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Spent
        nfev += 1
        _evaluated(x, values[i])
        return values[i]

    values = yield sim[: min(n + 1, maxfev)]
    try:
        for k in range(n + 1):
            fsim[k] = read(values, k, sim[k])
    except _Spent:
        pass
    for _ in range(2):  # scipy sorts twice here, and an argsort need not keep ties in order
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while nfev < maxfev:
        try:
            if np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            steps = np.clip(to_xbar * xbar - to_worst * sim[-1], lower, upper)
            xr, xe, xc, xcc = steps
            values = yield steps if maxfev - nfev > 1 else steps[:1]
            fxr = read(values, 0, xr)
            doshrink = False
            if fxr < fsim[0]:
                fxe = read(values, 1, xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                fxc = read(values, 2, xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:
                fxcc = read(values, 3, xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                shrunk = np.clip(sim[0] + sigma * (sim[1:] - sim[0]), lower, upper)
                left = maxfev - nfev
                values = (yield shrunk[:left]) if left else ()
                for j in range(1, n + 1):
                    sim[j] = shrunk[j - 1]
                    fsim[j] = read(values, j - 1, sim[j])
            iterations += 1
        except _Spent:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return _Simplex(sim[0], np.min(fsim), nfev, iterations, nfev < maxfev, (sim, fsim))


def _lockstep(searches, evaluate) -> list[_Simplex]:
    """Run :func:`_nelder_mead` searches side by side and return their results in order.

    Each round makes one ``evaluate`` call (points as rows, to a sequence
    of their values) on the pending points of every live search.
    """
    results = [None] * len(searches)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        values = evaluate(np.concatenate(list(pending.values())))
        start = 0
        for i, points in list(pending.items()):
            stop = start + len(points)
            try:
                pending[i] = searches[i].send(values[start:stop])
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
            start = stop
    return results


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
    ``restarts`` seeded random points in log-transformed coordinates, run
    side by side, then polishes the best candidate.  Deterministic for a
    fixed seed.  Parameter proposals for which some data point's QNG is
    unreachable score a ``1e12`` penalty, which the simplex contracts away
    from; when the optimum is such a proposal, :class:`NoSolutionError`
    quotes its refusal.

    Args:
        data: rows ``(qng1_db, qng2_db, advantage_db[, sigma_db])``; at
            least 4 points spanning at least 2 distinct qng2 values.
        losses: fixed ``(L_is, L_ii, L_e)``.
        bounds: ``((rho_lo, rho_hi), (eps2_lo, eps2_hi))`` box, shared by
            both amplifiers.
        seed: RNG seed for the restart points, a non-negative integer.
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
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    w_lo, w_hi, v_lo, v_hi = np.log10([max(rho_lo, _RHO_FLOOR), rho_hi, eps_lo, eps_hi])
    lo = np.array([w_lo, w_lo, v_lo, v_lo])
    hi = np.array([w_hi, w_hi, v_hi, v_hi])

    objective = _Objective(rows, losses, alpha2, dphi)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(lo, hi, size=(restarts, 4))
    runs = _lockstep([_nelder_mead(z0, lo, hi, max_evals, 1e-4, 1e-10) for z0 in starts], objective.batch)
    best = min(runs, key=lambda res: res.fun)  # the first of equal minima
    (polish,) = _lockstep([_nelder_mead(best.x, lo, hi, 2 * max_evals, 1e-7, 1e-16)], objective.batch)
    best = min(polish, best, key=lambda res: res.fun)  # the polish wins a tie
    z = best.x
    # A refused proposal scores the penalty, and a residual sum can reach it
    # too: only the optimum's own readout tells them apart.
    if best.fun >= _INFEASIBLE:
        try:
            objective.snr(z)
        except (NoSolutionError, InstabilityError) as exc:
            raise NoSolutionError(f"the noise-model fit ends at a refused point: {exc}") from exc
    # rho = 0 (stood in for by the floor) and eps2 = 1 are physical limits
    # where the true minimum can lie, as it does for noise-free data; a point
    # on any other edge of the box is held there by the box, not the data.
    box_lo = np.array([rho_lo > 0.0] * 2 + [eps_lo > 1.0] * 2)
    pinned = np.any(box_lo & (z - lo <= _PINNED)) or np.any(hi - z <= _PINNED)
    rho1, rho2, eps1_sq, eps2_sq = _noise(z)
    return FitResult(
        rho1=rho1,
        rho2=rho2,
        eps1_sq=eps1_sq,
        eps2_sq=eps2_sq,
        residual_rms=math.sqrt(best.fun / len(rows)),
        iterations=sum(res.nfev for res in runs) + polish.nfev,
        converged=bool(best.success and not pinned),
    )
