"""Advantage-versus-noise-gain curves and noise-model parameter fitting.

The model ties the lossy-amplifier parameters ``(rho, epsilon2)`` of each
amplifier to observable quantum noise gains: for a target QNG the gain
``kappa`` is recovered by inversion, the nested interferometer is run with
both lossy amplifiers, and its SNR is divided by the equal-loss ``g = 0``
MZI SNR at the same input power.  The nested circuit's backward readout
(:class:`~gicirc.circuits._Adjoint`) is compiled once per curve or fit,
with the signal phase at its three excursion values: the elements after the
downstream amplifier are walked once, and those between the amplifiers
folded into one matrix, so a pass applies only the amplifiers' blocks per
row and reads each row's means and variances at all three phases.  Fitting
minimizes the sum of squared dB residuals of that advantage by projected
Levenberg-Marquardt searches in a log10 box from seeded random starts, with
a forward-difference Jacobian: one engine pass scores the trial points and
probes of all live searches.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, NoSolutionError
from .circuits import _Adjoint
from .interferometers import (
    SisniParams,
    _amplitude,
    _build,
    _excursion,
    _excursion_readout,
    _guard,
    _judge,
    _require_bright,
    sql_baseline,
)
from .noise_model import NoisyPaParams, _check_qng, _check_real, _linear_targets, _pa_blocks, _refuse, _solve_kappa

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
_PINNED = 1e-6  # log10 distance from a box edge within which the optimum is pinned to it
_UNSET = NoisyPaParams(0.0, 0.0)  # the circuit's amplifier fields, which every row sets
_TINY = np.finfo(float).tiny  # a smaller SNR has lost the precision a ratio of SNRs needs


@dataclass(frozen=True)
class FitResult:
    """Best-fit noise parameters with residual and convergence metadata.

    ``residual_rms`` is the root-mean-square of the (sigma-weighted) dB
    residuals at the optimum; ``iterations`` counts the points the searches
    scored, across all restarts.  ``converged`` is false when the search
    that found the optimum spent its budget before a stop test was met, or
    the optimum sits within ``1e-6`` (in log10 search coordinates) of a
    bound of the box other than the physical limits ``rho = 0`` and
    ``eps2 = 1``.
    """

    rho1: float
    rho2: float
    eps1_sq: float
    eps2_sq: float
    residual_rms: float
    iterations: int
    converged: bool


def _reals(values, count: int, refusal: str) -> tuple:
    """``values`` as a tuple of ``count`` real numbers (not bools or strings); ``ValueError(refusal)`` otherwise."""
    try:
        reals = tuple(values)
    except TypeError:
        reals = ()
    if len(reals) != count or any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in reals):
        raise ValueError(refusal)
    return reals


def _nested(losses, alpha2: float, dphi: float):
    """Check the fixed inputs, run the SQL baseline and compile the nested circuit's readout, once per call.

    Returns the baseline's SNR and ``(topo, spec, adjoint, inputs)``: the
    nested circuit with placeholder amplifier fields, its backward readout
    (a :class:`~gicirc.circuits._Adjoint` over the two amplifiers and the
    signal phase's excursion), which each row of :func:`_nested_snr` runs
    with its own amplifier fields, and ``inputs``, which a refusal names.
    """
    l_is, l_ii, l_e = _reals(losses, 3, f"losses must be three real numbers (L_is, L_ii, L_e), got {losses!r}")
    _check_real(alpha2, "bright-port photon number alpha2")
    _check_real(dphi, "phase excursion dphi")
    params = SisniParams(alpha=_amplitude(alpha2), L_is=l_is, L_ii=l_ii, L_e=l_e)
    _require_bright(params)
    inputs = f"alpha2 = {float(alpha2)!r}, dphi = {float(dphi)!r}"
    with _guard("SQL baseline", inputs):
        mzi, baseline = _build(sql_baseline(params))
        base = _excursion_readout(mzi, baseline, dphi, baseline.detect.mode, _TINY)[2]
    topo, spec = _build(params, _UNSET, _UNSET)
    return base, (topo, spec, _Adjoint(_excursion(spec, topo.phase, dphi), topo.amplifiers), inputs)


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
    solution = _solve_kappa(_linear_targets(qngs), rho, eps2)
    for amp, noise in enumerate((noise1, noise2)):
        _refuse(qngs[amp], *noise, *(mask[amp] for mask in solution[1:4]))
    return _nested_snr(nested, eps2, solution.coupling, solution.stretch)


def _nested_snr(nested, epsilon2, coupling, stretch) -> np.ndarray:
    """SNR of the circuit from :func:`_nested` with its amplifiers set to solved rows, in one backward pass.

    Each argument holds both amplifiers' values on its first axis, the
    upstream one first, and broadcasts to the rows on the others:
    ``epsilon2``, and the four coupling factors and ``G_bar + g_bar`` that
    :func:`~gicirc.noise_model._solve_kappa` formed (refused rows left
    out).  Both amplifiers' blocks come from the coupling factors in one
    :func:`~gicirc.noise_model._pa_blocks`, and the precision bound's
    product over the circuit's amplifiers, which are these two, from
    ``stretch``.  So the pass forms no term of the amplifiers again.  The
    compiled readout carries the detected row back through the blocks and
    the folded runs between them, and the readout is judged as every
    excursion readout is (see :func:`~gicirc.interferometers._judge`), with
    refusals that name the inputs.
    """
    topo, _, adjoint, inputs = nested
    with _guard("noise model", inputs):
        linear, auxiliary = _pa_blocks(coupling)
        blocks = {i: (linear[amp], (epsilon2[amp], auxiliary[amp])) for amp, i in enumerate(topo.amplifiers)}
        means, cov = adjoint.run(blocks)
        return _judge(means[..., 1, 0], means[..., 2, 0], cov[..., 0, 0, 0], stretch[0] * stretch[1], _TINY)[2]


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
    _check_real(qng1_db, "upstream quantum noise gain qng1_db")
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
    or empty sigmas default to 1).  ``source`` is a path, read as UTF-8 with
    or without a byte-order mark, or a text file-like object.  A row with
    more cells than the header, without one of the three required cells, or
    with a cell that is not a number raises ``ValueError`` naming its line.
    """
    if hasattr(source, "read"):
        text = source.read().removeprefix("\ufeff")
    else:
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    reader = csv.DictReader(io.StringIO(text))
    columns = ("qng1_db", "qng2_db", "advantage_db")
    if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
        raise ValueError(
            f"fit data needs columns {sorted(columns)} (optional sigma_db); "
            f"got {reader.fieldnames}"
        )
    rows = []
    for rec in reader:
        line = f"fit data line {reader.line_num}"
        if None in rec:  # DictReader's key for the cells past the header's
            width = len(reader.fieldnames)
            raise ValueError(f"{line}: {width + len(rec[None])} cells, but the header has {width}")
        values = []
        for name, cell in [(name, rec[name]) for name in columns] + [("sigma_db", rec.get("sigma_db") or "1")]:
            if cell is None:  # DictReader's value for the cells a short row lacks
                raise ValueError(f"{line}: no {name} cell")
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(f"{line}: {name} {cell!r} is not a number") from None
        rows.append(tuple(values))
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
    """``[rho1, rho2, eps1_sq, eps2_sq]`` at a point ``z`` (an array) of the log10 search coordinates."""
    # One C pow a value, over Python floats: a numpy scalar's power calls the
    # same pow with the same bits, at a higher cost a value.  Not one
    # 10.0 ** z over the array: numpy's SIMD power differs from pow by 1 ULP
    # for 5.3 % of 200,000 exponents drawn from [-8, 4] (numpy 2.4.6 on an
    # AVX-512 host), which would move the fit's bits.
    return [10.0**v for v in z.tolist()]


class _Objective:
    """The fit's objective: the sigma-weighted dB residuals of the advantage, and their sum of squares.

    :meth:`residuals` scores many points of the log10 search coordinates in
    one pass, each with the bits of its own evaluation (:meth:`residual`).
    A point for which some data row's QNG is out of reach, or whose readout
    is refused, is infeasible: its row is NaN and its sum of squares
    infinite.  The data's linear targets are formed once per fit.
    """

    def __init__(self, rows, losses, alpha2: float, dphi: float):
        self.base, self.nested = _nested(losses, alpha2, dphi)
        self.qng1, self.qng2, self.measured, self.sigma = np.array(rows).T
        for qng in (self.qng1, self.qng2):  # refuse bad QNG data as a first evaluation would
            _check_qng(qng)
        # (amplifier, 1, data row), broadcast against each pass's (amplifier, point, 1) noise parameters
        self.targets = _linear_targets(np.stack([self.qng1, self.qng2])[:, None, :])

    def snr(self, z) -> np.ndarray:
        """The nested SNR of each data row at ``z``; raises where :func:`_sisni_snr` does."""
        rho1, rho2, eps1, eps2 = _noise(z)
        return _sisni_snr(self.qng1, self.qng2, self.nested, (rho1, eps1), (rho2, eps2))

    def _weighted(self, snr) -> np.ndarray:
        return (10.0 * np.log10(snr / self.base) - self.measured) / self.sigma

    def residual(self, z) -> np.ndarray:
        """The residuals at one point ``z``, NaN where it is infeasible."""
        try:
            return self._weighted(self.snr(z))
        except (NoSolutionError, InstabilityError):
            return np.full(len(self.measured), np.nan)

    def __call__(self, z) -> float:
        return _costs(self.residual(z)[None])[0]

    def residuals(self, points) -> np.ndarray:
        """The residuals of each row of ``points``, one row each: every point whose QNGs are in reach runs in one engine pass.

        A point with a refused :func:`_solve_kappa` row is NaN without the
        engine; a pass that the engine refuses as a whole is run again point
        by point.
        """
        noise = np.array([_noise(z) for z in points]).T[:, :, None]
        eps2 = noise[2:]
        solution = _solve_kappa(self.targets, noise[:2], eps2)
        feasible = ~(solution.unreachable | solution.at_pole | solution.overflow).any(axis=(0, 2))
        rows = np.full((len(points), len(self.measured)), np.nan)
        if not feasible.any():
            return rows
        coupling, stretch = solution.coupling, solution.stretch
        if not feasible.all():
            eps2, stretch, coupling = eps2[:, feasible], stretch[:, feasible], [v[:, feasible] for v in coupling]
        try:
            rows[feasible] = self._weighted(_nested_snr(self.nested, eps2, coupling, stretch))
        except (NoSolutionError, InstabilityError):
            rows[feasible] = [self.residual(z) for z in points[feasible]]
        return rows

    def batch(self, points) -> list[float]:
        """The sum of squares of each row of ``points``, from one :meth:`residuals` pass."""
        return _costs(self.residuals(points)).tolist()


def _costs(rows) -> np.ndarray:
    """Each residual row's sum of squares, infinite for an infeasible (NaN) row."""
    costs = np.einsum("ij,ij->i", rows, rows)
    return np.where(np.isnan(costs), np.inf, costs)


def _evaluated(z, value) -> None:
    """Called with each point a search scores and its sum of squares; a hook for counting from outside."""


_PROBE = 2.0**-26  # a forward-difference probe's step, relative to max(1, |z|)
_RUNGS = 4  # points of the ladder that moves an infeasible start toward the rho floor
_FTOL, _XTOL, _GTOL = 1e-12, 1e-10, 1e-10  # Moré's stop tests, see _Search._judge and _Search._step


class _Search:
    """One projected Levenberg-Marquardt search in the log10 box, advanced one batched pass at a time.

    Moré's iteration (*LNM* 630, 1978): a trust region scaled by the
    running maximum of the Jacobian's column norms, its radius updated from
    the ratio of actual to predicted reduction.  The step leaves out the
    coordinates that the gradient holds at a bound and is clipped into the
    box (Kanzow, Yamashita & Fukushima, *J. Comput. Appl. Math.* 172, 375
    (2004)).  The scaled gram of the free coordinates is decomposed once
    per accepted point (:func:`_decompose`, kept in ``model``): that one
    eigendecomposition serves every damping value of the step and every
    retry after a rejected one, which moves only the radius.  ``points``
    holds what the next pass scores (``None`` once the search has ended):
    each proposed point and its 4 forward-difference probes.  A trial point
    that is infeasible, or has an infeasible probe, is a rejected step; such
    a start is replaced by the first good point of a ladder toward the rho
    floor, where every ``kappa = 0`` floor is lowest.  A clipped step whose
    model predicts no reduction is rejected in :meth:`_step`, before it is
    scored: it spends no budget, and ``iterations`` still counts every
    point scored.  ``best`` is the proposed point of least sum of squares,
    ``(cost, z)`` (``(inf, None)`` while none was feasible), and ``met``
    tells whether a stop test ended the search.
    """

    def __init__(self, z0, lo, hi, budget: int):
        self.lo, self.hi, self.left = lo.tolist(), hi.tolist(), budget
        self.best, self.met, self.z, self.model = (math.inf, None), False, None, None
        rungs = z0 + np.arange(1, _RUNGS + 1)[:, None] / _RUNGS * np.array([1.0, 1.0, 0.0, 0.0]) * (lo - z0)
        self.rungs = rungs.tolist()
        self._propose([z0.tolist()])

    def _propose(self, candidates) -> None:
        """Ask for each candidate (a list of floats) and its probes, each coordinate stepped toward the feasible corner where the box allows."""
        points = []
        for z in candidates:
            points.append(z)
            for i, (v, lo) in enumerate(zip(z, self.lo)):
                step = _PROBE * max(1.0, abs(v))
                probe = z.copy()
                probe[i] = v - step if v - step >= lo else v + step
                points.append(probe)
        self.points = points[: self.left]
        self.left -= len(self.points)

    def take(self, points, rows, costs: list) -> None:
        """Read the scored :attr:`points` (an array), their residual rows and sums of squares (a list), and propose the next points."""
        self.points = None
        firsts = range(0, len(points), 5)
        if costs[k := min(firsts, key=costs.__getitem__)] < self.best[0]:
            self.best = (costs[k], points[k])
        # 5 finite costs: a group that the budget cut short is not whole
        whole = next((k for k in firsts if sum(cost < math.inf for cost in costs[k : k + 5]) == 5), None)
        if self.z is not None:
            self._judge(points, rows, costs[0], whole is not None)
        elif whole is not None:
            self._accept(points[whole : whole + 5], rows[whole : whole + 5], costs[whole])
        elif self.rungs is not None and self.left:
            rungs, self.rungs = self.rungs, None
            return self._propose(rungs)
        if self.z is not None and self.left and not self.met:
            self._step()

    def _accept(self, points, rows, cost: float) -> None:
        """Move to ``points[0]``, with the Jacobian from its probes, ``points[1:]``."""
        z, r = points[0], rows[0]
        jac = (rows[1:] - r).T / (points[1:].diagonal() - z)  # probe i moves coordinate i alone
        norms = np.sqrt(np.einsum("ij,ij->j", jac, jac))
        first = self.z is None
        self.scale = np.maximum(np.where(norms > 0.0, norms, 1.0) if first else self.scale, norms)
        self.size = math.hypot(*(self.scale * z).tolist())  # |D z|, for the step-length stop
        if first:
            self.radius = self.size or 1.0
        self.z, self.r, self.jac, self.norms, self.cost, self.model = z, r, jac, norms.tolist(), cost, None

    def _judge(self, points, rows, cost: float, whole: bool) -> None:
        """Accept the trial point if it lowers the sum of squares enough, update the radius and test for a stop."""
        actual = self.cost - cost if whole else -math.inf
        ratio = actual / self.predicted if self.predicted > 0.0 else -math.inf
        if ratio < 0.25:
            self.radius = 0.25 * self.norm
        elif ratio > 0.75 and self.norm >= 0.95 * self.radius:
            self.radius *= 2.0
        self.met = self.norm < _XTOL * (_XTOL + self.size) or (ratio > 0.25 and actual < _FTOL * self.cost)
        if ratio >= 1e-4:
            self._accept(points, rows, cost)

    def _step(self) -> None:
        """Propose the next trial point from the trust region, or stop where the gradient vanishes.

        A trial point whose clipped step the model predicts cannot lower the
        sum of squares is rejected here, as :meth:`_judge` would reject it
        after a pass, and the step is tried again from the smaller radius.
        Each retry at least halves the radius, so the step-length stop ends
        the retries.
        """
        z, r, jac = self.z, self.r, self.jac
        at = z.tolist()
        if self.model is None:  # the first step from this point
            grad = (jac.T @ r).tolist()
            free = [
                not (x <= lo and g > 0.0 or x >= hi and g < 0.0) for x, lo, hi, g in zip(at, self.lo, self.hi, grad)
            ]
            root = math.sqrt(self.cost)
            if not any(f and abs(g) > _GTOL * n * root for f, g, n in zip(free, grad, self.norms)):
                self.met = True
                return
            free = slice(None) if all(free) else np.array(free)
            scale = self.scale[free]
            scaled = jac[:, free] / scale
            self.model = free, scale, _decompose(scaled.T @ scaled, scaled.T @ r)
        free, scale, decomposition = self.model
        while True:
            step = np.zeros(4)
            step[free] = _trust_step(decomposition, self.radius) / scale
            trial = [min(max(x + d, lo), hi) for x, d, lo, hi in zip(at, step.tolist(), self.lo, self.hi)]
            taken = np.array(trial) - z
            moved = jac @ taken
            self.predicted = -(2.0 * (r @ moved) + moved @ moved)
            self.norm = math.hypot(*(self.scale * taken).tolist())
            # A step that overran its region (Newton's iteration overflowed, or
            # the step is NaN) would not shrink the radius: it is scored and
            # judged, so the budget still ends a search that repeats it.
            if self.predicted > 0.0 or not self.norm <= 2.0 * self.radius:
                return self._propose([trial])
            self.radius = 0.25 * self.norm
            if self.norm < _XTOL * (_XTOL + self.size):
                self.met = True
                return


def _decompose(gram, grad) -> tuple:
    """``gram = JᵀJ = V diag(s) Vᵀ`` and ``grad = Jᵀr`` as :func:`_trust_step` reads them: ``(s, V, c = Vᵀ(-grad))``.

    ``s`` (ascending) and ``c`` are lists of Python floats: a damping
    value's sums run over at most 4 terms, which cost less in floats than
    in numpy calls.  A zero column of ``J`` is left out of the
    decomposition, so its coordinate's step is 0: ``eigh`` can give its
    null direction a rounding-sized eigenvalue, and ``c / s`` would then
    put an arbitrary step there.
    """
    live = gram.diagonal() > 0.0
    if live.all():
        s, vectors = np.linalg.eigh(gram)
    else:
        s, part = np.linalg.eigh(gram[np.ix_(live, live)])
        vectors = np.zeros((len(live), len(s)))
        vectors[live] = part
    return s.tolist(), vectors, (-grad @ vectors).tolist()


def _trust_step(decomposition, radius: float) -> np.ndarray:
    """The step ``p`` minimizing ``|r + J p|`` within ``|p| <= radius``, from :func:`_decompose`'s ``(s, V, c)``.

    The Gauss-Newton step ``V (c / s)`` if the region holds it, else ``p(λ)
    = V (c / (s + λ))``, the solution of ``(JᵀJ + λ I) p = -Jᵀr``, with the
    ``λ`` that puts ``p`` on the region's edge (within 10 %), by Moré's
    Newton iteration on ``1/|p(λ)|``: ``|p|² = Σ cᵢ²/(sᵢ+λ)²`` and the
    derivative's ``|q|² = Σ cᵢ²/(sᵢ+λ)³``.  Each ``λ`` costs a few float
    sums, with no factor: the eigenvectors are orthonormal, so ``|p|`` is
    the length of ``c / (s + λ)``.  A singular gram (an eigenvalue ``<= 0``)
    starts from ``λ = 1e-12`` times its trace.
    """
    s, vectors, c = decomposition
    damping, coefficients = 0.0, [0.0] * len(s)
    for _ in range(10):
        if s[0] + damping <= 0.0:  # a singular gram: start from a small damping
            damping = 10.0 * damping if damping else 1e-12 * sum(s)
            continue
        coefficients = [ci / (si + damping) for si, ci in zip(s, c)]
        length = math.hypot(*coefficients)
        if length <= radius * (1.1 if damping else 1.0):
            break
        # |q|²/|p|², formed from the unit coefficients so that no square overflows
        curvature = sum((x / length) ** 2 / (si + damping) for si, x in zip(s, coefficients))
        damping += (length - radius) / (curvature * radius)
    return vectors @ coefficients


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
    :func:`advantage_vs_qng` with projected Levenberg-Marquardt searches
    (:class:`_Search`) from ``restarts`` seeded random points in log10
    coordinates, run side by side.  Deterministic for a fixed seed.  When
    no search finds a point where every data point's QNG is in reach and
    the readout holds, :class:`NoSolutionError` quotes the first start's
    refusal.

    Args:
        data: rows ``(qng1_db, qng2_db, advantage_db[, sigma_db])``; at
            least 4 points spanning at least 2 distinct qng2 values.
        losses: fixed ``(L_is, L_ii, L_e)``.
        bounds: ``((rho_lo, rho_hi), (eps2_lo, eps2_hi))`` box, shared by
            both amplifiers.
        seed: RNG seed for the restart points, a non-negative integer.
        restarts: number of random starts.
        max_evals: budget of scored points per start.
    """
    rows = _normalize_data(data)
    try:
        (rho_lo, rho_hi), (eps_lo, eps_hi) = bounds
        _reals((rho_lo, rho_hi, eps_lo, eps_hi), 4, "")
        usable = 0.0 <= rho_lo < rho_hi < math.inf and 1.0 <= eps_lo < eps_hi < math.inf
    except (TypeError, ValueError):
        usable = False
    if not usable:
        raise ValueError(f"unusable bounds {bounds!r}: need finite 0 <= rho_lo < rho_hi and 1 <= eps2_lo < eps2_hi")
    for name, value in (("restarts", restarts), ("max_evals", max_evals)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    lo, hi = np.log10([[max(rho_lo, _RHO_FLOOR)] * 2 + [eps_lo] * 2, [rho_hi] * 2 + [eps_hi] * 2])

    objective = _Objective(rows, losses, alpha2, dphi)
    starts = np.random.default_rng(seed).uniform(lo, hi, size=(restarts, 4))
    searches = [_Search(z0, lo, hi, max_evals) for z0 in starts]
    while live := [search for search in searches if search.points is not None]:
        points = np.array([z for search in live for z in search.points])
        costs = _costs(residuals := objective.residuals(points)).tolist()
        for z, cost in zip(points, costs):
            _evaluated(z, cost)
        start = 0
        for search in live:
            end = start + len(search.points)
            search.take(points[start:end], residuals[start:end], costs[start:end])
            start = end
    found = [search for search in searches if search.best[0] < math.inf]
    if not found:
        try:
            objective.snr(starts[0])
        except (NoSolutionError, InstabilityError) as exc:
            raise NoSolutionError(f"the noise-model fit ends at a refused point: {exc}") from exc
        raise InstabilityError(
            "the noise-model fit's weighted residuals overflow at every scored point: "
            f"the smallest sigma_db is {min(row[3] for row in rows)!r}"
        )
    best = min(found, key=lambda search: search.best[0])  # the first of equal minima
    cost, z = best.best
    # rho = 0 (stood in for by the floor) and eps2 = 1 are physical limits
    # where the true minimum can lie, as it does for noise-free data; a point
    # on any other edge of the box is held there by the box, not the data.
    box_lo = np.array([rho_lo > 0.0] * 2 + [eps_lo > 1.0] * 2)
    pinned = np.any(box_lo & (z - lo <= _PINNED)) or np.any(hi - z <= _PINNED)
    return FitResult(
        *_noise(z),  # rho1, rho2, eps1_sq, eps2_sq
        residual_rms=math.sqrt(cost / len(rows)),
        iterations=sum(max_evals - search.left for search in searches),
        converged=bool(best.met and not pinned),
    )
