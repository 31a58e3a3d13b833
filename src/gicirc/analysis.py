"""Figure-level computations: advantage maps, slope curves, Wigner panels, fits.

All decibel values use ``10 log10`` (power-like ratios).  Advantage maps
report the phase-variance ratio against the shot-noise-limited reference
(negative dB = better than the reference); ``snr_gain_db`` reports the same
comparison as a positive-is-better SNR ratio.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .circuits import _propagate
from .interferometers import (
    SqMziParams,
    TopologyParams,
    _build,
    _phase_excursion,
    _phase_variance,
    _topology,
    phase_variance_closed,
    sql_baseline,
)
from .states import GaussianState, wigner

__all__ = [
    "to_db",
    "from_db",
    "Axis",
    "SweepGrid",
    "LinearFit",
    "WignerPanel",
    "advantage_db",
    "snr_gain_db",
    "loss_plane",
    "slope_vs_theta",
    "wigner_panel",
    "fit_snr_vs_power",
]


def to_db(ratio: float) -> float:
    """Power-like ratio to decibels, ``10 log10(ratio)``."""
    return 10.0 * math.log10(ratio)


def from_db(db: float) -> float:
    """Decibels to a linear power-like ratio."""
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class Axis:
    """Named, inclusive linear sweep axis."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if int(self.count) < 2:
            raise ValueError(f"axis {self.name!r} needs at least 2 points, got {self.count}")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Row-major grid of values over (y_axis, x_axis)."""

    x_axis: Axis
    y_axis: Axis
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expected = (self.y_axis.count, self.x_axis.count)
        if values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class LinearFit:
    """Least-squares slope through the origin with residual RMS."""

    A: float
    residual_rms: float


def advantage_db(params: TopologyParams, baseline: SqMziParams | None = None) -> float:
    """Phase-variance ratio against the shot-noise baseline, in dB.

    Negative values mean the topology reads phase with less variance than
    the ``g = 0`` MZI at matched losses (see :func:`sql_baseline`).
    """
    if baseline is None:
        baseline = sql_baseline(params)
    return to_db(phase_variance_closed(params) / phase_variance_closed(baseline))


def snr_gain_db(params: TopologyParams, baseline: SqMziParams | None = None) -> float:
    """SNR ratio against the shot-noise baseline, in dB (positive = better)."""
    if baseline is None:
        baseline = sql_baseline(params)
    return to_db(phase_variance_closed(baseline) / phase_variance_closed(params))


def loss_plane(
    fixed: TopologyParams,
    internal_range: tuple[float, float] = (0.0, 0.9),
    external_range: tuple[float, float] = (0.0, 0.9),
    resolution: int | tuple[int, int] = 101,
    internal_target: str = "both",
) -> SweepGrid:
    """Quantum-advantage map over the (internal, external) loss plane.

    Rows sweep internal loss (``y`` axis), columns external loss (``x``
    axis); each cell is :func:`advantage_db` at those losses against the
    equal-loss baseline.  ``resolution`` is a point count shared by both
    axes or a ``(internal, external)`` pair.  For the nested topology,
    ``internal_target`` selects whether the internal sweep drives the
    signal arm, the idler arm, or (default) both together; the squeezed-light
    MZI has only ``"both"``.
    """
    for name, (lo, hi) in (("internal", internal_range), ("external", external_range)):
        if not (0.0 <= lo <= hi <= 0.99):
            raise ValueError(f"{name} loss range must satisfy 0 <= lo <= hi <= 0.99")
    ny, nx = resolution if isinstance(resolution, tuple) else (resolution, resolution)
    y = Axis("internal_loss", *internal_range, ny)
    x = Axis("external_loss", *external_range, nx)
    internal, external = y.values[:, None], x.values[None, :]
    topo = _topology(fixed)
    arms = topo.internal.get(internal_target)
    if arms is None:
        raise ValueError(f"unknown internal loss target {internal_target!r}")
    losses = dict.fromkeys(arms, internal) | {"L_e": external}
    baseline = {field: losses.get(own, getattr(fixed, own).L) for field, own in topo.baseline.items()}
    ratio = _phase_variance(fixed, **losses) / _phase_variance(sql_baseline(fixed), **baseline)
    # to_db per cell: numpy's vectorized log10 may differ from math.log10 in
    # the last bit, which would move a CSV cell sitting on a rounding edge.
    values = np.array([to_db(r) for r in ratio.ravel().tolist()]).reshape(ratio.shape)
    return SweepGrid(x_axis=x, y_axis=y, values=values)


def slope_vs_theta(params: TopologyParams, theta_grid, dphi: float = 1e-3) -> np.ndarray:
    """Signal slope ``d<X(theta)>/dphi`` on the detected mode at each angle.

    Uses the symmetric finite difference of the detected-mode mean at the
    phase set point ``+/- dphi``.  For lossless parameters the magnitude
    peaks on the phase quadrature and vanishes a quarter turn away.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    topo, spec = _build(params)
    mean, _ = _phase_excursion(spec, topo.phase, dphi)
    diff = mean[0, 1] - mean[0, 2]
    dx = diff[2 * spec.detect.mode] / (2.0 * dphi)
    dp = diff[2 * spec.detect.mode + 1] / (2.0 * dphi)
    return np.cos(thetas) * dx + np.sin(thetas) * dp


@dataclass(frozen=True, eq=False)
class WignerPanel:
    """Stack of detected-mode Wigner densities over (phi, L_e) settings.

    ``density[i, j]`` is the grid for ``phi_values[i]`` and
    ``L_e_values[j]``, indexed ``[ix, ip]`` along the ``x`` and ``p``
    coordinate vectors.
    """

    phi_values: np.ndarray
    L_e_values: np.ndarray
    x: np.ndarray
    p: np.ndarray
    density: np.ndarray


def wigner_panel(params: TopologyParams, phi_values, L_e_values, x, p) -> WignerPanel:
    """Detected-mode Wigner densities for each (phase, external loss) setting.

    Settings are checked as the parameters check them, then run as the
    phase-major rows of one batched propagation of the topology's circuit.
    """
    phis = np.asarray(phi_values, dtype=float)
    les = np.asarray(L_e_values, dtype=float)
    xs = np.asarray(x, dtype=float)
    ps = np.asarray(p, dtype=float)
    topo, spec = _build(params)
    for phi, le in itertools.product(phis, les):
        replace(replace(params, **{topo.phase_field: phi}), L_e=le)
    vary = {topo.phase: {"phi": np.repeat(phis, les.size)}}
    vary |= {i: {"L": np.tile(les, phis.size)} for i in topo.external}
    mean, cov = _propagate(spec, vary)
    density = np.empty((phis.size, les.size, xs.size, ps.size))
    for row, (i, j) in enumerate(np.ndindex(phis.size, les.size)):
        state = GaussianState(spec.n_modes, mean[row], cov[row])
        density[i, j] = wigner(state, spec.detect.mode, xs[:, None], ps[None, :])
    return WignerPanel(phis, les, xs, ps, density)


def fit_snr_vs_power(points) -> LinearFit:
    """Least-squares fit of ``snr = A * power`` through the origin.

    Args:
        points: iterable of ``(power, snr)`` pairs with power > 0; at least
            two points are required.

    Returns:
        The slope ``A = sum(x y) / sum(x^2)`` and the residual RMS.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points to fit a slope, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.any(x <= 0.0):
        raise ValueError("powers must be positive")
    slope = float(np.dot(x, y) / np.dot(x, x))
    residual = y - slope * x
    return LinearFit(A=slope, residual_rms=float(np.sqrt(np.mean(residual**2))))
