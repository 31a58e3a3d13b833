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

from .circuits import _amplification, _walk, simulate
from .errors import InstabilityError
from .interferometers import (
    TopologyParams,
    _build,
    _excursion,
    _guard,
    _phase_terms,
    _precise,
    _topology,
    phase_variance_closed,
    sql_baseline,
)
from .states import _check_index, _prepare, wigner

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
    """Power-like ratio to decibels, ``10 log10(ratio)``; ``ValueError`` unless ``ratio > 0``.

    Every dB value here goes through numpy's log10, which gives a float and an
    array cell the same bits.
    """
    if not ratio > 0.0:
        raise ValueError(f"a ratio in decibels must be > 0, got {ratio}")
    return float(10.0 * np.log10(ratio))


def from_db(db: float) -> float:
    """Decibels to a linear power-like ratio, element-wise on an array; a ratio beyond the float range is refused."""
    try:
        with np.errstate(over="raise"):
            return 10.0 ** (db / 10.0)
    except (OverflowError, FloatingPointError):
        raise ValueError(f"{db} dB is beyond the float range") from None


@dataclass(frozen=True)
class Axis:
    """Named, inclusive linear sweep axis."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if _check_index(self.count, f"axis {self.name!r} point count", ValueError) < 2:
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


def _finite(values, name: str) -> np.ndarray:
    """``values`` as a float array; ``ValueError`` naming ``name`` if one is NaN or infinite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got {values}")
    return values


def advantage_db(params: TopologyParams) -> float:
    """Phase-variance ratio against the shot-noise baseline, in dB.

    Negative values mean the topology reads phase with less variance than
    the ``g = 0`` MZI at matched losses (see :func:`sql_baseline`).
    """
    return to_db(phase_variance_closed(params) / phase_variance_closed(sql_baseline(params)))


def snr_gain_db(params: TopologyParams) -> float:
    """SNR ratio against the shot-noise baseline, in dB (positive = better)."""
    variance = phase_variance_closed(params)  # first, so an error names the topology's gains
    return to_db(phase_variance_closed(sql_baseline(params)) / variance)


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
    with _guard("closed form", fixed):
        ratio = _phase_terms(fixed, **losses)[3] / _phase_terms(sql_baseline(fixed), **baseline)[3]
    return SweepGrid(x_axis=x, y_axis=y, values=10.0 * np.log10(ratio))


def slope_vs_theta(params: TopologyParams, theta_grid, dphi: float = 1e-3) -> np.ndarray:
    """Signal slope ``d<X(theta)>/dphi`` on the detected mode at each angle.

    Uses the symmetric finite difference of the detected-mode mean at the
    phase set point ``+/- dphi``, read backward from the mode's ``x`` and
    ``p`` rows; no variance is formed.  For lossless parameters the
    magnitude peaks on the phase quadrature and vanishes a quarter turn away.
    """
    thetas = _finite(theta_grid, "local-oscillator angles theta")
    with _guard("engine", params):
        topo, spec = _build(params)
        mode = spec.detect.mode
        rows = np.eye(2 * spec.n_modes)[2 * mode : 2 * mode + 2]
        walked = _walk(_excursion(spec, topo.phase, dphi), reversed(range(len(spec.elements))), rows)[0]
        means = walked @ _prepare(spec.n_modes, spec.inputs)[0]
        dx, dp = (means[1] - means[2]) / (2.0 * dphi)
        slope = np.cos(thetas) * dx + np.sin(thetas) * dp
        _precise(_amplification(spec))
    return slope


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

    Every setting's parameters are checked first, as the parameters check
    them; then each setting's circuit gives its output state
    (:func:`~gicirc.circuits.simulate`), and its detected mode the density.
    """
    phis = np.asarray(phi_values, dtype=float)
    les = np.asarray(L_e_values, dtype=float)
    xs = _finite(x, "Wigner coordinates x")
    ps = _finite(p, "Wigner coordinates p")
    topo, spec = _build(params)
    settings = [replace(replace(params, **{topo.phase_field: phi}), L_e=le) for phi, le in itertools.product(phis, les)]
    with _guard("engine", params):
        density = np.empty((phis.size, les.size, xs.size, ps.size))
        for (i, j), setting in zip(np.ndindex(phis.size, les.size), settings):
            setting_spec = _build(setting)[1]
            density[i, j] = wigner(simulate(setting_spec), setting_spec.detect.mode, xs[:, None], ps[None, :])
        _precise(_amplification(spec))
    return WignerPanel(phis, les, xs, ps, density)


def fit_snr_vs_power(points) -> LinearFit:
    """Least-squares fit of ``snr = A * power`` through the origin.

    Args:
        points: iterable of finite ``(power, snr)`` pairs with power > 0;
            at least two points are required.

    Returns:
        The slope ``A = sum(x y) / sum(x^2)`` and the residual RMS.

    Raises:
        InstabilityError: the slope or the residual RMS leaves the float range.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points to fit a slope, got {len(pts)}")
    for i, pt in enumerate(pts):
        if not (math.isfinite(pt[0]) and math.isfinite(pt[1])):
            raise ValueError(f"point {i} (power, snr) = {pt} must be finite")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.any(x <= 0.0):
        raise ValueError("powers must be positive")
    # Scaled by powers of two, which is exact, the sums stay in the float
    # range, and in-range points keep every bit of the unscaled fit.
    ex, ey = (math.frexp(float(np.max(np.abs(v))))[1] for v in (x, y))
    x, y = np.ldexp(x, -ex), np.ldexp(y, -ey)
    slope = float(np.dot(x, y) / np.dot(x, x))
    rms = float(np.sqrt(np.mean((y - slope * x) ** 2)))
    try:
        return LinearFit(A=math.ldexp(slope, ey - ex), residual_rms=math.ldexp(rms, ey))
    except OverflowError:
        raise InstabilityError(
            f"the fitted slope ({slope!r} * 2**{ey - ex}) or residual RMS ({rms!r} * 2**{ey}) leaves the float range"
        ) from None
