"""Gaussian states of optical modes and affine Gaussian channel maps.

Quadrature convention: each mode carries an amplitude quadrature
``x = a + a^dag`` and a phase quadrature ``p = i(a^dag - a)``, interleaved
as ``(x1, p1, x2, p2, ...)``.  The vacuum state has zero mean and identity
covariance, and ``[x, p] = 2i``, so the commutator (symplectic) form has
per-mode blocks ``[[0, 2], [-2, 0]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, ModeError, PhysicalityError

__all__ = [
    "GaussianState",
    "ElementMap",
    "QuadratureStats",
    "Vacuum",
    "Coherent",
    "Thermal",
    "symplectic_form",
    "make_state",
    "apply",
    "quadrature_stats",
    "wigner",
    "marginal",
]

_TWO_PI = 2.0 * math.pi


def symplectic_form(n_modes: int) -> np.ndarray:
    """Commutator matrix Omega, block-diagonal with [[0, 2], [-2, 0]] per mode."""
    omega = np.array([[0.0, 2.0], [-2.0, 0.0]])
    return np.kron(np.eye(n_modes), omega)


# Each preparation gives its mode's mean pair ``mode_mean`` and its quadrature
# ``variance`` (the same for x and p), which ``_prepare`` reads.  One with a
# range to check names the function as its ``check``, which ``__post_init__``
# runs on its typed values and the circuit-document parser on a document's.


@dataclass(frozen=True)
class Vacuum:
    """Vacuum preparation for one mode."""

    mode_mean = (0.0, 0.0)
    variance = 1.0


@dataclass(frozen=True)
class Coherent:
    """Coherent preparation with complex amplitude ``alpha``.

    The mode acquires mean quadratures ``(2 Re alpha, 2 Im alpha)`` and
    vacuum covariance.
    """

    alpha: complex
    variance = 1.0

    def __post_init__(self):
        alpha = complex(self.alpha)
        _check_finite(alpha.real, "coherent amplitude alpha (real part)")
        _check_finite(alpha.imag, "coherent amplitude alpha (imaginary part)")
        object.__setattr__(self, "alpha", alpha)

    @property
    def mode_mean(self) -> tuple[float, float]:
        return 2.0 * self.alpha.real, 2.0 * self.alpha.imag


def _thermal_check(variance: float):
    if variance < 1.0:
        raise PhysicalityError(f"thermal quadrature variance must be >= 1, got {variance}")


@dataclass(frozen=True)
class Thermal:
    """Thermal preparation with quadrature variance >= 1 (1 recovers vacuum)."""

    variance: float
    mode_mean = (0.0, 0.0)
    check = staticmethod(_thermal_check)

    def __post_init__(self):
        variance = _check_finite(self.variance, "thermal variance")
        _thermal_check(variance)
        object.__setattr__(self, "variance", variance)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean quadrature vector and covariance matrix of an n-mode Gaussian state.

    The covariance matrix is re-symmetrized on construction to suppress
    floating-point drift; physicality (``cov + i Omega/2 >= 0``) is not
    enforced here but can be queried with :meth:`physicality_margin`.
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if _check_index(self.n_modes, "n_modes") < 1:
            raise ValueError(f"n_modes must be a positive integer, got {self.n_modes}")
        object.__setattr__(self, "n_modes", int(self.n_modes))
        dim = 2 * self.n_modes
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        if mean.shape != (dim,):
            raise ValueError(f"mean must have length {dim}, got shape {np.shape(self.mean)}")
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (dim, dim):
            raise ValueError(f"cov must have shape ({dim}, {dim}), got {cov.shape}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @classmethod
    def vacuum(cls, n_modes: int) -> "GaussianState":
        return cls(n_modes, np.zeros(2 * n_modes), np.eye(2 * n_modes))

    def mode_mean(self, mode: int) -> np.ndarray:
        """Mean (x, p) of one mode."""
        _check_mode(mode, self.n_modes)
        return self.mean[2 * mode : 2 * mode + 2].copy()

    def mode_cov(self, mode: int) -> np.ndarray:
        """2x2 covariance block of one mode."""
        _check_mode(mode, self.n_modes)
        return self.cov[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2].copy()

    def physicality_margin(self) -> float:
        """Smallest eigenvalue of ``cov + i Omega/2``.

        Non-negative (up to rounding) for physical states; the vacuum
        saturates the bound at zero.
        """
        herm = self.cov + 0.5j * symplectic_form(self.n_modes)
        return float(np.linalg.eigvalsh(herm)[0])

    def is_physical(self, atol: float = 1e-9) -> bool:
        return self.physicality_margin() >= -atol


@dataclass(frozen=True, eq=False)
class ElementMap:
    """Affine Gaussian channel acting on an n-mode register.

    Applies ``mean -> S mean + d`` and ``cov -> S cov S^T + N``, with
    ``linear = S``, ``noise = N`` (symmetric, PSD) and ``displacement = d``.
    Lossless elements have ``N = 0`` and symplectic ``S``.
    """

    linear: np.ndarray
    noise: np.ndarray
    displacement: np.ndarray

    def __post_init__(self):
        linear = np.asarray(self.linear, dtype=float)
        if linear.ndim != 2 or linear.shape[0] != linear.shape[1] or linear.shape[0] % 2:
            raise ValueError(f"linear part must be a 2n x 2n matrix, got {linear.shape}")
        dim = linear.shape[0]
        noise = np.asarray(self.noise, dtype=float)
        if noise.shape != (dim, dim):
            raise ValueError(f"noise matrix must have shape ({dim}, {dim}), got {noise.shape}")
        displacement = np.asarray(self.displacement, dtype=float).reshape(-1)
        if displacement.shape != (dim,):
            raise ValueError(
                f"displacement must have length {dim}, got shape {np.shape(self.displacement)}"
            )
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "noise", 0.5 * (noise + noise.T))
        object.__setattr__(self, "displacement", displacement)

    @property
    def n_modes(self) -> int:
        return self.linear.shape[0] // 2

    @classmethod
    def identity(cls, n_modes: int) -> "ElementMap":
        dim = 2 * n_modes
        return cls(np.eye(dim), np.zeros((dim, dim)), np.zeros(dim))

    def then(self, other: "ElementMap") -> "ElementMap":
        """Map equal to applying ``self`` first and ``other`` second."""
        if other.n_modes != self.n_modes:
            raise ValueError("cannot compose maps of different mode counts")
        s = other.linear @ self.linear
        n = other.linear @ self.noise @ other.linear.T + other.noise
        d = other.linear @ self.displacement + other.displacement
        return ElementMap(s, n, d)

    def channel_margin(self) -> float:
        """Smallest eigenvalue of ``N + i(Omega - S Omega S^T)/2``.

        Non-negative (up to rounding) for completely positive Gaussian
        channels; exactly zero for lossless symplectic elements.
        """
        omega = symplectic_form(self.n_modes)
        herm = self.noise + 0.5j * (omega - self.linear @ omega @ self.linear.T)
        return float(np.linalg.eigvalsh(herm)[0])


def make_state(n_modes: int, inputs) -> GaussianState:
    """Build a product Gaussian state from per-mode preparations.

    Args:
        n_modes: number of optical modes.
        inputs: one preparation per mode, each a :class:`Vacuum`,
            :class:`Coherent`, or :class:`Thermal` instance.

    Returns:
        The corresponding product state.
    """
    state, weights = _prepare(n_modes, inputs)
    return GaussianState(n_modes, state[:, -1], np.diag(weights))


def _prepare(n_modes: int, inputs, noise: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The factored product of ``inputs``: ``[A | mean]`` and the column weights ``w``.

    ``A`` is the identity on the ``2 n_modes`` input columns followed by
    ``noise`` zero columns, the mean is the last column, and ``w`` holds
    each input quadrature's variance (1 on the noise columns), so the
    covariance ``A diag(w) A^T`` is the preparations' exactly.
    """
    preps = list(inputs)
    if len(preps) != n_modes:
        raise ValueError(f"expected {n_modes} preparations, got {len(preps)}")
    dim = 2 * n_modes
    width = dim + noise + 1
    state = np.zeros((dim, width))
    state.reshape(-1)[:: width + 1] = 1.0  # the diagonal: the identity on the input columns
    weights = np.ones(dim + noise)
    for k, prep in enumerate(preps):
        try:
            state[2 * k, -1], state[2 * k + 1, -1] = prep.mode_mean
            weights[2 * k] = weights[2 * k + 1] = prep.variance
        except AttributeError:
            raise TypeError(f"unknown preparation {prep!r} for mode {k}") from None
    return state, weights


def apply(state: GaussianState, element: ElementMap) -> GaussianState:
    """Propagate a state through one channel map."""
    if element.n_modes != state.n_modes:
        raise ValueError(
            f"dimension mismatch: map acts on {element.n_modes} modes, "
            f"state has {state.n_modes}"
        )
    mean = element.linear @ state.mean + element.displacement
    cov = element.linear @ state.cov @ element.linear.T + element.noise
    return GaussianState(state.n_modes, mean, cov)


@dataclass(frozen=True)
class QuadratureStats:
    """Homodyne mean and variance of ``X(theta)`` on one mode."""

    mean: float
    variance: float
    theta: float


def quadrature_stats(state: GaussianState, mode: int, theta: float = math.pi / 2) -> QuadratureStats:
    """Mean and variance of the rotated quadrature ``X(theta)`` on one mode.

    ``X(theta) = cos(theta) x + sin(theta) p``; ``theta = pi/2`` selects the
    phase quadrature.  The angle is reduced modulo ``2 pi`` before evaluation
    so that full turns map onto identical statistics.
    """
    _check_mode(mode, state.n_modes)
    theta = _check_finite(theta, "local-oscillator angle theta")
    mean, variance = _quadrature(state.mean, state.cov, mode, theta)
    return QuadratureStats(float(mean), float(variance), theta)


def _quadrature(mean, cov, mode: int, theta: float):
    """Mean and variance of ``X(theta)`` on ``mode``, over any leading batch axes."""
    reduced = math.remainder(theta, _TWO_PI)
    c, s = math.cos(reduced), math.sin(reduced)
    x, p = 2 * mode, 2 * mode + 1
    xp = cov[..., x, p] + cov[..., p, x]
    return (
        c * mean[..., x] + s * mean[..., p],
        c * c * cov[..., x, x] + c * s * xp + s * s * cov[..., p, p],
    )


def marginal(state: GaussianState, modes) -> GaussianState:
    """Restrict a state to the given modes, in the order given."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"marginal modes must be distinct, got {modes}")
    for m in modes:
        _check_mode(m, state.n_modes)
    idx = _quadrature_indices(modes)
    return GaussianState(len(modes), state.mean[idx], state.cov[np.ix_(idx, idx)])


def wigner(state: GaussianState, mode: int, x, p):
    """Wigner density of a single-mode marginal at phase-space point(s) (x, p).

    Accepts scalars or broadcastable arrays.  For a Gaussian state the
    density is ``exp(-(1/2) d^T Sigma^-1 d) / (2 pi sqrt(det Sigma))`` with
    ``d = (x, p) - mean`` and ``Sigma`` the 2x2 covariance block; it is
    normalized to unit integral over the plane.  A determinant past the
    float range raises :class:`InstabilityError`.
    """
    sub = marginal(state, [mode])
    sxx = sub.cov[0, 0]
    sxp = sub.cov[0, 1]
    spp = sub.cov[1, 1]
    try:
        with np.errstate(over="raise", invalid="raise"):
            det = sxx * spp - sxp * sxp
    except FloatingPointError:
        raise InstabilityError("Wigner density: the covariance determinant overflows") from None
    if det < 1e-300:
        raise PhysicalityError(
            "degenerate single-mode covariance: Wigner density is not defined"
        )
    dx = np.asarray(x, dtype=float) - sub.mean[0]
    dp = np.asarray(p, dtype=float) - sub.mean[1]
    quad = (spp * dx * dx - 2.0 * sxp * dx * dp + sxx * dp * dp) / det
    density = np.exp(-0.5 * quad) / (_TWO_PI * math.sqrt(det))
    if np.ndim(density) == 0:
        return float(density)
    return density


def _quadrature_indices(modes) -> np.ndarray:
    """Positions of the ``(x, p)`` pairs of ``modes`` in a quadrature vector."""
    return np.array([i for m in modes for i in (2 * m, 2 * m + 1)])


def _check_finite(value, name: str) -> float:
    """The value as a ``float``; ``ValueError`` naming ``name`` if NaN or infinite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _check_index(value, name: str = "mode index", error: type = ModeError) -> int:
    """The value as an ``int``; ``error`` naming ``name`` unless it is a Python
    or numpy integer (a bool is not).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_mode(mode: int, n_modes: int) -> int:
    """The mode index as an ``int``; :class:`ModeError` if not an integer or outside the register."""
    return _check_range(_check_index(mode), n_modes)


def _check_range(mode: int, n_modes: int) -> int:
    """An ``int`` mode index; :class:`ModeError` if outside the register."""
    if not 0 <= mode < n_modes:
        raise ModeError(f"mode {mode} out of range for {n_modes} modes")
    return mode
