"""Lossy parametric amplifier with thermal auxiliary inputs.

The amplifier couples its two signal modes with factors ``(G_bar, g_bar)``
and leaks in two auxiliary modes with factors ``(G_bar_prime, g_bar_prime)``:

    c = G_bar b + g_bar a^dag + G_bar_prime b0 + g_bar_prime a0^dag
    d = G_bar a + g_bar b^dag + G_bar_prime a0 + g_bar_prime b0^dag

Loss and gain are parametrized by ``rho >= 0`` and ``kappa >= 0`` through

    G_bar = [(1 - rho^2)/4 + kappa^2] / M        g_bar = kappa / M
    G_bar_prime = sqrt(rho) (1 + rho) / (2 M)    g_bar_prime = kappa sqrt(rho) / M

with ``M = (1 + rho)^2/4 - kappa^2 > 0`` (stability).  The auxiliaries are
thermal with quadrature variance ``epsilon2 >= 1``; tracing them out yields
an affine Gaussian channel whose added noise grows with both ``rho`` and
``epsilon2``.  Commutator preservation fixes
``G_bar^2 - g_bar^2 + G_bar_prime^2 - g_bar_prime^2 = 1`` identically, and
``rho = 0`` recovers an ideal (noiseless) amplifier.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InstabilityError, NoSolutionError, PhysicalityError
from .states import ElementMap, _check_finite
from .elements import _check_distinct, _check_pair, element_map, pair_coupling

__all__ = [
    "NoisyPaParams",
    "CouplingFactors",
    "coupling_factors",
    "NoisyPaElement",
    "noisy_pa",
    "quantum_noise_gain",
    "kappa_from_qng",
]


def _finite_params(rho, kappa, epsilon2) -> tuple[float, float, float]:
    """The amplifier's values as floats; ``ValueError`` naming the field unless each is one finite real number (a bool or a string is not)."""
    fields = ((rho, "loss parameter rho"), (kappa, "gain parameter kappa"), (epsilon2, "auxiliary thermal variance epsilon2"))
    for value, name in fields:
        _check_real(value, name)
    return tuple(_check_finite(value, name) for value, name in fields)


def _check_params(rho: float, kappa: float, epsilon2: float):
    """The range checks of the amplifier's typed values, shared by :class:`NoisyPaParams` and :class:`NoisyPaElement`."""
    if rho < 0.0:
        raise ValueError(f"loss parameter rho must be >= 0, got {rho}")
    if kappa < 0.0:
        raise ValueError(f"gain parameter kappa must be >= 0, got {kappa}")
    if epsilon2 < 1.0:
        raise PhysicalityError(f"auxiliary thermal variance must be >= 1, got {epsilon2}")
    if _stability(rho, kappa) <= 0.0:
        raise InstabilityError(
            f"unstable amplifier: kappa = {kappa} reaches the pole at (1 + rho)/2 = {(1 + rho) / 2}"
        )


@dataclass(frozen=True)
class NoisyPaParams:
    """Loss ``rho``, gain ``kappa`` and auxiliary variance ``epsilon2``."""

    rho: float
    kappa: float
    epsilon2: float = 1.0

    def __post_init__(self):
        rho, kappa, epsilon2 = _finite_params(self.rho, self.kappa, self.epsilon2)
        _check_params(rho, kappa, epsilon2)
        self.__dict__.update(rho=rho, kappa=kappa, epsilon2=epsilon2)

    @property
    def stability_margin(self) -> float:
        """``M = (1 + rho)^2/4 - kappa^2``; positive for stable operation."""
        return _stability(self.rho, self.kappa)


def _rho_terms(rho):
    """``(1 + rho, (1 + rho)^2, a, b)`` with ``a = (1 - rho^2)/4`` and ``b = (1 + rho)^2/4``, the terms of ``rho`` that the amplifier's formulas share; arrays broadcast."""
    one_rho = 1.0 + rho
    square = one_rho * one_rho
    return one_rho, square, (1.0 - rho * rho) / 4.0, square / 4.0


def _kappa_terms(rho_terms, kappa):
    """``(1 + rho, a, kappa^2, M)``, the terms that :func:`_coupling` and :func:`_stretch` take, from :func:`_rho_terms` and ``kappa``; arrays broadcast.

    ``M = b - kappa^2`` is the stability margin.
    """
    one_rho, _, a, b = rho_terms
    kappa2 = kappa * kappa
    return one_rho, a, kappa2, b - kappa2


def _terms(rho, kappa):
    """:func:`_kappa_terms` at ``(rho, kappa)``; arrays broadcast."""
    return _kappa_terms(_rho_terms(rho), kappa)


def _stability(rho: float, kappa: float) -> float:
    return _terms(rho, kappa)[3]


@dataclass(frozen=True)
class CouplingFactors:
    """Signal and auxiliary coupling factors of the lossy amplifier."""

    G_bar: float
    g_bar: float
    G_bar_prime: float
    g_bar_prime: float

    def commutator_defect(self) -> float:
        """Deviation of ``G^2 - g^2 + G'^2 - g'^2`` from 1 (analytically zero)."""
        return (
            self.G_bar**2
            - self.g_bar**2
            + self.G_bar_prime**2
            - self.g_bar_prime**2
            - 1.0
        )


def _coupling(rho, kappa, terms):
    """``(G_bar, g_bar, G_bar_prime, g_bar_prime)`` at ``(rho, kappa)`` and their :func:`_terms`; arrays broadcast."""
    one_rho, a, kappa2, m = terms
    sqrt_rho = np.sqrt(rho)
    return (a + kappa2) / m, kappa / m, sqrt_rho * one_rho / (2.0 * m), kappa * sqrt_rho / m


def _overflow_message(rho, epsilon2) -> str:
    return f"the noise model's terms overflow at rho = {rho}, epsilon2 = {epsilon2}"


def _check_in_range(values, params: NoisyPaParams) -> None:
    """Raise :class:`InstabilityError` naming ``params`` if one of ``values`` (computed with numpy's warnings off) left the float range."""
    if not all(np.isfinite(value).all() for value in values):
        raise InstabilityError(_overflow_message(params.rho, params.epsilon2))


def coupling_factors(params: NoisyPaParams) -> CouplingFactors:
    """Evaluate the four coupling factors for given ``(rho, kappa)``.

    Raises :class:`InstabilityError` where a factor leaves the float range.
    """
    with np.errstate(all="ignore"):
        coupling = _coupling(params.rho, params.kappa, _terms(params.rho, params.kappa))
    _check_in_range(coupling, params)
    return CouplingFactors(*map(float, coupling))


def _pa_blocks(coupling):
    """The couplings ``S`` with ``(G_bar, g_bar)`` and ``S'`` with ``(G_bar_prime, g_bar_prime)``, in one :func:`pair_coupling`.

    ``coupling`` is :func:`_coupling`'s four factors, floats or arrays of
    one shape, whose shape leads each block's.
    """
    G, g, Gp, gp = coupling
    return pair_coupling(np.array([G, Gp]), np.array([g, gp]))


def _noisy_pa_block(rho, kappa, epsilon2):
    """Local 4x4 ``(S, (epsilon2, S'))`` of the lossy amplifier; arrays broadcast.

    ``S`` is the ideal-amplifier coupling with ``(G_bar, g_bar)``, and the
    added noise is ``epsilon2 * S' S'^T`` for the auxiliary coupling ``S'``
    with ``(G_bar_prime, g_bar_prime)``.
    """
    linear, auxiliary = _pa_blocks(_coupling(rho, kappa, _terms(rho, kappa)))
    return linear, (epsilon2, auxiliary)


def _stretch(kappa, terms):
    """``G_bar + g_bar`` at ``kappa`` and its :func:`_terms`; arrays broadcast."""
    _, a, _, m = terms
    return (a + kappa * (kappa + 1.0)) / m


def _noisy_pa_stretch(rho, kappa, epsilon2):
    """``G_bar + g_bar``, the factor by which the lossy amplifier stretches a quadrature; arrays broadcast.

    Takes the block's fields; ``epsilon2`` does not enter.
    """
    return _stretch(kappa, _terms(rho, kappa))


def _noisy_pa_check(modes, rho, kappa, epsilon2):
    _check_distinct(modes)
    _check_params(rho, kappa, epsilon2)


@dataclass(frozen=True)
class NoisyPaElement:
    """Lossy parametric amplifier with thermal auxiliaries."""

    modes: tuple[int, int]
    rho: float
    kappa: float
    epsilon2: float
    block = staticmethod(_noisy_pa_block)
    stretch = staticmethod(_noisy_pa_stretch)
    check = staticmethod(_noisy_pa_check)

    def __post_init__(self):
        modes = _check_pair(self.modes)
        rho, kappa, epsilon2 = _finite_params(self.rho, self.kappa, self.epsilon2)
        _noisy_pa_check(modes, rho, kappa, epsilon2)
        self.__dict__.update(modes=modes, rho=rho, kappa=kappa, epsilon2=epsilon2)


def noisy_pa(pair, params: NoisyPaParams, n_modes: int) -> ElementMap:
    """Gaussian channel of the lossy amplifier on a mode pair.

    The linear part is an ideal-amplifier coupling with ``(G_bar, g_bar)``;
    the traced-out thermal auxiliaries contribute additive noise
    ``epsilon2 * S' S'^T`` where ``S'`` is the same coupling structure built
    from ``(G_bar_prime, g_bar_prime)``.  Physical (completely positive) for
    every ``epsilon2 >= 1``.  Raises :class:`InstabilityError` where an
    entry of the map leaves the float range.
    """
    element = NoisyPaElement(pair, params.rho, params.kappa, params.epsilon2)
    with np.errstate(all="ignore"):
        channel = element_map(element, n_modes)
    _check_in_range((channel.linear, channel.noise), params)
    return channel


def quantum_noise_gain(params: NoisyPaParams) -> float:
    """Vacuum-input output variance of either amplifier mode (linear units).

    Equals ``G_bar^2 + g_bar^2 + epsilon2 (G_bar_prime^2 + g_bar_prime^2)``
    and increases strictly with ``kappa``.  Raises :class:`InstabilityError`
    where it leaves the float range.
    """
    with np.errstate(all="ignore"):
        coupling = _coupling(params.rho, params.kappa, _terms(params.rho, params.kappa))
        gain = _noise_gain(coupling, params.epsilon2)
    _check_in_range((gain,), params)
    return float(gain)


def _noise_gain(coupling, epsilon2):
    """:func:`quantum_noise_gain` from :func:`_coupling`'s factors; arrays broadcast."""
    G, g, Gp, gp = coupling
    return G * G + g * g + epsilon2 * (Gp * Gp + gp * gp)


def kappa_from_qng(qng_db: float, rho: float, epsilon2: float) -> float:
    """Solve for the ``kappa`` that realizes a target quantum noise gain.

    For fixed ``(rho, epsilon2)`` the noise gain increases monotonically from
    its ``kappa = 0`` floor to infinity at the stability pole; ``kappa^2`` is
    the stable root of a quadratic (see :func:`_solve_kappa`).  Targets below the
    floor raise :class:`NoSolutionError`.  Near the pole a float ``kappa``
    no longer fixes the noise gain: a target whose forward round trip
    (:func:`quantum_noise_gain` of the returned ``kappa``) misses it by more
    than a relative ``1e-9`` raises :class:`InstabilityError`, as does a
    ``kappa`` within a relative ``1e-13`` of the pole.  For ``rho = 0.01``,
    ``epsilon2 = 2`` the round trip holds to ``2e-12`` at 80 dB and fails
    from about 150 dB.  Parameters whose terms in the quadratic leave the
    float range (``rho = 1e300``) raise :class:`InstabilityError` naming them.
    A ``qng_db`` that is not one real number (a bool, an array, a list or a
    string) raises ``ValueError``.
    """
    _check_real(qng_db, "quantum noise gain qng_db")
    params = NoisyPaParams(rho, 0.0, epsilon2)
    return float(_kappa(_check_qng(qng_db), params.rho, params.epsilon2)[0])


_ROUND_TRIP = 1e-9  # relative miss of a target QNG that _kappa accepts


def _check_real(value, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is one real number (not a bool, an array, a list or a string)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_qng(qng_db) -> np.ndarray:
    """Target QNGs in dB (a scalar or an array) as a float array, refusing a value that is not finite or below 0 dB."""
    qng_db = np.asarray(qng_db, dtype=float)
    if not np.isfinite(qng_db).all():
        bad = qng_db[~np.isfinite(qng_db)][0]
        raise ValueError(f"quantum noise gain must be finite, got {bad}")
    if (qng_db < 0.0).any():
        raise ValueError(f"quantum noise gain must be >= 0 dB, got {qng_db.min()}")
    return qng_db


def _linear_targets(qng_db) -> np.ndarray:
    """Checked target QNGs in dB (a scalar or an array) as the linear targets of :func:`_solve_kappa`, an array.

    A target past the float range (from about 3083 dB) is infinite, and
    :func:`_solve_kappa` puts its row at the pole.
    """
    with np.errstate(over="ignore"):
        return 10.0 ** (np.atleast_1d(qng_db) / 10.0)


def _kappa(qng_db, rho: float, epsilon2: float) -> np.ndarray:
    """``kappa`` for each target QNG in dB (a scalar or an array), as an array.

    The targets and ``rho`` and ``epsilon2`` must already be checked (see
    :func:`kappa_from_qng`, which also states the round-trip tolerance).
    Raises where some row's target is out of reach (see :func:`_refuse`).
    """
    solution = _solve_kappa(_linear_targets(qng_db), rho, epsilon2)
    _refuse(qng_db, rho, epsilon2, *solution[1:4])
    return solution.kappa


def _refuse(qng_db, rho: float, epsilon2: float, unreachable, at_pole, overflow):
    """Raise for the first refused row of one amplifier's :func:`_solve_kappa` masks, if any.

    A row whose terms overflow is refused first, since its other marks mean
    nothing, then an unreachable row, then one at the pole.
    """
    qng_db = np.broadcast_to(qng_db, unreachable.shape)
    if overflow.any():
        raise InstabilityError(
            f"QNG {qng_db[np.broadcast_to(overflow, qng_db.shape)][0]} dB is out of reach: "
            + _overflow_message(rho, epsilon2)
        )
    if unreachable.any():
        raise NoSolutionError(
            f"QNG {qng_db[unreachable][0]} dB is unreachable: the kappa = 0 floor for "
            f"rho = {rho}, epsilon2 = {epsilon2} is {10.0 * np.log10(_floor(rho, epsilon2, _rho_terms(rho)[1])):.6g} dB"
        )
    if at_pole.any():
        raise InstabilityError(
            f"QNG {qng_db[at_pole][0]} dB puts kappa at the stability pole "
            f"(1 + rho)/2 = {(1.0 + rho) / 2.0}: no float kappa reproduces it "
            f"within a relative {_ROUND_TRIP:g}"
        )


def _floor(rho, epsilon2, square):
    """The ``kappa = 0`` noise gain (linear units) at ``square = (1 + rho)^2`` of :func:`_rho_terms`; arrays broadcast."""
    return ((1.0 - rho) * (1.0 - rho) + 4.0 * rho * epsilon2) / square


class _Solution(NamedTuple):
    """:func:`_solve_kappa`'s rows: ``kappa``, the masks of its refusals, and the amplifier's terms at ``kappa``."""

    kappa: np.ndarray
    unreachable: np.ndarray
    at_pole: np.ndarray
    overflow: np.ndarray  # in the shape of rho and epsilon2 broadcast, not of the targets
    coupling: tuple  # (G_bar, g_bar, G_bar_prime, g_bar_prime), see _coupling
    stretch: np.ndarray  # G_bar + g_bar, see _stretch


def _solve_kappa(target, rho, epsilon2) -> _Solution:
    """``kappa`` per target QNG row, its refusal masks and its terms, refusing no row.

    ``target`` is an array of linear target gains, :func:`_linear_targets`
    of checked targets in dB (see :func:`_check_qng`), which a caller forms
    once per curve or fit; ``rho`` and ``epsilon2`` are valid amplifier
    parameters, floats or arrays that broadcast with it.  A row
    is unreachable when its target lies below the ``kappa = 0`` floor, and
    at the pole when its ``kappa`` is within a relative ``1e-13`` of the
    stability pole or misses the target on the round trip; it overflows
    when its ``rho`` and ``epsilon2`` terms of the quadratic leave the
    float range.  A refused row's ``kappa`` and terms are meaningless.  The
    round trip's coupling factors and ``G_bar + g_bar`` are returned, so
    the amplifier's blocks and stretch need not form them again.

    With ``u = kappa^2``, ``a = (1 - rho^2)/4`` and ``b = (1 + rho)^2/4``,
    ``quantum_noise_gain = Q`` reads
    ``(Q - 1) u^2 - (2 Q b + 2 a + 1 + epsilon2 rho) u + (Q b^2 - a^2 - epsilon2 rho b) = 0``.
    Its stable root (``u < b``) is ``u = 2C / (-B + sqrt(B^2 - 4 A C))``.
    The floor, the quadratic, the coupling factors, the pole test and the
    stretch share the terms of :func:`_rho_terms` and :func:`_kappa_terms`, which
    are formed once.
    """
    # A row whose terms leave the float range gets a NaN or infinite term,
    # which marks it below.
    with np.errstate(all="ignore"):
        rho_terms = _rho_terms(rho)
        one_rho, square, a, b = rho_terms
        floor = _floor(rho, epsilon2, square)
        two_a, four_a = 2.0 * a, 4.0 * a
        thermal = epsilon2 * rho
        one_thermal = 1.0 + thermal
        # B^2 - 4AC expanded to Q P + R with P, R > 0: the Q^2 terms cancel
        # exactly, so large targets keep their precision.  (1 + rho)^2 is 4 b
        # exactly.
        p = square * (two_a + 1.0 + 2.0 * thermal + b) + four_a * a
        r = one_thermal * (one_thermal + four_a) - 4.0 * thermal * b
        overflow = ~np.isfinite(floor + p + r)
        c = target * b * b - a * a - thermal * b
        minus_b = 2.0 * target * b + two_a + 1.0 + thermal
        u = 2.0 * c / (minus_b + np.sqrt(target * p + r))
        kappa = np.sqrt(np.where(target <= floor, 0.0, np.maximum(u, 0.0)))
        # Near the pole a float kappa no longer fixes Q: its round trip misses.
        terms = _kappa_terms(rho_terms, kappa)
        coupling = _coupling(rho, kappa, terms)
        miss = np.abs(_noise_gain(coupling, epsilon2) - target) / target
        at_pole = ~(kappa < one_rho / 2.0 * (1.0 - 1e-13)) | ~(miss <= _ROUND_TRIP)
        stretch = _stretch(kappa, terms)
    return _Solution(kappa, target < floor - 1e-12, at_pole, overflow, coupling, stretch)
