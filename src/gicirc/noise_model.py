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

from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, NoSolutionError, PhysicalityError
from .states import ElementMap, _check_finite
from .elements import _check_pair, element_map, pair_coupling

__all__ = [
    "NoisyPaParams",
    "CouplingFactors",
    "coupling_factors",
    "NoisyPaElement",
    "noisy_pa",
    "quantum_noise_gain",
    "kappa_from_qng",
]


@dataclass(frozen=True)
class NoisyPaParams:
    """Loss ``rho``, gain ``kappa`` and auxiliary variance ``epsilon2``."""

    rho: float
    kappa: float
    epsilon2: float = 1.0

    def __post_init__(self):
        rho = _check_finite(self.rho, "loss parameter rho")
        kappa = _check_finite(self.kappa, "gain parameter kappa")
        epsilon2 = _check_finite(self.epsilon2, "auxiliary thermal variance epsilon2")
        if rho < 0.0:
            raise ValueError(f"loss parameter rho must be >= 0, got {rho}")
        if kappa < 0.0:
            raise ValueError(f"gain parameter kappa must be >= 0, got {kappa}")
        if epsilon2 < 1.0:
            raise PhysicalityError(
                f"auxiliary thermal variance must be >= 1, got {epsilon2}"
            )
        if _stability(rho, kappa) <= 0.0:
            raise InstabilityError(
                f"unstable amplifier: kappa = {kappa} reaches the pole at (1 + rho)/2 = {(1 + rho) / 2}"
            )
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "epsilon2", epsilon2)

    @property
    def stability_margin(self) -> float:
        """``M = (1 + rho)^2/4 - kappa^2``; positive for stable operation."""
        return _stability(self.rho, self.kappa)


def _stability(rho: float, kappa: float) -> float:
    return (1.0 + rho) * (1.0 + rho) / 4.0 - kappa * kappa


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


def _coupling(rho, kappa):
    """``(G_bar, g_bar, G_bar_prime, g_bar_prime)``; arrays broadcast."""
    m = _stability(rho, kappa)
    sqrt_rho = np.sqrt(rho)
    return (
        ((1.0 - rho * rho) / 4.0 + kappa * kappa) / m,
        kappa / m,
        sqrt_rho * (1.0 + rho) / (2.0 * m),
        kappa * sqrt_rho / m,
    )


def coupling_factors(params: NoisyPaParams) -> CouplingFactors:
    """Evaluate the four coupling factors for given ``(rho, kappa)``."""
    return CouplingFactors(*map(float, _coupling(params.rho, params.kappa)))


def _noisy_pa_block(rho, kappa, epsilon2):
    """Local 4x4 ``(S, (epsilon2, S'))`` of the lossy amplifier; arrays broadcast.

    ``S`` is the ideal-amplifier coupling with ``(G_bar, g_bar)``, and the
    added noise is ``epsilon2 * S' S'^T`` for the auxiliary coupling ``S'``
    with ``(G_bar_prime, g_bar_prime)``.
    """
    G, g, Gp, gp = _coupling(rho, kappa)
    return pair_coupling(G, g), (epsilon2, pair_coupling(Gp, gp))


def _noisy_pa_stretch(rho, kappa, epsilon2):
    """``G_bar + g_bar``, the factor by which the lossy amplifier stretches a quadrature; arrays broadcast.

    Takes the block's fields; ``epsilon2`` does not enter.
    """
    return ((1.0 - rho * rho) / 4.0 + kappa * (kappa + 1.0)) / _stability(rho, kappa)


@dataclass(frozen=True)
class NoisyPaElement:
    """Lossy parametric amplifier with thermal auxiliaries."""

    modes: tuple[int, int]
    rho: float
    kappa: float
    epsilon2: float
    block = staticmethod(_noisy_pa_block)
    stretch = staticmethod(_noisy_pa_stretch)

    def __post_init__(self):
        object.__setattr__(self, "modes", _check_pair(self.modes))
        params = NoisyPaParams(self.rho, self.kappa, self.epsilon2)
        object.__setattr__(self, "rho", params.rho)
        object.__setattr__(self, "kappa", params.kappa)
        object.__setattr__(self, "epsilon2", params.epsilon2)


def noisy_pa(pair, params: NoisyPaParams, n_modes: int) -> ElementMap:
    """Gaussian channel of the lossy amplifier on a mode pair.

    The linear part is an ideal-amplifier coupling with ``(G_bar, g_bar)``;
    the traced-out thermal auxiliaries contribute additive noise
    ``epsilon2 * S' S'^T`` where ``S'`` is the same coupling structure built
    from ``(G_bar_prime, g_bar_prime)``.  Physical (completely positive) for
    every ``epsilon2 >= 1``.
    """
    return element_map(NoisyPaElement(pair, params.rho, params.kappa, params.epsilon2), n_modes)


def quantum_noise_gain(params: NoisyPaParams) -> float:
    """Vacuum-input output variance of either amplifier mode (linear units).

    Equals ``G_bar^2 + g_bar^2 + epsilon2 (G_bar_prime^2 + g_bar_prime^2)``
    and increases strictly with ``kappa``.
    """
    return float(_noise_gain(params.rho, params.kappa, params.epsilon2))


def _noise_gain(rho, kappa, epsilon2):
    """:func:`quantum_noise_gain` of raw field values; arrays broadcast."""
    G, g, Gp, gp = _coupling(rho, kappa)
    return G * G + g * g + epsilon2 * (Gp * Gp + gp * gp)


def kappa_from_qng(qng_db: float, rho: float, epsilon2: float) -> float:
    """Solve for the ``kappa`` that realizes a target quantum noise gain.

    For fixed ``(rho, epsilon2)`` the noise gain increases monotonically from
    its ``kappa = 0`` floor to infinity at the stability pole; ``kappa^2`` is
    the stable root of a quadratic (see :func:`_kappa`).  Targets below the
    floor raise :class:`NoSolutionError`.  Near the pole a float ``kappa``
    no longer fixes the noise gain: a target whose forward round trip
    (:func:`quantum_noise_gain` of the returned ``kappa``) misses it by more
    than a relative ``1e-9`` raises :class:`InstabilityError`, as does a
    ``kappa`` within a relative ``1e-13`` of the pole.  For ``rho = 0.01``,
    ``epsilon2 = 2`` the round trip holds to ``2e-12`` at 80 dB and fails
    from about 150 dB.
    """
    params = NoisyPaParams(rho, 0.0, epsilon2)
    return float(_kappa(qng_db, params.rho, params.epsilon2)[0])


_ROUND_TRIP = 1e-9  # relative miss of a target QNG that _kappa accepts


def _kappa(qng_db, rho: float, epsilon2: float) -> np.ndarray:
    """``kappa`` for each target QNG in dB (a scalar or an array), as an array.

    With ``u = kappa^2``, ``a = (1 - rho^2)/4`` and ``b = (1 + rho)^2/4``,
    ``quantum_noise_gain = Q`` reads
    ``(Q - 1) u^2 - (2 Q b + 2 a + 1 + epsilon2 rho) u + (Q b^2 - a^2 - epsilon2 rho b) = 0``.
    Its stable root (``u < b``) is ``u = 2C / (-B + sqrt(B^2 - 4 A C))``.
    ``rho`` and ``epsilon2`` must already be valid amplifier parameters (see
    :func:`kappa_from_qng`), which also states the round-trip tolerance.
    """
    qng_db = np.atleast_1d(np.asarray(qng_db, dtype=float))
    if not np.isfinite(qng_db).all():
        bad = qng_db[~np.isfinite(qng_db)][0]
        raise ValueError(f"quantum noise gain must be finite, got {bad}")
    if (qng_db < 0.0).any():
        raise ValueError(f"quantum noise gain must be >= 0 dB, got {qng_db.min()}")
    floor = ((1.0 - rho) * (1.0 - rho) + 4.0 * rho * epsilon2) / ((1.0 + rho) * (1.0 + rho))
    a = (1.0 - rho * rho) / 4.0
    b = (1.0 + rho) * (1.0 + rho) / 4.0
    thermal = epsilon2 * rho
    # B^2 - 4AC expanded to Q P + R with P, R > 0: the Q^2 terms cancel
    # exactly, so large targets keep their precision.
    p = 4.0 * b * (2.0 * a + 1.0 + 2.0 * thermal + b) + 4.0 * a * a
    r = (1.0 + thermal) * (1.0 + thermal + 4.0 * a) - 4.0 * thermal * b
    with np.errstate(all="ignore"):
        target = 10.0 ** (qng_db / 10.0)
        c = target * b * b - a * a - thermal * b
        minus_b = 2.0 * target * b + 2.0 * a + 1.0 + thermal
        u = 2.0 * c / (minus_b + np.sqrt(target * p + r))
        kappa = np.sqrt(np.where(target <= floor, 0.0, np.maximum(u, 0.0)))
        # Near the pole a float kappa no longer fixes Q: its round trip misses.
        miss = np.abs(_noise_gain(rho, kappa, epsilon2) - target) / target
        unstable = ~(kappa < (1.0 + rho) / 2.0 * (1.0 - 1e-13)) | ~(miss <= _ROUND_TRIP)
    short = target < floor - 1e-12
    if short.any():
        raise NoSolutionError(
            f"QNG {qng_db[short][0]} dB is unreachable: the kappa = 0 floor for "
            f"rho = {rho}, epsilon2 = {epsilon2} is {10.0 * np.log10(floor):.6g} dB"
        )
    if unstable.any():
        raise InstabilityError(
            f"QNG {qng_db[unstable][0]} dB puts kappa at the stability pole "
            f"(1 + rho)/2 = {(1.0 + rho) / 2.0}: no float kappa reproduces it "
            f"within a relative {_ROUND_TRIP:g}"
        )
    return kappa
