"""Constructors for the Gaussian channels of the optical toolbox.

Each constructor returns a full-register :class:`~gicirc.states.ElementMap`
acting on the designated mode(s) of an ``n_modes``-mode system and leaving
the rest untouched: one embedding of the element's local 2x2 or 4x4 block,
which the circuit engine applies directly to the rows and columns of those
modes.  Parametric amplifiers, beamsplitters and phase shifters
are lossless (symplectic, zero added noise); the loss channel contracts a
vacuum environment into added noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import ElementMap, _check_finite, _check_mode, _quadrature_indices

__all__ = [
    "PaGain",
    "LossSpec",
    "as_gain",
    "as_loss",
    "parametric_amplifier",
    "single_mode_squeezer",
    "beamsplitter",
    "phase_shift",
    "loss_channel",
    "qng_of",
    "gain_from_qng",
]

BS_CONVENTIONS = ("second_minus", "first_plus")


@dataclass(frozen=True)
class PaGain:
    """Parametric gain parameter ``g >= 0``.

    The amplification gain ``G = sqrt(1 + g^2)`` is always derived, so
    ``G^2 - g^2 = 1`` holds exactly.
    """

    g: float

    def __post_init__(self):
        g = _check_finite(self.g, "parametric gain g")
        if g < 0.0:
            raise ValueError(f"parametric gain g must be >= 0, got {g}")
        object.__setattr__(self, "g", g)

    @property
    def G(self) -> float:
        return math.sqrt(1.0 + self.g * self.g)


@dataclass(frozen=True)
class LossSpec:
    """Fractional intensity loss in [0, 1]."""

    L: float

    def __post_init__(self):
        L = float(self.L)
        if not 0.0 <= L <= 1.0:
            raise ValueError(f"loss L must lie in [0, 1], got {L}")
        object.__setattr__(self, "L", L)


def as_gain(value) -> PaGain:
    return value if isinstance(value, PaGain) else PaGain(float(value))


def as_loss(value) -> LossSpec:
    return value if isinstance(value, LossSpec) else LossSpec(float(value))


def _check_pair(pair, n_modes: int | None = None) -> tuple[int, int]:
    """Two distinct mode indices, range-checked when ``n_modes`` is given."""
    a, b = pair
    a, b = int(a), int(b)
    if n_modes is not None:
        a, b = _check_mode(a, n_modes), _check_mode(b, n_modes)
    if a == b:
        raise ValueError(f"pair modes must be distinct, got ({a}, {b})")
    return a, b


def _check_transmission(T) -> float:
    T = float(T)
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"beamsplitter transmission T must lie in [0, 1], got {T}")
    return T


def _check_convention(convention: str) -> str:
    if convention not in BS_CONVENTIONS:
        raise ValueError(
            f"unknown beamsplitter convention {convention!r}; expected one of {BS_CONVENTIONS}"
        )
    return convention


def _combine(*terms) -> np.ndarray:
    """Sum of ``coefficient * matrix`` terms.

    Coefficients are scalars or arrays; their shape becomes the leading
    (batch) shape of the result, so a ``(B,)`` coefficient gives ``B``
    blocks.
    """
    return sum(np.multiply.outer(c, m) for c, m in terms)


_I2 = np.eye(2)
_I4 = np.eye(4)
_ROTATE = np.array([[0.0, -1.0], [1.0, 0.0]])
_X_ONLY = np.diag([1.0, 0.0])
_P_ONLY = np.diag([0.0, 1.0])
_CROSS = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)
# convention -> (transmitted, reflected) pattern: S = t * first + r * second.
_BS_PATTERNS = {
    "second_minus": (_I4, np.block([[0 * _I2, _I2], [-_I2, 0 * _I2]])),
    "first_plus": (np.diag([1.0, 1.0, -1.0, -1.0]), np.block([[0 * _I2, _I2], [_I2, 0 * _I2]])),
}


def pair_coupling(ga, gb) -> np.ndarray:
    """4x4 quadrature matrix of ``c = ga*b + gb*a^dag``, ``d = ga*a + gb*b^dag``.

    With real coefficients the x rows pick up ``+gb`` cross-coupling and the
    p rows ``-gb``; ordering is ``(x_a, p_a, x_b, p_b)``.  Array coefficients
    give a stack of matrices.
    """
    return _combine((ga, _I4), (gb, _CROSS))


# Local blocks.  Each takes an element's field values, scalars or ``(B,)``
# arrays, and returns ``(S, N)``: the 2x2 (one mode) or 4x4 (mode pair)
# linear block and added-noise block (``None`` for lossless elements) of the
# channel on those modes' quadratures, with the field values' shape leading.


def _pa_block(g):
    return pair_coupling(np.sqrt(1.0 + g * g), g), None


def _squeezer_block(g):
    G = np.sqrt(1.0 + g * g)
    return _combine((G + g, _X_ONLY), (G - g, _P_ONLY)), None


def _bs_block(T, convention):
    first, second = _BS_PATTERNS[convention]
    return _combine((np.sqrt(T), first), (np.sqrt(1.0 - T), second)), None


def _phase_block(phi):
    return _combine((np.cos(phi), _I2), (np.sin(phi), _ROTATE)), None


def _loss_block(L):
    return _combine((np.sqrt(1.0 - L), _I2)), _combine((L, _I2))


def _embed(modes, n_modes: int, linear: np.ndarray, noise: np.ndarray | None = None) -> ElementMap:
    """Full-register channel map acting with a local block on ``modes``."""
    idx = _quadrature_indices(modes)
    block = np.ix_(idx, idx)
    dim = 2 * n_modes
    full_linear = np.eye(dim)
    full_linear[block] = linear
    full_noise = np.zeros((dim, dim))
    if noise is not None:
        full_noise[block] = noise
    return ElementMap(full_linear, full_noise, np.zeros(dim))


def parametric_amplifier(pair, gain, n_modes: int) -> ElementMap:
    """Two-mode phase-insensitive amplifier on a mode pair.

    Implements ``c = G b + g a^dag``, ``d = G a + g b^dag`` (symmetric under
    swapping the pair).  Lossless; on vacuum each output mode acquires
    quadrature variance ``G^2 + g^2`` at every angle.
    """
    gain = as_gain(gain)
    return _embed(_check_pair(pair, n_modes), n_modes, *_pa_block(gain.g))


def single_mode_squeezer(mode: int, gain, n_modes: int) -> ElementMap:
    """Degenerate (phase-sensitive) amplifier ``b = G a + g a^dag`` on one mode.

    Stretches the amplitude quadrature by ``G + g`` and squeezes the phase
    quadrature by ``G - g = 1/(G + g)``.
    """
    gain = as_gain(gain)
    return _embed((_check_mode(mode, n_modes),), n_modes, *_squeezer_block(gain.g))


def beamsplitter(pair, T: float, n_modes: int, convention: str = "second_minus") -> ElementMap:
    """Lossless beamsplitter with intensity transmission ``T`` on a mode pair.

    Conventions, for pair ``(i, j)`` with ``t = sqrt(T)``, ``r = sqrt(1-T)``:

    * ``second_minus``: ``out_i = t in_i + r in_j``, ``out_j = t in_j - r in_i``.
      Two of these in sequence with ``T = 1/2`` recombine fully: one output
      port carries the entire input mean.
    * ``first_plus``: ``out_i = t in_i + r in_j``, ``out_j = r in_i - t in_j``
      (symmetric; the first input enters both outputs with a plus sign).

    Composing elements built with different conventions shifts fringe
    positions, so interferometer builders use ``second_minus`` throughout.
    """
    T = _check_transmission(T)
    convention = _check_convention(convention)
    return _embed(_check_pair(pair, n_modes), n_modes, *_bs_block(T, convention))


def phase_shift(mode: int, phi: float, n_modes: int) -> ElementMap:
    """Optical phase ``a -> exp(i phi) a`` on one mode.

    In quadratures: ``x' = cos(phi) x - sin(phi) p``,
    ``p' = sin(phi) x + cos(phi) p``.
    """
    phi = _check_finite(phi, "phase phi")
    return _embed((_check_mode(mode, n_modes),), n_modes, *_phase_block(phi))


def loss_channel(mode: int, loss, n_modes: int) -> ElementMap:
    """Fractional intensity loss ``L`` on one mode.

    Equivalent to mixing the mode with vacuum on a beamsplitter of
    transmission ``1 - L`` and discarding the other port: the mean scales by
    ``sqrt(1 - L)`` and the covariance block by ``(1 - L)`` with ``L * I``
    added.  Losses compose as ``1 - (1-L1)(1-L2)``.
    """
    loss = as_loss(loss)
    return _embed((_check_mode(mode, n_modes),), n_modes, *_loss_block(loss.L))


def qng_of(gain) -> float:
    """Quantum noise gain ``G^2 + g^2`` of an ideal amplifier (linear units).

    Equals the vacuum-input output variance of either amplifier output and
    is >= 1, with equality only at ``g = 0``.
    """
    gain = as_gain(gain)
    return 1.0 + 2.0 * gain.g * gain.g


def gain_from_qng(qng_db: float) -> PaGain:
    """Invert the quantum noise gain: solve ``G^2 + g^2 = 10^(qng_db/10)``.

    Uses ``G^2 = 1 + g^2``, so ``g^2 = (Gq - 1)/2``; ``qng_of`` of the result
    reproduces the linear target to rounding.
    """
    qng_db = float(qng_db)
    if qng_db < 0.0:
        raise ValueError(f"quantum noise gain must be >= 0 dB, got {qng_db}")
    linear = 10.0 ** (qng_db / 10.0)
    return PaGain(math.sqrt((linear - 1.0) / 2.0))
