"""Constructors for the Gaussian channels of the optical toolbox.

Each constructor returns a full-register :class:`~gicirc.states.ElementMap`
acting on the designated mode(s) of an ``n_modes``-mode system and leaving
the rest untouched.  Parametric amplifiers, beamsplitters and phase shifters
are lossless (symplectic, zero added noise); the loss channel contracts a
vacuum environment into added noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import ElementMap, _check_mode

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
        g = float(self.g)
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


def pair_coupling(ga: float, gb: float) -> np.ndarray:
    """4x4 quadrature matrix of ``c = ga*b + gb*a^dag``, ``d = ga*a + gb*b^dag``.

    With real coefficients the x rows pick up ``+gb`` cross-coupling and the
    p rows ``-gb``; ordering is ``(x_a, p_a, x_b, p_b)``.
    """
    return np.array(
        [
            [ga, 0.0, gb, 0.0],
            [0.0, ga, 0.0, -gb],
            [gb, 0.0, ga, 0.0],
            [0.0, -gb, 0.0, ga],
        ]
    )


def embed_pair(mat4: np.ndarray, pair: tuple[int, int], n_modes: int, *, base: str = "eye") -> np.ndarray:
    """Embed a 4x4 two-mode block into a full 2n x 2n matrix."""
    full = np.eye(2 * n_modes) if base == "eye" else np.zeros((2 * n_modes, 2 * n_modes))
    a, b = pair
    sa = slice(2 * a, 2 * a + 2)
    sb = slice(2 * b, 2 * b + 2)
    full[sa, sa] = mat4[:2, :2]
    full[sa, sb] = mat4[:2, 2:]
    full[sb, sa] = mat4[2:, :2]
    full[sb, sb] = mat4[2:, 2:]
    return full


def _embed_single(block: np.ndarray, mode: int, n_modes: int) -> np.ndarray:
    full = np.eye(2 * n_modes)
    s = slice(2 * mode, 2 * mode + 2)
    full[s, s] = block
    return full


def _lossless(linear: np.ndarray) -> ElementMap:
    dim = linear.shape[0]
    return ElementMap(linear, np.zeros((dim, dim)), np.zeros(dim))


def parametric_amplifier(pair, gain, n_modes: int) -> ElementMap:
    """Two-mode phase-insensitive amplifier on a mode pair.

    Implements ``c = G b + g a^dag``, ``d = G a + g b^dag`` (symmetric under
    swapping the pair).  Lossless; on vacuum each output mode acquires
    quadrature variance ``G^2 + g^2`` at every angle.
    """
    gain = as_gain(gain)
    pair = _check_pair(pair, n_modes)
    return _lossless(embed_pair(pair_coupling(gain.G, gain.g), pair, n_modes))


def single_mode_squeezer(mode: int, gain, n_modes: int) -> ElementMap:
    """Degenerate (phase-sensitive) amplifier ``b = G a + g a^dag`` on one mode.

    Stretches the amplitude quadrature by ``G + g`` and squeezes the phase
    quadrature by ``G - g = 1/(G + g)``.
    """
    gain = as_gain(gain)
    mode = _check_mode(mode, n_modes)
    block = np.diag([gain.G + gain.g, gain.G - gain.g])
    return _lossless(_embed_single(block, mode, n_modes))


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
    pair = _check_pair(pair, n_modes)
    t = math.sqrt(T)
    r = math.sqrt(1.0 - T)
    # out_j = u in_i + v in_j
    u, v = (-r, t) if _check_convention(convention) == "second_minus" else (r, -t)
    mat = np.array(
        [
            [t, 0.0, r, 0.0],
            [0.0, t, 0.0, r],
            [u, 0.0, v, 0.0],
            [0.0, u, 0.0, v],
        ]
    )
    return _lossless(embed_pair(mat, pair, n_modes))


def phase_shift(mode: int, phi: float, n_modes: int) -> ElementMap:
    """Optical phase ``a -> exp(i phi) a`` on one mode.

    In quadratures: ``x' = cos(phi) x - sin(phi) p``,
    ``p' = sin(phi) x + cos(phi) p``.
    """
    mode = _check_mode(mode, n_modes)
    c, s = math.cos(phi), math.sin(phi)
    block = np.array([[c, -s], [s, c]])
    return _lossless(_embed_single(block, mode, n_modes))


def loss_channel(mode: int, loss, n_modes: int) -> ElementMap:
    """Fractional intensity loss ``L`` on one mode.

    Equivalent to mixing the mode with vacuum on a beamsplitter of
    transmission ``1 - L`` and discarding the other port: the mean scales by
    ``sqrt(1 - L)`` and the covariance block by ``(1 - L)`` with ``L * I``
    added.  Losses compose as ``1 - (1-L1)(1-L2)``.
    """
    loss = as_loss(loss)
    mode = _check_mode(mode, n_modes)
    dim = 2 * n_modes
    t = math.sqrt(1.0 - loss.L)
    linear = np.eye(dim)
    noise = np.zeros((dim, dim))
    for i in (2 * mode, 2 * mode + 1):
        linear[i, i] = t
        noise[i, i] = loss.L
    return ElementMap(linear, noise, np.zeros(dim))


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
