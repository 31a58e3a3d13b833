"""Element kinds and constructors for the Gaussian channels of the optical toolbox.

Each element kind is a dataclass of its modes and checked parameters whose
``block`` gives its local 2x2 or 4x4 channel block, which the circuit engine
applies directly to the rows and columns of those modes.  Each constructor
is :func:`element_map`, the one embedding of a block into a full-register
:class:`~gicirc.states.ElementMap`, of its kind.  Amplifiers, beamsplitters
and phase shifters are lossless (symplectic, zero added noise); the loss
channel contracts a vacuum environment into added noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .states import ElementMap, _check_finite, _check_index, _check_mode, _quadrature_indices

__all__ = [
    "PaGain",
    "LossSpec",
    "as_gain",
    "as_loss",
    "PaElement",
    "SqueezerElement",
    "BsElement",
    "PhaseElement",
    "LossElement",
    "element_map",
    "parametric_amplifier",
    "single_mode_squeezer",
    "beamsplitter",
    "phase_shift",
    "loss_channel",
    "qng_of",
    "gain_from_qng",
]

BS_CONVENTIONS = ("second_minus", "first_plus")
DEFAULT_BS_T = 0.5


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


def _check_pair(pair) -> tuple[int, int]:
    """Two distinct mode indices."""
    a, b = pair
    a, b = _check_index(a), _check_index(b)
    if a == b:
        raise ValueError(f"pair modes must be distinct, got ({a}, {b})")
    return a, b


def _check_transmission(T) -> float:
    T = float(T)
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"beamsplitter transmission T must lie in [0, 1], got {T}")
    return T


def _combine(*terms) -> np.ndarray:
    """Sum of ``coefficient * matrix`` terms.

    Coefficients are scalars or arrays; their shape becomes the leading
    (batch) shape of the result, so a ``(B,)`` coefficient gives ``B``
    blocks.  The first term starts the sum, so no ``0 +`` costs an array
    operation, and a scalar coefficient multiplies its matrix directly.
    """
    (c, m), *rest = terms
    block = np.multiply.outer(c, m) if isinstance(c, np.ndarray) else c * m
    for c, m in rest:
        block = block + (np.multiply.outer(c, m) if isinstance(c, np.ndarray) else c * m)
    return block


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
# arrays, and returns ``(S, noise)``: the 2x2 (one mode) or 4x4 (mode pair)
# linear block of the channel on those modes' quadratures, with the field
# values' shape leading, and its added noise, ``None`` for lossless elements
# or ``(w, P)`` for ``N = w P P^T``.  The engine writes the noise factor
# ``sqrt(w) P`` into columns of its own; ``element_map`` forms ``N``, so a
# loss adds exactly ``L I``.


def _stretch(g):
    """``G + g``: the factor by which an amplifier or a squeezer of gain ``g`` stretches a quadrature."""
    return np.sqrt(1.0 + g * g) + g


def _pa_block(g):
    return pair_coupling(np.sqrt(1.0 + g * g), g), None


def _squeezer_block(g):
    """Stretches x by ``G + g`` and squeezes p by ``G - g``, formed as ``1/(G + g)``: no cancellation."""
    stretch = _stretch(g)
    return _combine((stretch, _X_ONLY), (1.0 / stretch, _P_ONLY)), None


def _bs_block(T, convention):
    first, second = _BS_PATTERNS[convention]
    return _combine((np.sqrt(T), first), (np.sqrt(1.0 - T), second)), None


def _phase_block(phi):
    return _combine((np.cos(phi), _I2), (np.sin(phi), _ROTATE)), None


def _loss_block(L):
    return _combine((np.sqrt(1.0 - L), _I2)), (L, _I2)


@dataclass(frozen=True)
class PaElement:
    """Ideal two-mode parametric amplifier."""

    modes: tuple[int, int]
    g: float
    block = staticmethod(_pa_block)
    stretch = staticmethod(_stretch)

    def __post_init__(self):
        object.__setattr__(self, "modes", _check_pair(self.modes))
        object.__setattr__(self, "g", PaGain(self.g).g)


@dataclass(frozen=True)
class SqueezerElement:
    """Single-mode (degenerate) squeezer."""

    mode: int
    g: float
    block = staticmethod(_squeezer_block)
    stretch = staticmethod(_stretch)

    def __post_init__(self):
        object.__setattr__(self, "mode", _check_index(self.mode))
        object.__setattr__(self, "g", PaGain(self.g).g)


@dataclass(frozen=True)
class BsElement:
    """Beamsplitter with intensity transmission ``T``."""

    modes: tuple[int, int]
    T: float = DEFAULT_BS_T
    convention: str = "second_minus"
    block = staticmethod(_bs_block)

    def __post_init__(self):
        object.__setattr__(self, "modes", _check_pair(self.modes))
        object.__setattr__(self, "T", _check_transmission(self.T))
        if self.convention not in BS_CONVENTIONS:
            raise ValueError(
                f"unknown beamsplitter convention {self.convention!r}; expected one of {BS_CONVENTIONS}"
            )


@dataclass(frozen=True)
class PhaseElement:
    """Optical phase shift on one mode."""

    mode: int
    phi: float
    block = staticmethod(_phase_block)

    def __post_init__(self):
        object.__setattr__(self, "mode", _check_index(self.mode))
        object.__setattr__(self, "phi", _check_finite(self.phi, "phase phi"))


@dataclass(frozen=True)
class LossElement:
    """Fractional intensity loss on one mode."""

    mode: int
    L: float
    block = staticmethod(_loss_block)

    def __post_init__(self):
        object.__setattr__(self, "mode", _check_index(self.mode))
        object.__setattr__(self, "L", LossSpec(self.L).L)


def _modes(element) -> tuple[int, ...]:
    return element.modes if hasattr(element, "modes") else (element.mode,)


@functools.lru_cache(maxsize=None)
def _block_params(cls) -> tuple[str, ...]:
    """The fields of an element kind that its ``block`` takes: all but the modes."""
    return tuple(f.name for f in fields(cls) if f.name not in ("mode", "modes"))


def element_map(element, n_modes: int) -> ElementMap:
    """Full-register channel map of one element: its block on its modes, identity elsewhere."""
    block = getattr(type(element), "block", None)
    if block is None:
        raise TypeError(f"unknown element {element!r}")
    idx = _quadrature_indices([_check_mode(m, n_modes) for m in _modes(element)])
    linear, noise = block(**{n: getattr(element, n) for n in _block_params(type(element))})
    square = np.ix_(idx, idx)
    dim = 2 * n_modes
    full_linear = np.eye(dim)
    full_linear[square] = linear
    full_noise = np.zeros((dim, dim))
    if noise is not None:
        weight, pattern = noise
        # P P^T as separately rounded products summed (no fused multiply-add), so N
        # has the bits of its terms written out: exactly L I for a loss.
        full_noise[square] = weight * (pattern[:, None, :] * pattern[None, :, :]).sum(axis=-1)
    return ElementMap(full_linear, full_noise, np.zeros(dim))


def parametric_amplifier(pair, gain, n_modes: int) -> ElementMap:
    """Two-mode phase-insensitive amplifier on a mode pair.

    Implements ``c = G b + g a^dag``, ``d = G a + g b^dag`` (symmetric under
    swapping the pair).  Lossless; on vacuum each output mode acquires
    quadrature variance ``G^2 + g^2`` at every angle.
    """
    return element_map(PaElement(pair, gain.g if isinstance(gain, PaGain) else gain), n_modes)


def single_mode_squeezer(mode: int, gain, n_modes: int) -> ElementMap:
    """Degenerate (phase-sensitive) amplifier ``b = G a + g a^dag`` on one mode.

    Stretches the amplitude quadrature by ``G + g`` and squeezes the phase
    quadrature by ``G - g = 1/(G + g)``.
    """
    return element_map(SqueezerElement(mode, gain.g if isinstance(gain, PaGain) else gain), n_modes)


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
    return element_map(BsElement(pair, T, convention), n_modes)


def phase_shift(mode: int, phi: float, n_modes: int) -> ElementMap:
    """Optical phase ``a -> exp(i phi) a`` on one mode.

    In quadratures: ``x' = cos(phi) x - sin(phi) p``,
    ``p' = sin(phi) x + cos(phi) p``.
    """
    return element_map(PhaseElement(mode, phi), n_modes)


def loss_channel(mode: int, loss, n_modes: int) -> ElementMap:
    """Fractional intensity loss ``L`` on one mode.

    Equivalent to mixing the mode with vacuum on a beamsplitter of
    transmission ``1 - L`` and discarding the other port: the mean scales by
    ``sqrt(1 - L)`` and the covariance block by ``(1 - L)`` with ``L * I``
    added.  Losses compose as ``1 - (1-L1)(1-L2)``.
    """
    return element_map(LossElement(mode, loss.L if isinstance(loss, LossSpec) else loss), n_modes)


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
