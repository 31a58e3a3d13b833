"""Built-in interferometer topologies and their sensitivity theory.

Two parametrized topologies are provided:

* the squeezed-light Mach-Zehnder (``SqMziParams``): a single-mode squeezer
  feeds the dark input port, a coherent state the bright port; ``g = 0``
  recovers the plain shot-noise-limited MZI;
* the nested amplifier interferometer (``SisniParams``): an MZI sits inside
  one arm of a two-amplifier loop, with the upstream amplifier's signal
  output on the MZI dark port and the downstream amplifier recombining the
  MZI dark output with the idler.

Both builders mirror the element chains literally (beamsplitter sign
convention ``second_minus``), lock to the dark fringe at ``phi = pi`` and
detect the phase quadrature on the dark output.  Closed forms for SNR,
mean signal, variance, and phase variance are first order in the phase
excursion ``dphi``.  Engine reports read the detected quadrature backward
through the circuit (see :class:`~gicirc.circuits._Adjoint`): its means at
the signal phase ``+/- dphi`` give the mean signal by a symmetric finite
difference, and its variance the noise at the set point.  Each topology is
one row of ``_TOPOLOGIES``, which every topology-dependent step reads.  The
parameter dataclasses check every field once; the builders trust them and
assemble the elements and the circuit without checking again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InstabilityError
from .elements import LossSpec, PaGain, _check_transmission, as_gain, as_loss
from .circuits import (
    BsElement,
    CircuitSpec,
    Detection,
    LossElement,
    NoisyPaElement,
    PaElement,
    PhaseElement,
    SqueezerElement,
    _Adjoint,
    _amplification,
    _assemble,
    _quadrature_row,
)
from .noise_model import NoisyPaParams
from .states import Coherent, Vacuum, _check_finite, _check_mode

__all__ = [
    "DARK_FRINGE",
    "SqMziParams",
    "SisniParams",
    "OutputReport",
    "build_sq_mzi",
    "build_sisni",
    "snr_sq_mzi_closed",
    "snr_sisni_closed",
    "phase_variance_closed",
    "mean_signal_and_variance",
    "engine_report",
    "sql_baseline",
]

DARK_FRINGE = math.pi
_VACUUM = Vacuum()
_DETECT_0 = Detection(0)


def _amplitude(alpha2) -> float:
    """The bright-port amplitude ``sqrt(alpha2)``; ``ValueError`` naming ``alpha2`` if negative."""
    if alpha2 < 0.0:
        raise ValueError(f"bright-port photon number alpha2 must be >= 0, got {alpha2}")
    return math.sqrt(alpha2)


def _check_alpha(alpha) -> float:
    alpha = _check_finite(alpha, "bright-port amplitude alpha")
    if alpha < 0.0:
        raise ValueError(f"bright-port amplitude alpha must be >= 0, got {alpha}")
    return alpha


@dataclass(frozen=True)
class SqMziParams:
    """Squeezed-light MZI parameters.

    ``alpha`` is the bright-port amplitude (``alpha**2`` = photon number),
    ``g`` the dark-port squeezer gain (0 for a plain MZI), ``L_i``/``L_e``
    internal/external intensity losses, ``phi`` the interferometer phase
    set point, and ``T`` the beamsplitter transmission.
    """

    alpha: float
    g: PaGain = PaGain(0.0)
    L_i: LossSpec = LossSpec(0.0)
    L_e: LossSpec = LossSpec(0.0)
    phi: float = DARK_FRINGE
    T: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "g", as_gain(self.g))
        object.__setattr__(self, "L_i", as_loss(self.L_i))
        object.__setattr__(self, "L_e", as_loss(self.L_e))
        object.__setattr__(self, "phi", _check_finite(self.phi, "phase set point phi"))
        object.__setattr__(self, "T", _check_transmission(self.T))


@dataclass(frozen=True)
class SisniParams:
    """Nested amplifier interferometer parameters.

    ``g1``/``g2`` are the upstream/downstream amplifier gains, ``L_is`` and
    ``L_ii`` the internal losses of the signal and idler arms, ``L_e`` the
    external loss after the downstream amplifier, ``phi_signal`` the MZI
    phase set point and ``phi_pump`` the relative pump phase (``pi`` locks
    to minimum net amplification).
    """

    alpha: float
    g1: PaGain = PaGain(0.0)
    g2: PaGain = PaGain(0.0)
    L_is: LossSpec = LossSpec(0.0)
    L_ii: LossSpec = LossSpec(0.0)
    L_e: LossSpec = LossSpec(0.0)
    phi_signal: float = DARK_FRINGE
    phi_pump: float = math.pi
    T: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "g1", as_gain(self.g1))
        object.__setattr__(self, "g2", as_gain(self.g2))
        object.__setattr__(self, "L_is", as_loss(self.L_is))
        object.__setattr__(self, "L_ii", as_loss(self.L_ii))
        object.__setattr__(self, "L_e", as_loss(self.L_e))
        object.__setattr__(self, "phi_signal", _check_finite(self.phi_signal, "signal phase phi_signal"))
        object.__setattr__(self, "phi_pump", _check_finite(self.phi_pump, "pump phase phi_pump"))
        object.__setattr__(self, "T", _check_transmission(self.T))


TopologyParams = SqMziParams | SisniParams


@dataclass(frozen=True)
class OutputReport:
    """Dark-fringe readout summary.

    ``mean_X2`` is the mean phase-quadrature signal produced by a phase
    excursion ``dphi``, ``var_X2`` the noise variance at the set point,
    ``snr = mean_X2**2 / var_X2`` and ``phase_variance = dphi**2 / snr``.
    """

    mean_X2: float
    var_X2: float
    snr: float
    phase_variance: float
    detected_mode: int


def build_sq_mzi(params: SqMziParams) -> tuple[CircuitSpec, int]:
    """Assemble the squeezed-light MZI circuit.

    Mode layout: 0 = dark (squeezer) input, 1 = bright coherent input.
    Element order: squeezer, first beamsplitter, internal loss on both arms,
    phase on the bright-side arm, second beamsplitter, external loss on the
    detected output.  Returns the circuit and the detected mode index.
    """
    p = params
    elements = (
        _assemble(SqueezerElement, mode=0, g=p.g.g),
        _assemble(BsElement, modes=(0, 1), T=p.T),
        _assemble(LossElement, mode=0, L=p.L_i.L),
        _assemble(LossElement, mode=1, L=p.L_i.L),
        _assemble(PhaseElement, mode=1, phi=p.phi),  # 4: signal phase
        _assemble(BsElement, modes=(0, 1), T=p.T),
        _assemble(LossElement, mode=0, L=p.L_e.L),  # 6: external loss
    )
    inputs = (_VACUUM, _assemble(Coherent, alpha=complex(p.alpha)))
    return _assemble(CircuitSpec, n_modes=2, inputs=inputs, elements=elements, detect=_DETECT_0), 0


def build_sisni(
    params: SisniParams,
    noisy_pa1: NoisyPaParams | None = None,
    noisy_pa2: NoisyPaParams | None = None,
) -> tuple[CircuitSpec, int]:
    """Assemble the nested amplifier interferometer circuit.

    Mode layout: 0 = signal, 1 = idler, 2 = bright MZI input.  Element
    order: upstream amplifier on (0, 1); idler loss and pump phase on 1;
    nested MZI on (0, 2) (beamsplitter, arm losses, signal phase,
    beamsplitter); downstream amplifier on (0, 1); external loss on both
    outputs.  Detection is on mode 0 (the slightly brighter dark output).

    Passing ``noisy_pa1``/``noisy_pa2`` replaces the corresponding ideal
    amplifier with the lossy thermal-auxiliary model; the ``g1``/``g2``
    gains are ignored for a replaced amplifier.
    """
    p = params
    pa1, pa2 = (
        _assemble(PaElement, modes=(0, 1), g=gain.g)
        if pa is None
        else _assemble(
            NoisyPaElement, modes=(0, 1), rho=pa.rho, kappa=pa.kappa, epsilon2=pa.epsilon2
        )
        for gain, pa in ((p.g1, noisy_pa1), (p.g2, noisy_pa2))
    )
    elements = (
        pa1,  # 0: upstream amplifier
        _assemble(LossElement, mode=1, L=p.L_ii.L),
        _assemble(PhaseElement, mode=1, phi=p.phi_pump),
        _assemble(BsElement, modes=(0, 2), T=p.T),
        _assemble(LossElement, mode=0, L=p.L_is.L),
        _assemble(LossElement, mode=2, L=p.L_is.L),
        _assemble(PhaseElement, mode=2, phi=p.phi_signal),  # 6: signal phase
        _assemble(BsElement, modes=(0, 2), T=p.T),
        pa2,  # 8: downstream amplifier
        _assemble(LossElement, mode=0, L=p.L_e.L),  # 9, 10: external loss
        _assemble(LossElement, mode=1, L=p.L_e.L),
    )
    inputs = (_VACUUM, _VACUUM, _assemble(Coherent, alpha=complex(p.alpha)))
    return _assemble(CircuitSpec, n_modes=3, inputs=inputs, elements=elements, detect=_DETECT_0), 0


def _sq_mzi_terms(g, G, L_i, L_e):
    """Closed-form terms ``(eta, 1, var)`` of the squeezed-light MZI.

    Field values are floats or arrays that broadcast together.
    """
    eta = (1.0 - L_i) * (1.0 - L_e)
    return eta, 1.0, eta / ((G + g) * (G + g)) + L_i * (1.0 - L_e) + L_e


def _sisni_terms(g1, G1, g2, G2, L_is, L_ii, L_e):
    """Closed-form terms ``(eta_s, G2, var)`` of the nested interferometer.

    Field values are floats or arrays that broadcast together.  The noise
    amplitudes ``d1 = rs G1 G2 - ri g1 g2`` and ``d2 = rs g1 G2 - ri G1 g2``
    are differences of ``G²``-sized products; each is written as the
    difference of squares over the sum (with ``G² = 1 + g²``), so no
    term cancels at high gain.
    """
    eta_s = (1.0 - L_is) * (1.0 - L_e)
    eta_i = (1.0 - L_ii) * (1.0 - L_e)
    loss_noise = L_e + g2 * g2 * (1.0 - L_e) * L_ii + G2 * G2 * (1.0 - L_e) * L_is
    rs, ri = np.sqrt(eta_s), np.sqrt(eta_i)
    g1_sq, g2_sq = g1 * g1, g2 * g2
    both = (1.0 - L_e) * (L_ii - L_is) * g1_sq * g2_sq  # (eta_s - eta_i) g1² g2²
    d1 = _quotient(eta_s * (1.0 + g1_sq + g2_sq) + both, rs * G1 * G2 + ri * g1 * g2)
    d2 = _quotient(eta_s * g1_sq - eta_i * g2_sq + both, rs * g1 * G2 + ri * G1 * g2)
    return eta_s, G2, loss_noise + d1 * d1 + d2 * d2


def _quotient(num, den):
    """``num / den``, and 0 where ``den`` is 0 (``_sisni_terms``' numerators are 0 there too).

    No ``0/0`` is evaluated, so it runs under :class:`_guard`'s raising error
    state.  Numpy scalars skip the array call, which costs 30 times the division.
    """
    if not isinstance(den, np.ndarray):
        return num / den if den != 0.0 else np.float64(0.0)
    num, den = np.broadcast_arrays(num, den)
    return np.divide(num, den, out=np.zeros(num.shape), where=den != 0.0)


class _Topology(NamedTuple):
    """One built-in topology; element indices refer to its builder's element order."""

    build: Callable  # (params, *noisy amplifier params) -> (CircuitSpec, detected mode)
    phase: int  # the signal phase
    phase_field: str  # the parameter field that sets it
    external: tuple[int, ...]  # the external-loss elements
    amplifiers: tuple[int, ...]  # the amplifiers a lossy model can replace, in builder order
    kernel: Callable  # closed-form terms (eta, gain, var), see _closed_terms
    gains: tuple[str, ...]  # gain fields, passed to the kernel as (g, G) pairs
    losses: tuple[str, ...]  # loss fields, passed to the kernel by name
    internal: dict  # loss_plane internal_target -> the loss fields it sweeps
    baseline: dict  # loss field of the SQL-baseline MZI -> the loss field it copies
    closed_point: dict  # parameter field -> the only value at which the closed form holds


_TOPOLOGIES = {
    SqMziParams: _Topology(
        build_sq_mzi, phase=4, phase_field="phi", external=(6,), amplifiers=(),
        kernel=_sq_mzi_terms, gains=("g",), losses=("L_i", "L_e"),
        internal={"both": ("L_i",)}, baseline={"L_i": "L_i", "L_e": "L_e"},
        closed_point={"T": 0.5, "phi": DARK_FRINGE},
    ),
    SisniParams: _Topology(
        build_sisni, phase=6, phase_field="phi_signal", external=(9, 10), amplifiers=(0, 8),
        kernel=_sisni_terms, gains=("g1", "g2"), losses=("L_is", "L_ii", "L_e"),
        internal={"both": ("L_is", "L_ii"), "signal": ("L_is",), "idler": ("L_ii",)},
        baseline={"L_i": "L_is", "L_e": "L_e"},
        closed_point={"T": 0.5, "phi_signal": DARK_FRINGE, "phi_pump": math.pi},
    ),
}


def _topology(params: TopologyParams) -> _Topology:
    if type(params) not in _TOPOLOGIES:
        raise TypeError(f"unknown topology parameters {params!r}")
    return _TOPOLOGIES[type(params)]


class _Cause(InstabilityError):
    """A readout failure that names its own cause (an underflow, a cancellation, lost precision)."""


_EPSILON = float(np.finfo(float).eps)
# The largest a-priori relative rounding error, eps * prod(G + g) over a
# circuit's amplifiers and squeezers, at which an engine readout reports.
_PRECISION = 1e-6


class _guard:
    """Run a readout with numpy raising on overflow, invalid values and division by zero.

    Those and an engine pass's :class:`InstabilityError` leave as one naming
    the stage and the gains of ``params`` (or ``params`` itself, a string
    naming the inputs where rows set the gains), as an overflow or, for a
    :class:`_Cause`, as its own cause.  Values must be numpy floats: a
    Python float overflows to inf without an error.  A class, not a
    generator context manager, because entering it is cheaper, and every
    built-in readout enters one.
    """

    def __init__(self, stage: str, params: TopologyParams | str):
        self.stage, self.params = stage, params
        self.errstate = np.errstate(over="raise", invalid="raise", divide="raise")

    def __enter__(self):
        self.errstate.__enter__()

    def __exit__(self, kind, exc, traceback):
        self.errstate.__exit__(kind, exc, traceback)
        if not isinstance(exc, (FloatingPointError, InstabilityError)):
            return False
        what = exc if isinstance(exc, _Cause) else "the readout overflows"
        params = self.params
        if not isinstance(params, str):
            params = "gains " + ", ".join(f"{name} = {getattr(params, name).g:g}" for name in _topology(params).gains)
        raise InstabilityError(f"{self.stage}: {what} at {params}") from None


def _precise(amplification):
    """Refuse an engine readout whose gains' a-priori rounding bound exceeds :data:`_PRECISION`.

    ``amplification`` is the product of ``G + g`` over the circuit's
    amplifiers and squeezers (see :func:`~gicirc.circuits._amplification`),
    a float or an array over rows.  Rounded block entries leave a detected
    variance a relative error of about ``eps`` times it, where cancelling
    amplifiers make the variance small against the state's other entries.
    Call it after the pass and the arithmetic that reads the state, so an
    overflow there is still reported as one.
    """
    if isinstance(amplification, np.ndarray):
        if not amplification.size:  # no rows: nothing to refuse
            return
        amplification = amplification.max()
    bound = _EPSILON * amplification
    if bound > _PRECISION:
        raise _Cause(f"the precision bound eps * prod(G + g) = {bound:.2g} exceeds {_PRECISION:g}")


def _positive(var):
    """The noise variance; one that cancellation at huge gains leaves <= 0 is refused as such."""
    if not (var > 0.0).all():
        raise _Cause("the noise variance cancels to zero or below")
    return var


def _closed_terms(params: TopologyParams, **losses):
    """First-order dark-fringe terms ``(eta, gain, var)`` of a topology.

    The mean signal is ``-sqrt(eta) gain dphi alpha``, ``var`` the set-point
    noise variance and ``SNR = eta gain^2 dphi^2 alpha^2 / var``.  Loss
    fields named in ``losses`` (``L_i``; ``L_is``, ``L_ii``; ``L_e``)
    replace the parameters' values and may be arrays; the terms broadcast
    over them.  Raises ``ValueError`` for parameters off the point the
    closed form models (balanced beamsplitters, the dark fringe and, for the
    nested topology, the pump phase at ``pi``).  Run it inside
    :func:`_guard`: the gains enter as numpy floats, so an overflow raises.
    """
    topo = _topology(params)
    for name, value in topo.closed_point.items():
        if getattr(params, name) != value:
            raise ValueError(
                f"closed form holds only at {name} = {value!r}, got {name} = "
                f"{getattr(params, name)!r}; engine_report models other values"
            )
    gs = [np.float64(getattr(params, name).g) for name in topo.gains]
    gains = [x for g in gs for x in (g, np.sqrt(1.0 + g * g))]
    fields = {name: getattr(params, name).L for name in topo.losses} | losses
    eta, gain, var = topo.kernel(*gains, **fields)
    return eta, gain, _positive(var)


def _snr_closed(params: TopologyParams, dphi: float, expected: type) -> float:
    """The closed-form SNR of the topology whose parameters are of type ``expected``."""
    if type(params) is not expected:
        raise TypeError(f"this closed form needs {expected.__name__}, got {type(params).__name__}")
    dphi = np.float64(_check_finite(dphi, "phase excursion dphi"))
    with _guard("closed form", params):
        eta, gain, var = _closed_terms(params)
        alpha = np.float64(params.alpha)
        return float(eta * gain * gain * dphi * dphi * (alpha * alpha) / var)


def snr_sq_mzi_closed(params: SqMziParams, dphi: float) -> float:
    """First-order dark-fringe SNR of the squeezed-light MZI.

    ``eta * dphi^2 * alpha^2`` over
    ``eta/(G + g)^2 + L_i (1 - L_e) + L_e`` with
    ``eta = (1 - L_i)(1 - L_e)``.  Holds at the dark-fringe set point with
    balanced beamsplitters (other values raise ``ValueError``) for a small
    excursion (``|dphi| <= 0.1`` recommended).  Other parameters than
    :class:`SqMziParams` raise ``TypeError``.
    """
    return _snr_closed(params, dphi, SqMziParams)


def snr_sisni_closed(params: SisniParams, dphi: float) -> float:
    """First-order dark-fringe SNR of the nested amplifier interferometer.

    ``eta_s * G2^2 * dphi^2 * alpha^2`` over the noise variance
    ``L + (sqrt(eta_s) G1 G2 - sqrt(eta_i) g1 g2)^2
       + (sqrt(eta_s) g1 G2 - sqrt(eta_i) G1 g2)^2``
    with ``eta_s = (1 - L_is)(1 - L_e)``, ``eta_i = (1 - L_ii)(1 - L_e)``
    and ``L = L_e + g2^2 (1 - L_e) L_ii + G2^2 (1 - L_e) L_is``.  Holds at
    the dark fringe with balanced beamsplitters and the pump phase locked to
    minimum net amplification (``phi_pump = pi``); other values raise
    ``ValueError``, and other parameters than :class:`SisniParams`
    ``TypeError``.
    """
    return _snr_closed(params, dphi, SisniParams)


def _require_bright(params: TopologyParams):
    if params.alpha == 0.0:
        raise ValueError(
            "degenerate input: phase variance is undefined for alpha = 0"
        )


def _require_signal(signal):
    """Refuse a readout whose mean signal (a float or an array) is zero somewhere."""
    zero = signal == 0.0
    if zero.any() if isinstance(zero, np.ndarray) else zero:
        raise ValueError(
            "degenerate readout: no signal reaches the detector, so the phase variance is undefined"
        )


def _phase_terms(params: TopologyParams, **losses):
    """``(eta, gain, var, phase variance)``; ``losses`` and the guard as in :func:`_closed_terms`."""
    _require_bright(params)
    eta, gain, var = _closed_terms(params, **losses)
    _require_signal(eta * gain)
    alpha = np.float64(params.alpha)
    detected = eta * gain * gain * (alpha * alpha)  # the detected squared amplitude
    if not (detected > 0.0).all():  # a tiny amplitude whose square rounds to 0
        raise _Cause("the squared amplitude underflows")
    phase_variance = var / detected
    if not (phase_variance > 0.0).all():  # a positive ratio below the smallest subnormal
        raise _Cause("the phase variance underflows")
    return eta, gain, var, phase_variance


def phase_variance_closed(params: TopologyParams) -> float:
    """Closed-form dark-fringe phase readout variance (rad^2).

    Equals ``dphi^2 / SNR`` for every excursion ``dphi``; for the plain
    lossless MZI this is the shot-noise limit ``1/alpha^2``.
    """
    with _guard("closed form", params):
        return float(_phase_terms(params)[3])


def mean_signal_and_variance(params: TopologyParams, dphi: float = 1e-3) -> OutputReport:
    """Closed-form dark-fringe report for a phase excursion ``dphi``.

    The mean signal is first order in ``dphi``:
    ``-sqrt(eta) dphi alpha`` for the squeezed-light MZI and
    ``-sqrt(eta_s) G2 dphi alpha`` for the nested interferometer.
    """
    dphi = np.float64(_check_finite(dphi, "phase excursion dphi"))
    with _guard("closed form", params):
        eta, gain, var, phase_variance = _phase_terms(params)
        mean = -np.sqrt(eta) * gain * dphi * params.alpha
        snr = mean * mean / var
    return OutputReport(*(float(v) for v in (mean, var, snr, phase_variance)), detected_mode=0)


def _build(params: TopologyParams, *noisy: NoisyPaParams | None) -> tuple[_Topology, CircuitSpec]:
    """The topology and its circuit; ``noisy`` replaces the topology's amplifiers in order."""
    topo = _topology(params)
    if any(pa is not None for pa in noisy[len(topo.amplifiers) :]):
        raise ValueError("noisy amplifiers apply to the nested topology only")
    spec, _ = topo.build(params, *noisy[: len(topo.amplifiers)])
    return topo, spec


def _excursion_shift(topo: _Topology, spec: CircuitSpec, dphi: float) -> tuple[int, dict]:
    """The ``shift`` (see :class:`~gicirc.circuits._Adjoint`) of a topology's signal phase to ``phi0, phi0 +/- dphi``."""
    dphi = float(dphi)
    if dphi == 0.0 or not math.isfinite(dphi):
        raise ValueError(f"phase excursion dphi must be finite and nonzero, got {dphi}")
    phi0 = spec.elements[topo.phase].phi
    return topo.phase, {"phi": np.array([phi0, phi0 + dphi, phi0 - dphi])}


def _excursion_readout(topo: _Topology, spec: CircuitSpec, dphi: float, mode: int, smallest: float = 0.0):
    """Mean signal, set-point variance and SNR of a topology's circuit (see :func:`_build`) on ``mode``, by :func:`_judge`.

    One backward readout of the quadrature ``X(theta)`` of ``mode``, at the
    detection's ``theta``, gives its means at the signal phase ``phi0`` and
    ``phi0 +/- dphi`` and its variance at ``phi0``.
    """
    shift = _excursion_shift(topo, spec, dphi)
    means, var = _Adjoint(spec, (), shift, _quadrature_row(spec.n_modes, mode, spec.detect.theta)).run({})
    return _judge(means[1], means[2], var, _amplification(spec), smallest)


def _judge(plus, minus, variance, amplification, smallest: float = 0.0):
    """Mean signal, variance and SNR per row from the detected means at ``+/- dphi`` and the set-point variance.

    ``amplification`` is the circuit's, for :func:`_precise`.  Gains past
    its bound are refused first, before the values are judged; then a
    variance not above 0 is a cancellation, a zero signal is degenerate,
    and an SNR not above ``smallest`` (by default 0) is an underflow.
    """
    _precise(amplification)
    signal, var = 0.5 * (plus - minus), _positive(variance)
    snr = signal * signal / var
    _require_signal(signal)
    if not (snr > smallest).all():
        raise _Cause("the SNR underflows")
    return signal, var, snr


def engine_report(
    params: TopologyParams,
    dphi: float = 1e-3,
    *,
    noisy_pa1: NoisyPaParams | None = None,
    noisy_pa2: NoisyPaParams | None = None,
    detect_mode: int | None = None,
) -> OutputReport:
    """Engine report at the parameterized set point, read backward from the detected quadrature.

    The noise variance is evaluated at the set-point phase; the mean signal
    is the symmetric finite difference of the detected homodyne mean at
    ``set point +/- dphi``.  Matches the first-order closed forms up to the
    ``sin(dphi)/dphi`` discretization factor.  Raises
    :class:`InstabilityError` where the gains overflow the readout.

    ``detect_mode`` overrides the builder's detection target; the nested
    topology's second dark output (mode 1) carries a slightly weaker signal
    than the default port and can be reported by passing ``detect_mode=1``.
    """
    _require_bright(params)
    with _guard("engine", params):
        topo, spec = _build(params, noisy_pa1, noisy_pa2)
        mode = spec.detect.mode if detect_mode is None else _check_mode(detect_mode, spec.n_modes)
        signal, var, snr = _excursion_readout(topo, spec, dphi, mode)
        dphi = np.float64(dphi)
        phase_variance = dphi * dphi / snr
    return OutputReport(*(float(v) for v in (signal, var, snr, phase_variance)), detected_mode=mode)


def sql_baseline(params: TopologyParams) -> SqMziParams:
    """Shot-noise-limit reference: the ``g = 0`` MZI at matched losses.

    Keeps the bright-port amplitude, transmission and signal phase, and maps
    losses as the topology's row says (nested signal arm -> MZI internal).
    """
    topo = _topology(params)
    losses = {field: getattr(params, own) for field, own in topo.baseline.items()}
    return SqMziParams(params.alpha, phi=getattr(params, topo.phase_field), T=params.T, **losses)
