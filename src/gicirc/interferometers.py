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
excursion ``dphi``; engine reports propagate the full covariance and use a
symmetric finite difference for the mean signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
    _propagate,
)
from .noise_model import NoisyPaParams
from .states import Coherent, Vacuum, _check_finite, _check_mode, _quadrature

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
        SqueezerElement(0, p.g.g),
        BsElement((0, 1), p.T),
        LossElement(0, p.L_i.L),
        LossElement(1, p.L_i.L),
        PhaseElement(1, p.phi),
        BsElement((0, 1), p.T),
        LossElement(0, p.L_e.L),
    )
    inputs = (Vacuum(), Coherent(p.alpha))
    return CircuitSpec(2, inputs, elements, Detection(0)), 0


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
    pa1 = (
        PaElement((0, 1), p.g1.g)
        if noisy_pa1 is None
        else NoisyPaElement((0, 1), noisy_pa1.rho, noisy_pa1.kappa, noisy_pa1.epsilon2)
    )
    pa2 = (
        PaElement((0, 1), p.g2.g)
        if noisy_pa2 is None
        else NoisyPaElement((0, 1), noisy_pa2.rho, noisy_pa2.kappa, noisy_pa2.epsilon2)
    )
    elements = (
        pa1,
        LossElement(1, p.L_ii.L),
        PhaseElement(1, p.phi_pump),
        BsElement((0, 2), p.T),
        LossElement(0, p.L_is.L),
        LossElement(2, p.L_is.L),
        PhaseElement(2, p.phi_signal),
        BsElement((0, 2), p.T),
        pa2,
        LossElement(0, p.L_e.L),
        LossElement(1, p.L_e.L),
    )
    inputs = (Vacuum(), Vacuum(), Coherent(p.alpha))
    return CircuitSpec(3, inputs, elements, Detection(0)), 0


def _sq_mzi_terms(g, G, L_i, L_e):
    """Closed-form terms ``(eta, 1, var)`` of the squeezed-light MZI.

    Field values are floats or arrays that broadcast together.
    """
    eta = (1.0 - L_i) * (1.0 - L_e)
    return eta, 1.0, eta / (G + g) ** 2 + L_i * (1.0 - L_e) + L_e


def _sisni_terms(g1, G1, g2, G2, L_is, L_ii, L_e):
    """Closed-form terms ``(eta_s, G2, var)`` of the nested interferometer.

    Field values are floats or arrays that broadcast together.
    """
    eta_s = (1.0 - L_is) * (1.0 - L_e)
    eta_i = (1.0 - L_ii) * (1.0 - L_e)
    loss_noise = L_e + g2 * g2 * (1.0 - L_e) * L_ii + G2 * G2 * (1.0 - L_e) * L_is
    rs, ri = np.sqrt(eta_s), np.sqrt(eta_i)
    return eta_s, G2, loss_noise + (rs * G1 * G2 - ri * g1 * g2) ** 2 + (rs * g1 * G2 - ri * G1 * g2) ** 2


def _closed_terms(params: TopologyParams, **losses):
    """First-order dark-fringe terms ``(eta, gain, var)`` of a topology.

    The mean signal is ``-sqrt(eta) gain dphi alpha``, ``var`` the set-point
    noise variance and ``SNR = eta gain^2 dphi^2 alpha^2 / var``.  Loss
    fields named in ``losses`` (``L_i``; ``L_is``, ``L_ii``; ``L_e``)
    replace the parameters' values and may be arrays; the terms broadcast
    over them.
    """
    if isinstance(params, SqMziParams):
        fields = {"L_i": params.L_i.L, "L_e": params.L_e.L} | losses
        return _sq_mzi_terms(params.g.g, params.g.G, **fields)
    if isinstance(params, SisniParams):
        fields = {"L_is": params.L_is.L, "L_ii": params.L_ii.L, "L_e": params.L_e.L} | losses
        return _sisni_terms(params.g1.g, params.g1.G, params.g2.g, params.g2.G, **fields)
    raise TypeError(f"unknown topology parameters {params!r}")


def _snr_closed(params: TopologyParams, dphi: float) -> float:
    eta, gain, var = _closed_terms(params)
    return float(eta * gain * gain * dphi * dphi * params.alpha**2 / var)


def snr_sq_mzi_closed(params: SqMziParams, dphi: float) -> float:
    """First-order dark-fringe SNR of the squeezed-light MZI.

    ``eta * dphi^2 * alpha^2`` over
    ``eta/(G + g)^2 + L_i (1 - L_e) + L_e`` with
    ``eta = (1 - L_i)(1 - L_e)``.  Assumes the dark-fringe set point and a
    small excursion (``|dphi| <= 0.1`` recommended).
    """
    return _snr_closed(params, dphi)


def snr_sisni_closed(params: SisniParams, dphi: float) -> float:
    """First-order dark-fringe SNR of the nested amplifier interferometer.

    ``eta_s * G2^2 * dphi^2 * alpha^2`` over the noise variance
    ``L + (sqrt(eta_s) G1 G2 - sqrt(eta_i) g1 g2)^2
       + (sqrt(eta_s) g1 G2 - sqrt(eta_i) G1 g2)^2``
    with ``eta_s = (1 - L_is)(1 - L_e)``, ``eta_i = (1 - L_ii)(1 - L_e)``
    and ``L = L_e + g2^2 (1 - L_e) L_ii + G2^2 (1 - L_e) L_is``.  Assumes the
    dark fringe and pump phase locked to minimum net amplification.
    """
    return _snr_closed(params, dphi)


def _require_bright(params: TopologyParams):
    if params.alpha == 0.0:
        raise ValueError(
            "degenerate input: phase variance is undefined for alpha = 0"
        )


def _phase_variance(params: TopologyParams, **losses):
    """Closed-form phase variance; ``losses`` as in :func:`_closed_terms`."""
    _require_bright(params)
    eta, gain, var = _closed_terms(params, **losses)
    return var / (eta * gain * gain * params.alpha**2)


def phase_variance_closed(params: TopologyParams) -> float:
    """Closed-form dark-fringe phase readout variance (rad^2).

    Equals ``dphi^2 / SNR`` for every excursion ``dphi``; for the plain
    lossless MZI this is the shot-noise limit ``1/alpha^2``.
    """
    return float(_phase_variance(params))


def mean_signal_and_variance(params: TopologyParams, dphi: float = 1e-3) -> OutputReport:
    """Closed-form dark-fringe report for a phase excursion ``dphi``.

    The mean signal is first order in ``dphi``:
    ``-sqrt(eta) dphi alpha`` for the squeezed-light MZI and
    ``-sqrt(eta_s) G2 dphi alpha`` for the nested interferometer.
    """
    _require_bright(params)
    eta, gain, var = _closed_terms(params)
    mean = float(-np.sqrt(eta) * gain * dphi * params.alpha)
    var = float(var)
    return OutputReport(
        mean_X2=mean,
        var_X2=var,
        snr=mean * mean / var,
        phase_variance=phase_variance_closed(params),
        detected_mode=0,
    )


def _with_phase(params: TopologyParams, phi: float) -> TopologyParams:
    if isinstance(params, SqMziParams):
        return replace(params, phi=phi)
    return replace(params, phi_signal=phi)


def _build(
    params: TopologyParams,
    noisy_pa1: NoisyPaParams | None = None,
    noisy_pa2: NoisyPaParams | None = None,
) -> tuple[CircuitSpec, int, int]:
    """The topology's circuit, its detected mode and its signal-phase element index."""
    if isinstance(params, SqMziParams):
        if noisy_pa1 is not None or noisy_pa2 is not None:
            raise ValueError("noisy amplifiers apply to the nested topology only")
        (spec, mode), signal_mode = build_sq_mzi(params), 1
    elif isinstance(params, SisniParams):
        (spec, mode), signal_mode = build_sisni(params, noisy_pa1, noisy_pa2), 2
    else:
        raise TypeError(f"unknown topology parameters {params!r}")
    phase_idx = next(
        i
        for i, el in enumerate(spec.elements)
        if isinstance(el, PhaseElement) and el.mode == signal_mode
    )
    return spec, mode, phase_idx


def _phase_excursion(
    spec: CircuitSpec, phase_idx: int, dphi: float, vary: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Output means and covariances at the signal phase ``phi0``, ``phi0 +/- dphi``.

    One batched propagation (see ``circuits._propagate``).  ``vary`` holds
    ``R`` rows of element field values (one row without it); each row runs
    at the three phases.  Returns means ``(R, 3, 2n)`` and covariances
    ``(R, 3, 2n, 2n)``, the second axis ordered ``(phi0, phi0 + dphi,
    phi0 - dphi)``.
    """
    dphi = float(dphi)
    if dphi == 0.0 or not math.isfinite(dphi):
        raise ValueError(f"phase excursion dphi must be finite and nonzero, got {dphi}")
    vary = vary or {}
    rows = max((len(v) for values in vary.values() for v in values.values()), default=1)
    batch = {i: {k: np.repeat(v, 3) for k, v in values.items()} for i, values in vary.items()}
    phi0 = spec.elements[phase_idx].phi
    batch[phase_idx] = {"phi": np.tile([phi0, phi0 + dphi, phi0 - dphi], rows)}
    mean, cov = _propagate(spec, batch)
    dim = 2 * spec.n_modes
    return mean.reshape(rows, 3, dim), cov.reshape(rows, 3, dim, dim)


def _readout(spec: CircuitSpec, mode: int, mean: np.ndarray, cov: np.ndarray):
    """Mean signal (half the ``+/- dphi`` difference) and set-point variance per row."""
    signal, variance = _quadrature(mean, cov, mode, spec.detect.theta)
    return 0.5 * (signal[:, 1] - signal[:, 2]), variance[:, 0]


def engine_report(
    params: TopologyParams,
    dphi: float = 1e-3,
    *,
    noisy_pa1: NoisyPaParams | None = None,
    noisy_pa2: NoisyPaParams | None = None,
    detect_mode: int | None = None,
) -> OutputReport:
    """Covariance-propagation report at the parameterized set point.

    The noise variance is evaluated at the set-point phase; the mean signal
    is the symmetric finite difference of the detected homodyne mean at
    ``set point +/- dphi``.  Matches the first-order closed forms up to the
    ``sin(dphi)/dphi`` discretization factor.

    ``detect_mode`` overrides the builder's detection target; the nested
    topology's second dark output (mode 1) carries a slightly weaker signal
    than the default port and can be reported by passing ``detect_mode=1``.
    """
    _require_bright(params)
    spec, mode, phase_idx = _build(params, noisy_pa1, noisy_pa2)
    if detect_mode is not None:
        mode = _check_mode(detect_mode, spec.n_modes)
    mean_signal, var = _readout(spec, mode, *_phase_excursion(spec, phase_idx, dphi))
    mean_signal, var = float(mean_signal[0]), float(var[0])
    snr = mean_signal * mean_signal / var
    return OutputReport(
        mean_X2=mean_signal,
        var_X2=var,
        snr=snr,
        phase_variance=dphi * dphi / snr,
        detected_mode=mode,
    )


def _noisy_sisni_readout(
    params: SisniParams, pa1: NoisyPaParams, pa2: NoisyPaParams, kappa1, kappa2, dphi: float
):
    """Mean signals and variances of the nested topology with lossy amplifiers.

    ``pa1``/``pa2`` give each amplifier's ``rho`` and ``epsilon2``; their
    ``kappa`` is replaced row by row with the equal-length arrays
    ``kappa1``/``kappa2``, which must hold valid stable gains for them (as
    ``noise_model._kappa`` returns).  All rows run in one batched
    propagation; returns ``(mean_signal, var)`` arrays.
    """
    spec, mode, phase_idx = _build(params, pa1, pa2)
    amp1, amp2 = (i for i, el in enumerate(spec.elements) if isinstance(el, NoisyPaElement))
    vary = {amp1: {"kappa": kappa1}, amp2: {"kappa": kappa2}}
    return _readout(spec, mode, *_phase_excursion(spec, phase_idx, dphi, vary))


def sql_baseline(params: TopologyParams) -> SqMziParams:
    """Shot-noise-limit reference: the ``g = 0`` MZI at matched losses.

    Keeps the bright-port amplitude and external loss, and maps the nested
    topology's signal-arm internal loss onto the MZI internal loss.
    """
    if isinstance(params, SqMziParams):
        return replace(params, g=PaGain(0.0))
    if isinstance(params, SisniParams):
        return SqMziParams(
            alpha=params.alpha,
            g=PaGain(0.0),
            L_i=params.L_is,
            L_e=params.L_e,
            phi=params.phi_signal,
            T=params.T,
        )
    raise TypeError(f"unknown topology parameters {params!r}")
