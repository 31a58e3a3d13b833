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
symmetric finite difference for the mean signal.  Each topology is one row
of ``_TOPOLOGIES``, which every topology-dependent step reads.
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
        PhaseElement(1, p.phi),  # 4: signal phase
        BsElement((0, 1), p.T),
        LossElement(0, p.L_e.L),  # 6: external loss
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
    pa1, pa2 = (
        PaElement((0, 1), gain.g) if pa is None else NoisyPaElement((0, 1), pa.rho, pa.kappa, pa.epsilon2)
        for gain, pa in ((p.g1, noisy_pa1), (p.g2, noisy_pa2))
    )
    elements = (
        pa1,  # 0: upstream amplifier
        LossElement(1, p.L_ii.L),
        PhaseElement(1, p.phi_pump),
        BsElement((0, 2), p.T),
        LossElement(0, p.L_is.L),
        LossElement(2, p.L_is.L),
        PhaseElement(2, p.phi_signal),  # 6: signal phase
        BsElement((0, 2), p.T),
        pa2,  # 8: downstream amplifier
        LossElement(0, p.L_e.L),  # 9, 10: external loss
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


def _check_readout(stage: str, params: TopologyParams, signal, var, snr):
    """Raise :class:`InstabilityError` unless ``var`` is finite and positive
    and ``signal`` and ``snr`` are finite (floats or arrays).
    """
    ok = (0.0 < var) & (var < math.inf) & (abs(signal) < math.inf) & (abs(snr) < math.inf)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        gains = ", ".join(f"{name} = {getattr(params, name).g:g}" for name in _topology(params).gains)
        raise InstabilityError(f"{stage}: the readout overflows at gains {gains}")


def _closed_terms(params: TopologyParams, **losses):
    """First-order dark-fringe terms ``(eta, gain, var)`` of a topology.

    The mean signal is ``-sqrt(eta) gain dphi alpha``, ``var`` the set-point
    noise variance and ``SNR = eta gain^2 dphi^2 alpha^2 / var``.  Loss
    fields named in ``losses`` (``L_i``; ``L_is``, ``L_ii``; ``L_e``)
    replace the parameters' values and may be arrays; the terms broadcast
    over them.  Raises ``ValueError`` for parameters off the point the
    closed form models (balanced beamsplitters, the dark fringe and, for the
    nested topology, the pump phase at ``pi``) and
    :class:`InstabilityError` where the gains overflow the readout.
    """
    topo = _topology(params)
    for name, value in topo.closed_point.items():
        if getattr(params, name) != value:
            raise ValueError(
                f"closed form holds only at {name} = {value!r}, got {name} = "
                f"{getattr(params, name)!r}; engine_report models other values"
            )
    gains = [x for gain in (getattr(params, name) for name in topo.gains) for x in (gain.g, gain.G)]
    fields = {name: getattr(params, name).L for name in topo.losses} | losses
    with np.errstate(all="ignore"):  # overflow is reported below
        try:
            eta, gain, var = topo.kernel(*gains, **fields)
        except OverflowError:  # a float power past the double range
            eta = gain = var = math.nan
        signal = np.sqrt(eta) * gain * params.alpha
        _check_readout("closed form", params, signal, var, signal * signal / var)
    return eta, gain, var


def _snr_closed(params: TopologyParams, dphi: float) -> float:
    eta, gain, var = _closed_terms(params)
    return float(eta * gain * gain * dphi * dphi * params.alpha**2 / var)


def snr_sq_mzi_closed(params: SqMziParams, dphi: float) -> float:
    """First-order dark-fringe SNR of the squeezed-light MZI.

    ``eta * dphi^2 * alpha^2`` over
    ``eta/(G + g)^2 + L_i (1 - L_e) + L_e`` with
    ``eta = (1 - L_i)(1 - L_e)``.  Holds at the dark-fringe set point with
    balanced beamsplitters (other values raise ``ValueError``) for a small
    excursion (``|dphi| <= 0.1`` recommended).
    """
    return _snr_closed(params, dphi)


def snr_sisni_closed(params: SisniParams, dphi: float) -> float:
    """First-order dark-fringe SNR of the nested amplifier interferometer.

    ``eta_s * G2^2 * dphi^2 * alpha^2`` over the noise variance
    ``L + (sqrt(eta_s) G1 G2 - sqrt(eta_i) g1 g2)^2
       + (sqrt(eta_s) g1 G2 - sqrt(eta_i) G1 g2)^2``
    with ``eta_s = (1 - L_is)(1 - L_e)``, ``eta_i = (1 - L_ii)(1 - L_e)``
    and ``L = L_e + g2^2 (1 - L_e) L_ii + G2^2 (1 - L_e) L_is``.  Holds at
    the dark fringe with balanced beamsplitters and the pump phase locked to
    minimum net amplification (``phi_pump = pi``); other values raise
    ``ValueError``.
    """
    return _snr_closed(params, dphi)


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
    """``(eta, gain, var, phase variance)``; ``losses`` as in :func:`_closed_terms`."""
    _require_bright(params)
    eta, gain, var = _closed_terms(params, **losses)
    _require_signal(eta * gain)
    return eta, gain, var, var / (eta * gain * gain * params.alpha**2)


def _phase_variance(params: TopologyParams, **losses):
    """Closed-form phase variance; ``losses`` as in :func:`_closed_terms`."""
    return _phase_terms(params, **losses)[3]


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
    eta, gain, var, phase_variance = _phase_terms(params)
    mean = float(-np.sqrt(eta) * gain * dphi * params.alpha)
    var = float(var)
    return OutputReport(
        mean_X2=mean,
        var_X2=var,
        snr=mean * mean / var,
        phase_variance=float(phase_variance),
        detected_mode=0,
    )


def _build(params: TopologyParams, *noisy: NoisyPaParams | None) -> tuple[_Topology, CircuitSpec]:
    """The topology and its circuit; ``noisy`` replaces the topology's amplifiers in order."""
    topo = _topology(params)
    if any(pa is not None for pa in noisy[len(topo.amplifiers) :]):
        raise ValueError("noisy amplifiers apply to the nested topology only")
    spec, _ = topo.build(params, *noisy[: len(topo.amplifiers)])
    return topo, spec


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
    ``sin(dphi)/dphi`` discretization factor.  Raises
    :class:`InstabilityError` where the gains overflow the readout.

    ``detect_mode`` overrides the builder's detection target; the nested
    topology's second dark output (mode 1) carries a slightly weaker signal
    than the default port and can be reported by passing ``detect_mode=1``.
    """
    _require_bright(params)
    topo, spec = _build(params, noisy_pa1, noisy_pa2)
    mode = spec.detect.mode if detect_mode is None else _check_mode(detect_mode, spec.n_modes)
    with np.errstate(all="ignore"):  # overflow is reported below
        signal, var = _readout(spec, mode, *_phase_excursion(spec, topo.phase, dphi))
        signal, var = signal[0], var[0]
        _check_readout("engine", params, signal, var, signal * signal / var)
    _require_signal(signal)
    mean_signal, var = float(signal), float(var)
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
    topo, spec = _build(params, pa1, pa2)
    vary = {i: {"kappa": kappa} for i, kappa in zip(topo.amplifiers, (kappa1, kappa2))}
    return _readout(spec, spec.detect.mode, *_phase_excursion(spec, topo.phase, dphi, vary))


def sql_baseline(params: TopologyParams) -> SqMziParams:
    """Shot-noise-limit reference: the ``g = 0`` MZI at matched losses.

    Keeps the bright-port amplitude, transmission and signal phase, and maps
    losses as the topology's row says (nested signal arm -> MZI internal).
    """
    topo = _topology(params)
    losses = {field: getattr(params, own) for field, own in topo.baseline.items()}
    return SqMziParams(params.alpha, phi=getattr(params, topo.phase_field), T=params.T, **losses)
