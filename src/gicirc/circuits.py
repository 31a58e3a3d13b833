"""Declarative circuit documents: validation, (de)serialization, execution.

A circuit document is JSON with a required ``"schema": "gicirc/1"`` key, a
mode count, one preparation per mode, an ordered element list, and exactly
one detection block.  Parsing is strict: unknown keys are rejected so typos
in physics parameters fail loudly, mode indices must be JSON integers and
numbers finite, and semantic errors name the offending element index and
constraint.

Every preparation and element kind is one row of a table below: its document
``type``, its dataclass (whose fields and defaults give the required and
optional document keys) and, for elements, its channel-map constructor.
Parsing, serialization and :func:`element_map` are driven by those rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import CircuitError, ModeError
from .states import (
    Coherent,
    ElementMap,
    GaussianState,
    QuadratureStats,
    Thermal,
    Vacuum,
    _check_mode,
    apply,
    make_state,
    quadrature_stats,
)
from .elements import (
    LossSpec,
    PaGain,
    _check_convention,
    _check_pair,
    _check_transmission,
    beamsplitter,
    loss_channel,
    parametric_amplifier,
    phase_shift,
    single_mode_squeezer,
)
from .noise_model import NoisyPaParams, noisy_pa

__all__ = [
    "SCHEMA",
    "DEFAULT_THETA",
    "PaElement",
    "SqueezerElement",
    "BsElement",
    "PhaseElement",
    "LossElement",
    "NoisyPaElement",
    "Detection",
    "CircuitSpec",
    "element_map",
    "simulate",
    "propagate_mean",
    "detect_stats",
    "parse_circuit",
    "serialize_circuit",
]

SCHEMA = "gicirc/1"
DEFAULT_THETA = math.pi / 2
DEFAULT_BS_T = 0.5


@dataclass(frozen=True)
class PaElement:
    """Ideal two-mode parametric amplifier."""

    modes: tuple[int, int]
    g: float

    def __post_init__(self):
        object.__setattr__(self, "modes", _check_pair(self.modes))
        object.__setattr__(self, "g", PaGain(self.g).g)


@dataclass(frozen=True)
class SqueezerElement:
    """Single-mode (degenerate) squeezer."""

    mode: int
    g: float

    def __post_init__(self):
        object.__setattr__(self, "mode", int(self.mode))
        object.__setattr__(self, "g", PaGain(self.g).g)


@dataclass(frozen=True)
class BsElement:
    """Beamsplitter with intensity transmission ``T``."""

    modes: tuple[int, int]
    T: float = DEFAULT_BS_T
    convention: str = "second_minus"

    def __post_init__(self):
        object.__setattr__(self, "modes", _check_pair(self.modes))
        object.__setattr__(self, "T", _check_transmission(self.T))
        _check_convention(self.convention)


@dataclass(frozen=True)
class PhaseElement:
    """Optical phase shift on one mode."""

    mode: int
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "mode", int(self.mode))
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError(f"phase phi must be finite, got {phi}")
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class LossElement:
    """Fractional intensity loss on one mode."""

    mode: int
    L: float

    def __post_init__(self):
        object.__setattr__(self, "mode", int(self.mode))
        object.__setattr__(self, "L", LossSpec(self.L).L)


@dataclass(frozen=True)
class NoisyPaElement:
    """Lossy parametric amplifier with thermal auxiliaries."""

    modes: tuple[int, int]
    rho: float
    kappa: float
    epsilon2: float

    def __post_init__(self):
        object.__setattr__(self, "modes", _check_pair(self.modes))
        params = NoisyPaParams(self.rho, self.kappa, self.epsilon2)
        object.__setattr__(self, "rho", params.rho)
        object.__setattr__(self, "kappa", params.kappa)
        object.__setattr__(self, "epsilon2", params.epsilon2)


class _Kind(NamedTuple):
    type: str
    cls: type
    fields: tuple[str, ...]
    required: frozenset
    optional: frozenset
    build: Callable[..., ElementMap] | None


def _kind(type_: str, cls: type, build: Callable[..., ElementMap] | None = None) -> _Kind:
    names = tuple(f.name for f in fields(cls))
    required = frozenset(f.name for f in fields(cls) if f.default is MISSING) | {"type"}
    return _Kind(type_, cls, names, required, frozenset(names) - required, build)


# document type -> kind; ``build(element, n_modes)`` makes the channel map.
_INPUTS = {
    k.type: k
    for k in (_kind("vacuum", Vacuum), _kind("coherent", Coherent), _kind("thermal", Thermal))
}
_ELEMENTS = {
    k.type: k
    for k in (
        _kind("pa", PaElement, lambda e, n: parametric_amplifier(e.modes, PaGain(e.g), n)),
        _kind(
            "single_mode_squeezer",
            SqueezerElement,
            lambda e, n: single_mode_squeezer(e.mode, PaGain(e.g), n),
        ),
        _kind("bs", BsElement, lambda e, n: beamsplitter(e.modes, e.T, n, e.convention)),
        _kind("phase", PhaseElement, lambda e, n: phase_shift(e.mode, e.phi, n)),
        _kind("loss", LossElement, lambda e, n: loss_channel(e.mode, LossSpec(e.L), n)),
        _kind(
            "noisy_pa",
            NoisyPaElement,
            lambda e, n: noisy_pa(e.modes, NoisyPaParams(e.rho, e.kappa, e.epsilon2), n),
        ),
    )
}
_KIND_OF = {k.cls: k for k in (*_INPUTS.values(), *_ELEMENTS.values())}
_INPUT_CLASSES = tuple(k.cls for k in _INPUTS.values())
_ELEMENT_CLASSES = tuple(k.cls for k in _ELEMENTS.values())


@dataclass(frozen=True)
class Detection:
    """Homodyne detection target: mode index and local-oscillator angle."""

    mode: int
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        object.__setattr__(self, "mode", int(self.mode))
        object.__setattr__(self, "theta", float(self.theta))


def _check_modes(modes, n_modes: int, where: str):
    try:
        for m in modes:
            _check_mode(m, n_modes)
    except ModeError as exc:
        raise CircuitError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class CircuitSpec:
    """Validated circuit: preparations, ordered elements, one detection."""

    n_modes: int
    inputs: tuple
    elements: tuple
    detect: Detection

    def __post_init__(self):
        n_modes = int(self.n_modes)
        if n_modes < 1:
            raise CircuitError(f"n_modes must be a positive integer, got {self.n_modes}")
        object.__setattr__(self, "n_modes", n_modes)
        inputs = tuple(self.inputs)
        if len(inputs) != n_modes:
            raise CircuitError(
                f"expected {n_modes} input preparations, got {len(inputs)}"
            )
        for k, prep in enumerate(inputs):
            if type(prep) not in _INPUT_CLASSES:
                raise CircuitError(f"input {k}: unknown preparation {prep!r}")
        object.__setattr__(self, "inputs", inputs)
        elements = tuple(self.elements)
        for i, el in enumerate(elements):
            if type(el) not in _ELEMENT_CLASSES:
                raise CircuitError(f"element {i}: not a circuit element: {el!r}")
            _check_modes(el.modes if hasattr(el, "modes") else (el.mode,), n_modes, f"element {i}")
        object.__setattr__(self, "elements", elements)
        if not isinstance(self.detect, Detection):
            raise CircuitError(f"detect block must be a Detection, got {self.detect!r}")
        _check_modes((self.detect.mode,), n_modes, "detect")


def element_map(element, n_modes: int) -> ElementMap:
    """Concrete channel map of one element on an ``n_modes`` register."""
    kind = _KIND_OF.get(type(element))
    if kind is None or kind.build is None:
        raise TypeError(f"unknown element {element!r}")
    return kind.build(element, n_modes)


def simulate(spec: CircuitSpec) -> GaussianState:
    """Run the circuit and return the output state."""
    state = make_state(spec.n_modes, spec.inputs)
    for el in spec.elements:
        state = apply(state, element_map(el, spec.n_modes))
    return state


def propagate_mean(spec: CircuitSpec) -> np.ndarray:
    """Mean quadrature vector of the output state."""
    return simulate(spec).mean


def detect_stats(spec: CircuitSpec, state: GaussianState | None = None) -> QuadratureStats:
    """Homodyne statistics at the circuit's detection block."""
    if state is None:
        state = simulate(spec)
    return quadrature_stats(state, spec.detect.mode, spec.detect.theta)


# --- document form -----------------------------------------------------


def _require_keys(obj: dict, required: set, optional: set, where: str):
    missing = required - obj.keys()
    if missing:
        raise CircuitError(f"{where}: missing key(s) {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise CircuitError(f"{where}: unknown key(s) {sorted(unknown)}")


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CircuitError(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise CircuitError(f"expected a finite number, got {value!r}")
    return number


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _mode_index(value) -> int:
    if not _is_index(value):
        raise CircuitError(f"expected an integer mode index, got {value!r}")
    return value


def _mode_list(value) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(map(_is_index, value)):
        raise CircuitError(f"expected a list of mode indices, got {value!r}")
    return tuple(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise CircuitError(f"expected a string, got {value!r}")
    return value


def _amplitude(value) -> complex:
    if isinstance(value, list):
        if len(value) != 2:
            raise CircuitError(f"expected a number or an [re, im] pair, got {value!r}")
        return complex(_number(value[0]), _number(value[1]))
    return complex(_number(value), 0.0)


# Document value converters by key name; every other key holds a number.
_FROM_DOC = {"modes": _mode_list, "mode": _mode_index, "convention": _string, "alpha": _amplitude}
# Document form of field values that JSON cannot hold as they are.
_TO_DOC = {"modes": list, "alpha": lambda a: a.real if a.imag == 0.0 else [a.real, a.imag]}


def _convert(obj: dict, where: str) -> dict:
    values = {}
    for name, value in obj.items():
        if name != "type":
            try:
                values[name] = _FROM_DOC.get(name, _number)(value)
            except CircuitError as exc:
                raise CircuitError(f"{where}: {name}: {exc}") from None
    return values


def _parse_entry(obj, where: str, what: str, table: dict):
    if not isinstance(obj, dict):
        raise CircuitError(f"{where}: expected an object, got {obj!r}")
    name = obj.get("type")
    if not isinstance(name, str) or name not in table:
        raise CircuitError(
            f"{where}: unknown {what} type {name!r}; expected one of {sorted(table)}"
        )
    kind = table[name]
    _require_keys(obj, kind.required, kind.optional, where)
    values = _convert(obj, where)
    try:
        return kind.cls(**values)
    except ValueError as exc:
        raise CircuitError(f"{where}: {exc}") from exc


def parse_circuit(text: str) -> CircuitSpec:
    """Parse and validate a circuit document.

    Raises :class:`CircuitError` with line/column information for malformed
    JSON and with the offending element index for semantic violations.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise CircuitError(f"circuit document must be a JSON object, got {type(doc).__name__}")
    _require_keys(doc, {"schema", "n_modes", "inputs", "elements", "detect"}, set(), "document")
    if doc["schema"] != SCHEMA:
        raise CircuitError(f"unsupported schema {doc['schema']!r}; expected {SCHEMA!r}")
    n_modes = doc["n_modes"]
    if not _is_index(n_modes) or n_modes < 1:
        raise CircuitError(f"n_modes must be a positive integer, got {n_modes!r}")
    if not isinstance(doc["inputs"], list):
        raise CircuitError("inputs must be a list of preparations")
    inputs = tuple(
        _parse_entry(obj, f"input {k}", "input", _INPUTS) for k, obj in enumerate(doc["inputs"])
    )
    if not isinstance(doc["elements"], list):
        raise CircuitError("elements must be a list")
    elements = tuple(
        _parse_entry(obj, f"element {i}", "element", _ELEMENTS)
        for i, obj in enumerate(doc["elements"])
    )
    det = doc["detect"]
    if not isinstance(det, dict):
        raise CircuitError(f"detect: expected an object, got {det!r}")
    _require_keys(det, {"mode"}, {"theta"}, "detect")
    return CircuitSpec(n_modes, inputs, elements, Detection(**_convert(det, "detect")))


def _entry_doc(entry) -> dict:
    kind = _KIND_OF[type(entry)]
    doc = {"type": kind.type}
    for name in kind.fields:
        value = getattr(entry, name)
        doc[name] = _TO_DOC[name](value) if name in _TO_DOC else value
    return doc


def serialize_circuit(spec: CircuitSpec, indent: int | None = 2) -> str:
    """Serialize a circuit to its document form (defaults echoed explicitly)."""
    doc = {
        "schema": SCHEMA,
        "n_modes": spec.n_modes,
        "inputs": [_entry_doc(p) for p in spec.inputs],
        "elements": [_entry_doc(e) for e in spec.elements],
        "detect": {"mode": spec.detect.mode, "theta": spec.detect.theta},
    }
    return json.dumps(doc, indent=indent)
