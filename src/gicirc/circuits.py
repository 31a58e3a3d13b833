"""Declarative circuit documents: validation, (de)serialization, execution.

A circuit document is JSON with a required ``"schema": "gicirc/1"`` key, a
mode count, one preparation per mode, an ordered element list, and exactly
one detection block.  Parsing is strict: unknown keys are rejected so typos
in physics parameters fail loudly, mode indices must be JSON integers and
numbers finite, and semantic errors name the offending element index and
constraint.

Every preparation and element kind is one row of a table below: its document
``type`` and its dataclass, whose fields and defaults give the required and
optional document keys and, for elements, whose ``block`` is its local block
function.  Parsing, serialization and propagation are driven by those rows.

Propagation is block-local: each element updates only the mean entries and
the covariance rows and columns of its own modes, on arrays that carry a
leading batch axis, so one pass can run many variants of the same circuit.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import CircuitError, ModeError
from .states import (
    Coherent,
    GaussianState,
    QuadratureStats,
    Thermal,
    Vacuum,
    _check_mode,
    _prepare,
    _quadrature_indices,
    quadrature_stats,
)
from .elements import (
    BsElement,
    LossElement,
    PaElement,
    PhaseElement,
    SqueezerElement,
    _block_params,
    _modes,
    element_map,
)
from .noise_model import NoisyPaElement

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


class _Kind(NamedTuple):
    type: str
    cls: type
    fields: tuple[str, ...]
    required: frozenset
    optional: frozenset
    block: Callable | None
    params: tuple[str, ...]  # the fields passed to ``block``: all but the modes


def _kind(type_: str, cls: type) -> _Kind:
    names = tuple(f.name for f in fields(cls))
    required = frozenset(f.name for f in fields(cls) if f.default is MISSING) | {"type"}
    block = getattr(cls, "block", None)  # preparations have none
    return _Kind(type_, cls, names, required, frozenset(names) - required, block, _block_params(cls))


# document type -> kind; ``block(**params)`` gives the local ``(S, N)``.
_INPUTS = {
    k.type: k
    for k in (_kind("vacuum", Vacuum), _kind("coherent", Coherent), _kind("thermal", Thermal))
}
_ELEMENTS = {
    k.type: k
    for k in (
        _kind("pa", PaElement),
        _kind("single_mode_squeezer", SqueezerElement),
        _kind("bs", BsElement),
        _kind("phase", PhaseElement),
        _kind("loss", LossElement),
        _kind("noisy_pa", NoisyPaElement),
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
            _check_modes(_modes(el), n_modes, f"element {i}")
        object.__setattr__(self, "elements", elements)
        if not isinstance(self.detect, Detection):
            raise CircuitError(f"detect block must be a Detection, got {self.detect!r}")
        _check_modes((self.detect.mode,), n_modes, "detect")


def _propagate(spec: CircuitSpec, vary: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Output means ``(B, 2n)`` and covariances ``(B, 2n, 2n)`` of a circuit batch.

    ``vary`` maps an element index to ``{field: (B,) array}``: item ``b`` of
    the batch runs the circuit with those fields of that element replaced by
    their ``b``-th values.  Without it ``B = 1``.  The values are not
    validated; callers pass only values that their element's dataclass
    would accept.

    Each element touches only its own modes' quadratures ``idx``:
    ``mean[:, idx]``, the rows ``cov[:, idx, :]`` and, by symmetry, the
    columns ``cov[:, :, idx]``, adding its noise block on ``idx x idx``.
    """
    vary = vary or {}
    batch = max((len(v) for values in vary.values() for v in values.values()), default=1)
    mean0, cov0 = _prepare(spec.n_modes, spec.inputs)
    mean = np.repeat(mean0[None], batch, axis=0)
    cov = np.repeat(cov0[None], batch, axis=0)
    for i, el in enumerate(spec.elements):
        kind = _KIND_OF[type(el)]
        values = {n: getattr(el, n) for n in kind.params}
        values.update(vary.get(i, {}))
        linear, noise = kind.block(**values)
        linear_t = linear.swapaxes(-1, -2)
        idx, square = _block_index(_modes(el))
        mean[:, idx] = (mean[:, None, idx] @ linear_t)[:, 0]
        rows = linear @ cov[:, idx, :]
        cov[:, idx, :] = rows
        cov[:, :, idx] = rows.swapaxes(1, 2)
        block = rows[:, :, idx] @ linear_t
        block = 0.5 * (block + block.swapaxes(1, 2))
        cov[square] = block if noise is None else block + noise
    return mean, cov


@functools.lru_cache(maxsize=None)
def _block_index(modes: tuple[int, ...]):
    """Index of the modes' quadratures along one axis, and of their square block.

    A slice where the quadratures are contiguous and in order (basic
    indexing is cheaper), an index array otherwise.
    """
    idx = _quadrature_indices(modes)
    if np.all(np.diff(idx) == 1):
        idx = slice(int(idx[0]), int(idx[-1]) + 1)
        return idx, (slice(None), idx, idx)
    idx.setflags(write=False)  # shared by every caller through the cache
    return idx, (slice(None), idx[:, None], idx)


def simulate(spec: CircuitSpec) -> GaussianState:
    """Run the circuit and return the output state."""
    mean, cov = _propagate(spec)
    return GaussianState(spec.n_modes, mean[0], cov[0])


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
