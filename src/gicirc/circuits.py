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
function and whose ``update`` applies it to the state.  Parsing,
serialization and propagation are driven by those rows.

Propagation is block-local and factored: the state is one array
``[A | mean]`` with leading grid axes, whose covariance is
``A diag(w) A^T`` (see :func:`_propagate`), and each element moves only the
rows of its own modes, so one pass can run a whole grid of variants of the
same circuit.
"""

from __future__ import annotations

import functools
import json
import math
from json.encoder import encode_basestring_ascii
from dataclasses import MISSING, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import CircuitError, InstabilityError, ModeError
from .states import (
    Coherent,
    GaussianState,
    QuadratureStats,
    Thermal,
    Vacuum,
    _check_finite,
    _check_index,
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
    update: Callable | None  # (state, rows, noise columns, block, values): applies the element in place
    noisy: bool  # the element adds noise, into columns of its own
    stretch: Callable | None  # (**values) -> G + g of an amplifier or a squeezer


def _transform(state: np.ndarray, rows, cols: slice, block: Callable, values: dict):
    """Apply the element's block ``block(**values)`` to ``state`` in place.

    ``S`` moves the element's ``rows`` of ``A``, and their mean entries
    through a matrix-vector product of their own: BLAS sums a matrix
    product over whole ``[A | mean]`` rows in another order, which moves
    the mean's last bits.  The columns from ``cols.start`` on are still
    zero, so the product stops there.  A noise ``(w, P)`` goes in as its
    factor ``sqrt(w) P`` on ``rows`` of the element's own columns ``cols``.
    """
    linear, noise = block(**values)
    state[..., rows, -1:] = linear @ state[..., rows, -1:]
    state[..., rows, : cols.start] = linear @ state[..., rows, : cols.start]
    if noise is not None:
        weight, pattern = noise
        root = np.sqrt(weight)
        state[..., rows, cols] = (root[..., None, None] if isinstance(root, np.ndarray) else root) * pattern


def _attenuate(state: np.ndarray, rows: slice, cols: slice, block: Callable, values: dict):
    """A loss ``L`` in place, without a matrix product.

    ``S = sqrt(1 - L) I`` scales the mode's rows (mean entries included),
    and the noise factor ``sqrt(L) I`` goes on the diagonal of the loss's
    own columns: the values of the block product, and its bits but for the
    sign of an exact zero at a total loss (the product's zeros take their
    sign from both of the mode's quadratures, a scaled entry keeps its own).
    """
    loss = values["L"]
    scale = np.sqrt(1.0 - loss)
    if isinstance(loss, np.ndarray):
        scale = scale[..., None, None]
    state[..., rows, :] *= scale
    factor = state[..., rows, cols]
    factor[..., 0, 0] = factor[..., 1, 1] = np.sqrt(loss)


def _kind(type_: str, cls: type, update: Callable | None = _transform, noisy: bool = False) -> _Kind:
    names = tuple(f.name for f in fields(cls))
    required = frozenset(f.name for f in fields(cls) if f.default is MISSING) | {"type"}
    block = getattr(cls, "block", None)  # preparations have neither a block nor an update
    update = update if block else None
    return _Kind(
        type_, cls, names, required, frozenset(names) - required, block, _block_params(cls), update,
        noisy, getattr(cls, "stretch", None),
    )


# document type -> kind; ``block(**params)`` gives the local ``(S, noise)``,
# which ``update`` applies (a loss scales its rows instead).
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
        _kind("loss", LossElement, _attenuate, noisy=True),
        _kind("noisy_pa", NoisyPaElement, noisy=True),
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
        object.__setattr__(self, "mode", _check_index(self.mode))
        object.__setattr__(self, "theta", _check_finite(self.theta, "local-oscillator angle theta"))


@functools.lru_cache(maxsize=None)
def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _assemble(cls, **values):
    """A ``cls`` dataclass holding the fields ``values`` and the defaults of the others.

    ``__post_init__`` does not run, so this is only for values that have
    passed the same checks already, as the fields of a built-in topology's
    parameters have.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(_defaults(cls), **values)
    return obj


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
        n_modes = _check_index(self.n_modes, "n_modes")
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
    """Output means ``(*grid, 2n)`` and covariances ``(*grid, 2n, 2n)`` of a grid of circuits.

    ``vary`` maps an element index to ``{field: array}``; the arrays of all
    elements broadcast together to the grid shape (``(1,)`` without
    ``vary``), and each grid point runs the circuit with those fields set to
    its values.  The state widens only at a varied element whose values
    need a larger grid, so the elements before the first varied one run
    once.  The values are not validated; callers pass only values that
    their element's dataclass would accept.

    The state is one array ``[A | mean]`` of shape ``(*grid, 2n, m + 1)``
    with the mean as its last column, and the covariance is
    ``A diag(w) A^T``.  ``A`` starts as the identity on the ``2n`` input
    columns, weighted by the preparation variances ``w``; each noisy
    element owns the next 2 (a loss) or 4 (a noisy amplifier) columns,
    weighted by 1, where it writes its noise factor.  Each element's
    ``update`` changes only its own modes' rows ``state[..., idx, :]``
    (which moves the mean too), and the covariance is formed and
    symmetrized once, at the end, so every variance is a sum of
    non-negative terms.  Raises :class:`InstabilityError` naming the
    element, or the covariance, where the state leaves the float range.
    """
    vary = vary or {}
    steps = [(_KIND_OF[type(el)], _block_index(_modes(el))) for el in spec.elements]
    col = 2 * spec.n_modes
    noise = sum(size for kind, (_, size) in steps if kind.noisy)
    state, weights = _prepare(spec.n_modes, spec.inputs, noise)
    state = state[None]
    with np.errstate(over="raise", invalid="raise"):
        try:
            for i, (el, (kind, (rows, size))) in enumerate(zip(spec.elements, steps)):
                values = {n: getattr(el, n) for n in kind.params}
                if i in vary:
                    values |= vary[i]
                    grid = np.broadcast(state[..., 0, 0], *vary[i].values()).shape
                    if grid != state.shape[:-2]:
                        state = _widen(state, grid + state.shape[-2:])
                width = size if kind.noisy else 0
                kind.update(state, rows, slice(col, col + width), kind.block, values)
                col += width
        except FloatingPointError:
            raise InstabilityError(f"engine: the state overflows at element {i} ({kind.type})") from None
        try:
            factor = state[..., :-1]
            cov = (factor * weights) @ factor.swapaxes(-1, -2)
            cov = 0.5 * (cov + cov.swapaxes(-1, -2))
        except FloatingPointError:
            raise InstabilityError("engine: the output covariance overflows") from None
    return state[..., -1], cov


def _amplification(spec: CircuitSpec, vary: dict | None = None):
    """The product of ``G + g`` over the circuit's amplifiers and squeezers, on ``vary``'s grid (see :func:`_propagate`)."""
    vary = vary or {}
    product = 1.0
    for i, el in enumerate(spec.elements):
        kind = _KIND_OF[type(el)]
        if kind.stretch is not None:
            product = product * kind.stretch(**{n: getattr(el, n) for n in kind.params} | vary.get(i, {}))
    return product


def _widen(state: np.ndarray, shape: tuple) -> np.ndarray:
    """A copy of ``state`` broadcast to ``shape`` (cheaper than ``np.broadcast_to(...).copy()``)."""
    wide = np.empty(shape)
    wide[...] = state
    return wide


@functools.lru_cache(maxsize=None)
def _block_index(modes: tuple[int, ...]):
    """Index of the modes' quadratures along one axis, and their number.

    A slice where the quadratures are contiguous and in order (basic
    indexing is cheaper), an index array otherwise.
    """
    idx = _quadrature_indices(modes)
    if np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1), idx.size
    idx.setflags(write=False)  # shared by every caller through the cache
    return idx, idx.size


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
    if indent is None:
        return json.dumps(doc)
    return _encode(doc, sort_keys=False, indent=" " * indent if isinstance(indent, int) else indent)


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# What ``json`` writes for each scalar type it knows, dispatched by exact type.
_SCALAR_TEXT = {
    float: _float_text,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _float_list(values, separator: str) -> str | None:
    """The ``float.__repr__`` of each value, joined; ``None`` if one is not a float."""
    try:
        body = separator.join(map(float.__repr__, values))
    except TypeError:
        return None
    if "n" in body:  # 'nan' or 'inf': no finite float's repr holds an 'n'
        raise ValueError("Out of range float values are not JSON compliant")
    return body


def _encode(obj, sort_keys: bool = True, indent: str = "  ") -> str:
    """``json.dumps(obj, indent=indent, sort_keys=sort_keys, allow_nan=False)``, byte for byte.

    With ``indent`` set, the standard library encodes in pure Python, one
    type check and one chunk per element.  Here scalars of a type ``json``
    knows are written by exact type, a list of floats as one chunk, a
    ``join`` of ``float.__repr__`` (what ``json`` writes for a float or a
    float subclass), dicts (in insertion order or sorted) and other lists
    recurse, and every other value goes through ``json.dumps``; the chunks
    are joined once.  Keys must be strings.  NaN or infinity raises
    ``ValueError``, an unsupported type or a key that is not a string
    ``TypeError``.
    """
    chunks = []
    _dump(obj, chunks.append, sort_keys, indent)
    return "".join(chunks)


def _dump(obj, write: Callable, sort_keys: bool = True, indent: str = "  "):
    """Pass :func:`_encode`'s text of ``obj`` to ``write`` chunk by chunk, never whole.

    A file written this way holds the same bytes, without the whole text
    in memory at once.  Raises as :func:`_encode` does, with the chunks
    before the offending value already written.
    """
    _write_json(obj, write, sort_keys, indent, "\n")


def _write_json(obj, write: Callable, sort_keys: bool, indent: str, newline: str):
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        write(text(obj))
        return
    inner = newline + indent
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        separator = "{" + inner
        for key in sorted(obj) if sort_keys else obj:
            value = obj[key]
            text = _SCALAR_TEXT.get(type(value))
            if text is not None:
                write(separator + encode_basestring_ascii(key) + ": " + text(value))
            else:
                write(separator + encode_basestring_ascii(key) + ": ")
                _write_json(value, write, sort_keys, indent, inner)
            separator = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        body = _float_list(obj, "," + inner) if isinstance(obj[0], float) else None
        if body is not None:
            write("[" + inner + body + newline + "]")
            return
        separator = "[" + inner
        for item in obj:
            write(separator)
            _write_json(item, write, sort_keys, indent, inner)
            separator = "," + inner
        write(newline + "]")
    else:
        write(json.dumps(obj, allow_nan=False))
