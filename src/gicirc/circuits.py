"""Declarative circuit documents: validation, (de)serialization, execution.

A circuit document is JSON with a required ``"schema": "gicirc/1"`` key, a
mode count, one preparation per mode, an ordered element list, and exactly
one detection block.  Parsing is strict: unknown keys are rejected so typos
in physics parameters fail loudly, mode indices must be JSON integers and
numbers finite, and semantic errors name the offending element index and
constraint.

Every preparation and element kind is one row of a table below: its document
``type`` and its dataclass, whose fields and defaults give the required and
optional document keys, whose ``check`` holds its range checks and, for
elements, whose ``block`` is its local block function.  Parsing,
serialization and propagation are driven by those rows.  A document's values
are checked once: its converters check their types, the kind's ``check``
their ranges, and the entries are assembled without running
``__post_init__`` again.

There is one propagation engine, and one readout (:class:`_Adjoint`): a row
``r`` of the output, with ``r·x`` a quadrature, walks the circuit backward
from the detector to the inputs (:func:`_walk`), each element moving only
the entries of its own modes, and gives, for each batch cell, the rows'
means and covariance.  :func:`simulate` reads the ``2n`` identity rows,
which gives the output state.  The phase-excursion readouts read the
detected quadrature's row, the signal phase holding its three values as one
more batch axis, and the runs of elements that no pass varies are folded
into one row map and one noise factor each, once per circuit.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, NamedTuple

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
    _check_range,
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
    required: frozenset  # the keys an entry of this type must have in a document
    allowed: frozenset  # and those it may have
    check: Callable | None  # (**fields) -> None: the range checks of typed values, as ``__post_init__`` runs them
    head: str  # the entry's first member as JSON text: ``"type": "<type>"``
    members: tuple[tuple[str, str, Callable | None], ...]  # per field: name, key as JSON text, ``_TO_DOC`` converter
    block: Callable | None
    params: tuple[str, ...]  # the fields passed to ``block``: all but the modes
    stretch: Callable | None  # (**values) -> G + g of an amplifier or a squeezer


# Document form of field values that JSON cannot hold as they are.
_TO_DOC = {"modes": list, "alpha": lambda a: a.real if a.imag == 0.0 else [a.real, a.imag]}


def _kind(type_: str, cls: type) -> _Kind:
    names = tuple(f.name for f in fields(cls))
    required = frozenset(f.name for f in fields(cls) if f.default is MISSING) | {"type"}
    head = encode_basestring_ascii("type") + ": " + encode_basestring_ascii(type_)
    members = tuple((n, encode_basestring_ascii(n) + ": ", _TO_DOC.get(n)) for n in names)
    return _Kind(
        type_, cls, required, required | frozenset(names), getattr(cls, "check", None), head, members,
        getattr(cls, "block", None), _block_params(cls), getattr(cls, "stretch", None),
    )


# document type -> kind; ``block(**params)`` gives an element's local
# ``(S, noise)`` (preparations have none; a loss is walked as a scaling).
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
        object.__setattr__(self, "mode", _check_index(self.mode))
        object.__setattr__(self, "theta", _check_finite(self.theta, "local-oscillator angle theta"))


@functools.lru_cache(maxsize=None)
def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _assemble(cls, **values):
    """A ``cls`` dataclass holding the fields ``values`` and the defaults of the others.

    ``__post_init__`` does not run, so this is only for values that have
    passed the same checks already, as the fields of a built-in topology's
    parameters and the values of a parsed document have.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(_defaults(cls), **values)
    return obj


def _check_modes(modes, n_modes: int, where: str):
    try:
        for m in modes:
            _check_range(m, n_modes)
    except ModeError as exc:
        raise CircuitError(f"{where}: {exc}") from None


def _check_fit(n_modes: int, inputs: tuple, elements: tuple, detect: Detection):
    """Refuse a number of inputs other than ``n_modes``, and element or detection modes outside the register.

    The entries are of their kinds already, so their modes are ints.
    """
    if len(inputs) != n_modes:
        raise CircuitError(f"expected {n_modes} input preparations, got {len(inputs)}")
    for i, el in enumerate(elements):
        _check_modes(_modes(el), n_modes, f"element {i}")
    _check_modes((detect.mode,), n_modes, "detect")


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
        inputs, elements = tuple(self.inputs), tuple(self.elements)
        for k, prep in enumerate(inputs):
            if type(prep) not in _INPUT_CLASSES:
                raise CircuitError(f"input {k}: unknown preparation {prep!r}")
        for i, el in enumerate(elements):
            if type(el) not in _ELEMENT_CLASSES:
                raise CircuitError(f"element {i}: not a circuit element: {el!r}")
        if not isinstance(self.detect, Detection):
            raise CircuitError(f"detect block must be a Detection, got {self.detect!r}")
        _check_fit(n_modes, inputs, elements, self.detect)
        self.__dict__.update(n_modes=n_modes, inputs=inputs, elements=elements)


def _quadrature_row(n_modes: int, mode: int, theta: float) -> np.ndarray:
    """The row ``r``, one in a ``(1, 2n)`` stack, whose ``r·x`` is ``X(theta)`` on ``mode``.

    ``theta`` is reduced as :func:`~gicirc.states._quadrature` reduces it.
    """
    reduced = math.remainder(theta, 2.0 * math.pi)
    row = np.zeros((1, 2 * n_modes))
    row[0, 2 * mode], row[0, 2 * mode + 1] = math.cos(reduced), math.sin(reduced)
    return row


class _Adjoint:
    """Quadratures of a circuit's output read backward: for each batch cell, their means and covariance.

    Compiled once for the elements ``varied`` names, whose blocks each
    :meth:`run` takes, and the rows ``detected`` ``(q, 2n)``, by default
    the detected quadrature's (:func:`_quadrature_row`).  A readout ``r·x``
    is walked from the last element to the first, each mapping it as
    ``r[idx] <- r[idx]·S``, so the output mean is ``r·mean_in`` and, the
    noise entering on the way as ``sqrt(w) P`` factors, the covariance of
    ``r·x`` and ``s·x`` is ``Σ w_in r s`` at the inputs plus
    ``w Σ (r[idx]·P)(s[idx]·P)`` at each noisy element, read with the rows
    at its output: a variance is a sum of non-negative terms (reverse mode,
    Griewank & Walther, *Evaluating Derivatives*, 2008).

    An element whose fields hold an array (see
    :func:`~gicirc.interferometers._excursion`) is a stack of circuits that
    differ only there, which ``varied`` must not name: its blocks broadcast
    the rows to the stack's shape, the last batch axes of every pass, so
    each value is a whole readout.

    The elements after the last varied one are walked here with the
    detected rows, and each other maximal run of unvaried elements with the
    identity rows, which folds it into one matrix ``[M | F]``, its row map
    and its noise factor, whose noise adds ``(r·F)(s·F)``.  So :meth:`run`
    makes two products per varied element, whose rows are the stack's and
    the detected ones of a batch cell, and one per folded run for each
    batch cell and stack value: a run that holds the stacked element or
    comes before it in the circuit costs a cell as many products as the
    stack has values.  The values are not validated; callers pass only
    values that their element's dataclass would accept.
    """

    def __init__(self, spec: CircuitSpec, varied, detected: np.ndarray | None = None):
        if detected is None:
            detected = _quadrature_row(spec.n_modes, spec.detect.mode, spec.detect.theta)
        self.mean, self.weights = _prepare(spec.n_modes, spec.inputs)
        self.rows, self.cov = detected, -0.0  # -0.0 + x is x, bit for bit
        self.stack = 0  # the number of stack axes met
        self.steps = []  # from the last element to the first: (index, idx) or (None, [M | F])
        run = []  # the unvaried elements met since the last varied one, last first
        for i in reversed(range(len(spec.elements))):
            if i not in varied:
                run.append(i)
                continue
            self._fold(spec, run)
            self.steps.append((i, _block_index(_modes(spec.elements[i]))))
            run = []
        self._fold(spec, run)
        self.rows = self.rows.reshape((1,) * (self.stack + 2 - self.rows.ndim) + self.rows.shape)  # every stack axis

    def _fold(self, spec: CircuitSpec, run: list):
        """Walk the elements ``run`` (last first): with the detected rows before the first varied element, else as a step."""
        if not run:
            return
        maps, factor = _walk(spec, run, np.eye(2 * spec.n_modes) if self.steps else self.rows)
        self.stack = max(self.stack, maps.ndim - 2)
        if self.steps:
            self.steps.append((None, maps if factor is None else np.concatenate((maps, factor), axis=-1)))
            return
        self.rows = maps
        if factor is not None:
            try:
                self.cov = _covariance(factor)
            except FloatingPointError:
                raise InstabilityError("engine: the output covariance overflows") from None

    def run(self, blocks: dict) -> tuple[np.ndarray, np.ndarray]:
        """The detected rows' means ``(*batch, q)`` and covariance ``(*batch, q, q)``, symmetrized once.

        ``blocks`` maps each varied element's index to its block ``(S, noise)``
        as its kind's ``block`` gives it, whose leading shapes broadcast to
        the pass's batch axes; the stack's axes follow them.  Raises
        :class:`InstabilityError` where numpy raises on overflow in the
        covariance at the inputs or in the means.
        """
        rows, cov = self.rows, self.cov
        dim = len(self.mean)
        for i, step in self.steps:
            if i is None:  # a folded run: the rows' product with its [map | noise factor]
                rows = rows @ step
                if rows.shape[-1] > dim:
                    cov = cov + _covariance(rows[..., dim:])
                    rows = rows[..., :dim]
                continue
            linear, noise = blocks[i]
            batch = rows.shape[: rows.ndim - 2 - self.stack]
            inner = rows.shape[len(batch) : -1]  # the stack's axes (of size 1 before it) and the rows'
            flat = rows.reshape(batch + (math.prod(inner), rows.shape[-1]))[..., step]
            if noise is not None:
                weight, pattern = noise
                read = flat @ pattern
                read = read.reshape(read.shape[:-2] + inner + read.shape[-1:])
                cov = cov + np.reshape(weight, np.shape(weight) + (1,) * len(inner) + (1,)) * _covariance(read)
            moved = flat @ linear
            moved = moved.reshape(moved.shape[:-2] + inner + moved.shape[-1:])
            rows = _widen(rows, moved.shape[:-1] + rows.shape[-1:])
            rows[..., step] = moved
        try:
            cov = cov + _covariance(rows, self.weights)
            if cov.shape[-1] > 1:
                cov = 0.5 * (cov + cov.swapaxes(-1, -2))
        except FloatingPointError:
            raise InstabilityError("engine: the output covariance overflows") from None
        try:
            return rows @ self.mean, cov
        except FloatingPointError:
            raise InstabilityError("engine: the output means overflow") from None


def _covariance(factor: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """``factor diag(weights) factorᵀ`` ``(..., q, q)`` of a factor ``(..., q, c)``, ``weights`` all 1 by default.

    One row's is the sum of its weighted squares, each formed product first.
    """
    if factor.shape[-2] == 1:
        square = factor * factor
        return (square if weights is None else square * weights).sum(axis=-1)[..., None]
    return (factor if weights is None else factor * weights) @ factor.swapaxes(-1, -2)


def _walk(spec: CircuitSpec, run: Iterable[int], rows: np.ndarray):
    """The rows ``(q, 2n)`` walked back through the elements ``run`` (last first), and the noise they read.

    Returns the rows ``(*stack, q, 2n)``, with the axes of the stacks met on
    the way (none without one), and the noise factor ``(*stack, q, c)`` of
    the run's noisy elements, each read with the rows at its output, or
    ``None`` for a run without noise.  A loss ``L`` is walked without a
    product: it scales the rows by ``sqrt(1 - L)`` and reads its noise as
    ``sqrt(L)`` times them, the values of its block.  Where numpy raises on
    overflow, a walk that leaves the float range raises
    :class:`InstabilityError` naming the element.
    """
    rows = rows.copy()
    factors = []
    try:
        for i in run:
            el = spec.elements[i]
            kind = _KIND_OF[type(el)]
            idx = _block_index(_modes(el))
            if kind.cls is LossElement:
                factors.append(math.sqrt(el.L) * rows[..., idx])
                rows[..., idx] *= math.sqrt(1.0 - el.L)
                continue
            linear, noise = kind.block(**{n: getattr(el, n) for n in kind.params})
            if noise is not None:
                weight, pattern = noise
                factors.append(rows[..., idx] @ (math.sqrt(weight) * pattern))
            moved = rows[..., idx] @ linear
            if moved.ndim > rows.ndim:  # a stack's blocks
                rows = _widen(rows, moved.shape[:-1] + rows.shape[-1:])
            rows[..., idx] = moved
    except FloatingPointError:
        raise InstabilityError(f"engine: the state overflows at element {i} ({kind.type})") from None
    if not factors:
        return rows, None
    lead = rows.shape[:-1]  # the factors read before a stack are widened to it
    return rows, np.concatenate([f if f.shape[:-1] == lead else _widen(f, lead + f.shape[-1:]) for f in factors], axis=-1)


def _amplification(spec: CircuitSpec, vary: dict | None = None):
    """The product of ``G + g`` over the circuit's amplifiers and squeezers, with ``vary``'s ``{index: {field: array}}`` set."""
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
    """Index of the modes' quadratures along one axis.

    A slice where the quadratures are contiguous and in order (basic
    indexing is cheaper), an index array otherwise.
    """
    idx = _quadrature_indices(modes)
    if np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    idx.setflags(write=False)  # shared by every caller through the cache
    return idx


def simulate(spec: CircuitSpec) -> GaussianState:
    """Run the circuit and return the output state: the ``2n`` identity rows read backward (:class:`_Adjoint`).

    Raises :class:`InstabilityError` naming the element, the covariance or
    the means where they leave the float range.
    """
    with np.errstate(over="raise", invalid="raise"):
        mean, cov = _Adjoint(spec, (), np.eye(2 * spec.n_modes)).run({})
    return GaussianState(spec.n_modes, mean, cov)


def propagate_mean(spec: CircuitSpec) -> np.ndarray:
    """Mean quadrature vector of the output state."""
    return simulate(spec).mean


def detect_stats(spec: CircuitSpec, state: GaussianState | None = None) -> QuadratureStats:
    """Homodyne statistics at the circuit's detection block."""
    if state is None:
        state = simulate(spec)
    elif state.n_modes != spec.n_modes:
        raise ValueError(f"the state has {state.n_modes} modes, the circuit {spec.n_modes}")
    return quadrature_stats(state, spec.detect.mode, spec.detect.theta)


# --- document form -----------------------------------------------------


_DOCUMENT_KEYS = frozenset({"schema", "n_modes", "inputs", "elements", "detect"})
_DETECT_REQUIRED = frozenset({"mode"})
_DETECT_KEYS = frozenset({"mode", "theta"})


def _require_keys(obj: dict, required: frozenset, allowed: frozenset, where: str):
    keys = obj.keys()
    if required <= keys <= allowed:
        return
    missing = required - keys
    if missing:
        raise CircuitError(f"{where}: missing key(s) {sorted(missing)}")
    raise CircuitError(f"{where}: unknown key(s) {sorted(keys - allowed)}")


def _number(value) -> float:
    if type(value) is float and math.isfinite(value):  # what JSON numbers with a point or an exponent give
        return value
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


def _mode_pair(value) -> tuple[int, int]:
    if not isinstance(value, list) or not all(map(_is_index, value)):
        raise CircuitError(f"expected a list of mode indices, got {value!r}")
    if len(value) != 2:
        raise CircuitError(f"expected two mode indices, got {value!r}")
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
_FROM_DOC = {"modes": _mode_pair, "mode": _mode_index, "convention": _string, "alpha": _amplitude}


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
    """The document entry ``obj`` as its kind's dataclass.

    Its values are checked once: their types by the document's
    converters, their ranges by the kind's ``check``.
    """
    if not isinstance(obj, dict):
        raise CircuitError(f"{where}: expected an object, got {obj!r}")
    name = obj.get("type")
    if not isinstance(name, str) or name not in table:
        raise CircuitError(
            f"{where}: unknown {what} type {name!r}; expected one of {sorted(table)}"
        )
    kind = table[name]
    _require_keys(obj, kind.required, kind.allowed, where)
    entry = _assemble(kind.cls, **_convert(obj, where))
    if kind.check is not None:
        try:
            kind.check(**entry.__dict__)
        except ValueError as exc:
            raise CircuitError(f"{where}: {exc}") from exc
    return entry


def parse_circuit(text: str) -> CircuitSpec:
    """Parse and validate a circuit document.

    Raises :class:`CircuitError` with line/column information for malformed
    JSON and with the offending element index for semantic violations.
    Each value is checked once, as in the kinds' ``__post_init__``: every
    entry's types and ranges first, in document order, then the input
    count, the elements' modes and the detection mode.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise CircuitError(f"circuit document must be a JSON object, got {type(doc).__name__}")
    _require_keys(doc, _DOCUMENT_KEYS, _DOCUMENT_KEYS, "document")
    if doc["schema"] != SCHEMA:
        raise CircuitError(f"unsupported schema {doc['schema']!r}; expected {SCHEMA!r}")
    n_modes = doc["n_modes"]
    if not _is_index(n_modes) or n_modes < 1:
        raise CircuitError(f"n_modes must be a positive integer, got {n_modes!r}")
    if not isinstance(doc["inputs"], list):
        raise CircuitError("inputs must be a list of preparations")
    inputs = tuple([_parse_entry(obj, f"input {k}", "input", _INPUTS) for k, obj in enumerate(doc["inputs"])])
    if not isinstance(doc["elements"], list):
        raise CircuitError("elements must be a list")
    elements = tuple(
        [_parse_entry(obj, f"element {i}", "element", _ELEMENTS) for i, obj in enumerate(doc["elements"])]
    )
    det = doc["detect"]
    if not isinstance(det, dict):
        raise CircuitError(f"detect: expected an object, got {det!r}")
    _require_keys(det, _DETECT_REQUIRED, _DETECT_KEYS, "detect")
    detect = _assemble(Detection, **_convert(det, "detect"))
    _check_fit(n_modes, inputs, elements, detect)
    return _assemble(CircuitSpec, n_modes=n_modes, inputs=inputs, elements=elements, detect=detect)


class _Layout(NamedTuple):
    """What ``json.dumps(doc, indent=indent)`` writes between the values of a circuit document."""

    lines: tuple[str, ...]  # the start of a line at depths 0 to 4: "" without an indent
    separator: str  # between two members or items
    member: str  # before each member of an entry but its first, at depth 3
    item: str  # before each item of a list in an entry but its first, at depth 4


@functools.lru_cache(maxsize=None)
def _layout(indent) -> _Layout:
    if indent is None:
        lines, separator = ("",) * 5, ", "
    else:
        step = indent if isinstance(indent, str) else " " * indent
        lines, separator = tuple("\n" + step * depth for depth in range(5)), ","
    return _Layout(lines, separator, separator + lines[3], separator + lines[4])


def _scalar_text(value) -> str:
    text = _SCALAR_TEXT.get(type(value))
    return text(value) if text is not None else json.dumps(value, allow_nan=False)


def _entry_text(entry, layout: _Layout) -> str:
    """The JSON text of a preparation or an element: an item of a list in the document's object."""
    kind = _KIND_OF[type(entry)]
    lines = layout.lines
    text = "{" + lines[3] + kind.head
    for name, key, to_doc in kind.members:
        value = getattr(entry, name)
        if to_doc is not None:
            value = to_doc(value)
        if type(value) is list:
            text += layout.member + key + "[" + lines[4] + layout.item.join(map(_scalar_text, value)) + lines[3] + "]"
        else:
            text += layout.member + key + _scalar_text(value)
    return text + lines[2] + "}"


def _list_text(texts: list[str], layout: _Layout) -> str:
    lines = layout.lines
    return "[" + lines[2] + (layout.separator + lines[2]).join(texts) + lines[1] + "]" if texts else "[]"


def serialize_circuit(spec: CircuitSpec, indent: int | None = 2) -> str:
    """Serialize a circuit to its document form (defaults echoed explicitly).

    The text is ``json.dumps(doc, indent=indent)`` of the document, byte
    for byte, written an entry at a time from its kind's row.  Raises
    ``ValueError`` for a value that is NaN or infinite.
    """
    layout = _layout(indent)
    lines, separator = layout.lines, layout.separator
    member = separator + lines[1]
    return (
        "{" + lines[1] + '"schema": ' + encode_basestring_ascii(SCHEMA)
        + member + '"n_modes": ' + int.__repr__(spec.n_modes)
        + member + '"inputs": ' + _list_text([_entry_text(p, layout) for p in spec.inputs], layout)
        + member + '"elements": ' + _list_text([_entry_text(e, layout) for e in spec.elements], layout)
        + member + '"detect": {' + lines[2] + '"mode": ' + int.__repr__(spec.detect.mode)
        + separator + lines[2] + '"theta": ' + _float_text(spec.detect.theta) + lines[1] + "}"
        + lines[0] + "}"
    )


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


# The fewest floats in an array that go through the vectorized kernel.  Its
# fixed cost is about 0.25 ms a block, and it saves about 0.3 us a float:
# the two ways cost the same at about 1,000 floats.
_BLOCK_MIN = 1000


def _float_array(array: np.ndarray, write: Callable, newline: str):
    """Write a float64 array of two or more axes through :mod:`._shortest`, a chunk of rows at a time.

    One kernel call checks every value before any of the array is written
    and gives the text of the whole array, list brackets and indents
    included, a chunk of whole rows of the last axis at a time; each chunk
    is one ``write``.
    """
    from . import _shortest  # on first use: a command that writes no block never loads it

    ndim = array.ndim
    indents = [newline + _INDENT * depth for depth in range(ndim + 1)]

    def closed(j):  # the closing brackets of a row and of the lists of its j innermost leading axes
        return "".join(indents[depth] + "]" for depth in range(ndim - 1, ndim - 2 - j, -1))

    def opened(j):  # the opening brackets of as many lists, and the indent of the first value
        return "".join(indents[depth] + "[" for depth in range(ndim - 1 - j, ndim)) + indents[ndim]

    ends = [closed(j) + "," + opened(j) for j in range(ndim - 1)] + [closed(ndim - 1)]
    texts = _shortest.chunks(array, "," + indents[ndim], ends)
    write("[" + opened(ndim - 2))
    for text in texts:
        write(text)


_INDENT = "  "  # one level of the result documents' indent


def _encode(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``, byte for byte.

    With ``indent`` set, the standard library encodes in pure Python, one
    type check and one chunk per element.  Here scalars of a type ``json``
    knows are written by exact type, a list of floats as one chunk, a
    ``join`` of ``float.__repr__`` (what ``json`` writes for a float or a
    float subclass), a float64 numpy array as the lists of its ``tolist()``
    or, from ``_BLOCK_MIN`` values on, with two or more axes, through the
    vectorized kernel of :mod:`._shortest` (the same text, one chunk a
    chunk of whole rows of the last axis), dicts (keys sorted) and other
    lists recurse, and every other value goes through ``json.dumps``; the
    chunks are joined once.  Keys must be strings.  NaN or infinity raises
    ``ValueError``, an unsupported type or a key that is not a string
    ``TypeError``.
    """
    chunks = []
    _dump(obj, chunks.append)
    return "".join(chunks)


def _dump(obj, write: Callable):
    """Pass :func:`_encode`'s text of ``obj`` to ``write`` chunk by chunk, never whole.

    A file written this way holds the same bytes, without the whole text
    in memory at once.  Raises as :func:`_encode` does, with the chunks
    before the offending value already written.
    """
    _write_json(obj, write, "\n")


def _write_json(obj, write: Callable, newline: str):
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        write(text(obj))
        return
    inner = newline + _INDENT
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        separator = "{" + inner
        for key in sorted(obj):
            value = obj[key]
            text = _SCALAR_TEXT.get(type(value))
            if text is not None:
                write(separator + encode_basestring_ascii(key) + ": " + text(value))
            else:
                write(separator + encode_basestring_ascii(key) + ": ")
                _write_json(value, write, inner)
            separator = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        if isinstance(obj[0], float):
            body = _float_list(obj, "," + inner)
            if body is not None:
                write("[" + inner + body + newline + "]")
                return
        separator = "[" + inner
        for item in obj:
            write(separator)
            _write_json(item, write, inner)
            separator = "," + inner
        write(newline + "]")
    elif type(obj) is np.ndarray and obj.dtype == np.float64 and obj.ndim:
        if obj.ndim == 1 or obj.size < _BLOCK_MIN:
            _write_json(obj.tolist(), write, newline)
        else:
            _float_array(obj, write, newline)
    else:
        write(json.dumps(obj, allow_nan=False))
