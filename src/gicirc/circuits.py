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

There is one propagation engine, and it runs backward (:func:`_walk`): a
row ``r`` of the output, with ``r·x`` a quadrature, walks the circuit from
the detector to the inputs, each element moving only the entries of its own
modes.  :func:`simulate` walks the ``2n`` identity rows, which gives the
output map and the noise factor of the whole circuit, so its output state
(:func:`_readout`).  The phase-excursion readouts walk the detected
quadrature's row (:class:`_Adjoint`): the shifted element splits it into one
row per excursion value, and the runs of elements that no row varies are
folded into one row map and one noise factor each, once per circuit.
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
    """Quadratures of a circuit's output read backward: their means at a shifted element's values, and a variance.

    Compiled once for the elements ``varied`` names and a ``shift``
    ``(index, {field: 1 + k values})``, which sets element ``index``'s
    fields to ``1 + k`` values: the first in the circuit, each other in a
    circuit of its own that differs only there.  That element must add no
    noise, and ``varied`` must not name it.  The ``detected`` rows
    ``(q, 2n)`` are read at the output, by default the detected
    quadrature's (:func:`_quadrature_row`).  A readout ``r·x`` is
    walked from the last element to the first, each mapping it as
    ``r[idx] <- r[idx]·S``, so the output mean is ``r·mean_in`` and, the
    noise entering on the way as ``sqrt(w) P`` factors, the variance is
    ``Σ w_in r²`` at the inputs plus ``w Σ (r[idx]·P)²`` at each noisy
    element, read with the row at its output: a sum of non-negative terms.
    The shifted element's ``1 + k`` blocks make each row ``1 + k`` rows, one
    per value; the variance reads the first row at the first value.  This is
    reverse mode (Griewank & Walther, *Evaluating Derivatives*, 2008), the
    walk that :func:`simulate` makes with the identity rows, here on the
    detected ones.

    The elements after the last varied one are walked here with the
    detected rows themselves, and each other maximal run of elements that
    ``varied`` does not name is walked with the identity rows, which folds
    it into a row map (``(2n, 2n)``, or ``(2n, (1 + k) 2n)``, the ``1 + k``
    maps side by side, where the run holds the shifted element) and a noise
    factor ``F``, whose noise adds ``Σ (r·F)²``.  So :meth:`run` takes the
    varied elements' blocks, made by the caller, and makes two products per
    varied element and two per folded run; neither the compile nor a pass
    depends on the number of rows.  The values are not validated; callers
    pass only values that their element's dataclass would accept.
    """

    def __init__(self, spec: CircuitSpec, varied, shift: tuple[int, dict], detected: np.ndarray | None = None):
        if detected is None:
            detected = _quadrature_row(spec.n_modes, spec.detect.mode, spec.detect.theta)
        self.mean, self.weights = _prepare(spec.n_modes, spec.inputs)
        self.rows, self.var = detected, np.float64(0.0)
        self.steps = []  # from the last element to the first: (index, idx) or (None, (maps, factor))
        run = []  # the unvaried elements met since the last varied one, last first
        for i in reversed(range(len(spec.elements))):
            if i not in varied:
                run.append(i)
                continue
            self._fold(spec, run, shift)
            self.steps.append((i, _block_index(_modes(spec.elements[i]))))
            run = []
        self._fold(spec, run, shift)

    def _fold(self, spec: CircuitSpec, run: list, shift: tuple[int, dict]):
        """Walk the elements ``run`` (last first): with the detected rows before the first varied element, else as a step."""
        if not run:
            return
        if self.steps:
            dim = 2 * spec.n_modes
            maps, factor = _walk(spec, run, shift, np.eye(dim))
            self.steps.append((None, (maps.reshape(dim, -1), factor)))
            return
        rows, factor = _walk(spec, run, shift, self.rows)
        self.rows = rows.reshape(-1, rows.shape[-1])
        if factor is not None:
            first = factor[0]
            self.var = self.var + (first * first).sum()

    @staticmethod
    def _map(rows: np.ndarray, var, maps: np.ndarray, factor: np.ndarray | None):
        """A folded run on ``rows``: its noise read with the first row, then its map(s)."""
        if factor is not None:
            first = rows[..., 0, :] @ factor
            var = var + (first * first).sum(axis=-1)
        dim, width = maps.shape
        return (rows @ maps).reshape(rows.shape[:-2] + (rows.shape[-2] * width // dim, dim)), var

    def run(self, blocks: dict) -> tuple[np.ndarray, np.ndarray]:
        """The means ``(*batch, q (1 + k))``, each detected row's at the shift's values in turn, and the variance ``(*batch)``.

        ``blocks`` maps each varied element's index to its block ``(S, noise)``
        as its kind's ``block`` gives it, a stack whose leading shapes
        broadcast to the batch.
        """
        rows, var = self.rows, self.var
        for i, step in self.steps:
            if i is None:
                rows, var = self._map(rows, var, *step)
                continue
            linear, noise = blocks[i]
            if noise is not None:
                weight, pattern = noise
                first = rows[..., :1, step] @ pattern
                var = var + weight * (first * first).sum(axis=-1)[..., 0]
            moved = rows[..., step] @ linear
            rows = _widen(rows, moved.shape[:-1] + rows.shape[-1:])
            rows[..., step] = moved
        first = rows[..., 0, :]
        return rows @ self.mean, var + (first * first * self.weights).sum(axis=-1)


def _walk(spec: CircuitSpec, run: Iterable[int], shift: tuple, rows: np.ndarray):
    """The rows ``(q, 2n)`` walked back through the elements ``run`` (last first), and the noise they read.

    Returns the rows ``(q, 1 + k, 2n)`` where ``run`` holds the shifted
    element (``(q, 1, 2n)`` elsewhere) and the noise factor ``(q, c)`` of
    the run's noisy elements, each read with the rows at its output and the
    shift's first value, or ``None`` for a run without noise.  A loss ``L``
    is walked without a product: it scales the rows by ``sqrt(1 - L)`` and
    reads its noise as ``sqrt(L)`` times them, the values of its block.
    Where numpy raises on overflow, a walk that leaves the float range
    raises :class:`InstabilityError` naming the element.
    """
    at, shifted = shift
    q = len(rows)
    rows = rows.copy()  # (1 + k) q rows from the shifted element on, each value's q in turn
    factors = []
    try:
        for i in run:
            el = spec.elements[i]
            kind = _KIND_OF[type(el)]
            idx = _block_index(_modes(el))
            if kind.cls is LossElement:
                factors.append(math.sqrt(el.L) * rows[:q, idx])
                rows[:, idx] *= math.sqrt(1.0 - el.L)
                continue
            linear, noise = kind.block(**{n: getattr(el, n) for n in kind.params} | (shifted if i == at else {}))
            if noise is not None:
                weight, pattern = noise
                factors.append(rows[:q, idx] @ (math.sqrt(weight) * pattern))
            moved = rows[:, idx] @ linear
            if moved.ndim == 3:  # the shifted element's 1 + k blocks
                rows = _widen(rows, moved.shape[:1] + rows.shape).reshape(-1, rows.shape[-1])
                moved = moved.reshape(-1, moved.shape[-1])
            rows[:, idx] = moved
    except FloatingPointError:
        raise InstabilityError(f"engine: the state overflows at element {i} ({kind.type})") from None
    return rows.reshape(-1, q, rows.shape[-1]).swapaxes(0, 1), np.concatenate(factors, axis=1) if factors else None


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


def _readout(spec: CircuitSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The means ``(q,)`` and the covariance ``(q, q)`` of the output quadratures ``rows·x``, for rows ``(q, 2n)``.

    The rows walk back through every element (:func:`_walk`) to their map
    ``M`` on the inputs and their noise factor ``F``.  The covariance
    ``[M | F] diag(w, 1) [M | F]^T``, with ``w`` the preparation variances,
    is formed once and symmetrized once, so every variance is a sum of
    non-negative terms: for the identity rows it is the forward factored
    covariance, transposed (reverse mode, Griewank & Walther, *Evaluating
    Derivatives*, 2008).  Raises :class:`InstabilityError` naming the
    element, the covariance or the means where they leave the float range.
    """
    mean_in, weights = _prepare(spec.n_modes, spec.inputs)
    with np.errstate(over="raise", invalid="raise"):
        maps, factor = _walk(spec, reversed(range(len(spec.elements))), (None, {}), rows)
        maps = full = maps[:, 0]
        if factor is not None:
            full = np.concatenate((maps, factor), axis=1)
            weights = np.concatenate((weights, np.ones(factor.shape[1])))
        try:
            cov = (full * weights) @ full.T
            cov = 0.5 * (cov + cov.T)
        except FloatingPointError:
            raise InstabilityError("engine: the output covariance overflows") from None
        try:
            mean = maps @ mean_in
        except FloatingPointError:
            raise InstabilityError("engine: the output means overflow") from None
    return mean, cov


def simulate(spec: CircuitSpec) -> GaussianState:
    """Run the circuit and return the output state: the walk of the ``2n`` identity rows."""
    mean, cov = _readout(spec, np.eye(2 * spec.n_modes))
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
