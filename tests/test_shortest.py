"""The vectorized shortest-repr kernel against ``float.__repr__``."""

import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gicirc import _shortest
from gicirc._shortest import _CHUNK, chunks


def reprs(values) -> list[str]:
    """The kernel's text of each value, one value a row."""
    values = np.asarray(values, dtype=np.float64)
    return "".join(chunks(values.reshape(-1, 1), "", ["\n", ""])).split("\n")


def row_ends(shape) -> list[int]:
    """The ``ends`` index of each row of an array of ``shape``: how many of its lists the row ends."""
    ends = []
    for index in np.ndindex(*shape[:-1]):
        j = 0
        while j < len(index) and index[-1 - j] == shape[-2 - j] - 1:
            j += 1
        ends.append(j)
    return ends


def expected_text(values, separator: str, ends) -> str:
    """``separator.join`` of each row's ``float.__repr__`` texts, each followed by its ``ends`` text."""
    rows = values.reshape(-1, values.shape[-1]).tolist()
    return "".join(
        separator.join(map(float.__repr__, row)) + ends[j] for row, j in zip(rows, row_ends(values.shape))
    )


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    expected = list(map(float.__repr__, values.tolist()))
    got = reprs(values)
    wrong = [(a, b) for a, b in zip(got, expected) if a != b]
    assert len(got) == len(expected) and not wrong, wrong[:5]


def _with_neighbours(values):
    """``values``, their neighbours on both sides that are finite, and all of them negated."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        upper = np.nextafter(values, np.inf)
    both = np.concatenate([values, np.nextafter(values, 0.0), upper[np.isfinite(upper)]])
    return np.concatenate([both, -both])


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-323, 309)])
AROUND_2_53 = np.concatenate([2.0**53 + np.arange(-2000.0, 2001.0, 1.0), 2.0**52 + np.arange(-500.0, 501.0, 0.5)])
POINT_SWITCHES = [1e-4, 1e-5, 1e16, 9999999999999998.0, 0.0001, 0.00011, 1e15, 123456789012345.6, 0.1, 0.5]
THREE_DIGIT_EXPONENTS = [1e100, 1.5e-100, 1e-300, 2.5e300, 1.2345678901234567e-200, 9.87e123]
SUBNORMALS = [5e-324, 1e-323, 2.5e-320, 1e-310, 2.225073858507201e-308]
EXTREMES = [2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0]


@pytest.mark.parametrize(
    "values",
    [
        _with_neighbours(POWERS_OF_TWO),
        _with_neighbours(POWERS_OF_TEN),
        np.concatenate([AROUND_2_53, -AROUND_2_53]),
        _with_neighbours(POINT_SWITCHES),
        _with_neighbours(THREE_DIGIT_EXPONENTS),
        _with_neighbours(SUBNORMALS),
        _with_neighbours(EXTREMES),
    ],
    ids=["powers of two", "powers of ten", "around 2**53", "point switches", "three-digit exponents",
         "subnormals", "extremes"],
)
def test_edge_classes(values):
    assert_reprs(values)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**64 - 1), max_size=50))
def test_raw_bit_patterns(seed, patterns):
    """10**5 random 64-bit patterns an example, and a few that hypothesis picks."""
    bits = np.random.default_rng(seed).integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False)
    values = np.concatenate([bits, np.array(patterns, dtype=np.uint64)]).view(np.float64)
    assert_reprs(values[np.isfinite(values)])


def test_rows_are_joined_by_the_separator():
    values = np.array([[0.5, -1.0, 2e-300], [0.0, 123.0, 1e22], [5e-324, -0.0, 7.25]])
    text = "".join(chunks(values, ", ", ["|", "."]))
    assert text == "|".join(", ".join(map(float.__repr__, row)) for row in values.tolist()) + "."


def test_rows_span_chunks():
    """Rows along the last axis, some longer than a chunk, come out whole, in order and with their ends."""
    rng = np.random.default_rng(5)
    for shape in [(40_000, 1), (300, 241), (5, _CHUNK + 7), (3, 7, 1000), (2, 2, 3, 4_099), (2, 150, 241),
                  (1000, 2, 3), (2, 2, 2, 30, 40)]:
        size = math.prod(shape)
        values = (rng.normal(size=size) * 10.0 ** rng.integers(-30, 30, size)).reshape(shape)
        ends = [f"<{j}>\n" for j in range(len(shape))]
        texts = list(chunks(values, ",", ends))
        assert "".join(texts) == expected_text(values, ",", ends), shape
        width = shape[-1]
        step = -(-_CHUNK // width) * width  # whole rows, at least _CHUNK values
        assert len(texts) == -(-size // step), shape
        # Each chunk holds whole rows: it ends with a row's end text.
        assert all(re.search(r"<\d+>\n$", text) for text in texts), shape


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_raises_at_the_call(bad):
    values = np.full(10_000, 0.25)
    values[7777] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        chunks(values.reshape(100, 100), ",", ["\n", ""])


def test_no_work_at_import():
    """Importing the CLI loads no kernel, and loading the kernel builds no table."""
    code = (
        "import sys, gicirc.cli; loaded = 'gicirc._shortest' in sys.modules; "
        "from gicirc import _shortest; "
        "print(loaded, *(table.cache_info().currsize for table in "
        "(_shortest._table, _shortest._keep, _shortest._groups, _shortest._exponents)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "0", "0", "0", "0"]


def test_exponent_table_holds_each_exponent_text():
    text, _ = _shortest._exponents()
    exponents = range(_shortest._E_MIN, _shortest._E_MAX + 1)
    assert text.view(np.uint8).tobytes() == "".join(f"{e:+04d}" for e in exponents).encode("ascii")


@pytest.mark.parametrize("mantissa", ["1", "1.5", "9.999999999999999", "1.2345678901234567"])
def test_every_decimal_exponent(mantissa):
    """Every decimal exponent from -324 to 308, in the positional form (-4 <= e <= 15) and the scientific."""
    with np.errstate(over="ignore"):
        values = np.array([float(f"{mantissa}e{e}") for e in range(-324, 309)])
    values = values[np.isfinite(values) & (values != 0.0)]
    assert len(values) >= 308 + 308
    assert_reprs(np.concatenate([values, -values]))


def _decimal_sizes(monkeypatch):
    """The number of values of each call of ``_decimal``, the general path, as the kernel makes them."""
    sizes = []
    decimal = _shortest._decimal

    def spy(bits):
        sizes.append(bits.size)
        return decimal(bits)

    monkeypatch.setattr(_shortest, "_decimal", spy)
    return sizes


def _over_three_chunks(kind, rng):
    """Values over three chunks and a part, of which every one, none or some take the general path."""
    size = 3 * _CHUNK + 40
    if kind == "every":  # below 1 or above 2**53: no integer, zero or subnormal
        exponents = rng.choice(np.r_[-300:0, 17:300], size)
        return rng.uniform(0.1, 1.0, size) * 10.0**exponents * rng.choice([-1.0, 1.0], size)
    # Integers below 2**53, zeros and subnormals (written by float.__repr__) need no digits of _decimal.
    values = rng.integers(-(2**53) + 1, 2**53, size).astype(np.float64)
    values[::7] = 0.0
    values[3::7] = -0.0
    values[5::11] = 5e-324 * rng.integers(1, 2**52, size)[5::11]
    values[:4] = [2.0**53 - 1.0, -(2.0**53 - 1.0), 1.0, -1.0]
    if kind == "some":
        values[1::3] = rng.uniform(-1e6, 1e6, values[1::3].size)  # not integers
        values[4:6] = [2.0**53, -(2.0**53)]  # integers, but not below 2**53
    return values


@pytest.mark.parametrize("kind", ["every", "none", "some"])
def test_chunks_on_each_path(kind, monkeypatch):
    """Every value of a chunk goes to ``_decimal`` whole, none, or some gathered; the texts are right on each path."""
    values = _over_three_chunks(kind, np.random.default_rng(17))
    sizes = _decimal_sizes(monkeypatch)
    assert_reprs(values)
    if kind == "some":
        assert len(sizes) == 4 and all(0 < n < _CHUNK for n in sizes[:3])
    else:
        assert sizes == {"every": [_CHUNK] * 3 + [40], "none": []}[kind]


def test_chunks_with_and_without_list_ends():
    """Chunks that hold a row end of an axis and chunks that do not: each chunk's text has exactly its own."""
    seen = set()
    for shape in [(2, 3, 700, 41), (3, 9000, 3), (2, 2, 2, 3, 1500, 11), (3, 5000, 1, 4), (2, 150, 241)]:
        values = np.random.default_rng(3).normal(size=shape)
        ends = [f"<{j}>" for j in range(len(shape))]
        texts = list(chunks(values, ",", ends))
        assert "".join(texts) == expected_text(values, ",", ends), shape
        step = -(-_CHUNK // shape[-1])  # rows a chunk
        per_row = row_ends(shape)
        for lo, text in zip(range(0, len(per_row), step), texts):
            held = set(per_row[lo : lo + step])
            for j in range(len(shape)):
                assert (ends[j] in text) == (j in held), (shape, lo, j)
                seen.add((min(j, 3), j in held))
    assert seen == {(j, held) for j in range(4) for held in (False, True)}
