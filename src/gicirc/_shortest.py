"""The ``float.__repr__`` text of each value of a float64 array, vectorized.

:func:`chunks` gives the text of a whole array, the values of a row joined
by a separator and a given text after each row, a chunk of whole rows at a
time.  The kernel lays each value out in one row of a fixed template, with
one delimiter byte after it, zeroes the template bytes its text leaves out
and deletes every zero byte of the chunk with one ``bytes.translate``;
``bytes.replace`` then turns the delimiter bytes into the separator and
into the row ends that the chunk holds.  The digits of each 4-digit group,
the sign and digits of each decimal exponent and Schubfach's multipliers
(six words a decimal exponent, one gather a chunk) come from tables built
on first use, not at import.

The digits are the shortest that read back as the same double and, of
those, the closest to it (ties to an even last digit): Schubfach (R.
Giulietti, "The Schubfach way to render doubles", 2020, in the form of
Java's ``DoubleToDecimal``) in fixed-width integer arithmetic on numpy
``uint64`` arrays, where ``float.__repr__`` runs C's dtoa once a value.
Every integer operand meeting a ``uint64`` array is an ``np.uint64``
array or scalar: before NEP 50 (numpy < 2) numpy cast by value, and a
``uint64`` array meeting a signed operand became ``float64``.

Zeros and subnormals, which the text layout below does not cover, are
written by ``float.__repr__`` itself.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

_U = np.uint64
_0, _1, _2, _3, _32, _63 = _U(0), _U(1), _U(2), _U(3), _U(32), _U(63)
_M32 = _U(0xFFFF_FFFF)
_M63 = _U(0x7FFF_FFFF_FFFF_FFFF)
_C_MIN = _U(1 << 52)  # the implicit bit of a normal double
_EXPONENT = _U(0x7FF0_0000_0000_0000)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of the table
_DIGITS = 17  # a double has at most 17 significant digits
_POW10 = np.array([10**i for i in range(_DIGITS + 1)], dtype=np.uint64)
_E4 = np.uint32(10_000)
# The fewest values a chunk of whole rows holds, one text and one write; a
# chunk's temporaries take about 6 MB.  Measured on the figures benchmark:
# chunks of 4096 or 32768 values left its peak memory 4 to 8 MB higher
# (glibc heap fragmentation), 16384 within 1 MB of writing each float with
# float.__repr__, at the same speed.  The README's Wigner panels
# (3 x 3 x 241 x 241) take 32 chunks of 68 rows; a list of 241 rows spans 4 or 5.
_CHUNK = 16384
# The byte that follows a value in the kernel's text, replaced by the
# separator, or + 1 + j after a row, replaced by its ends[j]: bytes that no
# text holds.
_END = 0x80


def chunks(values: np.ndarray, separator: str, ends: Sequence[str]) -> Iterator[str]:
    """The text of float64 ``values``, a chunk of whole rows at a time.

    The rows run along the last axis of the array, which has ``k >= 1``
    leading axes and is not empty.  The ``float.__repr__`` texts of a row's
    values are joined by ``separator``, and each row is followed by
    ``ends[j]``, where ``j`` counts the leading axes, from the innermost,
    whose last index the row holds: ``ends[0]`` comes between two rows of
    one list of the second-to-last axis, ``ends[k]`` after the last row.
    The chunks, joined, are the whole text.  NaN or infinity raises
    ``ValueError``, as ``json`` does, in this call; the chunks are made as
    the returned iterator is read.
    """
    width = values.shape[-1]
    lists = np.cumprod((1, *values.shape[-2::-1])).tolist()  # rows in a row and in one list of each leading axis
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return _chunks(values, width, lists, separator.encode("ascii"), [end.encode("ascii") for end in ends])


def _chunks(values, width: int, lists: list, separator: bytes, ends: list) -> Iterator[str]:
    step = -(-_CHUNK // width) * width  # whole rows, at least _CHUNK values
    for lo in range(0, values.size, step):
        chunk = values[lo : lo + step]
        delimiters = np.full(chunk.size, _END, dtype=np.uint8)
        first = lo // width  # the chunk's first row
        for j, rows in enumerate(lists):  # the last rows of each list, deeper lists overwritten
            delimiters[((rows - 1 - first) % rows + 1) * width - 1 :: rows * width] = _END + 1 + j
        text = _text(chunk, delimiters)
        last = first + chunk.size // width  # one past the chunk's last row
        # The chunk's rows that end a list of each axis; those that end no deeper list hold ends[j].
        ending = [last // rows - first // rows for rows in lists] + [0]
        for j, end in enumerate(ends):  # the few row ends first, in the shorter text
            if ending[j] > ending[j + 1]:  # no scan for a row end the chunk lacks
                text = text.replace(bytes([_END + 1 + j]), end)
        yield text.replace(bytes([_END]), separator).decode("ascii")


def _text(values: np.ndarray, delimiters: np.ndarray) -> bytes:
    """The text of each finite value, each followed by its byte of ``delimiters``."""
    bits = values.view(np.uint64)
    special = (bits & _EXPONENT) == _0  # a zero or a subnormal
    if special.any():
        bits = np.where(special, _U(0x3FF0_0000_0000_0000), bits)  # 1.0, replaced below
    buf, shape = _layout(bits)
    if special.any():
        texts = [float.__repr__(v) for v in values[special].tolist()]
        buf[special, :_MAX_TEXT] = np.frombuffer(
            "".join(text.ljust(_MAX_TEXT) for text in texts).encode("ascii"), dtype=np.uint8
        ).reshape(-1, _MAX_TEXT)
        shape[special] = [_PREFIX + len(text) for text in texts]
    buf[:, _DELIMITER] = delimiters
    # Zero the columns a text leaves out, then delete the zeros: no text or
    # delimiter holds one.  One multiply and translate are faster than
    # compress, and take than fancy indexing.
    buf *= _keep().take(shape, axis=0)
    return buf.tobytes().translate(None, b"\0")


# --- digits ----------------------------------------------------------------


def _flog2pow10(e: int) -> int:
    """``floor(log2(10**e))``."""
    return (10**e).bit_length() - 1 if e >= 0 else -((10**-e).bit_length())


@functools.cache
def _table():
    """``(g, f2)`` indexed by ``k - _K_MIN``, built on first use, not at import.

    ``g = floor(10**-k 2**-r) + 1`` with ``2**125 <= g < 2**126`` is split
    into 63-bit halves ``g = g1 2**63 + g0``: row ``k - _K_MIN`` of ``g``
    holds ``g1`` and ``g0`` as 32-bit limbs, ``g1 >> 32``, ``g1 & M32``,
    ``g0 >> 32``, ``g0 & M32``, then ``g1`` and ``g0`` whole, so one gather
    takes all six; ``f2`` is ``floor(log2(10**-k))``.
    """
    rows, f2 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        f2.append(_flog2pow10(-k))
        r = f2[-1] - 125
        if k > 0:
            beta = (1 << -r) // 10**k
        else:
            beta = 10**-k << -r if r <= 0 else 10**-k >> r
        g = beta + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows.append((g1 >> 32, g1 & 0xFFFF_FFFF, g0 >> 32, g0 & 0xFFFF_FFFF, g1, g0))
    return np.array(rows, dtype=np.uint64), np.array(f2, dtype=np.int64)


def _high(a1, a0, b1, b0):
    """The high 64 bits of the product of ``a1 2**32 + a0`` and ``b1 2**32 + b0``.

    The low 64 bits are the ``uint64`` product itself, which wraps.
    """
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)


def _rop(x1, y1, y0):
    """``g cp / 2**127`` rounded to odd, from ``x1 = hi(g0 cp)`` and ``(y1, y0) = g1 cp``."""
    z = (y0 >> _1) + x1
    return (y1 + (z >> _63)) | (((z & _M63) + _M63) >> _63)


def _shifted(g1, g0, j):
    """The 64-bit halves of ``g0 2**j`` and ``g1 2**j``: ``(lo0, hi0, lo1, hi1)``."""
    return g0 << j, g0 >> (_U(64) - j), g1 << j, g1 >> (_U(64) - j)


def _rop_moved(x1, x0, y1, y0, shifted, sign: int):
    """:func:`_rop` of ``g (cp + sign 2**j)``, from the products ``g0 cp = (x1, x0)`` and ``g1 cp = (y1, y0)``.

    The same bits as multiplying anew, for a carry each, given
    :func:`_shifted` ``(g1, g0, j)``.
    """
    lo0, hi0, lo1, hi1 = shifted
    if sign > 0:
        x0n, y0n = x0 + lo0, y0 + lo1
        return _rop(x1 + hi0 + (x0n < x0), y1 + hi1 + (y0n < y0), y0n)
    return _rop(x1 - hi0 - (x0 < lo0), y1 - hi1 - (y0 < lo1), y0 - lo1)


def _decimal(bits):
    """``(d, k)``: ``d 10**k`` is the shortest, closest decimal of each normal double's magnitude.

    ``d`` may end in zeros.  Java's ``DoubleToDecimal.toDecimal``, a
    value per array element.
    """
    g, f2 = _table()
    biased = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    t = bits & (_C_MIN - _1)
    c = t | _C_MIN
    q = biased - 1075
    # A power of two is nearer its lower neighbour (irregular spacing),
    # but for the smallest normal, whose neighbours are subnormals.
    irregular = (t == _0) & (biased > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10(2**q)) or of 3/4 of it
    row = k - _K_MIN
    h = (q + f2[row] + 2).astype(np.uint64)
    g11, g10, g01, g00, g1, g0 = g.take(row, axis=0).T
    cp = c << (_2 + h)
    b1, b0 = cp >> _32, cp & _M32
    x1, x0 = _high(g01, g00, b1, b0), g0 * cp
    y1, y0 = _high(g11, g10, b1, b0), g1 * cp
    vb = _rop(x1, y1, y0)  # 4 v / 10**k, and the interval's ends vbl, vbr
    up = _shifted(g1, g0, h + _1)
    # The lower end moves half as far from an irregular spacing's value.
    down = _shifted(g1, g0, h + _1 - irregular.astype(np.uint64)) if irregular.any() else up
    vbr = _rop_moved(x1, x0, y1, y0, up, +1)
    vbl = _rop_moved(x1, x0, y1, y0, down, -1)
    out = c & _1  # an odd significand's interval excludes its ends
    low, high = vbl + out, vbr - out
    s = vb >> _2
    # One digit fewer, if exactly one of its candidates lies in the interval;
    # else s or s + 1, whichever lies in it, or the closer (ties to even):
    # vb is 4 s + (vb & 3), and 4 s + 2 the midpoint.
    sp10 = (s // _U(10)) * _U(10)
    tp10 = sp10 + _U(10)
    upin, wpin = low <= sp10 << _2, tp10 << _2 <= high
    uin, win = low <= s << _2, (s + _1) << _2 <= high
    d = s + np.where(uin != win, win, (vb & _3) + (s & _1) > _2)
    return np.where(upin != wpin, np.where(upin, sp10, tp10), d), k


# --- text --------------------------------------------------------------------

# Each text is some of the columns of one template row, in order: a sign,
# "0.000" for a value below 1, seventeen digits each followed by a point,
# an exponent and a delimiter.
_ZERO = 1  # "0." and up to three zeros
_DIGIT = 6  # digit j in column _DIGIT + 2 j, a point after it
_EXP = _DIGIT + 2 * _DIGITS  # "e", its sign and three digits
_DELIMITER = _EXP + 5
_E_MIN, _E_MAX = -324, 308  # the decimal exponents of a double's text
_TEMPLATE = b"-0.000" + b"0." * _DIGITS + b"e+000 "
_MAX_TEXT = 24  # the longest repr of a double
# A text's shape code is (form * 18 + m) * 2 + (1 if negative) for m
# significant digits, where form is:
_SCI = 0  # d.ddde+XX, or +1 for three exponent digits
_POINT = 1  # + p: the point after p digits (1 <= p <= 16), or ".0" after them
_BELOW_1 = 18  # + z: "0.", then z zeros (0 <= z <= 3), then the digits
_FORMS = 22
_PREFIX = _FORMS * 36  # + n: the first n columns (a zero or a subnormal's text)


@functools.cache
def _keep():
    """Row ``code`` is 1 in the template columns of texts of shape ``code`` and the delimiter's, else 0."""
    keep = np.zeros((_PREFIX + _MAX_TEXT + 1, len(_TEMPLATE)), dtype=np.uint8)
    keep[:, _DELIMITER] = True
    for form in range(_FORMS):
        for m in range(1, _DIGITS + 1):
            row = keep[(form * 18 + m) * 2]
            digits = m
            if form <= _SCI + 1:
                row[_DIGIT + 1] = m > 1
                row[_EXP : _EXP + 2] = True
                row[_EXP + 3 - form : _EXP + 5] = True
            elif form < _BELOW_1:
                point = form - _POINT
                row[_DIGIT + 2 * point - 1] = True
                digits = max(m, point + 1)  # "d.0" keeps the zero after the point
            else:
                row[_ZERO : _ZERO + 2 + form - _BELOW_1] = True
            row[_DIGIT : _DIGIT + 2 * digits : 2] = True
            keep[(form * 18 + m) * 2 + 1] = row
            keep[(form * 18 + m) * 2 + 1, 0] = True
    for n in range(_MAX_TEXT + 1):
        keep[_PREFIX + n, :n] = True
    return keep


@functools.cache
def _groups():
    """``(text, zeros)`` of each 4-digit group ``x``, built on first use, not at import.

    ``text[x]`` holds the template bytes ``"d.d.d.d."`` of its digits as one
    ``uint64``, and ``zeros[x]`` its trailing zeros (4 for 0).
    """
    x = np.arange(10_000)
    digits = np.stack([x // 1000, x // 100 % 10, x // 10 % 10, x % 10], axis=1)
    text = np.full((10_000, 8), ord("."), dtype=np.uint8)
    text[:, 0::2] = digits + ord("0")
    zeros = np.where(x == 0, 4, np.argmax(digits[:, ::-1] != 0, axis=1)).astype(np.uint8)
    return text.view(np.uint64).reshape(-1), zeros


@functools.cache
def _exponents():
    """``(text, form)`` of each decimal exponent ``e`` from ``_E_MIN``, built on first use, not at import.

    ``text[e - _E_MIN]`` holds the template bytes ``"+ddd"`` or ``"-ddd"``
    as one ``uint32``, and ``form[e - _E_MIN]`` the shape code of the texts
    whose first digit has place value ``10**e``, less ``2 m`` and the sign.
    """
    e = np.arange(_E_MIN, _E_MAX + 1)
    magnitude = np.abs(e)
    text = np.stack([np.where(e < 0, ord("-"), ord("+")), magnitude // 100, magnitude // 10 % 10, magnitude % 10], axis=1)
    text[:, 1:] += ord("0")
    decpt = e + 1
    form = np.where(
        (decpt <= -4) | (decpt > 16),
        _SCI + (magnitude >= 100),
        np.where(decpt > 0, _POINT + decpt, _BELOW_1 - decpt),
    )
    return text.astype(np.uint8).view(np.uint32).reshape(-1), form * 36


def _layout(bits):
    """``(buf, shape)``: the text of normal double ``i`` is ``buf[i][_keep()[shape[i]]]``.

    Laid out as ``float.__repr__`` does, with ``|v| = 0.DIGITS 10**decpt``:
    positional for ``-4 < decpt <= 16``, else ``d.ddde-XX``, at least two
    exponent digits and no point after a single digit.  The 17 digits,
    zero-padded, are the first and four groups of four, each group's
    bytes taken from :func:`_groups`; the exponent's sign and digits, and
    the form of the shape code, are taken from :func:`_exponents`.
    """
    n_values = bits.size
    c = (bits & (_C_MIN - _1)) | _C_MIN
    shift = _U(1075) - ((bits >> _U(52)) & _U(0x7FF))  # -q
    # An integer c 2**q below 2**53 is its own shortest decimal.
    small = shift < _U(53)
    shift = shift * small
    general = ~small | ((c >> shift) << shift != c)
    if general.all():  # no gather and scatter: every value of a Wigner panel
        d, k = _decimal(bits)
    else:
        d, k = c >> shift, np.zeros(n_values, dtype=np.int64)
        if general.any():
            d[general], k[general] = _decimal(bits[general])

    n = np.searchsorted(_POW10, d, side="right")  # the digit count
    rest = d * _POW10[_DIGITS - n]  # the digits, then zeros to 17
    first = rest // _POW10[16]
    rest = rest - first * _POW10[16]
    high = rest // _POW10[8]
    eights = np.stack([high, rest - high * _POW10[8]], axis=1).astype(np.uint32)  # digits 1-8, 9-16
    upper = eights // _E4
    groups = np.stack([upper, eights - upper * _E4], axis=2).reshape(n_values, 4)  # digits 1-4, ..., 13-16
    digits, zeros = _groups()
    trailing = zeros.take(groups[:, 3])
    for g in (2, 1, 0):  # while the groups after group g are all zeros
        trailing += (trailing == 4 * (3 - g)) * zeros.take(groups[:, g])
    m = _DIGITS - trailing  # the significant digits
    buf = np.empty((n_values, len(_TEMPLATE)), dtype=np.uint8)
    buf[:] = np.frombuffer(_TEMPLATE, dtype=np.uint8)
    buf[:, _DIGIT] = first + ord("0")
    buf[:, _DIGIT + 2 : _EXP] = digits.take(groups).view(np.uint8).reshape(n_values, 32)

    row = n + k - 1 - _E_MIN  # the exponent's row: |v| = 0.DIGITS 10**(n + k)
    exponent, form = _exponents()
    buf[:, _EXP + 1 : _EXP + 5].view(np.uint32)[:, 0] = exponent.take(row)
    return buf, form.take(row) + 2 * m + (bits >> _63).astype(np.int64)
