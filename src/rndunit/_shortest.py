"""CSV text of float64 tables, each float written exactly as repr writes it.

repr(x) is the shortest decimal that reads back as x and, of those, the one
nearest to x (Steele & White, PLDI 1990; Gay's dtoa, which CPython uses).
Those digits are a fixed function of the double, so they are computed here in
batched integer and float arithmetic (the idea of Ryu, Adams, PLDI 2018):

* For a finite x in [1e-250, 1e55) whose significand bits are not all zero,
  E = floor(log10 x), corrected so that V = x 10^(16 - E) lies in
  [1e16, 1e17). V is carried as an integer N plus a fraction f: a Dekker
  two-product against a double-double table of powers of ten keeps its
  error below 1e-13, where V's digits are integers.
* Such an x has neighbours at equal distances, so the decimals that read
  back as x are those within H = ulp(x) / 2 10^(16 - E) of V, and repr's
  digits are the integer strictly inside (V - H, V + H) whose digits end in
  the most zeros, the nearest to V of two such.
* A test that falls within _MARGIN of an integer or of a tie, zero and
  powers of two (whose interval is not symmetric), out-of-range values,
  inf and nan go to repr one by one, which is rare.

The text comes from a table of 4-digit ASCII groups and repr's layout: fixed
for 1e-4 <= x < 1e16, with ".0" after an integer, else d.ddde+XX. Each value
gets a record of fixed columns, NUL where its text has nothing, and the NUL
bytes are dropped at the end; fixed layout from 1 on moves the point with a
column order keyed by the exponent. The tables are built on first use, not
at import.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["CSV_TERMINATOR", "rows_text"]

# rows end as the csv module's writers end them (csv.excel.lineterminator)
CSV_TERMINATOR = "\r\n"

# a double's bits without its sign bit, its significand and its exponent
_MAGNITUDE_BITS = np.uint64(2**63 - 1)
_FRACTION_BITS = np.uint64(2**52 - 1)
_EXPONENT_BITS = np.uint64(2**63 - 2**52)
# the range the kernel formats, as bit patterns: positive doubles order like
# their bits, so no float comparison (and no warning) meets a nan
_LOWEST = np.float64(1e-250).view(np.uint64)
_HIGHEST = np.float64(1e55).view(np.uint64)
# decimal exponents E of the power table: the range's, and one either side.
# Its negative powers cost the most to build exactly, so the range stops at
# 1e55, far above the entries, purities, distances and times a run writes;
# larger values go to repr (all tables take about 1 ms to build, 2-3 ms up
# to 1e250)
_E_MIN, _E_MAX = -251, 55
# a test within this distance of an integer (in units of V) or of a tie goes
# to repr; V itself is off by less than 1e-13
_MARGIN = 1e-6
# 2^27 + 1, Dekker's splitting constant for doubles
_SPLIT = 134217729.0
_TEN = 10 ** np.arange(18, dtype=np.int64)
# the decimal exponents printed in fixed layout
_FIXED_MIN, _FIXED_MAX = -4, 15
# a value's record is 32 bytes, four words: its sign, the "0." and up to
# three zeros of fixed layout below 1, the first digit and a point; the
# other 16 digits; the exponent's text, the cell's ',' and two NULs, where a
# row's end goes. NUL bytes fill what a value does not use. A value that
# goes to repr fills the 28 bytes after its sign, which hold repr's longest
# text, 23 bytes as in 2.2250738585072014e-308.
_RECORD = 32
_DIGITS, _COMMA = 8, 29


def _words(rows, size: int = 8) -> np.ndarray:
    """Byte strings of up to size bytes, NUL padded, as uint64 words."""
    return np.array(rows, dtype=f"S{size}").view(np.uint64)


@functools.cache
def _tables():
    """Built once per process: the power table (hi, its Dekker halves, lo and
    hi 2^-53); the ASCII of every 4-digit group, one uint32 each; the first
    word of a record by p = clip(-X, 0, 5) (fixed layout below 1 has "0." and
    p - 1 zeros), first digit and point; the masks that keep the first s of
    the other 16 digits; the last word by exponent (none last); and, for
    fixed layout from 1 on, the order of a record's bytes that moves the
    point after digit X + 1, keyed by X."""
    hi, lo = [], []
    for k in range(16 - _E_MAX, 16 - _E_MIN + 1):
        # hi + lo is 10^k to within 2^-106 relative: both are correctly
        # rounded (Python's int to float and int / int are)
        if k >= 0:
            hi.append(float(10**k))
            lo.append(float(10**k - int(hi[-1])))
        else:
            hi.append(1 / 10**-k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10**-k) / (den * 10**-k))
    hi, lo = np.array(hi[::-1]), np.array(lo[::-1])  # indexed by E - _E_MIN
    split = _SPLIT * hi
    high = split - (split - hi)
    powers = np.stack([hi, high, hi - high, lo, hi * 2.0**-53])
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # of 0 ... 9999
    groups = np.ascontiguousarray((digits + np.uint8(ord("0"))).T).view(np.uint32).ravel()
    heads = _words([
        (b"\0" + b"0." + b"0" * (p - 1) if 0 < p < 5 else b"\0").ljust(6, b"\0")
        + bytes([48 + d]) + point
        for p in range(6) for d in range(10) for point in (b"\0", b".")
    ])
    masks = _words([b"\xff" * s for s in range(17)], 16).reshape(-1, 2)
    tails = [f"e{x:+03d}".encode() for x in range(_E_MIN, _E_MAX + 2)] + [b""]
    tails = _words([t.ljust(5, b"\0") + b"," for t in tails])
    columns = np.arange(_RECORD)
    moves = np.array([
        np.r_[columns[: _DIGITS - 1], columns[_DIGITS : _DIGITS + x], _DIGITS - 1,
              columns[_DIGITS + x :]]
        for x in range(_FIXED_MAX + 1)
    ])
    return powers, groups, heads, masks, tails, moves


def _scaled(x, e, powers):
    """V = x 10^(16 - e) as the integer N and the fraction f of N + f."""
    hi, high, low, lo = powers[:4].take(e - _E_MIN, axis=1)
    p = x * hi
    split = _SPLIT * x
    xh = split - (split - x)
    xl = x - xh
    err = ((xh * high - p) + xh * low + xl * high) + xl * low
    t = err + x * lo  # p is an even integer, t below 32 in magnitude
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def _digits(magnitudes: np.ndarray):
    """repr's digits of each magnitude as a 17-digit integer c, its decimal
    exponent and its count of digits, and whether to ask repr instead."""
    powers = _tables()[0]
    bits = magnitudes.view(np.uint64)
    ok = (bits - _LOWEST < _HIGHEST - _LOWEST) & (bits & _FRACTION_BITS != 0)
    x = np.where(ok, magnitudes, 1.5)  # a stand-in keeps the arithmetic quiet
    e = np.floor(np.log10(x)).astype(np.int64)
    n, f = _scaled(x, e, powers)
    moved = np.flatnonzero(_outside(n))
    doubtful = ~ok
    if moved.size:  # log10 missed by one, next to a power of ten
        e[moved] += np.where(n[moved] < _TEN[16], -1, 1)
        n[moved], f[moved] = _scaled(x[moved], e[moved], powers)
        doubtful[moved] |= _outside(n[moved])
    # half the gap to the neighbours, in units of V: ulp(x) / 2 is 2^-53
    # times x with its significand bits cleared
    h = (x.view(np.uint64) & _EXPONENT_BITS).view(np.float64) * powers[4].take(e - _E_MIN)
    # the integers strictly inside (V - H, V + H) are lower + 1, ..., upper,
    # 1 to 23 of them: a multiple of 100 among them is the only one, and
    # else repr's digits are the nearest multiple of ten or integer to V
    below, above = f - h, f + h
    floor, ceil = np.floor(below), np.ceil(above)
    span = (ceil - floor).astype(np.int64) - 1
    upper = n + (ceil.astype(np.int64) - 1)
    edge = 0.5 - _MARGIN
    doubtful |= (np.abs(below - floor - 0.5) > edge) | (np.abs(ceil - above - 0.5) > edge)
    del x, h, below, above, floor, ceil  # dead: the arrays held at once set the peak
    hundreds = upper // 100
    last = upper - hundreds * 100  # floor division by a constant is the fast one
    tens = n // 10
    units = n - tens * 10
    by_ten = last - last // 10 * 10 < span
    by_hundred = last < span
    past = np.where(by_ten, units + f - 5.0, f - 0.5)  # rounds up when > 0
    up = past > 0
    c = np.where(by_hundred, hundreds * 100, np.where(by_ten, (tens + up) * 10, n + up))
    doubtful |= ~by_hundred & (np.abs(past) < _MARGIN)
    del span, upper, hundreds, last, tens, units, past
    # 10^17 itself has one digit, a decimal exponent up; repr writes the
    # doubtful ones, which get any 17 digits meanwhile
    carry = c == _TEN[17]
    c[carry | doubtful] = _TEN[16]
    e += carry
    # a nearest integer or multiple of ten ends in no more zeros than it
    # must, or a multiple of 100 would be inside; a multiple of 100 in as
    # many as it has
    count = 17 - by_ten
    short = np.flatnonzero(by_hundred)
    # below 10^15, so exact as doubles, and so is every quotient that is whole
    kept = (c[short] // 100).astype(np.float64)[:, None] / _TEN[1:16]
    count[short] = 15 - (np.floor(kept) == kept).sum(axis=1)
    return c, e, count, doubtful


def _outside(n):
    """Whether n lies outside [10^16, 10^17)."""
    return (n - _TEN[16]).view(np.uint64) >= np.uint64(9 * 10**16)


def _layout(c, e, count, out: np.ndarray) -> None:
    """Write into the (m, _RECORD) uint8 records out repr's layout of the
    digits c, with decimal exponent e and count digits, and a ','."""
    _, groups, heads, masks, tails, moves = _tables()
    first = c // _TEN[16]
    halves = np.empty((c.size, 2), dtype=np.int64)
    halves[:, 0] = (c - first * _TEN[16]) // _TEN[8]
    halves[:, 1] = c - first * _TEN[16] - halves[:, 0] * _TEN[8]
    fours = halves // _TEN[4]
    quad = np.stack([fours, halves - fours * _TEN[4]], axis=2).reshape(-1, 4)
    del halves, fours
    large = e.view(np.uint64) <= _FIXED_MAX
    scientific = (e < _FIXED_MIN) | (e > _FIXED_MAX)
    # fixed layout prints every digit before the point and one after it
    shown = np.where(large, np.maximum(count, e + 2), count) - 1
    point = large | scientific & (count > 1)
    lead = np.clip(-e, 0, 1 - _FIXED_MIN)  # "0." and zeros before the digits
    words = out.view(np.uint64)
    words[:, 0] = heads.take((lead * 10 + first) * 2 + point)
    np.bitwise_and(groups.take(quad).view(np.uint64), masks.take(shown, axis=0), out=words[:, 1:3])
    words[:, 3] = tails.take(np.where(scientific, e - _E_MIN, -1))
    for x in np.flatnonzero(np.bincount(e[large])):  # one gather per exponent, no index table
        rows = np.flatnonzero(large & (e == x))
        out[rows] = out[rows][:, moves[x]]


def _records(magnitudes: np.ndarray, out: np.ndarray) -> None:
    """Write into the (m, _RECORD) uint8 records out those of non-negative
    doubles or nans: the text repr gives and ',' in the columns above, NUL
    elsewhere."""
    c, e, count, doubtful = _digits(magnitudes)
    _layout(c, e, count, out)
    rest = np.flatnonzero(doubtful)
    if rest.size:
        texts = b"".join(
            b"\0" + repr(v).encode().ljust(_COMMA - 1, b"\0") + b",\0\0"
            for v in magnitudes[rest].tolist()
        )
        out[rest] = np.frombuffer(texts, dtype=np.uint8).reshape(-1, _RECORD)


def rows_text(block: np.ndarray) -> bytes:
    """The rows of a C-contiguous 2-D float64 table as ASCII CSV lines: each
    float as repr writes it, cells joined by ',', each row ended by
    CSV_TERMINATOR.

    Each distinct magnitude is formatted once: the bit patterns with the
    sign bit cleared are made unique, each cell gathers its magnitude's
    record, and a "-" is written into the sign byte of the cells whose sign
    bit is set, except on nan, which repr prints as "nan" whatever its sign.
    The kernel's temporaries grow with the magnitudes it formats at once,
    about 130 bytes each: up to 55% of the block's cells go in one go (a
    block of Hermitian states is about half distinct), more in slices of a
    quarter of them. A block of magnitudes in the kernel's range then peaks
    at no more than 110 bytes a cell however many are distinct (88 when all
    are), where one go would take 172.
    """
    bits = block.view(np.uint64).ravel()
    magnitudes, where = np.unique(bits & _MAGNITUDE_BITS, return_inverse=True)
    magnitudes = magnitudes.view(np.float64)
    records = np.empty((magnitudes.size, _RECORD), dtype=np.uint8)
    step = magnitudes.size if 20 * magnitudes.size <= 11 * bits.size else -(-bits.size // 4)
    for first in range(0, magnitudes.size, step):
        _records(magnitudes[first : first + step], records[first : first + step])
    cells = records.take(where, axis=0)
    del records
    cells[:, 0] = ((bits > _MAGNITUDE_BITS) & ~np.isnan(block.ravel())) * np.uint8(ord("-"))
    cells[block.shape[1] - 1 :: block.shape[1], _COMMA : _COMMA + 2] = list(CSV_TERMINATOR.encode())
    text = cells.tobytes()
    del cells, where  # before the NUL bytes are dropped, which sets the peak
    return text.translate(None, b"\0")
