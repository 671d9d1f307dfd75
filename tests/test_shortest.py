"""The batched CSV formatter against repr, value by value."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from rndunit import linops
from rndunit._shortest import CSV_TERMINATOR, rows_text
from rndunit.cli import _CSV_FLOAT_BYTES


def _catalogue() -> np.ndarray:
    """Doubles at every edge of the kernel, its fallback and repr's layout,
    with either sign, and random ones."""
    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(np.float64).max
    largest_subnormal = np.nextafter(np.finfo(np.float64).tiny, 0.0)
    values = [0.0, tiny, largest_subnormal, huge, np.inf, np.nan]
    # signs mixed within a row: each cell takes its magnitude's record and
    # its own sign byte; nan keeps no "-" whatever its sign bit
    values += [-0.0, 0.0, -np.nan, np.nan, -np.inf, np.inf, -tiny, 1e55, -1e55, -0.5, 0.5]
    values += [2.0**k for k in range(-1074, 1024)]
    for k in range(-30, 31):
        ten = float(f"1e{k}")
        values += [np.nextafter(ten, 0.0), ten, np.nextafter(ten, np.inf)]
    # fixed layout from 1e-4 to below 1e16; the kernel formats [1e-250, 1e55)
    for edge in (1e-5, 1e-4, 1e16, 1e-250, 1e55):
        values += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
    # k significant digits, k = 1 ... 15, at several exponents; random
    # doubles below give 16 and 17
    digits = "123456789012345"
    for k in range(1, 16):
        for x in (-300, -20, -5, -3, 0, 3, 15, 20, 300):
            values.append(float(f"{digits[:k - 1]}7e{x}"))
    # exact decimal ties: above 2^51 the halves are doubles with 17 digits
    rng = np.random.default_rng(20260419)
    values += list(2.0**51 + rng.integers(0, 2**51, 200) + 0.5)
    values += [k + 0.5 for k in range(100)] + [k / 8 for k in range(1, 80)]
    # the time grid of the demos, whose repr is short or needs 17 digits
    values += list(np.arange(2001) * 0.01)
    values = np.array(values, dtype=np.float64)
    # random bit patterns, of either sign: every exponent, nan payloads and
    # infinities too; and state-like entries
    patterns = np.frombuffer(rng.bytes(8 * 200_000), dtype=np.float64)
    scaled = rng.standard_normal(10_000) * 10.0 ** rng.integers(-12, 12, 10_000)
    return np.concatenate([values, -values, patterns, scaled])


def test_rows_text_is_repr_of_every_double():
    values = _catalogue()
    width = 7
    table = np.resize(values, (-(-values.size // width), width))
    texts = [",".join(map(repr, row.tolist())) for row in table]
    expected = "".join(text + CSV_TERMINATOR for text in texts)
    # repr needs each count of significant digits from 1 to 17
    mantissas = {cell.lstrip("-").split("e")[0] for text in texts for cell in text.split(",")}
    assert {len(m.replace(".", "").strip("0")) for m in mantissas} >= set(range(1, 18))
    # the kernel's arithmetic never warns (the tier-1 filter makes a warning
    # an error), whatever the doubles
    text = rows_text(table).decode("ascii")
    if text != expected:
        got, want = text.splitlines(), expected.splitlines()
        first = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        raise AssertionError(f"row {first}: {got[first]!r} != {want[first]!r}")


@pytest.mark.parametrize("distinct", [1.0, 0.55])
def test_rows_text_keeps_the_csv_budget_on_distinct_magnitudes(distinct):
    # a block of the CSV writer's size, 9301 floats, whose magnitudes are
    # all distinct, or 55% distinct, the most formatted in one go: the block
    # and the formatter's peak keep to the budget the writer counts,
    # _CSV_FLOAT_BYTES a float (in one go, all distinct took 172 a float)
    width = 71
    rows = linops.WORKSPACE_BYTES // (width * _CSV_FLOAT_BYTES)
    rng = np.random.default_rng(28)
    values = rng.standard_normal(round(distinct * rows * width)) * 10.0 ** rng.integers(-8, 8)
    block = np.resize(values, rows * width)
    rng.shuffle(block)
    block = block.reshape(rows, width)
    assert np.unique(np.abs(block)).size == values.size
    rows_text(block[:1])  # the formatter's tables are built once per process
    tracemalloc.start()
    try:
        text = rows_text(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.nbytes + peak <= block.size * _CSV_FLOAT_BYTES
    assert text.decode("ascii").split(CSV_TERMINATOR)[7].split(",") == list(
        map(repr, block[7].tolist())
    )


@pytest.mark.parametrize("kind", ["bits", "grid"])
def test_rows_text_keeps_the_csv_budget_on_repr_and_short_values(kind):
    # a block whose magnitudes are random bit patterns, about half of them
    # outside the kernel's range [1e-250, 1e55) or inf or nan, which go to
    # repr; and one of a time grid's values, short decimals: each keeps to
    # the budget the writer counts, _CSV_FLOAT_BYTES a float
    rows, width = 300, 31
    if kind == "grid":
        block = (np.arange(rows * width) * 0.01).reshape(rows, width)
    else:
        rng = np.random.default_rng(30)
        block = np.frombuffer(rng.bytes(8 * rows * width), dtype=np.float64).reshape(rows, width)
    rows_text(block[:1])  # the formatter's tables are built once per process
    tracemalloc.start()
    try:
        text = rows_text(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.nbytes + peak <= block.size * _CSV_FLOAT_BYTES
    lines = text.decode("ascii").split(CSV_TERMINATOR)
    assert lines == [",".join(map(repr, row)) for row in block.tolist()] + [""]
