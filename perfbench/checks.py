"""Output checks for one rndunit run or demo invocation.

Each check returns a list of problems; an empty list means the outputs
are correct. Any problem makes the invocation count as failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from reference import Report

EQUIVALENCE_TOL = 1e-10
MAX_ERROR_TOL = 1e-8
COHERENCE_TOL = 1e-6


def record_path(csv_path: Path) -> Path:
    """Where rndunit writes the .run.json record next to a CSV."""
    return csv_path.with_suffix(".run.json")


def check_record(path: Path, refs: dict[str, Report], dt: float) -> list[str]:
    """Equivalence error and per-generator reports of a .run.json record."""
    try:
        doc = json.loads(path.read_text())
        gap = float(doc["equivalence_max_trace_distance"])
        got = doc["reports"]
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"{path.name}: unreadable run record ({err})"]
    problems = []
    if not gap <= EQUIVALENCE_TOL:
        problems.append(f"{path.name}: equivalence error {gap!r} exceeds {EQUIVALENCE_TOL}")
    if not isinstance(got, dict) or set(got) != set(refs):
        return problems + [f"{path.name}: reports for {sorted(got)} but expected {sorted(refs)}"]
    for name, ref in refs.items():
        try:
            max_error = float(got[name]["max_error"])
            when = got[name]["breakdown_time"]
        except (KeyError, TypeError, ValueError) as err:
            problems.append(f"{path.name}: report {name} is malformed ({err})")
            continue
        if not abs(max_error - ref.max_error) <= MAX_ERROR_TOL:
            problems.append(
                f"{path.name}: {name} max_error {max_error!r}, reference {ref.max_error!r}"
            )
        if (when is None) != (ref.breakdown_time is None) or (
            when is not None and not abs(float(when) - ref.breakdown_time) <= dt * (1 + 1e-9)
        ):
            problems.append(
                f"{path.name}: {name} breakdown_time {when!r}, reference {ref.breakdown_time!r}"
            )
    return problems


def check_csv(path: Path, columns: list[str], n_rows: int) -> list[str]:
    """Header equal to csv_columns(...) and exactly n_rows data rows."""
    try:
        data = path.read_bytes()
    except OSError as err:
        return [f"cannot read {path.name}: {err}"]
    header_line, _, _ = data.partition(b"\n")
    header = next(csv.reader([header_line.decode("ascii", "replace").rstrip("\r")]), [])
    problems = []
    if header != columns:
        problems.append(f"{path.name}: header differs from csv_columns")
    rows = data.count(b"\n") - 1
    if not data.endswith(b"\n") or rows != n_rows:
        problems.append(f"{path.name}: {rows} data rows, expected {n_rows}")
    return problems


def check_gaussian_coherence(path: Path, sigma: float) -> list[str]:
    """Exact |rho_01(t)| equals exp(-2 sigma^2 t^2) / 2 for Gaussian dephasing."""
    try:
        offs = [
            abs(
                math.hypot(float(row["exact_rho_0_1_re"]), float(row["exact_rho_0_1_im"]))
                - 0.5 * math.exp(-2.0 * sigma**2 * float(row["t"]) ** 2)
            )
            for row in csv.DictReader(io.StringIO(path.read_text()))
        ]
    except (OSError, KeyError, TypeError, ValueError) as err:
        return [f"{path.name}: cannot read the exact coherence ({err})"]
    # `not <=` so that a NaN entry fails
    bad = [off for off in offs if not off <= COHERENCE_TOL]
    if bad or not offs:
        return [f"{path.name}: exact coherence off the Gaussian law at {len(bad)} samples"]
    return []
