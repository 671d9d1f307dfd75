"""Scenario runner: JSON in, CSV trajectories and a JSON run record out.

A scenario file describes one simulation: system Hamiltonian, disorder
ensemble, initial state, time grid, and which master-equation generators
to run alongside the exact channel. Matrices are nested row-major lists
with complex entries as [re, im] pairs (bare numbers are accepted on
input and read as real). The exact dynamics is always computed twice,
as an ensemble average and through the closed-system embedding, and the
run aborts if the two disagree; that cross-check cannot be switched off.

Subcommands:
    run       execute a scenario file
    validate  make every check run makes, without the heavy work
    demo      run one of the built-in example scenarios

Exit codes: 0 success, 2 validation error or unwritable output, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import math
import reprlib
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, linops
from .analysis import BREAKDOWN_THRESHOLD, ComparisonReport, compare
from .channel import (
    embed,
    evolve_average_series,
    evolve_embedded_series,
    require_embeddable,
)
from .ensemble import ENSEMBLE_LAWS, DisorderEnsemble, DisorderLaw, center, require_system
from .linops import (
    DEFAULT_TOL,
    chunks,
    herm_eig,
    require_density,
    require_hermitian,
    trace_distance,
)
from .mastereq import (
    GENERATOR_KINDS,
    MasterEqProblem,
    TimeSeries,
    check_grid,
    grid_steps,
    integrate,
    make_problem,
    time_grid,
)

__all__ = [
    "Scenario",
    "RunRecord",
    "scenario_from_dict",
    "load_scenario",
    "run",
    "write_csv",
    "csv_columns",
    "demo_scenario",
    "DEMO_NAMES",
    "main",
    "entry",
]

log = logging.getLogger("rndunit")

RHO0_PRESETS = ("plus", "ground", "maximally_mixed")

# the keys of a scenario document, required then optional; seed is accepted
# for older files and ignored
SCENARIO_KEYS = (
    ("dim", "hs", "ensemble", "rho0", "t_final", "dt"),
    ("name", "generators", "seed", "output_path"),
)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A scenario admitted when it is built from hs and the disorder law as
    given, rho0 as a matrix or one of RHO0_PRESETS, and generators mapping
    each requested kind to its epsilon (gksl's only).

    Building it runs every check run() relies on, before any heavy work: a
    rho0 given by name must name a preset, t_final and dt must give a grid
    (mastereq.grid_steps), hs must be Hermitian, output_path writable (its
    directory existing, neither it nor its .run.json a directory), and the
    law's size must fit the dilation's cap, and the grid and its series,
    points * (8 + 16 dim^2 n_series) bytes, must fit linops.MAX_SERIES_BYTES,
    n_series = 1 + max(1, generators): the exact series beside the
    dilation's until they are compared, then beside the generators'.
    Only then is the law built into a centered ensemble of hs's dimension,
    whose mean is folded into hs (raw_hs keeps hs as given); a preset rho0
    is resolved on the folded hs, rho0 must be a density matrix, and each
    generator's problem is built into `problems`, which runs its guards.
    quadrature_valid_until is the time up to which the ensemble keeps the
    law's average within a tenth of BREAKDOWN_THRESHOLD. Errors name the
    scenario field at fault.
    """

    name: str
    hs: np.ndarray
    law: DisorderLaw
    rho0: np.ndarray | str
    t_final: float
    dt: float
    generators: dict[str, float]
    output_path: str
    dim: int = field(init=False)
    raw_hs: np.ndarray = field(init=False, repr=False)
    ensemble: DisorderEnsemble = field(init=False, repr=False)
    quadrature_valid_until: float = field(init=False)
    problems: dict[str, MasterEqProblem] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.rho0, str) and self.rho0 not in RHO0_PRESETS:
            raise ValueError(
                f"rho0: {reprlib.repr(self.rho0)} is not one of {list(RHO0_PRESETS)}"
            )
        points, n_series = grid_steps(self.t_final, self.dt) + 1, 1 + max(1, len(self.generators))
        dim = require_hermitian(self.hs, name="hs").shape[0]
        order = dict.fromkeys([*GENERATOR_KINDS, *self.generators])
        generators = {kind: self.generators[kind] for kind in order if kind in self.generators}
        folder = Path(self.output_path).parent
        if not folder.is_dir():
            raise ValueError(f"output_path: directory {str(folder)!r} does not exist")
        record = _record_path(self.output_path)
        for path, what in ((self.output_path, ""), (record, "the record ")):
            if Path(path).is_dir():
                raise ValueError(
                    f"output_path: cannot write {what}over the directory {path!r}"
                )
        try:
            require_embeddable(dim, self.law.size)
        except ValueError as err:
            raise ValueError(f"{self.law.size_field}: {err}") from err
        predicted = points * (8 + 16 * dim * dim * n_series)
        if predicted > linops.MAX_SERIES_BYTES:
            raise ValueError(
                f"dt: {points} grid points of {n_series} series at dimension {dim} "
                f"need {predicted / 2**20:.4g} MiB, over the "
                f"{linops.MAX_SERIES_BYTES / 2**20:.4g} MiB ceiling; raise dt or lower t_final"
            )
        try:  # the constructors' messages name no field
            mean, ensemble = center(self.law.build())
        except ValueError as err:
            raise ValueError(f"ensemble: {err}") from err
        raw_hs = require_system(self.hs, ensemble)
        scale = float(np.max(np.abs(mean)))
        folded = f"folded ensemble mean into hs (|mean|_max = {scale:.3e})"
        log.info("%s: %s", self.name, folded if scale > 0.0 else "ensemble mean already zero")
        hs = raw_hs + mean
        rho0 = require_density(_resolve_rho0(self.rho0, hs), "rho0", dim)
        valid_until = self.law.exact_until(BREAKDOWN_THRESHOLD / 10)
        derived = {
            "hs": hs, "raw_hs": raw_hs, "ensemble": ensemble, "rho0": rho0, "dim": dim,
            "generators": generators, "quadrature_valid_until": valid_until,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        problems = {}
        for kind, epsilon in generators.items():
            try:
                problems[kind] = make_problem(hs, ensemble, kind, epsilon)
            except np.linalg.LinAlgError:
                raise  # a numerical failure, not a fault of the scenario
            except ValueError as err:
                raise ValueError(f"generators: {kind}: {err}") from err
        object.__setattr__(self, "problems", problems)
        if valid_until < self.t_final:
            log.info(
                "%s: %s = %d keeps the exact reference within %.0e of the law's average "
                "only up to t = %.3g; a later breakdown may be the rule's", self.name,
                self.law.size_field, self.law.size, BREAKDOWN_THRESHOLD / 10, valid_until,
            )


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Everything one run produced, enough to rebuild the CSV byte for byte.

    stages holds the seconds run() spent per stage: average_s, dilation_s,
    integrate_s (per generator), compare_s and, once the CSV is written,
    write_csv_s. The .run.json record adds the package version.
    """

    scenario: Scenario
    series: dict[str, TimeSeries]
    reports: dict[str, ComparisonReport]
    equivalence_error: float
    wall_time_s: float
    stages: dict = field(default_factory=dict)


def _require_keys(obj, field: str, required, optional=()) -> dict:
    """obj, the JSON object read as field, refused naming field if it lacks a
    key of required ("missing keys [...]", checked first) or has a key
    outside required and optional ("unknown keys [...]"). Every object of a
    scenario document is checked by this one rule where it is read."""
    if not isinstance(obj, dict):
        raise ValueError(f"{field}: expected a JSON object")
    missing, unknown = set(required) - set(obj), set(obj) - {*required, *optional}
    for fault, keys in (("missing", missing), ("unknown", unknown)):
        if keys:
            raise ValueError(f"{field}: {fault} keys {sorted(keys)}")
    return obj


def _number(value, field: str, kind=float):
    """kind(value), raising a ValueError that names field where it fails.

    It takes what kind takes, numeric strings among them, except booleans
    and, for kind int, finite floats with a fractional part, which int()
    would truncate; a list, an object, null or an infinite integer is
    refused naming the field, not with a TypeError or OverflowError that
    no exit code covers.
    """
    try:
        number = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None:
        raise ValueError(f"{field}: expected a number, got {reprlib.repr(value)}")
    if kind is int and isinstance(value, float) and number != value:
        raise ValueError(f"{field}: expected an integer, got {reprlib.repr(value)}")
    return number


def _parse_scalar(value, field: str) -> complex:
    """A bare number or an [re, im] pair of numbers, never a string."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise ValueError(
            f"{field}: expected a number or an [re, im] pair, got {reprlib.repr(value)}"
        )
    return complex(_number(parts[0], field), _number(parts[1], field))


def _parse_matrix(value, dim: int, field: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise ValueError(f"{field}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{field}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_scalar(entry, f"{field}[{i}][{j}]")
    return out


def _emit_matrix(m: np.ndarray) -> list:
    """Rows of entries, each a bare number where its imaginary part is +0.0,
    which _parse_scalar reads back to the same bits, else an [re, im] pair."""
    pair = lambda z: [z.real, z.imag] if z.imag or math.copysign(1.0, z.imag) < 0 else z.real
    return [[pair(complex(z)) for z in row] for row in np.asarray(m)]


def _parse_terms(value, dim: int, field: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{field}: expected a non-empty list")
    terms = []
    for i, term in enumerate(value):
        _require_keys(term, f"{field}[{i}]", ("matrix", "weight"))
        matrix = _parse_matrix(term["matrix"], dim, f"{field}[{i}].matrix")
        terms.append((matrix, _number(term["weight"], f"{field}[{i}].weight")))
    return tuple(terms)


# the parser of each ensemble key's value, called as parse(value, dim, field);
# the keys of a type, all required besides "type", are its law's fields
_ENSEMBLE_VALUES = {
    "terms": _parse_terms,
    "base": _parse_matrix,
    "sigma": lambda value, dim, field: _number(value, field),
    "n_nodes": lambda value, dim, field: _number(value, field, int),
    "g": lambda value, dim, field: _number(value, field),
}


def _parse_ensemble(spec, dim: int) -> DisorderLaw:
    """The law, one of ENSEMBLE_LAWS, that an ensemble object gives. Its
    keys are "type" and the fields of that type's law, all required, so a
    key of another type is refused with the others, before a value is read
    or the law is built."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    law = ENSEMBLE_LAWS.get(kind) if isinstance(kind, str) else None
    if law is None and isinstance(spec, dict) and "type" in spec:
        raise ValueError(
            f"ensemble.type: {reprlib.repr(kind)} is not one of {sorted(ENSEMBLE_LAWS)}"
        )
    keys = [key.name for key in fields(law)] if law else []
    _require_keys(spec, "ensemble", ["type", *keys])
    return law(**{key: _ENSEMBLE_VALUES[key](spec[key], dim, f"ensemble.{key}") for key in keys})


def _parse_generators(value) -> dict[str, float]:
    if value is None:
        value = []
    if not isinstance(value, list):
        raise ValueError("generators: expected a list")
    choices = []
    for i, item in enumerate(value):
        if isinstance(item, str):
            name, epsilon = item, 0.0
        elif isinstance(item, dict):
            name = _require_keys(item, f"generators[{i}]", ("name",), ("epsilon",))["name"]
            epsilon = _number(item.get("epsilon", 0.0), f"generators[{i}].epsilon")
        else:
            raise ValueError(f"generators[{i}]: expected a name or an object")
        if name not in GENERATOR_KINDS:
            raise ValueError(
                f"generators[{i}]: {reprlib.repr(name)} is not one of {list(GENERATOR_KINDS)}"
            )
        choices.append((name, epsilon))
    requested = dict(choices)
    if len(requested) != len(choices):
        raise ValueError("generators: each generator may be requested at most once")
    return requested


def _resolve_rho0(value, hs: np.ndarray):
    """value, or the state of the preset it names on hs's levels."""
    if not isinstance(value, str):
        return value
    dim = hs.shape[0]
    if value == "maximally_mixed":
        return np.eye(dim, dtype=np.complex128) / dim
    if value == "ground":
        vec = herm_eig(hs).basis[:, 0]
    else:
        vec = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    return np.outer(vec, vec.conj())


def scenario_from_dict(doc, source: str = "scenario") -> Scenario:
    """Validate a scenario document and resolve it into runnable form. Each
    object is read under the one key rule, _require_keys, and its values are
    parsed as it is read, so a fault that a field shows on its own is refused
    before anything is built; Scenario admits the rest and builds it."""
    _require_keys(doc, source, *SCENARIO_KEYS)
    name = str(doc.get("name", "scenario"))
    dim = _number(doc["dim"], "dim", int)
    if dim < 1:
        raise ValueError("dim: must be a positive integer")
    hs = _parse_matrix(doc["hs"], dim, "hs")
    law = _parse_ensemble(doc["ensemble"], dim)
    generators = _parse_generators(doc.get("generators"))
    if "seed" in doc:
        log.info("%s: scenario key 'seed' is ignored (nothing is random)", name)
    rho0 = doc["rho0"]
    return Scenario(
        name=name,
        hs=hs,
        law=law,
        rho0=rho0 if isinstance(rho0, str) else _parse_matrix(rho0, dim, "rho0"),
        t_final=_number(doc["t_final"], "t_final"),
        dt=_number(doc["dt"], "dt"),
        generators=generators,
        output_path=str(doc.get("output_path", "rndunit_out.csv")),
    )


def _load_doc(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ValueError(f"cannot read scenario file {path}: {err}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        )


def load_scenario(path) -> Scenario:
    """Read and resolve a scenario JSON file."""
    return scenario_from_dict(_load_doc(path), source=str(path))


def _emit_value(value):
    """An ensemble key's value as JSON: a matrix, explicit terms or a number."""
    if isinstance(value, tuple):
        return [{"matrix": _emit_matrix(m), "weight": w} for m, w in value]
    return _emit_matrix(value) if isinstance(value, np.ndarray) else value


def scenario_echo(s: Scenario) -> dict:
    """Scenario document that reruns this scenario bit for bit: hs and the
    ensemble's law as given, which it resolves again, and rho0 resolved."""
    law = s.law
    values = {key.name: _emit_value(getattr(law, key.name)) for key in fields(law)}
    return {
        "name": s.name,
        "dim": s.dim,
        "hs": _emit_matrix(s.raw_hs),
        "ensemble": {"type": law.type, **values},
        "rho0": _emit_matrix(s.rho0),
        "t_final": s.t_final,
        "dt": s.dt,
        "generators": [
            {"name": kind, "epsilon": epsilon} for kind, epsilon in s.generators.items()
        ],
        "output_path": s.output_path,
    }


def run(s: Scenario) -> RunRecord:
    """Execute a scenario: exact dynamics, requested generators, reports.

    The scenario was admitted when it was built, so the work starts at once.
    Every series and report holds the run's one time grid array.
    The exact channel is evaluated both as an ensemble average and through
    the closed-system embedding; any disagreement beyond the equivalence
    tolerance is a hard failure. The outputs, the CSV and a .run.json
    record with a re-runnable scenario echo, are written at output_path.
    """
    started = time.perf_counter()
    stages: dict = {"integrate_s": {}, "compare_s": 0.0}
    times = time_grid(s.t_final, s.dt)
    log.info("%s: exact channel on %d grid points", s.name, times.size)
    exact_states = evolve_average_series(s.hs, s.ensemble, s.rho0, times)
    stages["average_s"], mark = _lap(started)
    embedded = evolve_embedded_series(embed(s.hs, s.ensemble), s.rho0, times)
    gap = float(trace_distance(exact_states, embedded).max())
    del embedded  # before the generators' series are made
    stages["dilation_s"], mark = _lap(mark)
    if gap > DEFAULT_TOL.equivalence:
        raise RuntimeError(
            f"exact-dynamics formulations disagree: max trace distance {gap:.3e} "
            f"exceeds {DEFAULT_TOL.equivalence:.3e}"
        )
    exact = TimeSeries(times=times, states=exact_states)
    series: dict[str, TimeSeries] = {"exact": exact}
    reports: dict[str, ComparisonReport] = {}
    for kind in s.generators:
        log.info("%s: integrating %s generator", s.name, kind)
        # on the run's grid: integrate's own copy of it goes with its result
        states = integrate(s.problems[kind], s.rho0, s.t_final, s.dt).states
        stages["integrate_s"][kind], mark = _lap(mark)
        series[kind] = TimeSeries(times=times, states=states)
        reports[kind] = compare(exact, series[kind])
        elapsed, mark = _lap(mark)
        stages["compare_s"] += elapsed
    record = RunRecord(
        scenario=s,
        series=series,
        reports=reports,
        equivalence_error=float(gap),
        wall_time_s=time.perf_counter() - started,
        stages=stages,
    )
    write_csv(record, s.output_path)
    stages["write_csv_s"], _ = _lap(mark)
    record_path = _record_path(s.output_path)
    _write_record(record, record_path)
    log.info("%s: wrote %s and %s", s.name, s.output_path, record_path)
    return record


def _lap(mark: float) -> tuple[float, float]:
    """Seconds since mark, and the new mark."""
    now = time.perf_counter()
    return now - mark, now


# The CSV writer formats row blocks of linops.WORKSPACE_BYTES (1 MiB, about
# 9400 floats), counted at _CSV_FLOAT_BYTES per float: the block, the dedup's
# and the kernel's temporaries, a 32-byte record per cell and the text
# (write_csv's tracemalloc peak is 85 to 108 bytes per float on the demos,
# gauss-d8, explicit-d4 and the two-point demo at dt = 1e-3, and the
# kernel's at most 110 on a block of any share of distinct magnitudes in its
# range, so a block keeps to the budget: the kernel drops its dead arrays
# early, formats a block of mostly distinct magnitudes in slices and writes
# each sign into the cell's own record). Each block pays about 0.3 ms of
# numpy call overhead, so blocks a quarter of this size took
# 35-55% longer on gauss-d8 and explicit-d4 (2-core Xeon). Blocks twice as
# large ran no faster and raised the gaussian-dephasing demo's own peak RSS
# by 1.0 MB; two blocks of half this size formatted at once on two threads
# raised it by 0.9 MB and ran about 20% slower, as the many small numpy calls
# hand the GIL back and forth.
_CSV_FLOAT_BYTES = 112


def csv_columns(dim: int, series_names) -> list[str]:
    """Documented CSV header: t, then per series all state entries row-major
    as _re/_im, purity, and trace distance to the exact series."""
    cols = ["t"]
    for name in series_names:
        for i in range(dim):
            for j in range(dim):
                cols.append(f"{name}_rho_{i}_{j}_re")
                cols.append(f"{name}_rho_{i}_{j}_im")
        cols.append(f"{name}_purity")
        cols.append(f"{name}_trace_distance")
    return cols


def write_csv(record: RunRecord, path) -> None:
    """Write the sampled trajectories; reruns are byte-identical.

    Floats are written as repr writes them, the shortest text that reads
    back as the same double, so equal doubles give equal text. Rows are
    formatted in linops.chunks within the workspace budget, each block one
    float table made from its own rows, purity included: per series the
    state entries as _re/_im pairs, then purity and trace distance. Each
    block goes to _shortest.rows_text, which formats each distinct
    magnitude once, so a Hermitian state's lower triangle, a zero imaginary
    part or an all-zero column cost nothing more. The formatter and its
    tables are imported and built on the first call, so validate pays for
    neither.
    """
    times = record.series["exact"].times
    header = csv_columns(record.scenario.dim, record.series)
    # imported here: validate, which writes no CSV, builds none of its tables
    from ._shortest import CSV_TERMINATOR, rows_text

    with open(path, "wb") as handle:
        handle.write((",".join(header) + CSV_TERMINATOR).encode("ascii"))
        for rows in chunks(times.size, len(header) * _CSV_FLOAT_BYTES, linops.WORKSPACE_BYTES):
            columns = [times[rows, None]]
            for name, series in record.series.items():
                states = np.ascontiguousarray(series.states[rows])
                if name == "exact":
                    distance = np.zeros(len(states))
                else:
                    distance = record.reports[name].trace_distances[rows]
                columns += [
                    states.reshape(len(states), -1).view(np.float64),
                    np.trace(states @ states, axis1=1, axis2=2).real[:, None],
                    distance[:, None],
                ]
            handle.write(rows_text(np.hstack(columns)))


def _record_path(csv_path) -> str:
    return str(Path(csv_path).with_suffix("")) + ".run.json"


def _write_record(record: RunRecord, path) -> None:
    valid_until = record.scenario.quadrature_valid_until
    doc = {
        "name": record.scenario.name,
        "version": __version__,
        "wall_time_s": record.wall_time_s,
        "stages": record.stages,
        "equivalence_max_trace_distance": record.equivalence_error,
        "quadrature_valid_until": None if math.isinf(valid_until) else valid_until,
        "reports": {
            name: {
                "max_error": rep.max_error,
                "threshold": BREAKDOWN_THRESHOLD,
                "breakdown_time": rep.breakdown_time,
                "beyond_reference": (rep.breakdown_time or 0.0) > valid_until,
            }
            for name, rep in record.reports.items()
        },
        "scenario": scenario_echo(record.scenario),
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


# the demos share a qubit with H_S = sigma_z / 2, started in |+>
_QUBIT = {"dim": 2, "hs": [[0.5, 0.0], [0.0, -0.5]], "rho0": "plus", "dt": 0.01}
_DEMOS = {
    "gaussian-dephasing": {
        "ensemble": {
            "type": "gaussian",
            "base": [[1.0, 0.0], [0.0, -1.0]],
            "sigma": 0.2,
            "n_nodes": 32,
        },
        "t_final": 10.0,
        "generators": ["redfield", "dephasing"],
    },
    "two-point-breakdown": {
        "ensemble": {"type": "two_point", "base": [[1.0, 0.0], [0.0, -1.0]], "g": 0.5},
        "t_final": 5.0,
        "generators": ["dephasing"],
    },
    "gksl-qubit": {
        "ensemble": {"type": "two_point", "base": [[0.0, 1.0], [1.0, 0.0]], "g": 0.1},
        "t_final": 20.0,
        "generators": ["redfield", "gksl"],
    },
}
DEMO_NAMES = tuple(_DEMOS)


def demo_scenario(name: str) -> dict:
    """Built-in scenario documents exercising the three generator regimes."""
    if name not in _DEMOS:
        raise ValueError(f"unknown demo {name!r}; choose from {list(DEMO_NAMES)}")
    output_path = f"rndunit_{name.replace('-', '_')}.csv"
    doc = {"name": name, **_QUBIT, **_DEMOS[name], "output_path": output_path}
    return copy.deepcopy(doc)


def _apply_overrides(doc, args: argparse.Namespace):
    """doc with each flag given in place of its key; validate has none of the
    flags. A doc that is not an object is left to scenario_from_dict."""
    if not isinstance(doc, dict):
        return doc
    flags = (("output", "output_path"), ("dt", "dt"), ("t_final", "t_final"))
    given = {key: getattr(args, flag, None) for flag, key in flags}
    return {**doc, **{key: value for key, value in given.items() if value is not None}}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="override the scenario's output CSV path")
    parser.add_argument("--dt", type=float, help="override the integration step")
    parser.add_argument("--t-final", type=float, help="override the final time")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rndunit",
        description=(
            "Simulate random-unitary channels and compare them against "
            "Redfield, pure-dephasing, and GKSL master equations."
        ),
        epilog=(
            "Exit codes: 0 success, 2 validation error or unwritable output, "
            "3 numerical failure."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario JSON file")
    run_p.add_argument("scenario", help="path to the scenario file")
    _add_common_flags(run_p)
    val_p = sub.add_parser("validate", help="check a scenario file without running")
    val_p.add_argument("scenario", help="path to the scenario file")
    val_p.add_argument("--quiet", action="store_true", help="suppress the summary")
    demo_p = sub.add_parser("demo", help="run a built-in example scenario")
    demo_p.add_argument("name", choices=DEMO_NAMES)
    _add_common_flags(demo_p)
    return parser


def _summarize(record: RunRecord) -> None:
    s = record.scenario
    log.info(
        "%s: done in %.2f s (formulation gap %.2e)",
        s.name,
        record.wall_time_s,
        record.equivalence_error,
    )
    for name, rep in record.reports.items():
        where = "never" if rep.breakdown_time is None else f"t = {rep.breakdown_time:g}"
        log.info(
            "  %s: max trace distance %.3e, exceeds %.0e first at %s",
            name,
            rep.max_error,
            BREAKDOWN_THRESHOLD,
            where,
        )


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    logging.basicConfig(format="%(message)s")
    log.setLevel(logging.WARNING if args.quiet else logging.INFO)
    try:
        if args.command == "demo":
            doc, source = demo_scenario(args.name), f"demo {args.name}"
        else:
            doc, source = _load_doc(args.scenario), str(args.scenario)
        scenario = scenario_from_dict(_apply_overrides(doc, args), source=source)
        if args.command == "validate":
            if scenario.problems:
                # integrate's grid warnings, once: every problem has hs's spectrum
                problem = next(iter(scenario.problems.values()))
                check_grid(problem, scenario.t_final, scenario.dt)
            log.info(
                "%s: ok (dim %d, %d realizations, generators: %s)",
                scenario.name,
                scenario.dim,
                scenario.ensemble.size,
                ", ".join(scenario.generators) or "none",
            )
            return 0
        record = run(scenario)
        _summarize(record)
        return 0
    except (np.linalg.LinAlgError, MemoryError, RuntimeError) as err:
        # LinAlgError subclasses ValueError, so it is caught first
        reason = str(err) or type(err).__name__
        print(f"rndunit: numerical failure: {reason}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"rndunit: validation error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"rndunit: cannot write output: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
