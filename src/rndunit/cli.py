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
import csv
import json
import logging
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ComparisonReport, compare
from .channel import (
    embed,
    evolve_average_series,
    evolve_embedded_series,
    require_embeddable,
    require_series_fit,
)
from .ensemble import (
    DisorderEnsemble,
    center,
    gauss_hermite_ensemble,
    two_point_ensemble,
)
from .linops import (
    DEFAULT_TOL,
    herm_eig,
    require_density,
    require_hermitian,
    trace_distance,
)
from .mastereq import (
    GENERATOR_KINDS,
    MasterEqProblem,
    TimeSeries,
    integrate,
    make_problem,
)

__all__ = [
    "GeneratorChoice",
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

SCENARIO_KEYS = {
    "name",
    "dim",
    "hs",
    "ensemble",
    "rho0",
    "t_final",
    "dt",
    "generators",
    "seed",  # accepted for older files, ignored
    "output_path",
}


@dataclass(frozen=True)
class GeneratorChoice:
    """One requested master-equation generator; epsilon matters for gksl only."""

    name: str
    epsilon: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """A fully resolved scenario: ensemble centered, mean folded into hs."""

    name: str
    dim: int
    hs: np.ndarray
    ensemble: DisorderEnsemble
    rho0: np.ndarray
    t_final: float
    dt: float
    generators: tuple[GeneratorChoice, ...]
    output_path: str


@dataclass(frozen=True)
class RunRecord:
    """Everything one run produced, enough to rebuild the CSV byte for byte.

    stages holds the seconds run() spent per stage: preflight_s, average_s,
    dilation_s, integrate_s (per generator), compare_s and, once the CSV is
    written, write_csv_s.
    """

    scenario: Scenario
    series: dict[str, TimeSeries]
    reports: dict[str, ComparisonReport]
    equivalence_error: float
    wall_time_s: float
    version: str
    stages: dict = field(default_factory=dict)


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
        raise ValueError(f"{field}: expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and number != value:
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    return number


def _parse_scalar(value, field: str) -> complex:
    """A bare number or an [re, im] pair of numbers, never a string."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise ValueError(f"{field}: expected a number or an [re, im] pair, got {value!r}")
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
    return [
        [[float(entry.real), float(entry.imag)] for entry in row] for row in np.asarray(m)
    ]


def _parse_ensemble(spec, dim: int) -> DisorderEnsemble:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError('ensemble: expected an object with a "type" key')
    kind = spec["type"]
    known = {"explicit", "gaussian", "two_point"}
    if not isinstance(kind, str) or kind not in known:
        raise ValueError(f"ensemble.type: {kind!r} is not one of {sorted(known)}")
    extra = set(spec) - {"type", "terms", "base", "sigma", "n_nodes", "g"}
    if extra:
        raise ValueError(f"ensemble: unknown keys {sorted(extra)}")
    if kind == "explicit":
        terms = spec.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ValueError("ensemble.terms: expected a non-empty list")
        pairs = []
        for i, term in enumerate(terms):
            if not isinstance(term, dict) or set(term) != {"matrix", "weight"}:
                raise ValueError(
                    f"ensemble.terms[{i}]: expected keys matrix and weight"
                )
            matrix = _parse_matrix(term["matrix"], dim, f"ensemble.terms[{i}].matrix")
            pairs.append((matrix, _number(term["weight"], f"ensemble.terms[{i}].weight")))
        return DisorderEnsemble.from_pairs(pairs)
    base = _parse_matrix(spec.get("base"), dim, "ensemble.base")
    if kind == "gaussian":
        if "sigma" not in spec or "n_nodes" not in spec:
            raise ValueError("ensemble: gaussian needs sigma and n_nodes")
        sigma = _number(spec["sigma"], "ensemble.sigma")
        n_nodes = _number(spec["n_nodes"], "ensemble.n_nodes", int)
        # before numpy builds the rule, whose cost grows as n_nodes^3
        try:
            require_embeddable(dim, n_nodes)
        except ValueError as err:
            raise ValueError(f"ensemble.n_nodes: {err}") from err
        return gauss_hermite_ensemble(base, sigma, n_nodes)
    if "g" not in spec:
        raise ValueError("ensemble: two_point needs g")
    return two_point_ensemble(base, _number(spec["g"], "ensemble.g"))


def _parse_generators(value) -> tuple[GeneratorChoice, ...]:
    if value is None:
        value = []
    if not isinstance(value, list):
        raise ValueError("generators: expected a list")
    choices = []
    for i, item in enumerate(value):
        if isinstance(item, str):
            name, epsilon = item, 0.0
        elif isinstance(item, dict):
            extra = set(item) - {"name", "epsilon"}
            if extra or "name" not in item:
                raise ValueError(
                    f"generators[{i}]: expected keys name and optional epsilon"
                )
            name = item["name"]
            epsilon = _number(item.get("epsilon", 0.0), f"generators[{i}].epsilon")
        else:
            raise ValueError(f"generators[{i}]: expected a name or an object")
        if name not in GENERATOR_KINDS:
            raise ValueError(
                f"generators[{i}]: {name!r} is not one of {list(GENERATOR_KINDS)}"
            )
        choices.append(GeneratorChoice(name=name, epsilon=epsilon))
    names = [c.name for c in choices]
    if len(set(names)) != len(names):
        raise ValueError("generators: each generator may be requested at most once")
    # canonical column order, independent of request order
    order = {name: i for i, name in enumerate(GENERATOR_KINDS)}
    return tuple(sorted(choices, key=lambda c: order[c.name]))


def _resolve_rho0(value, dim: int, hs: np.ndarray) -> np.ndarray:
    if isinstance(value, str):
        if value not in RHO0_PRESETS:
            raise ValueError(f"rho0: {value!r} is not one of {list(RHO0_PRESETS)}")
        if value == "plus":
            vec = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
            return np.outer(vec, vec.conj())
        if value == "ground":
            vec = herm_eig(hs).basis[:, 0]
            return np.outer(vec, vec.conj())
        return np.eye(dim, dtype=np.complex128) / dim
    rho0 = _parse_matrix(value, dim, "rho0")
    return require_density(rho0, name="rho0")


def scenario_from_dict(doc, source: str = "scenario") -> Scenario:
    """Validate a scenario document and resolve it into runnable form.

    Resolution folds the ensemble mean into the system Hamiltonian (the
    total blocks H_S + H_k are unchanged by this) and expands named
    initial states into matrices. The "ground" preset refers to the
    lowest eigenstate of the folded Hamiltonian.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: expected a JSON object")
    unknown = set(doc) - SCENARIO_KEYS
    if unknown:
        raise ValueError(f"{source}: unknown keys {sorted(unknown)}")
    missing = {"dim", "hs", "ensemble", "rho0", "t_final", "dt"} - set(doc)
    if missing:
        raise ValueError(f"{source}: missing keys {sorted(missing)}")
    name = str(doc.get("name", "scenario"))
    dim = _number(doc["dim"], "dim", int)
    if dim < 1:
        raise ValueError("dim: must be a positive integer")
    hs = require_hermitian(_parse_matrix(doc["hs"], dim, "hs"), name="hs")
    raw_ensemble = _parse_ensemble(doc["ensemble"], dim)
    try:
        centered = center(raw_ensemble)
    except ValueError as err:
        raise ValueError(f"ensemble: {err}") from err
    mean_scale = float(np.max(np.abs(centered.mean)))
    if mean_scale > 0.0:
        log.info(
            "%s: folded ensemble mean into hs (|mean|_max = %.3e)", name, mean_scale
        )
    else:
        log.info("%s: ensemble mean already zero", name)
    hs_folded = hs + centered.mean
    t_final = _number(doc["t_final"], "t_final")
    dt = _number(doc["dt"], "dt")
    if not np.isfinite(t_final) or t_final < 0:
        raise ValueError("t_final: must be finite and non-negative")
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError("dt: must be finite and positive")
    if not np.isfinite(t_final / dt):
        raise ValueError("dt: too small for t_final, the step count overflows")
    generators = _parse_generators(doc.get("generators"))
    if "seed" in doc:
        log.info("%s: scenario key 'seed' is ignored (nothing is random)", name)
    output_path = str(doc.get("output_path", "rndunit_out.csv"))
    rho0 = _resolve_rho0(doc["rho0"], dim, hs_folded)
    return Scenario(
        name=name,
        dim=dim,
        hs=hs_folded,
        ensemble=centered.ensemble,
        rho0=rho0,
        t_final=t_final,
        dt=dt,
        generators=generators,
        output_path=output_path,
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


def scenario_echo(s: Scenario) -> dict:
    """Scenario document that reruns this resolved scenario bit for bit."""
    return {
        "name": s.name,
        "dim": s.dim,
        "hs": _emit_matrix(s.hs),
        "ensemble": {
            "type": "explicit",
            "terms": [
                {
                    "matrix": _emit_matrix(s.ensemble.hamiltonians[k]),
                    "weight": float(s.ensemble.weights[k]),
                }
                for k in range(s.ensemble.size)
            ],
        },
        "rho0": _emit_matrix(s.rho0),
        "t_final": s.t_final,
        "dt": s.dt,
        "generators": [
            {"name": g.name, "epsilon": g.epsilon} for g in s.generators
        ],
        "output_path": s.output_path,
    }


def _grid_points(s: Scenario) -> int:
    return int(round(s.t_final / s.dt)) + 1


def _time_grid(s: Scenario) -> np.ndarray:
    return np.arange(_grid_points(s), dtype=np.float64) * s.dt


def _preflight(s: Scenario) -> dict[str, MasterEqProblem]:
    """Every check run() makes, done before any heavy work.

    Admits the time grid by the predicted bytes of the grid and its series
    (the exact one and one per generator) before anything is allocated,
    applies the dilation's dimension cap, builds each requested generator's
    problem, which runs the generator's guards (commuting disorder for
    dephasing, a non-degenerate spectrum for gksl at epsilon = 0), and
    checks that the directory of output_path exists. Errors name the
    scenario field at fault.
    """
    folder = Path(s.output_path).parent
    if not folder.is_dir():
        raise ValueError(f"output_path: directory {str(folder)!r} does not exist")
    try:
        require_series_fit(_grid_points(s), s.dim, 1 + len(s.generators))
    except ValueError as err:
        raise ValueError(f"dt: {err}") from err
    try:
        require_embeddable(s.dim, s.ensemble.size)
    except ValueError as err:
        raise ValueError(f"ensemble: {err}") from err
    problems = {}
    for choice in s.generators:
        try:
            problem = make_problem(s.hs, s.ensemble, choice.name, choice.epsilon)
        except np.linalg.LinAlgError:
            raise  # a numerical failure, not a fault of the scenario
        except ValueError as err:
            raise ValueError(f"generators: {choice.name}: {err}") from err
        problems[choice.name] = problem
    return problems


def run(s: Scenario, write: bool = True) -> RunRecord:
    """Execute a scenario: exact dynamics, requested generators, reports.

    Every check of _preflight runs first, before any heavy work. The exact
    channel is evaluated both as an ensemble average and through the
    closed-system embedding; any disagreement beyond the equivalence
    tolerance is a hard failure. Outputs (CSV plus a .run.json record with
    a re-runnable scenario echo) are written unless write=False.
    """
    started = time.perf_counter()
    stages: dict = {"integrate_s": {}, "compare_s": 0.0}
    problems = _preflight(s)
    stages["preflight_s"], mark = _lap(started)
    times = _time_grid(s)
    log.info("%s: exact channel on %d grid points", s.name, times.size)
    exact_states = evolve_average_series(s.hs, s.ensemble, s.rho0, times)
    stages["average_s"], mark = _lap(mark)
    embedded_states = evolve_embedded_series(embed(s.hs, s.ensemble), s.rho0, times)
    gap = float(trace_distance(exact_states, embedded_states).max())
    stages["dilation_s"], mark = _lap(mark)
    if gap > DEFAULT_TOL.equivalence:
        raise RuntimeError(
            f"exact-dynamics formulations disagree: max trace distance {gap:.3e} "
            f"exceeds {DEFAULT_TOL.equivalence:.3e}"
        )
    exact = TimeSeries(times=times, states=exact_states)
    series: dict[str, TimeSeries] = {"exact": exact}
    reports: dict[str, ComparisonReport] = {}
    for choice in s.generators:
        log.info("%s: integrating %s generator", s.name, choice.name)
        trajectory = integrate(problems[choice.name], s.rho0, s.t_final, s.dt)
        stages["integrate_s"][choice.name], mark = _lap(mark)
        series[choice.name] = trajectory
        reports[choice.name] = compare(exact, trajectory)
        elapsed, mark = _lap(mark)
        stages["compare_s"] += elapsed
    record = RunRecord(
        scenario=s,
        series=series,
        reports=reports,
        equivalence_error=float(gap),
        wall_time_s=time.perf_counter() - started,
        version=__version__,
        stages=stages,
    )
    if write:
        mark = time.perf_counter()
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


# rows end as the csv module's writers end them, "\r\n"; they are formatted in
# blocks of about this many floats, so neither the whole table nor its Python
# floats are ever held at once
_CSV_TERMINATOR = csv.excel.lineterminator
_CSV_BLOCK_FLOATS = 4096
# a double's bits without its sign bit
_MAGNITUDE_BITS = np.uint64(2**63 - 1)


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

    Floats are rendered with shortest round-trip repr, so equal doubles
    give equal text. Rows are formatted from one float table, a block at
    a time: per series the state entries as _re/_im pairs, then purity and
    trace distance. Within a block each distinct magnitude is formatted
    once: the bit patterns with the sign bit cleared are made unique, each
    is rendered by repr, and a "-" is put before the copies whose sign bit
    is set, except on NaN, which repr prints as "nan" whatever its sign.
    That is repr's own output for every double, -0.0 and inf included, and
    it formats a Hermitian state's lower triangle, a zero imaginary part
    or an all-zero column at no further cost.
    """
    times = record.series["exact"].times
    columns = [times[:, None]]
    for name, series in record.series.items():
        states = np.ascontiguousarray(series.states)
        purity = np.trace(states @ states, axis1=1, axis2=2).real
        if name == "exact":
            distance = np.zeros(times.size)
        else:
            distance = record.reports[name].trace_distances
        columns += [
            states.reshape(times.size, -1).view(np.float64),
            purity[:, None],
            distance[:, None],
        ]
    width = sum(c.shape[1] for c in columns)
    rows = max(1, _CSV_BLOCK_FLOATS // width)
    header = csv_columns(record.scenario.dim, record.series)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + _CSV_TERMINATOR)
        for start in range(0, times.size, rows):
            block = np.hstack([c[start : start + rows] for c in columns])
            bits = block.view(np.uint64).ravel()
            magnitudes, where = np.unique(bits & _MAGNITUDE_BITS, return_inverse=True)
            text = list(map(repr, magnitudes.view(np.float64).tolist()))
            text += ["-" + t for t in text]
            signed = (bits > _MAGNITUDE_BITS) & ~np.isnan(block.ravel())
            where += signed * magnitudes.size
            cells = [text[i] for i in where.tolist()]
            handle.writelines(
                ",".join(cells[i : i + width]) + _CSV_TERMINATOR
                for i in range(0, len(cells), width)
            )


def _record_path(csv_path) -> str:
    return str(Path(csv_path).with_suffix("")) + ".run.json"


def _write_record(record: RunRecord, path) -> None:
    doc = {
        "name": record.scenario.name,
        "version": record.version,
        "wall_time_s": record.wall_time_s,
        "stages": record.stages,
        "equivalence_max_trace_distance": record.equivalence_error,
        "reports": {
            name: {
                "max_error": rep.max_error,
                "threshold": rep.threshold,
                "breakdown_time": rep.breakdown_time,
            }
            for name, rep in record.reports.items()
        },
        "scenario": scenario_echo(record.scenario),
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


_SZ = np.diag([1.0, -1.0]).astype(np.complex128)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)

DEMO_NAMES = ("gaussian-dephasing", "two-point-breakdown", "gksl-qubit")


def demo_scenario(name: str) -> dict:
    """Built-in scenario documents exercising the three generator regimes."""
    if name == "gaussian-dephasing":
        return {
            "name": "gaussian-dephasing",
            "dim": 2,
            "hs": _emit_matrix(0.5 * _SZ),
            "ensemble": {
                "type": "gaussian",
                "base": _emit_matrix(_SZ),
                "sigma": 0.2,
                "n_nodes": 32,
            },
            "rho0": "plus",
            "t_final": 10.0,
            "dt": 0.01,
            "generators": ["redfield", "dephasing"],
            "output_path": "rndunit_gaussian_dephasing.csv",
        }
    if name == "two-point-breakdown":
        return {
            "name": "two-point-breakdown",
            "dim": 2,
            "hs": _emit_matrix(0.5 * _SZ),
            "ensemble": {"type": "two_point", "base": _emit_matrix(_SZ), "g": 0.5},
            "rho0": "plus",
            "t_final": 5.0,
            "dt": 0.01,
            "generators": ["dephasing"],
            "output_path": "rndunit_two_point_breakdown.csv",
        }
    if name == "gksl-qubit":
        return {
            "name": "gksl-qubit",
            "dim": 2,
            "hs": _emit_matrix(0.5 * _SZ),
            "ensemble": {"type": "two_point", "base": _emit_matrix(_SX), "g": 0.1},
            "rho0": "plus",
            "t_final": 20.0,
            "dt": 0.01,
            "generators": ["redfield", "gksl"],
            "output_path": "rndunit_gksl_qubit.csv",
        }
    raise ValueError(f"unknown demo {name!r}; choose from {list(DEMO_NAMES)}")


def _apply_overrides(doc: dict, args: argparse.Namespace) -> dict:
    doc = dict(doc)
    if args.output is not None:
        doc["output_path"] = args.output
    if args.dt is not None:
        doc["dt"] = args.dt
    if args.t_final is not None:
        doc["t_final"] = args.t_final
    return doc


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
            rep.threshold,
            where,
        )


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    logging.basicConfig(format="%(message)s")
    log.setLevel(logging.WARNING if args.quiet else logging.INFO)
    try:
        if args.command == "validate":
            scenario = load_scenario(args.scenario)
            _preflight(scenario)
            if not args.quiet:
                gens = ", ".join(g.name for g in scenario.generators) or "none"
                log.info(
                    "%s: ok (dim %d, %d realizations, generators: %s)",
                    scenario.name,
                    scenario.dim,
                    scenario.ensemble.size,
                    gens,
                )
            return 0
        if args.command == "run":
            scenario = scenario_from_dict(
                _apply_overrides(_load_doc(args.scenario), args),
                source=str(args.scenario),
            )
        else:
            scenario = scenario_from_dict(
                _apply_overrides(demo_scenario(args.name), args),
                source=f"demo {args.name}",
            )
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
