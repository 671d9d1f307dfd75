"""Scenario files, the run pipeline, CSV output, exit codes."""

from __future__ import annotations

import csv
import importlib.util
import json
import logging
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import SX, SZ

import rndunit.cli
from rndunit import _shortest, linops
from rndunit.analysis import BREAKDOWN_THRESHOLD, ComparisonReport
from rndunit.channel import evolve_average_series, evolve_embedded_series
from rndunit.cli import (
    DEMO_NAMES,
    RunRecord,
    Scenario,
    csv_columns,
    demo_scenario,
    load_scenario,
    main,
    run,
    scenario_echo,
    scenario_from_dict,
    write_csv,
)
from rndunit.ensemble import ENSEMBLE_LAWS, GaussianLaw, TwoPointLaw
from rndunit.mastereq import GENERATOR_KINDS, TimeSeries

BASE_DOC = {
    "name": "qubit-dephasing",
    "dim": 2,
    "hs": [[0.5, 0.0], [0.0, -0.5]],
    "ensemble": {"type": "two_point", "base": [[1.0, 0.0], [0.0, -1.0]], "g": 0.5},
    "rho0": "plus",
    "t_final": 0.5,
    "dt": 0.05,
    "generators": ["dephasing"],
}


def make_doc(**overrides):
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(overrides)
    return doc


# --- scenario parsing -------------------------------------------------------


def test_scenario_minimal_roundtrip():
    s = scenario_from_dict(make_doc())
    assert s.dim == 2 and s.name == "qubit-dephasing"
    np.testing.assert_array_equal(s.hs, 0.5 * SZ)
    assert s.generators == {"dephasing": 0.0}
    np.testing.assert_allclose(s.rho0, np.full((2, 2), 0.5), atol=1e-15)


def test_scenario_key_hygiene():
    with pytest.raises(ValueError, match="unknown keys"):
        scenario_from_dict(make_doc(extra=1))
    with pytest.raises(ValueError, match="missing keys"):
        scenario_from_dict({"dim": 2})
    with pytest.raises(ValueError, match="JSON object"):
        scenario_from_dict([1, 2])


def test_scenario_rejects_nonhermitian_hs():
    with pytest.raises(ValueError, match="hs"):
        scenario_from_dict(make_doc(hs=[[0.0, 1.0], [0.0, 0.0]]))


def test_scenario_complex_entries():
    # [re, im] pairs: hs = sigma_y / 2, which sigma_z disorder does not
    # commute with, so dephasing would be refused
    doc = make_doc(hs=[[0.0, [0.0, -0.5]], [[0.0, 0.5], 0.0]], generators=["redfield"])
    s = scenario_from_dict(doc)
    np.testing.assert_array_equal(
        s.hs, np.array([[0.0, -0.5j], [0.5j, 0.0]])
    )


def test_scenario_explicit_ensemble_weights_checked():
    ens = {
        "type": "explicit",
        "terms": [
            {"matrix": [[1.0, 0.0], [0.0, -1.0]], "weight": 0.5},
            {"matrix": [[-1.0, 0.0], [0.0, 1.0]], "weight": 0.4},
        ],
    }
    with pytest.raises(ValueError, match="weights must sum to 1"):
        scenario_from_dict(make_doc(ensemble=ens))


def test_scenario_ensemble_type_checked():
    with pytest.raises(ValueError, match="ensemble.type"):
        scenario_from_dict(make_doc(ensemble={"type": "lorentzian"}))
    with pytest.raises(ValueError, match=r"^ensemble: missing keys \['g'\]$"):
        scenario_from_dict(
            make_doc(ensemble={"type": "two_point", "base": [[1, 0], [0, -1]]})
        )


def test_scenario_folds_mean_into_hs():
    # biased explicit ensemble with dyadic weights: the split is exact
    ens = {
        "type": "explicit",
        "terms": [
            {"matrix": [[2.0, 0.0], [0.0, -2.0]], "weight": 0.5},
            {"matrix": [[0.0, 0.0], [0.0, 0.0]], "weight": 0.5},
        ],
    }
    s = scenario_from_dict(make_doc(ensemble=ens))
    np.testing.assert_array_equal(s.hs, 1.5 * SZ)
    np.testing.assert_array_equal(s.ensemble.hamiltonians[0], SZ)
    np.testing.assert_array_equal(s.ensemble.hamiltonians[1], -SZ)


def test_scenario_generator_order_is_canonical():
    s = scenario_from_dict(
        make_doc(
            ensemble={"type": "two_point", "base": [[0.0, 1.0], [1.0, 0.0]], "g": 0.1},
            generators=[{"name": "gksl", "epsilon": 0.2}, "redfield"],
        )
    )
    assert list(s.generators.items()) == [("redfield", 0.0), ("gksl", 0.2)]
    with pytest.raises(ValueError, match="at most once"):
        scenario_from_dict(make_doc(generators=["dephasing", "dephasing"]))
    with pytest.raises(ValueError, match="generators\\[0\\]"):
        scenario_from_dict(make_doc(generators=["lindblad"]))


def test_rho0_presets():
    s = scenario_from_dict(make_doc(rho0="maximally_mixed"))
    np.testing.assert_array_equal(s.rho0, np.eye(2) / 2)
    # ground refers to the folded Hamiltonian, here 0.5 sigma_z: state |1>
    s = scenario_from_dict(make_doc(rho0="ground"))
    np.testing.assert_allclose(s.rho0, np.diag([0.0, 1.0]), atol=1e-15)
    with pytest.raises(ValueError, match="rho0"):
        scenario_from_dict(make_doc(rho0="cat"))


def test_scenario_is_admitted_when_built(tmp_path):
    # a Scenario built directly runs the same checks as scenario_from_dict
    s = scenario_from_dict(make_doc())
    fields = {
        "name": s.name,
        "hs": s.raw_hs,
        "law": s.law,
        "rho0": "plus",
        "t_final": s.t_final,
        "dt": s.dt,
        "generators": s.generators,
        "output_path": str(tmp_path / "s.csv"),
    }
    built = Scenario(**fields)
    assert list(built.problems) == ["dephasing"] and built.dim == 2
    with pytest.raises(ValueError, match="^output_path: directory"):
        Scenario(**{**fields, "output_path": str(tmp_path / "gone" / "s.csv")})
    with pytest.raises(ValueError, match="^dt: 10000000001 grid points"):
        Scenario(**{**fields, "t_final": 1e7, "dt": 1e-3})
    for dt in (0.0, -0.01, np.inf):
        with pytest.raises(ValueError, match="^dt: must be finite and positive"):
            Scenario(**{**fields, "dt": dt})
    for t_final in (-1.0, np.nan):
        with pytest.raises(ValueError, match="^t_final: must be finite and non-negative"):
            Scenario(**{**fields, "t_final": t_final})
    with pytest.raises(ValueError, match="^dt: too small for t_final"):
        Scenario(**{**fields, "t_final": 1e300, "dt": 1e-300})
    # the law is admitted on its size before it is built, naming the field
    # that sets the size: a rule of 10^9 nodes would not be built in time
    with pytest.raises(ValueError, match="^ensemble.n_nodes: composite dimension 2 x 10"):
        Scenario(**{**fields, "law": GaussianLaw(SZ, 0.1, 10**9)})
    # a preset name is checked first, before the law's size
    with pytest.raises(ValueError, match="^rho0: 'cat' is not one of"):
        Scenario(**{**fields, "rho0": "cat", "law": GaussianLaw(SZ, 0.1, 10**9)})
    # generators are put in column order, and an unknown kind is refused
    sx = {"law": TwoPointLaw(SX, 0.1), "generators": {"gksl": 0.0, "redfield": 0.0}}
    crossed = Scenario(**{**fields, **sx})
    assert list(crossed.generators) == list(crossed.problems) == ["redfield", "gksl"]
    with pytest.raises(ValueError, match="^generators: lindblad: unknown generator kind"):
        Scenario(**{**fields, "generators": {"dephasing": 0.0, "lindblad": 0.0}})
    # dim follows hs
    qutrit = np.diag([1.0, 0.0, -1.0])
    three = {"hs": 0.5 * qutrit, "law": TwoPointLaw(qutrit, 0.5), "rho0": np.eye(3) / 3}
    assert Scenario(**{**fields, **three}).dim == 3
    # hs, the ensemble's dimension and rho0 are refused naming the field
    faults = {
        "hs": [{"hs": np.array([[0.0, 1.0], [0.0, 0.0]])}, {"hs": np.zeros(2)}],
        "ensemble": [{"law": three["law"]}],
        "rho0": [{"rho0": np.diag([2.0, -1.0])}, {"rho0": np.eye(3) / 3}],
    }
    for name, cases in faults.items():
        for case in cases:
            with pytest.raises(ValueError, match=f"^{name}[: ]"):
                Scenario(**{**fields, **case})
    assert list(tmp_path.iterdir()) == []


def test_load_scenario_errors_name_the_file(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ValueError, match="cannot read"):
        load_scenario(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_scenario(bad)


# --- run pipeline -----------------------------------------------------------


def test_run_produces_grid_and_reports(tmp_path):
    doc = make_doc(output_path=str(tmp_path / "out.csv"))
    record = run(scenario_from_dict(doc))
    assert record.series["exact"].times.size == 11
    assert record.series["dephasing"].states.shape == (11, 2, 2)
    assert record.equivalence_error <= 1e-10
    assert "dephasing" in record.reports
    assert (tmp_path / "out.csv").exists()
    assert (tmp_path / "out.run.json").exists()


def test_csv_header_and_shape(tmp_path):
    out = tmp_path / "out.csv"
    doc = make_doc(output_path=str(out))
    run(scenario_from_dict(doc))
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header == csv_columns(2, ["exact", "dephasing"])
    assert header[0] == "t"
    assert "exact_rho_0_1_re" in header
    assert "dephasing_trace_distance" in header
    assert len(lines) == 12  # header + 11 samples
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert len(first) == len(header)


def test_run_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(scenario_from_dict(make_doc(output_path=str(a))))
    run(scenario_from_dict(make_doc(output_path=str(b))))
    assert a.read_bytes() == b.read_bytes()


def test_record_echo_reruns_bit_for_bit(tmp_path):
    # the echo holds hs and the ensemble's law as given, so its rerun repeats
    # the same resolution: the same CSV bytes and the same record, apart from
    # timings and the output path
    docs = {"base": make_doc(), **{name: demo_scenario(name) for name in DEMO_NAMES}}
    for name, doc in docs.items():
        first = tmp_path / f"{name}.csv"
        run(scenario_from_dict({**doc, "output_path": str(first)}))
        record_doc = json.loads((tmp_path / f"{name}.run.json").read_text())
        echo = record_doc["scenario"]
        assert echo["ensemble"] == doc["ensemble"], name
        echo["output_path"] = str(tmp_path / f"{name}-echo.csv")
        run(scenario_from_dict(echo, source="echo"))
        assert first.read_bytes() == (tmp_path / f"{name}-echo.csv").read_bytes(), name
        rerun_doc = json.loads((tmp_path / f"{name}-echo.run.json").read_text())
        for kept in (record_doc, rerun_doc):
            del kept["wall_time_s"], kept["stages"], kept["scenario"]["output_path"]
        assert rerun_doc == record_doc, name


def test_gaussian_rule_is_built_once_per_resolution(monkeypatch):
    # a resolution admits a gaussian on its n_nodes and builds the rule once;
    # the echo keeps the law, so its resolution builds the same rule again
    calls = []
    hermgauss = np.polynomial.hermite.hermgauss
    monkeypatch.setattr(
        np.polynomial.hermite, "hermgauss", lambda n: calls.append(n) or hermgauss(n)
    )
    s = scenario_from_dict(demo_scenario("gaussian-dephasing"))
    assert calls == [32] and isinstance(s.law, GaussianLaw)
    scenario_from_dict(json.loads(json.dumps(scenario_echo(s))), source="echo")
    assert calls == [32, 32]


def test_scenario_echo_is_json_ready():
    s = scenario_from_dict(make_doc())
    text = json.dumps(scenario_echo(s))
    again = scenario_from_dict(json.loads(text), source="echo")
    np.testing.assert_array_equal(again.hs, s.hs)
    np.testing.assert_array_equal(again.rho0, s.rho0)


def test_run_record_json_fields(tmp_path):
    out = tmp_path / "rec.csv"
    run(scenario_from_dict(make_doc(output_path=str(out))))
    doc = json.loads((tmp_path / "rec.run.json").read_text())
    assert doc["name"] == "qubit-dephasing"
    assert set(doc["reports"]) == {"dephasing"}
    rep = doc["reports"]["dephasing"]
    assert set(rep) == {"max_error", "threshold", "breakdown_time", "beyond_reference"}
    assert doc["equivalence_max_trace_distance"] <= 1e-10


def test_run_record_stage_timings(tmp_path):
    doc = make_doc(
        generators=["redfield", "dephasing"], output_path=str(tmp_path / "s.csv")
    )
    run(scenario_from_dict(doc))
    stages = json.loads((tmp_path / "s.run.json").read_text())["stages"]
    flat = ["average_s", "dilation_s", "compare_s", "write_csv_s"]
    assert set(stages) == {*flat, "integrate_s"}
    assert set(stages["integrate_s"]) == {"redfield", "dephasing"}
    for value in [stages[key] for key in flat] + list(stages["integrate_s"].values()):
        assert isinstance(value, float) and value >= 0.0


def _write_csv_per_entry(record, path):
    # the per-entry writer the table writer replaced, kept as its oracle
    dim = record.scenario.dim
    names = list(record.series)
    exact = record.series["exact"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(csv_columns(dim, names))
        for idx in range(exact.times.size):
            row = [repr(float(exact.times[idx]))]
            for name in names:
                state = record.series[name].states[idx]
                for i in range(dim):
                    for j in range(dim):
                        row.append(repr(float(state[i, j].real)))
                        row.append(repr(float(state[i, j].imag)))
                row.append(repr(float(np.trace(state @ state).real)))
                if name == "exact":
                    row.append(repr(0.0))
                else:
                    row.append(repr(float(record.reports[name].trace_distances[idx])))
            writer.writerow(row)


def test_write_csv_matches_per_entry_writer(tmp_path):
    # awkward doubles: signed zeros, the smallest subnormals, huge values,
    # decimals without an exact binary form, infinities and NaN with either
    # sign bit, in three series at d = 3
    nan = float("nan")
    special = np.array(
        [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, -0.1, 1.0,
         np.inf, -np.inf, nan, -nan]
    )
    assert np.signbit(special[-1]) and np.isnan(special[-1])
    rng = np.random.default_rng(43)
    times = np.arange(7) * 0.1
    doc = make_doc(
        dim=3,
        hs=np.diag([0.5, 0.0, -0.5]).tolist(),
        ensemble={
            "type": "two_point",
            "base": np.diag([1.0, 0.0, -1.0]).tolist(),
            "g": 0.5,
        },
        generators=["redfield", "gksl"],
    )
    series, reports = {}, {}
    for name in ("exact", "redfield", "gksl"):
        # set the parts directly: re + 1j * im would turn -0.0 into 0.0
        states = np.empty((7, 3, 3), dtype=complex)
        states.real, states.imag = rng.choice(special, size=(2, 7, 3, 3))
        series[name] = TimeSeries(times=times, states=states)
        distances = rng.choice(special, size=7)
        reports[name] = ComparisonReport(times, distances)
    # equal magnitudes of opposite sign in one row
    series["gksl"].states.real[:, 0, 0] = [0.1, -np.inf, -0.0, 1e300, -nan, 5e-324, 2.5]
    series["gksl"].states.real[:, 2, 1] = [-0.1, np.inf, 0.0, -1e300, nan, -5e-324, -2.5]
    # a bitwise-Hermitian series, as the exact and re-Hermitized ones are:
    # the mirrored imaginary parts of +-0.0 are -+0.0, the diagonal's are +0.0
    upper = np.triu(series["exact"].states, 1)
    hermitian = upper + np.conj(upper.swapaxes(1, 2))
    hermitian.imag[:, [0, 1, 2], [0, 1, 2]] = 0.0
    hermitian.real[:, [0, 1, 2], [0, 1, 2]] = rng.choice(special[:9], size=(7, 3))
    hermitian.imag[:, 0, 1] = [0.0, -0.0, 0.0, -0.0, 0.25, -0.25, 0.0]
    hermitian.imag[:, 1, 0] = -hermitian.imag[:, 0, 1]
    series["exact"] = TimeSeries(times=times, states=hermitian)
    del reports["exact"]
    record = RunRecord(
        scenario=scenario_from_dict(doc),
        series=series,
        reports=reports,
        equivalence_error=0.0,
        wall_time_s=0.0,
    )
    # 501 rows: the demo also crosses the writer's block boundaries
    demo_doc = {**demo_scenario("two-point-breakdown"), "output_path": str(tmp_path / "d.csv")}
    demo = run(scenario_from_dict(demo_doc))
    for i, rec in enumerate((record, demo)):
        new, old = tmp_path / f"new{i}.csv", tmp_path / f"old{i}.csv"
        with np.errstate(over="ignore", invalid="ignore"):  # purity of 1e300, inf
            write_csv(rec, new)
            _write_csv_per_entry(rec, old)
        assert new.read_bytes() == old.read_bytes()
    text = (tmp_path / "new0.csv").read_text()
    assert "-0.0" in text and "-inf" in text and "-nan" not in text


@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_write_csv_blocks_are_invisible(tmp_path, monkeypatch, rows_per_block):
    # the writer's blocks take linops.WORKSPACE_BYTES; shrunk, one record
    # spans dozens of blocks, and the bytes stay the per-entry writer's
    doc = make_doc(
        t_final=2.0,
        dt=0.01,
        generators=["redfield", "dephasing", "gksl"],
        output_path=str(tmp_path / "r.csv"),
    )
    record = run(scenario_from_dict(doc))
    width = len(csv_columns(2, record.series))
    per_row = width * rndunit.cli._CSV_FLOAT_BYTES
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", rows_per_block * per_row)
    blocks = []
    rows_text = _shortest.rows_text
    monkeypatch.setattr(
        _shortest, "rows_text", lambda block: blocks.append(len(block)) or rows_text(block)
    )
    write_csv(record, tmp_path / "new.csv")
    _write_csv_per_entry(record, tmp_path / "old.csv")
    assert blocks[:-1] == [rows_per_block] * (len(blocks) - 1)
    assert sum(blocks) == record.series["exact"].times.size == 201
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_validate_builds_no_csv_tables(tmp_path):
    # validate writes no CSV, so it neither imports the CSV formatter nor
    # builds its tables; run does both, once per process
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc(output_path=str(tmp_path / "s.csv"))))
    code = (
        "import sys\n"
        "from rndunit import cli\n"
        "for argv in (['validate', sys.argv[1]], ['run', sys.argv[1]]):\n"
        "    assert cli.main([*argv, '--quiet']) == 0\n"
        "    loaded = 'rndunit._shortest' in sys.modules\n"
        "    built = loaded and sys.modules['rndunit._shortest']._tables.cache_info().currsize\n"
        "    print(argv[0], loaded, bool(built))\n"
    )
    package = Path(rndunit.cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(package), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.splitlines() == ["validate False False", "run True True"]


def test_run_grid_rounding(tmp_path):
    doc = make_doc(t_final=1.0, dt=0.3, output_path=str(tmp_path / "r.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        record = run(scenario_from_dict(doc))
    np.testing.assert_allclose(record.series["exact"].times, [0.0, 0.3, 0.6, 0.9])


# --- demos and the command line ---------------------------------------------


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_scenarios_validate(name):
    s = scenario_from_dict(demo_scenario(name), source=name)
    assert s.dim == 2
    assert s.generators


def test_demo_unknown_name():
    with pytest.raises(ValueError, match="unknown demo"):
        demo_scenario("nonesuch")


def test_main_validate_ok(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc()))
    assert main(["validate", str(path), "--quiet"]) == 0


def test_main_validate_logs_a_summary(tmp_path, caplog):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc(generators=["redfield", "dephasing"])))
    with caplog.at_level(logging.INFO, logger="rndunit"):
        assert main(["validate", str(path)]) == 0
    assert "qubit-dephasing: ok (dim 2, 2 realizations, generators: redfield, dephasing)" in (
        caplog.messages
    )


def test_ignored_seed_is_accepted_and_not_echoed(tmp_path, caplog):
    out = tmp_path / "s.csv"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc(seed=7, output_path=str(out))))
    with caplog.at_level(logging.INFO, logger="rndunit"):
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path)]) == 0
    ignored = "qubit-dephasing: scenario key 'seed' is ignored (nothing is random)"
    assert caplog.messages.count(ignored) == 2
    assert "seed" not in json.loads((tmp_path / "s.run.json").read_text())["scenario"]


def test_validate_warns_as_integrate_does(tmp_path):
    # a coarse dt and a t_final off the grid: validate gives integrate's two
    # warnings once each, and run gives them once per generator, as before
    path = tmp_path / "s.json"
    doc = make_doc(
        hs=[[2.0, 0.0], [0.0, -2.0]], t_final=1.02, dt=0.05,
        generators=["redfield", "dephasing"], output_path=str(tmp_path / "s.csv"),
    )
    path.write_text(json.dumps(doc))
    coarse = (
        "dt = 0.05 resolves the fastest system phase poorly (dt (E_max - E_min) / 2 = 0.1 > 0.05)"
    )
    off_grid = "t_final = 1.02 is not a multiple of dt = 0.05; integrating to 1"
    for command, count in (("validate", 1), ("run", 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, str(path), "--quiet"]) == 0
        messages = [str(w.message) for w in caught]
        assert sum(m.startswith(coarse) for m in messages) == count, command
        assert messages.count(off_grid) == count, command


def test_gaussian_reference_logs_where_it_stops_being_exact(tmp_path, caplog):
    # the demo's 32-node rule holds the exact reference within a tenth of
    # BREAKDOWN_THRESHOLD up to t_q = 15.5: a run to t = 30 says so, naming
    # n_nodes, and one to t = 10, or a quiet one, does not
    out = str(tmp_path / "g.csv")
    cases = ((["--t-final", "30"], True), ([], False), (["--t-final", "30", "--quiet"], False))
    for flags, logged in cases:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="rndunit"):
            assert main(["demo", "gaussian-dephasing", "--output", out, *flags]) == 0
        horizon = [m for m in caplog.messages if "ensemble.n_nodes = 32" in m]
        assert len(horizon) == int(logged), flags
        assert all("up to t = 15.5;" in m for m in horizon)
    # the bound is conservative: the exact coherence is within 1e-3 of the
    # Gaussian average 1/2 exp(-2 sigma^2 t^2) all the way to t_q
    t_q = GaussianLaw(SZ, 0.2, 32).exact_until(BREAKDOWN_THRESHOLD / 10)
    assert t_q == pytest.approx(15.48, abs=0.01)
    scenario = scenario_from_dict(demo_scenario("gaussian-dephasing"))
    times = np.arange(0.0, t_q, 0.01)
    states = evolve_average_series(scenario.hs, scenario.ensemble, scenario.rho0, times)
    expected = 0.5 * np.exp(-2 * 0.2**2 * times**2)
    assert np.abs(np.abs(states[:, 0, 1]) - expected).max() <= 1e-3


def test_record_flags_breakdowns_beyond_the_reference(tmp_path):
    # the record holds the Gauss-Hermite rule's t_q (null for a finite law)
    # and flags each breakdown past it: on the demo run to t = 30, both
    # generators' false breakdowns at 21.71
    cases = (
        ("gaussian-dephasing", ["--t-final", "30"], 15.48, {"redfield": True, "dephasing": True}),
        ("gaussian-dephasing", [], 15.48, {"redfield": False, "dephasing": False}),
        ("two-point-breakdown", [], None, {"dephasing": False}),
    )
    for name, flags, valid_until, beyond in cases:
        out = tmp_path / "r.csv"
        assert main(["demo", name, "--output", str(out), "--quiet", *flags]) == 0
        doc = json.loads((tmp_path / "r.run.json").read_text())
        if valid_until is None:
            assert doc["quadrature_valid_until"] is None
        else:
            assert doc["quadrature_valid_until"] == pytest.approx(valid_until, abs=0.01)
        assert {k: rep["beyond_reference"] for k, rep in doc["reports"].items()} == beyond
        if flags:
            assert {rep["breakdown_time"] for rep in doc["reports"].values()} == {21.71}


def test_document_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "s.json"
    for text in ("5", '"plus"', "[]"):
        path.write_text(text)
        for command in ("validate", "run"):
            assert main([command, str(path), "--quiet"]) == 2
            assert "expected a JSON object" in capsys.readouterr().err


def test_dilation_series_dies_before_integrate(tmp_path, monkeypatch):
    # a run holds the exact series and each generator's, not the dilation's
    series = []

    def dilation(*args):
        states = evolve_embedded_series(*args)
        series.append(weakref.ref(states))
        return states

    def integrate(*args):
        assert series and series[0]() is None, "the dilation series is alive"
        return cli_integrate(*args)

    cli_integrate = rndunit.cli.integrate
    monkeypatch.setattr(rndunit.cli, "evolve_embedded_series", dilation)
    monkeypatch.setattr(rndunit.cli, "integrate", integrate)
    out = tmp_path / "s.csv"
    assert main(["demo", "gksl-qubit", "--output", str(out), "--quiet"]) == 0


def test_run_memory_is_the_series_it_holds_and_one_chunk(tmp_path):
    # the two-point demo on a long grid: 200 001 samples, 12.2 MiB a series.
    # Every series and report of a run shares the run's one time grid, so at
    # its peak, in the trace distances of the equivalence check and of
    # compare, a run holds two series (the exact one beside the dilation's or
    # a generator's) and two grid-sized arrays, its grid and the distances.
    # On top comes one chunk of WORKSPACE_BYTES, which every loop over the
    # grid (the series, the equivalence check, the integrator, the
    # comparison, the CSV rows) adds at most. integrate stays below that
    # peak: past the run's own arrays it holds its chunk, its own grid, which
    # its result takes away with it, and the strict-increase check's bool
    # array, an eighth of a grid. The fixed part is the CSV formatter's
    # tables (0.1 MiB) and small arrays; the peak measured 0.14 MB below the
    # bound.
    doc = demo_scenario("two-point-breakdown")
    doc.update(t_final=200.0, dt=1e-3, output_path=str(tmp_path / "long.csv"))
    scenario = scenario_from_dict(doc)
    samples = 200_001
    series, grid = samples * 4 * 16, samples * 8
    tracemalloc.start()
    try:
        record = run(scenario)
        held, peak = tracemalloc.get_traced_memory()
        # each CSV block keeps to the workspace budget: blocks of
        # _CSV_FLOAT_BYTES a float, with the formatter's tables already built
        tracemalloc.reset_peak()
        write_csv(record, tmp_path / "again.csv")
        _, csv_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    times = record.series["exact"].times
    assert all(s.times is times for s in record.series.values())
    assert all(r.times is times for r in record.reports.values())
    assert peak <= 2 * series + 2 * grid + linops.WORKSPACE_BYTES + 2**18
    assert csv_peak - held <= linops.WORKSPACE_BYTES


def test_main_run_ok(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc()))
    out = tmp_path / "cli.csv"
    code = main(["run", str(path), "--output", str(out), "--quiet"])
    assert code == 0
    assert out.exists()


def test_main_flag_overrides(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc()))
    out = tmp_path / "short.csv"
    code = main(
        ["run", str(path), "--output", str(out), "--t-final", "0.2", "--dt", "0.1", "--quiet"]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 4  # header + 3 samples


def test_main_validation_failure_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(make_doc(dt=-1.0)))
    assert main(["run", str(path), "--quiet"]) == 2
    assert "validation error" in capsys.readouterr().err


def test_main_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "ghost.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_main_degenerate_gksl_exits_2(tmp_path, capsys):
    doc = make_doc(
        hs=[[0.3, 0.0], [0.0, 0.3]],
        ensemble={"type": "two_point", "base": [[0.0, 1.0], [1.0, 0.0]], "g": 0.1},
        generators=["gksl"],
        output_path=str(tmp_path / "deg.csv"),
    )
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--quiet"]) == 2
    assert "degenerate" in capsys.readouterr().err


def test_main_numerical_failure_exits_3(tmp_path, capsys):
    doc = make_doc(
        ensemble={"type": "two_point", "base": [[1.0, 0.0], [0.0, -1.0]], "g": 1e4},
        t_final=10.0,
        dt=1.0,
        output_path=str(tmp_path / "blow.csv"),
    )
    path = tmp_path / "blow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["run", str(path), "--quiet"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_disagreeing_formulations_exit_3(tmp_path, capsys, monkeypatch):
    # a traceless Hermitian offset of 1e-6 moves the dilation far beyond the
    # equivalence budget: the run fails before it writes anything
    def shifted(*args):
        return evolve_embedded_series(*args) + 1e-6 * SZ

    monkeypatch.setattr("rndunit.cli.evolve_embedded_series", shifted)
    out = tmp_path / "s.csv"
    assert main(["demo", "two-point-breakdown", "--output", str(out), "--quiet"]) == 3
    assert "exact-dynamics formulations disagree" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "s.run.json").exists()


def test_one_level_scenario_validates_and_runs(tmp_path):
    # at d = 1 there are no Bohr frequencies: every series stays at rho = 1
    one = {"type": "two_point", "base": [[1.0]], "g": 0.5}
    out = tmp_path / "s.csv"
    doc = make_doc(dim=1, hs=[[0.0]], ensemble=one, generators=list(GENERATOR_KINDS))
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**doc, "output_path": str(out)}))
    assert main(["validate", str(path), "--quiet"]) == 0
    assert main(["run", str(path), "--quiet"]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 11
    for name in ("exact", *GENERATOR_KINDS):
        assert {(row[f"{name}_rho_0_0_re"], row[f"{name}_rho_0_0_im"]) for row in rows} == {
            ("1.0", "0.0")
        }


def test_overflowing_step_count_exits_2(tmp_path, capsys):
    # t_final and dt are finite, but t_final / dt overflows to inf
    out = tmp_path / "s.csv"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc(t_final=1e300, dt=1e-300, output_path=str(out))))
    for command in ("validate", "run"):
        assert main([command, str(path), "--quiet"]) == 2
        assert "dt:" in capsys.readouterr().err
    assert not out.exists()


def test_series_admission_counts_grid_and_series_bytes(tmp_path, capsys, monkeypatch):
    # 11 points, d = 2, exact plus one generator: 11 * (8 + 16 * 4 * 2) bytes
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc(output_path=str(tmp_path / "s.csv"))))
    predicted = 11 * (8 + 16 * 4 * 2)
    monkeypatch.setattr("rndunit.linops.MAX_SERIES_BYTES", predicted)
    assert main(["validate", str(path), "--quiet"]) == 0
    monkeypatch.setattr("rndunit.linops.MAX_SERIES_BYTES", predicted - 1)
    assert main(["validate", str(path), "--quiet"]) == 2
    assert "dt: 11 grid points" in capsys.readouterr().err


def test_series_admission_counts_the_dilation_without_generators(tmp_path, capsys, monkeypatch):
    # with no generator a run still holds two series until it compares them,
    # the exact one and the dilation's: 11 * (8 + 16 * 4 * 2) bytes
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc(generators=[], output_path=str(tmp_path / "s.csv"))))
    predicted = 11 * (8 + 16 * 4 * 2)
    monkeypatch.setattr("rndunit.linops.MAX_SERIES_BYTES", predicted)
    assert main(["validate", str(path), "--quiet"]) == 0
    monkeypatch.setattr("rndunit.linops.MAX_SERIES_BYTES", predicted - 1)
    assert main(["validate", str(path), "--quiet"]) == 2
    assert "dt: 11 grid points of 2 series" in capsys.readouterr().err


# each case passes scenario parsing but fails a check that run() makes before
# the exact channel: validate must fail it too, naming the field at fault
_SX_G = {"type": "two_point", "base": [[0.0, 1.0], [1.0, 0.0]], "g": 0.1}
PREFLIGHT_FAILURES = {
    "noncommuting-dephasing": ({"ensemble": _SX_G}, "generators: dephasing"),
    "degenerate-gksl": (
        {"hs": [[0.3, 0.0], [0.0, 0.3]], "ensemble": _SX_G, "generators": ["gksl"]},
        "generators: gksl",
    ),
    "over-embedding-cap": (
        {
            "dim": 3,
            "hs": [[0.0] * 3] * 3,
            "ensemble": {
                "type": "explicit",
                "terms": [{"matrix": [[0.0] * 3] * 3, "weight": 2.0**-11}] * 2048,
            },
            "rho0": "maximally_mixed",
        },
        "ensemble: composite dimension 3 x 2048",
    ),
    # 1e10 steps: about 80 GB for the grid alone, refused from its prediction
    "oversized-grid": ({"t_final": 1e7, "dt": 1e-3}, "dt: 10000000001 grid points"),
    # refused before the work, not when the CSV or its record is opened after it
    "missing-output-dir": ({"output_path": "no-such-dir/s.csv"}, "output_path: directory"),
    "output-is-a-directory": (
        {"output_path": "taken"},
        "output_path: cannot write over the directory",
    ),
    "record-is-a-directory": (
        {"output_path": "s.csv"},
        "output_path: cannot write the record over the directory",
    ),
}
# the directories the cases above must find in place
TAKEN_PATHS = {"output-is-a-directory": "taken", "record-is-a-directory": "s.run.json"}

# a mistyped numeric field is a validation error naming it, not a TypeError
_TWO_POINT = BASE_DOC["ensemble"]
_GAUSSIAN = {"type": "gaussian", "base": _TWO_POINT["base"], "sigma": 0.1, "n_nodes": 4}
_ONE_TERM = {"matrix": [[1.0, 0.0], [0.0, -1.0]], "weight": 1.0}
MISTYPED_FIELDS = {
    "dim-list": ({"dim": [2]}, "dim: expected a number"),
    "t_final-list": ({"t_final": [1.0]}, "t_final: expected a number"),
    "dt-object": ({"dt": {"value": 0.05}}, "dt: expected a number"),
    "g-null": ({"ensemble": {**_TWO_POINT, "g": None}}, "ensemble.g: expected a number"),
    "sigma-null": (
        {"ensemble": {**_GAUSSIAN, "sigma": None}},
        "ensemble.sigma: expected a number",
    ),
    # JSON's Infinity: int() overflows
    "n_nodes-infinite": (
        {"ensemble": {**_GAUSSIAN, "n_nodes": float("inf")}},
        "ensemble.n_nodes: expected a number",
    ),
    "weight-null": (
        {"ensemble": {"type": "explicit", "terms": [_ONE_TERM, {**_ONE_TERM, "weight": None}]}},
        "ensemble.terms[1].weight: expected a number",
    ),
    "epsilon-list": (
        {"ensemble": _SX_G, "generators": [{"name": "gksl", "epsilon": [0.1]}]},
        "generators[0].epsilon: expected a number",
    ),
    "type-list": ({"ensemble": {**_TWO_POINT, "type": ["two_point"]}}, "ensemble.type"),
    "type-null": ({"ensemble": {**_TWO_POINT, "type": None}}, "ensemble.type"),
    # float() and int() would read these as 1.0, 2 and 4
    "g-bool": ({"ensemble": {**_TWO_POINT, "g": True}}, "ensemble.g: expected a number"),
    "t_final-bool": ({"t_final": True}, "t_final: expected a number"),
    "dim-fraction": ({"dim": 2.9}, "dim: expected an integer"),
    "n_nodes-fraction": (
        {"ensemble": {**_GAUSSIAN, "n_nodes": 4.9}},
        "ensemble.n_nodes: expected an integer",
    ),
    # JSON integer literals beyond the double range: float() overflows
    "hs-huge-integer": ({"hs": [[10**400, 0], [0, 1]]}, "hs[0][0]: expected a number"),
    "hs-huge-integer-pair": ({"hs": [[[0, 10**400], 0], [0, 1]]}, "hs[0][0]: expected a number"),
}

# a fault found by the ensemble's constructor is named as the ensemble's
_NOT_HERMITIAN = [[0.0, 1.0], [0.0, 0.0]]
ENSEMBLE_FAULTS = {
    "weights-sum": (
        {"ensemble": {"type": "explicit", "terms": [{**_ONE_TERM, "weight": 0.6}]}},
        "ensemble: weights must sum to 1, got 0.6",
    ),
    "weight-negative": (
        {
            "ensemble": {
                "type": "explicit",
                "terms": [{**_ONE_TERM, "weight": 1.5}, {**_ONE_TERM, "weight": -0.5}],
            }
        },
        "ensemble: weights must be finite and non-negative",
    ),
    "term-not-hermitian": (
        {"ensemble": {"type": "explicit", "terms": [{"matrix": _NOT_HERMITIAN, "weight": 1.0}]}},
        "ensemble: realization 0 is not Hermitian",
    ),
    "base-not-hermitian": (
        {"ensemble": {**_GAUSSIAN, "base": _NOT_HERMITIAN}},
        "ensemble: base operator is not Hermitian",
    ),
    "sigma-negative": (
        {"ensemble": {**_GAUSSIAN, "sigma": -0.1}},
        "ensemble: sigma must be finite and non-negative",
    ),
    "n_nodes-zero": ({"ensemble": {**_GAUSSIAN, "n_nodes": 0}}, "ensemble: n_nodes must be at least 1"),
    # JSON's Infinity
    "g-infinite": ({"ensemble": {**_TWO_POINT, "g": float("inf")}}, "ensemble: g must be finite"),
}
REFUSED = {**PREFLIGHT_FAILURES, **MISTYPED_FIELDS, **ENSEMBLE_FAULTS}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_validate_rejects_what_run_rejects(case, tmp_path, capsys, caplog, monkeypatch):
    def no_grid(t_final, dt):
        raise AssertionError("the time grid was allocated")

    monkeypatch.setattr("rndunit.cli.time_grid", no_grid)
    overrides, field = REFUSED[case]
    doc = make_doc(**overrides)
    out = tmp_path / doc.get("output_path", "s.csv")
    doc["output_path"] = str(out)
    if case in TAKEN_PATHS:
        (tmp_path / TAKEN_PATHS[case]).mkdir()
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert field in err
    # one line, however long the value at fault
    assert err.count("\n") == 1 and len(err) < 200, err
    with caplog.at_level(logging.INFO, logger="rndunit"):
        assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == err
    assert "exact channel" not in caplog.text
    assert out.is_dir() if case == "output-is-a-directory" else not out.exists()


# ensembles that centering leaves with a mean of rounding size on a large
# field; validate and run must accept them
_FIELD = 1e5 * np.array([[1.0, 0.3], [0.3, -1.0]])
CENTERED_ON_A_FIELD = {
    # a static field of 1e5 with fluctuations of order 0.1, folded into hs
    "offset": (
        [
            ([[100000.0, 37000.03], [37000.03, -100000.027]], 0.2),
            ([[99999.911, 36999.955], [36999.955, -100000.099]], 0.3),
            ([[100000.006, 37000.134], [37000.134, -100000.049]], 0.5),
        ],
        1e-7,
    ),
    # +-1e5 terms at nearly equal weights: a mean of 2 is removed
    "near-symmetric": ([(_FIELD.tolist(), 0.50001), ((-_FIELD).tolist(), 0.49999)], 1e-8),
}


@pytest.mark.parametrize("case", sorted(CENTERED_ON_A_FIELD))
def test_ensemble_centered_on_a_large_field_runs(case, tmp_path, capsys):
    terms, dt = CENTERED_ON_A_FIELD[case]
    out = tmp_path / "s.csv"
    doc = make_doc(
        ensemble={"type": "explicit", "terms": [{"matrix": m, "weight": w} for m, w in terms]},
        t_final=10 * dt,
        dt=dt,
        generators=["redfield"],
        output_path=str(out),
    )
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--quiet"]) == 0
    assert main(["run", str(path), "--quiet"]) == 0, capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 12


def test_centering_errors_name_the_ensemble(monkeypatch):
    def refuse(e):
        raise ValueError("centered ensemble has nonzero mean: |mean|_max = 1.000e-03")

    monkeypatch.setattr("rndunit.cli.center", refuse)
    with pytest.raises(ValueError, match="^ensemble: centered ensemble"):
        scenario_from_dict(make_doc())


def test_gauss_hermite_node_count_exits_2(tmp_path, capsys, monkeypatch):
    gaussian = _GAUSSIAN
    path = tmp_path / "s.json"
    # numpy's 400-node rule overflows; refused naming n_nodes, without warnings
    path.write_text(json.dumps(make_doc(ensemble={**gaussian, "n_nodes": 400})))
    for command in ("validate", "run"):
        assert main([command, str(path), "--quiet"]) == 2
        assert "n_nodes" in capsys.readouterr().err

    def no_rule(n_nodes):
        raise AssertionError("the Gauss-Hermite rule was built")

    # over the dilation cap: refused naming n_nodes before numpy builds the rule
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", no_rule)
    path.write_text(json.dumps(make_doc(ensemble={**gaussian, "n_nodes": 10**9})))
    for command in ("validate", "run"):
        assert main([command, str(path), "--quiet"]) == 2
        assert "ensemble.n_nodes: composite dimension" in capsys.readouterr().err


# keys of another ensemble type are refused, not ignored
STRAY_ENSEMBLE_KEYS = {
    "two_point-sigma": (["sigma"], {**_TWO_POINT, "sigma": 3.0}),
    "two_point-n_nodes": (["n_nodes"], {**_TWO_POINT, "n_nodes": 5}),
    "two_point-terms": (["terms"], {**_TWO_POINT, "terms": []}),
    "explicit-g-base": (
        ["base", "g"],
        {"type": "explicit", "terms": [_ONE_TERM], "g": 7.0, "base": "anything"},
    ),
}


@pytest.mark.parametrize("case", sorted(STRAY_ENSEMBLE_KEYS))
def test_ensemble_keys_of_another_type_exit_2(case, tmp_path, capsys):
    keys, ensemble = STRAY_ENSEMBLE_KEYS[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc(ensemble=ensemble, output_path=str(tmp_path / "s.csv"))))
    for command in ("validate", "run"):
        assert main([command, str(path), "--quiet"]) == 2
        assert f"ensemble: unknown keys {keys}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


# one key rule for the four kinds of object: the document, the ensemble, a
# generator and an explicit term; each case's only fault is the key named
# (a document key given as None is left out)
_TERMS = {"type": "explicit", "terms": [_ONE_TERM]}
KEY_FAULTS = {
    ("document", "unknown"): ({"extra": 1}, "{source}: unknown keys ['extra']"),
    ("document", "missing"): ({"dt": None}, "{source}: missing keys ['dt']"),
    # over the dilation cap too, but the stray key is named and no rule built
    ("ensemble", "unknown"): (
        {"ensemble": {**_GAUSSIAN, "n_nodes": 10**9, "g": 0.5}},
        "ensemble: unknown keys ['g']",
    ),
    ("ensemble", "missing"): (
        {"ensemble": {key: value for key, value in _GAUSSIAN.items() if key != "sigma"}},
        "ensemble: missing keys ['sigma']",
    ),
    ("generator", "unknown"): (
        {"generators": [{"name": "dephasing", "eps": 0.1}]},
        "generators[0]: unknown keys ['eps']",
    ),
    ("generator", "missing"): (
        {"generators": ["redfield", {"epsilon": 0.1}]},
        "generators[1]: missing keys ['name']",
    ),
    ("term", "unknown"): (
        {"ensemble": {**_TERMS, "terms": [{**_ONE_TERM, "label": "a"}]}},
        "ensemble.terms[0]: unknown keys ['label']",
    ),
    ("term", "missing"): (
        {"ensemble": {**_TERMS, "terms": [_ONE_TERM, {"matrix": _ONE_TERM["matrix"]}]}},
        "ensemble.terms[1]: missing keys ['weight']",
    ),
}


@pytest.mark.parametrize("case", sorted(KEY_FAULTS), ids="-".join)
def test_key_faults_exit_2_before_anything_is_built(case, tmp_path, capsys, monkeypatch):
    def built(*args):
        raise AssertionError("built before the keys were checked")

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", built)
    for law in ENSEMBLE_LAWS.values():
        monkeypatch.setattr(law, "build", built)
    overrides, message = KEY_FAULTS[case]
    doc = {**make_doc(**overrides), "output_path": str(tmp_path / "s.csv")}
    doc = {key: value for key, value in doc.items() if value is not None}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "run"):
        assert main([command, str(path), "--quiet"]) == 2
        assert f"validation error: {message.format(source=path)}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_traced_names_are_bound_and_callable():
    # perfbench/tracer.py wraps each name where it is bound; a rename would
    # otherwise show only in a traced benchmark run. The file is only read
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module, name, _ in tracer.WRAPPED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_unwritable_output_exits_2(tmp_path, capsys):
    # the CSV path is a link into a directory that does not exist: open()
    # fails after the work, which ends with one line and exit 2, not a
    # traceback (a path that is a directory is refused before the work)
    out = tmp_path / "s.csv"
    out.symlink_to(tmp_path / "gone" / "s.csv")
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc(output_path=str(out))))
    assert main(["run", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rndunit: cannot write output: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "error",
    [np.linalg.LinAlgError("Eigenvalues did not converge"), MemoryError()],
    ids=["LinAlgError", "MemoryError"],
)
def test_main_linalg_and_memory_errors_exit_3(error, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("rndunit.cli.make_problem", fail)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_doc(output_path=str(tmp_path / "s.csv"))))
    assert main(["run", str(path), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("rndunit: numerical failure: ")
