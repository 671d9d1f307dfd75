"""Scenario files, the run pipeline, CSV output, exit codes."""

from __future__ import annotations

import csv
import json
import logging
import warnings

import numpy as np
import pytest
from conftest import SX, SZ

from rndunit.analysis import ComparisonReport
from rndunit.cli import (
    DEMO_NAMES,
    RunRecord,
    csv_columns,
    demo_scenario,
    load_scenario,
    main,
    run,
    scenario_echo,
    scenario_from_dict,
    write_csv,
)
from rndunit.mastereq import TimeSeries

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
    assert [g.name for g in s.generators] == ["dephasing"]
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
    # [re, im] pairs: hs = sigma_y / 2
    doc = make_doc(hs=[[0.0, [0.0, -0.5]], [[0.0, 0.5], 0.0]])
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
    with pytest.raises(ValueError, match="two_point needs g"):
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
    assert [g.name for g in s.generators] == ["redfield", "gksl"]
    assert s.generators[1].epsilon == 0.2
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


def test_run_write_false_touches_nothing(tmp_path):
    doc = make_doc(output_path=str(tmp_path / "none.csv"))
    run(scenario_from_dict(doc), write=False)
    assert list(tmp_path.iterdir()) == []


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
    first = tmp_path / "first.csv"
    run(scenario_from_dict(make_doc(output_path=str(first))))
    record_doc = json.loads((tmp_path / "first.run.json").read_text())
    echo = record_doc["scenario"]
    echo["output_path"] = str(tmp_path / "second.csv")
    run(scenario_from_dict(echo, source="echo"))
    assert first.read_bytes() == (tmp_path / "second.csv").read_bytes()


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
    assert set(rep) == {"max_error", "threshold", "breakdown_time"}
    assert doc["equivalence_max_trace_distance"] <= 1e-10


def test_run_record_stage_timings(tmp_path):
    doc = make_doc(
        generators=["redfield", "dephasing"], output_path=str(tmp_path / "s.csv")
    )
    run(scenario_from_dict(doc))
    stages = json.loads((tmp_path / "s.run.json").read_text())["stages"]
    flat = ["preflight_s", "average_s", "dilation_s", "compare_s", "write_csv_s"]
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
        reports[name] = ComparisonReport(times, distances, 1.0, 0.05, None)
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
    record = RunRecord(scenario_from_dict(doc), series, reports, 0.0, 0.0, "test")
    # 501 rows: the demo also crosses the writer's block boundaries
    demo = run(scenario_from_dict(demo_scenario("two-point-breakdown")), write=False)
    for i, rec in enumerate((record, demo)):
        new, old = tmp_path / f"new{i}.csv", tmp_path / f"old{i}.csv"
        with np.errstate(over="ignore", invalid="ignore"):  # purity of 1e300, inf
            write_csv(rec, new)
            _write_csv_per_entry(rec, old)
        assert new.read_bytes() == old.read_bytes()
    text = (tmp_path / "new0.csv").read_text()
    assert "-0.0" in text and "-inf" in text and "-nan" not in text


def test_run_grid_rounding(tmp_path):
    doc = make_doc(t_final=1.0, dt=0.3, output_path=str(tmp_path / "r.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        record = run(scenario_from_dict(doc), write=False)
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
    monkeypatch.setattr("rndunit.channel.MAX_SERIES_BYTES", predicted)
    assert main(["validate", str(path), "--quiet"]) == 0
    monkeypatch.setattr("rndunit.channel.MAX_SERIES_BYTES", predicted - 1)
    assert main(["validate", str(path), "--quiet"]) == 2
    assert "dt: 11 grid points" in capsys.readouterr().err


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
    # refused before the work, not when the CSV is opened after it
    "missing-output-dir": ({"output_path": "no-such-dir/s.csv"}, "output_path: directory"),
}

# a mistyped numeric field is a validation error naming it, not a TypeError
_TWO_POINT = BASE_DOC["ensemble"]
_ONE_TERM = {"matrix": [[1.0, 0.0], [0.0, -1.0]], "weight": 1.0}
MISTYPED_FIELDS = {
    "dim-list": ({"dim": [2]}, "dim: expected a number"),
    "t_final-list": ({"t_final": [1.0]}, "t_final: expected a number"),
    "dt-object": ({"dt": {"value": 0.05}}, "dt: expected a number"),
    "g-null": ({"ensemble": {**_TWO_POINT, "g": None}}, "ensemble.g: expected a number"),
    "sigma-null": (
        {"ensemble": {**_TWO_POINT, "type": "gaussian", "sigma": None, "n_nodes": 4}},
        "ensemble.sigma: expected a number",
    ),
    # JSON's Infinity: int() overflows
    "n_nodes-infinite": (
        {"ensemble": {**_TWO_POINT, "type": "gaussian", "sigma": 0.1, "n_nodes": float("inf")}},
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
    # float() and int() would read these as 1.0, 2 and 4
    "g-bool": ({"ensemble": {**_TWO_POINT, "g": True}}, "ensemble.g: expected a number"),
    "t_final-bool": ({"t_final": True}, "t_final: expected a number"),
    "dim-fraction": ({"dim": 2.9}, "dim: expected an integer"),
    "n_nodes-fraction": (
        {"ensemble": {**_TWO_POINT, "type": "gaussian", "sigma": 0.1, "n_nodes": 4.9}},
        "ensemble.n_nodes: expected an integer",
    ),
    # JSON integer literals beyond the double range: float() overflows
    "hs-huge-integer": ({"hs": [[10**400, 0], [0, 1]]}, "hs[0][0]: expected a number"),
    "hs-huge-integer-pair": ({"hs": [[[0, 10**400], 0], [0, 1]]}, "hs[0][0]: expected a number"),
}


@pytest.mark.parametrize("case", sorted({**PREFLIGHT_FAILURES, **MISTYPED_FIELDS}))
def test_validate_rejects_what_run_rejects(case, tmp_path, capsys, caplog, monkeypatch):
    def no_grid(s):
        raise AssertionError("the time grid was allocated")

    monkeypatch.setattr("rndunit.cli._time_grid", no_grid)
    overrides, field = {**PREFLIGHT_FAILURES, **MISTYPED_FIELDS}[case]
    doc = make_doc(**overrides)
    out = tmp_path / doc.get("output_path", "s.csv")
    doc["output_path"] = str(out)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert field in capsys.readouterr().err
    with caplog.at_level(logging.INFO, logger="rndunit"):
        assert main(["run", str(path)]) == 2
    assert field in capsys.readouterr().err
    assert "exact channel" not in caplog.text
    assert not out.exists()


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
    gaussian = {**_TWO_POINT, "type": "gaussian", "sigma": 0.1}
    path = tmp_path / "s.json"
    # numpy's 400-node rule overflows; refused naming n_nodes, without warnings
    path.write_text(json.dumps(make_doc(ensemble={**gaussian, "n_nodes": 400})))
    for command in ("validate", "run"):
        assert main([command, str(path), "--quiet"]) == 2
        assert "n_nodes" in capsys.readouterr().err

    def no_rule(n_nodes):
        raise AssertionError("the Gauss-Hermite rule was built")

    # over the dilation cap: refused before numpy builds the rule
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", no_rule)
    path.write_text(json.dumps(make_doc(ensemble={**gaussian, "n_nodes": 10**9})))
    for command in ("validate", "run"):
        assert main([command, str(path), "--quiet"]) == 2
        assert "ensemble.n_nodes: composite dimension" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    # the directory exists, but the CSV path is a directory: open() fails
    # after the work, which ends with one line and exit 2, not a traceback
    out = tmp_path / "s.csv"
    out.mkdir()
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
