"""Tests of the benchmark itself (about a minute).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's own test run: the
smoke cases start real rndunit processes and take tens of seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402


def _bench_run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "demos", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_emits_every_declared_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench_run(trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == declared
        assert "failed_frac" in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _bench_run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt_csv(csv_path: Path) -> None:
    lines = csv_path.read_bytes().splitlines(keepends=True)
    csv_path.write_bytes(b"".join(lines[:-1]))


def _corrupt_record(csv_path: Path) -> None:
    path = checks.record_path(csv_path)
    doc = json.loads(path.read_text())
    doc["equivalence_max_trace_distance"] = 1e-3
    path.write_text(json.dumps(doc))


def test_corrupted_outputs_count_as_failures(tmp_path):
    bench = run.Bench(ROOT, "demos", 0, tmp_path)
    honest_check = bench._check
    for corrupt in (None, _corrupt_csv, _corrupt_record):

        def check(name, csv_path, corrupt=corrupt):
            if corrupt and name == "two-point-breakdown":
                corrupt(csv_path)
            return honest_check(name, csv_path)

        bench._check = check
        before = bench.failed
        bench.rep(0, traced=False)
        assert bench.failed - before == (0 if corrupt is None else 1), bench.problems
    assert bench.attempted == 9


def test_corrupted_breakdown_time_is_caught(tmp_path):
    ref = {"redfield": reference.Report(max_error=0.1, breakdown_time=2.0)}
    good = {"max_error": 0.1, "threshold": 0.01, "breakdown_time": 2.005}
    path = tmp_path / "x.run.json"
    for report, ok in ((good, True), ({**good, "breakdown_time": 2.02}, False),
                       ({**good, "max_error": 0.1 + 1e-6}, False),
                       ({**good, "breakdown_time": None}, False)):
        path.write_text(json.dumps(
            {"equivalence_max_trace_distance": 1e-14, "reports": {"redfield": report}}
        ))
        assert (checks.check_record(path, ref, 0.01) == []) == ok


def test_self_time_is_span_minus_children():
    spans = [
        {"name": "cli.run", "run": "r", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "channel.dilation", "run": "r", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "linops.herm_eig", "run": "r", "parent": 1, "start": 1.5, "end": 2.0},
        {"name": "mastereq.integrate", "run": "r", "parent": 0, "start": 5.0, "end": 9.0,
         "kind": "gksl"},
    ]
    values, problems = layers.layer_metrics(spans, {"gksl": 400})
    assert problems == []
    assert values["cli.run_self_s"] == 3.0
    assert values["mastereq.step_us.gksl"] == 1e4
    assert values["linops.herm_eig_calls"] == 1
    spans[3]["end"] = 11.0
    assert layers.self_times(spans, "cli.run")[1]
