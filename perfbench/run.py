"""Benchmark of the rndunit run pipeline, end to end and per module.

    python3 perfbench/run.py --workload demos --seed 1 --seconds 38 --trace 0

Run from the root of a checkout. Every rndunit invocation is a fresh child
process (`python -m rndunit.cli ...` with src/ on PYTHONPATH), started one
at a time, with BLAS threads at their default. The benchmark

* writes the workload's scenario files from --seed;
* computes reference reports for them without rndunit (reference.py);
* times `rndunit validate` on them throughout the window (setup_s);
* repeats the workload's `rndunit run` / `rndunit demo` invocations for
  --seconds seconds and checks every invocation's outputs.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates traced repetitions (perfbench/tracer.py) with untraced ones
and reports the per-layer metrics. The last line of standard output is
one JSON object; the lines before it give each metric's median,
quartiles and sample count, the failure fraction and the environment.
`--workload all` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import layers
import reference
import workloads

HERE = Path(__file__).resolve().parent
# set-up is sampled for about this long in each step of the timed window
SETUP_SECONDS_PER_STEP = 1.0
# an invocation that takes longer than this is killed and counted as failed
INVOCATION_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "states_per_s": "1/s"}
PER_LAYER_UNITS = {
    **{m: "s" for m in layers.SPAN_TIMES},
    "cli.run_self_s": "s",
    "cli.csv_bytes": "count",
    "channel.dilation_peak_mb": "MB",
    **{m: "count" for m in layers.SPAN_COUNTS},
    **{f"mastereq.integrate_s.{g}": "s" for g in layers.GENERATORS},
    **{f"mastereq.step_us.{g}": "us" for g in layers.GENERATORS},
    "trace.overhead_s": "s",
    "ensemble.size": "count",
    "ensemble.rank": "count",
    "channel.composite_dim": "count",
    "grid.points": "count",
}


@dataclass
class Invocation:
    """One finished child process."""

    wall_s: float
    peak_rss_mb: float


@dataclass
class Rep:
    """One pass over every invocation of a workload."""

    traced: bool
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    csv_bytes: int = 0
    spans: list[dict] = field(default_factory=list)


def spawn(command: list[str], env: dict, log_path: Path) -> tuple[int, float, float]:
    """Run a child to completion; return its exit code, wall time and peak RSS in MB."""
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=log, env=env)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Bench:
    """One workload at one seed: its inputs, references and invocations."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        # importable once main() has put src/ on sys.path
        from rndunit.cli import csv_columns

        self.workload = workload
        self.work = work
        self.docs = workloads.scenarios(workload, seed)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.refs, self.columns, self.points = {}, {}, {}
        self.steps = {g: 0 for g in layers.GENERATORS}
        descriptors = {"ensemble.size": 0, "ensemble.rank": 0, "channel.composite_dim": 0}
        for name, doc in self.docs.items():
            (work / f"{name}.json").write_text(json.dumps(doc))
            resolved = reference.resolve(doc)
            self.refs[name] = reference.reports(resolved)
            self.columns[name] = csv_columns(resolved.dim, ["exact", *self.refs[name]])
            self.points[name] = resolved.times.size
            for g in self.refs[name]:
                self.steps[g] += resolved.times.size - 1
            size = resolved.hams.shape[0]
            descriptors["ensemble.size"] = max(descriptors["ensemble.size"], size)
            descriptors["ensemble.rank"] = max(
                descriptors["ensemble.rank"], reference.ensemble_rank(resolved)
            )
            descriptors["channel.composite_dim"] = max(
                descriptors["channel.composite_dim"], resolved.dim * size
            )
        descriptors["grid.points"] = sum(self.points.values())
        self.descriptors = descriptors
        # each grid point gives one state of `exact` and one of each generator
        self.states = sum(self.points[n] * (1 + len(self.refs[n])) for n in self.docs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _invoke(self, label: str, command: list[str], check=None) -> Invocation:
        """Run one child; a non-zero exit or a problem found by `check` fails it."""
        code, wall, rss = spawn(command, self.env, self.work / f"{label}.log")
        self.attempted += 1
        problems = [f"exit code {code}"] if code != 0 else check() if check else []
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return Invocation(wall, rss)

    def validate(self) -> float:
        """Wall time of `rndunit validate` on every scenario file of the workload."""
        total = 0.0
        for name in self.docs:
            scenario = str(self.work / f"{name}.json")
            inv = self._invoke(
                f"validate-{name}",
                [sys.executable, "-m", "rndunit.cli", "validate", scenario, "--quiet"],
            )
            total += inv.wall_s
        return total

    def _cli_args(self, name: str, csv_path: Path) -> list[str]:
        if self.workload == "demos":
            return ["demo", name, "--output", str(csv_path), "--quiet"]
        return ["run", str(self.work / f"{name}.json"), "--output", str(csv_path), "--quiet"]

    def _check(self, name: str, csv_path: Path) -> list[str]:
        doc = self.docs[name]
        problems = checks.check_csv(csv_path, self.columns[name], self.points[name])
        problems += checks.check_record(
            checks.record_path(csv_path), self.refs[name], float(doc["dt"])
        )
        if name == "gaussian-dephasing":
            problems += checks.check_gaussian_coherence(csv_path, doc["ensemble"]["sigma"])
        return problems

    def rep(self, index: int, traced: bool) -> Rep:
        """Run every invocation of the workload once, checking each one's outputs."""
        out = Rep(traced=traced)
        for name in self.docs:
            csv_path = self.work / f"{name}.csv"
            for stale in (csv_path, checks.record_path(csv_path)):
                stale.unlink(missing_ok=True)
            run_id = f"{self.workload}-{index}-{name}"
            args = self._cli_args(name, csv_path)
            spans_path = None
            if traced:
                spans_path = self.work / f"{run_id}.spans.json"
                tracer = str(HERE / "tracer.py")
                command = [sys.executable, tracer, str(spans_path), run_id, "--", *args]
            else:
                command = [sys.executable, "-m", "rndunit.cli", *args]
            inv = self._invoke(run_id, command, lambda: self._check(name, csv_path))
            if spans_path is not None and spans_path.is_file():
                # parents index this invocation's spans; shift them into the rep's list
                base = len(out.spans)
                for span in json.loads(spans_path.read_text()):
                    if span["parent"] is not None:
                        span["parent"] += base
                    out.spans.append(span)
            out.wall_s += inv.wall_s
            out.peak_rss_mb = max(out.peak_rss_mb, inv.peak_rss_mb)
            out.csv_bytes += csv_path.stat().st_size if csv_path.is_file() else 0
        return out


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list[Rep], list[float]]:
    """Repeat the workload for about `seconds` seconds.

    Another step starts unless, at the average step time so far, it would
    end more than half a step past `seconds`; so windows average `seconds`.

    Without tracing, a step is about SETUP_SECONDS_PER_STEP of set-up
    samples and a repetition; set-up is sampled across the whole window
    because the speed of a shared host drifts over seconds. With tracing, a
    step is a traced and an untraced repetition, in alternating order, so
    both see the same machine state.
    Returns the repetitions and the set-up samples.
    """
    reps: list[Rep] = []
    setup: list[float] = []
    started = time.perf_counter()
    steps = 0
    while True:
        if trace:
            order = (True, False) if steps % 2 == 0 else (False, True)
            reps += [bench.rep(len(reps), traced) for traced in order]
        else:
            spent = 0.0
            while spent < SETUP_SECONDS_PER_STEP:
                setup.append(bench.validate())
                spent += setup[-1]
            reps.append(bench.rep(len(reps), False))
        steps += 1
        elapsed = time.perf_counter() - started
        if elapsed * (steps + 0.5) / steps > seconds:
            return reps, setup


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; return the result object and print its summary lines."""
    work = HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, workload, seed, work)
    bench.validate()  # warm-up: byte-compiles rndunit and fills the file cache
    reps, setup = measure(bench, seconds, trace)
    # the trajectories are large; the records, logs and spans stay
    for output in work.glob("*.csv"):
        output.unlink()
    plain = [r for r in reps if not r.traced]
    if trace:
        traced = [r for r in reps if r.traced]
        per_rep = []
        for r in traced:
            values, problems = layers.layer_metrics(r.spans, bench.steps)
            values["cli.csv_bytes"] = r.csv_bytes
            bench.problems += problems
            per_rep.append(values)
        samples = {m: [v[m] for v in per_rep] for m in per_rep[0]}
        samples["trace.overhead_s"] = [
            statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
        ]
        samples.update({m: [v] for m, v in bench.descriptors.items()})
        units = PER_LAYER_UNITS
        (work / "spans.json").write_text(json.dumps([s for r in traced for s in r.spans]))
    else:
        samples = {
            "run_s": [r.wall_s for r in plain],
            "setup_s": setup,
            "peak_rss_mb": [r.peak_rss_mb for r in plain],
            "states_per_s": [bench.states / r.wall_s for r in plain],
        }
        units = END_TO_END_UNITS
    stats = {m: summary(samples[m]) for m in units}
    failed_frac = bench.failed / bench.attempted
    env = environment(seed)
    print(f"workload {workload} seed {seed} trace {int(trace)}: " + json.dumps(env))
    for m, s in stats.items():
        print(
            f"  {m:34s} median {s['median']:.6g} {units[m]}  q1 {s['q1']:.6g}  "
            f"q3 {s['q3']:.6g}  n={s['n']}"
        )
    print(f"  {'failed_frac':34s} {failed_frac:.6g}  "
          f"({bench.failed} of {bench.attempted} invocations failed)")
    for problem in bench.problems:
        print(f"  PROBLEM {problem}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": stats[m]["median"], "unit": units[m]} for m in units},
    }
    (work / "result.json").write_text(
        json.dumps({**result, "env": env, "descriptors": bench.descriptors,
                    "samples": samples, "stats": stats, "problems": bench.problems}, indent=1)
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rndunit" / "cli.py").is_file():
        print(f"perfbench: no rndunit sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
