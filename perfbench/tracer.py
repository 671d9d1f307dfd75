"""Run one rndunit command with spans around each module's public functions.

    python3 perfbench/tracer.py SPANS_JSON RUN_ID -- <rndunit arguments>

The functions are replaced as they are bound in the module that calls
them, so rndunit itself is unchanged; then rndunit.cli.main runs the
command. Spans (name, start, end, parent, run id) stay in memory and are
written to SPANS_JSON when the command ends. The process exits with the
command's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

import rndunit.analysis
import rndunit.channel
import rndunit.cli
import rndunit.mastereq

# (module, name as bound there, span name)
WRAPPED = (
    (rndunit.cli, "scenario_from_dict", "cli.resolve"),
    (rndunit.cli, "run", "cli.run"),
    (rndunit.cli, "write_csv", "cli.write_csv"),
    (rndunit.cli, "evolve_average_series", "channel.average"),
    (rndunit.cli, "embed", "channel.embed"),
    (rndunit.cli, "evolve_embedded_series", "channel.dilation"),
    (rndunit.cli, "make_problem", "mastereq.problem"),
    (rndunit.cli, "integrate", "mastereq.integrate"),
    (rndunit.cli, "compare", "analysis.compare"),
    (rndunit.channel, "herm_eig", "linops.herm_eig"),
    (rndunit.mastereq, "herm_eig", "linops.herm_eig"),
    (rndunit.analysis, "trace_distance", "linops.trace_distance"),
)
# tracemalloc slows every allocation, so it runs only inside this span
MEMORY_SPAN = "channel.dilation"


class Tracer:
    """Span recorder for one process; spans nest through a stack of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "run": self.run_id,
                "parent": self._open[-1] if self._open else None,
            }
            if name == "mastereq.integrate":
                span["kind"] = args[0].kind
            self._open.append(len(self.spans))
            self.spans.append(span)
            if name == MEMORY_SPAN:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if name == MEMORY_SPAN:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._open.pop()

        return traced

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, command = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return rndunit.cli.main(command)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
