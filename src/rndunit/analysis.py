"""Diagnostics for comparing exact channel dynamics with master equations.

The central question the package answers is *when* a time-local master
equation stops tracking the exact ensemble average. The Heisenberg time
of the system Hamiltonian, 1 / (mean level gap), is only a weak lower
bound on that time, and the disorder strength sets the breakdown (the
README lists measured cases). The compare() report locates the breakdown
empirically as the first time the trace distance crosses
BREAKDOWN_THRESHOLD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linops import EigenSystem, require_density, trace_distance
from .mastereq import TimeSeries

__all__ = [
    "ComparisonReport",
    "purity",
    "heisenberg_time",
    "compare",
    "BREAKDOWN_THRESHOLD",
]

# trace distance above which an approximate trajectory counts as broken down
BREAKDOWN_THRESHOLD = 1e-2


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Pointwise trace distances between two trajectories on a shared grid.

    Building it derives max_error, the largest distance, and
    breakdown_time, the first grid time where the distance exceeds
    BREAKDOWN_THRESHOLD, or None if it never does. times and
    trace_distances must have the same shape.
    """

    times: np.ndarray
    trace_distances: np.ndarray
    max_error: float = field(init=False)
    breakdown_time: float | None = field(init=False)

    def __post_init__(self) -> None:
        if self.times.shape != self.trace_distances.shape:
            raise ValueError("times and trace distances differ in shape")
        over = self.trace_distances > BREAKDOWN_THRESHOLD
        first = int(np.argmax(over))
        object.__setattr__(self, "max_error", float(self.trace_distances.max()))
        object.__setattr__(
            self, "breakdown_time", float(self.times[first]) if over[first] else None
        )


def purity(rho) -> float:
    """tr(rho^2); 1 for pure states, 1/d for the maximally mixed state."""
    rho = require_density(rho)
    return float(np.trace(rho @ rho).real)


def heisenberg_time(eig: EigenSystem) -> float:
    """Inverse mean level gap, 1 / <|E_m - E_n|> over all pairs m < n.

    The time-local master equations hold at least this long, but it is a
    weak lower bound: how long they hold beyond it is set by the disorder
    strength, not by H_S alone. A fully degenerate spectrum has no such
    scale and is rejected.
    """
    if eig.dim < 2:
        raise ValueError("need at least two levels to define a Heisenberg time")
    gaps = np.abs(eig.gaps)[np.triu_indices(eig.dim, k=1)]
    mean_gap = float(gaps.mean())
    if mean_gap <= eig.degeneracy_threshold:
        raise ValueError("spectrum is fully degenerate; Heisenberg time undefined")
    return 1.0 / mean_gap


def compare(exact: TimeSeries, approx: TimeSeries) -> ComparisonReport:
    """Trace-distance comparison of two trajectories on an identical grid,
    breaking down where the distance first exceeds BREAKDOWN_THRESHOLD."""
    if exact.dim != approx.dim:
        raise ValueError("trajectory dimensions disagree")
    if exact.times.shape != approx.times.shape or not np.array_equal(
        exact.times, approx.times
    ):
        raise ValueError("trajectories are sampled on different time grids")
    return ComparisonReport(exact.times, trace_distance(exact.states, approx.states))
