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

import warnings
from dataclasses import dataclass

import numpy as np

from .linops import EigenSystem, require_density, trace_distance
from .mastereq import TimeSeries

__all__ = [
    "ComparisonReport",
    "purity",
    "heisenberg_time",
    "coherence_rate",
    "compare",
    "BREAKDOWN_THRESHOLD",
]

# trace distance above which an approximate trajectory counts as broken down
BREAKDOWN_THRESHOLD = 1e-2


@dataclass(frozen=True)
class ComparisonReport:
    """Pointwise trace distances between two trajectories on a shared grid.

    breakdown_time is the first grid time where the distance exceeds
    threshold (BREAKDOWN_THRESHOLD), or None if it never does.
    """

    times: np.ndarray
    trace_distances: np.ndarray
    max_error: float
    threshold: float
    breakdown_time: float | None


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


def coherence_rate(
    series: TimeSeries, eig: EigenSystem, n: int, m: int
) -> np.ndarray:
    """Instantaneous decay rate -d ln |rho_nm| / dt of one eigenbasis coherence.

    Uses second-order finite differences (one-sided at the ends). Samples
    after the coherence first drops below 1e-12 are unusable for the
    logarithm; the returned vector is truncated there and a warning notes
    the shortened window.
    """
    n, m = int(n), int(m)
    if not (0 <= n < eig.dim and 0 <= m < eig.dim):
        raise ValueError(f"level indices ({n}, {m}) out of range for dim {eig.dim}")
    if series.dim != eig.dim:
        raise ValueError("series dimension does not match the eigensystem")
    left = eig.basis[:, n].conj()
    right = eig.basis[:, m]
    amps = np.abs(np.einsum("a,tab,b->t", left, series.states, right))
    below = np.flatnonzero(amps < 1e-12)
    usable = below[0] if below.size else amps.size
    if usable < amps.size:
        warnings.warn(
            f"coherence ({n}, {m}) falls below 1e-12 at t = {series.times[usable]:g}; "
            f"rate window truncated to {usable} of {amps.size} samples",
            stacklevel=2,
        )
    if usable < 3:
        raise ValueError("coherence vanishes too early to differentiate its log")
    log_amp = np.log(amps[:usable])
    return -np.gradient(log_amp, series.times[:usable], edge_order=2)


def compare(exact: TimeSeries, approx: TimeSeries) -> ComparisonReport:
    """Trace-distance comparison of two trajectories on an identical grid,
    breaking down where the distance first exceeds BREAKDOWN_THRESHOLD."""
    if exact.dim != approx.dim:
        raise ValueError("trajectory dimensions disagree")
    if exact.times.shape != approx.times.shape or not np.array_equal(
        exact.times, approx.times
    ):
        raise ValueError("trajectories are sampled on different time grids")
    distances = trace_distance(exact.states, approx.states)
    over = np.flatnonzero(distances > BREAKDOWN_THRESHOLD)
    breakdown = float(exact.times[over[0]]) if over.size else None
    return ComparisonReport(
        times=exact.times.copy(),
        trace_distances=distances,
        max_error=float(distances.max()),
        threshold=BREAKDOWN_THRESHOLD,
        breakdown_time=breakdown,
    )
