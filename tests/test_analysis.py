"""Purity, Heisenberg time, trajectory comparison."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import PLUS, SX, SZ, random_density

from rndunit.analysis import (
    BREAKDOWN_THRESHOLD,
    ComparisonReport,
    compare,
    heisenberg_time,
    purity,
)
from rndunit.channel import evolve_average_series
from rndunit.ensemble import two_point_ensemble
from rndunit.linops import herm_eig
from rndunit.mastereq import TimeSeries, integrate, make_problem

HS_QUBIT = 0.5 * SZ


def test_purity_extremes():
    assert purity(np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(1.0)
    assert purity(np.eye(3) / 3) == pytest.approx(1 / 3)
    rho = random_density(np.random.default_rng(41), 4)
    assert 1 / 4 - 1e-12 <= purity(rho) <= 1 + 1e-12


def test_purity_validates_state():
    with pytest.raises(ValueError, match="trace"):
        purity(np.eye(2))


def test_heisenberg_time_qubit():
    assert heisenberg_time(herm_eig(HS_QUBIT)) == pytest.approx(1.0, rel=1e-14)


def test_heisenberg_time_three_levels():
    # energies 0, 1, 3: gaps 1, 3, 2, mean 2, inverse 1/2
    eig = herm_eig(np.diag([0.0, 1.0, 3.0]).astype(complex))
    assert heisenberg_time(eig) == pytest.approx(0.5, rel=1e-14)


def test_heisenberg_time_scales_inversely():
    a = heisenberg_time(herm_eig(HS_QUBIT))
    b = heisenberg_time(herm_eig(5.0 * HS_QUBIT))
    assert b == pytest.approx(a / 5.0, rel=1e-12)


def test_heisenberg_time_degenerate_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        heisenberg_time(herm_eig(np.eye(2, dtype=complex)))
    with pytest.raises(ValueError, match="two levels"):
        heisenberg_time(herm_eig(np.ones((1, 1), dtype=complex)))


def test_compare_identical():
    ts = integrate(
        make_problem(HS_QUBIT, two_point_ensemble(SZ, 0.2), "dephasing"),
        PLUS,
        1.0,
        0.1,
    )
    report = compare(ts, ts)
    assert report.max_error == 0.0
    assert report.breakdown_time is None
    np.testing.assert_array_equal(report.times, ts.times)


def test_compare_symmetric():
    p = make_problem(HS_QUBIT, two_point_ensemble(SX, 0.5), "redfield")
    a = integrate(p, PLUS, 2.0, 0.05)
    times = a.times
    b = TimeSeries(
        times=times, states=evolve_average_series(HS_QUBIT, two_point_ensemble(SX, 0.5), PLUS, times)
    )
    r1, r2 = compare(a, b), compare(b, a)
    np.testing.assert_allclose(r1.trace_distances, r2.trace_distances, atol=1e-14)
    assert r1.max_error == pytest.approx(r2.max_error, abs=1e-14)


def test_compare_locates_breakdown():
    # strong two-point dephasing: exact coherence recurs, the Gaussian
    # master equation keeps decaying, so they part ways around t ~ 0.7 / g
    g = 0.5
    e = two_point_ensemble(SZ, g)
    p = make_problem(HS_QUBIT, e, "dephasing")
    ts = integrate(p, PLUS, 5.0, 0.01)
    exact = TimeSeries(
        times=ts.times, states=evolve_average_series(HS_QUBIT, e, PLUS, ts.times)
    )
    report = compare(exact, ts)
    assert BREAKDOWN_THRESHOLD == 1e-2
    assert report.breakdown_time is not None
    assert 0.3 <= report.breakdown_time <= 2.0
    # first crossing really is the first: everything before stays below
    before = report.times < report.breakdown_time
    assert np.all(report.trace_distances[before] <= BREAKDOWN_THRESHOLD)


def test_compare_rejects_mismatched_grids():
    ts1 = TimeSeries(times=np.array([0.0, 1.0]), states=np.stack([PLUS, PLUS]))
    ts2 = TimeSeries(times=np.array([0.0, 2.0]), states=np.stack([PLUS, PLUS]))
    with pytest.raises(ValueError, match="grids"):
        compare(ts1, ts2)


def test_report_is_plain_data():
    r = ComparisonReport(times=np.array([0.0]), trace_distances=np.array([0.0]))
    assert r.max_error == 0.0 and r.breakdown_time is None


def test_report_derives_max_error_and_breakdown():
    times = np.array([0.0, 0.5, 1.0, 1.5])
    r = ComparisonReport(times, np.array([0.0, 0.005, 0.02, 0.015]))
    assert r.max_error == 0.02 and r.breakdown_time == 1.0
    # at the threshold is not over it
    r = ComparisonReport(times, np.array([0.0, BREAKDOWN_THRESHOLD, 0.0, 0.0]))
    assert r.max_error == BREAKDOWN_THRESHOLD and r.breakdown_time is None
    with pytest.raises(ValueError, match="shape"):
        ComparisonReport(times, np.zeros(3))
