"""Purity, Heisenberg time, decay rates, trajectory comparison."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import PLUS, SX, SZ, random_density

from rndunit.analysis import (
    BREAKDOWN_THRESHOLD,
    ComparisonReport,
    coherence_rate,
    compare,
    heisenberg_time,
    purity,
)
from rndunit.channel import evolve_average_series
from rndunit.ensemble import gauss_hermite_ensemble, two_point_ensemble
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


def test_coherence_rate_gaussian_dephasing():
    # |rho_01(t)| = exp(-2 sigma^2 t^2) / 2, so the rate is 4 sigma^2 t
    sigma = 0.3
    p = make_problem(HS_QUBIT, gauss_hermite_ensemble(SZ, sigma, 8), "dephasing")
    ts = integrate(p, PLUS, 2.0, 0.01)
    eig = herm_eig(HS_QUBIT)
    rate = coherence_rate(ts, eig, 0, 1)
    window = (ts.times >= 0.1) & (ts.times <= 2.0)
    expected = 4 * sigma**2 * ts.times[window]
    np.testing.assert_allclose(rate[window], expected, rtol=0.02)
    assert abs(rate[0]) <= 1e-3


def test_coherence_rate_zero_for_unitary():
    states = np.stack(
        [
            np.array([[0.5, 0.5 * np.exp(-1j * t)], [0.5 * np.exp(1j * t), 0.5]])
            for t in np.linspace(0, 1, 11)
        ]
    )
    ts = TimeSeries(times=np.linspace(0, 1, 11), states=states)
    rate = coherence_rate(ts, herm_eig(HS_QUBIT), 0, 1)
    np.testing.assert_allclose(rate, 0.0, atol=1e-10)


def test_coherence_rate_truncates_below_floor():
    times = np.linspace(0.0, 1.0, 11)
    amp = np.where(times < 0.65, 0.5 * np.exp(-times), 1e-14)
    states = np.stack(
        [np.array([[0.5, a], [a, 0.5]], dtype=complex) for a in amp]
    )
    ts = TimeSeries(times=times, states=states)
    with pytest.warns(UserWarning, match="truncated"):
        rate = coherence_rate(ts, herm_eig(HS_QUBIT), 0, 1)
    assert rate.size == np.count_nonzero(times < 0.65)


def test_coherence_rate_index_checks():
    ts = TimeSeries(times=np.array([0.0, 1.0]), states=np.stack([PLUS, PLUS]))
    with pytest.raises(ValueError, match="out of range"):
        coherence_rate(ts, herm_eig(HS_QUBIT), 0, 2)


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
