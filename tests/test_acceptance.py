"""Acceptance suite: the eight shipping criteria, one printed verdict each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines;
each test also enforces its runtime budget.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import PLUS, SX, SZ, random_density, random_hermitian, random_weights

from rndunit.analysis import compare, heisenberg_time, purity
from rndunit.channel import (
    apply_kraus,
    embed,
    evolve_average_series,
    evolve_embedded_series,
    kraus_at,
)
from rndunit.cli import main
from rndunit.ensemble import DisorderEnsemble, gauss_hermite_ensemble, two_point_ensemble
from rndunit.linops import dagger, herm_eig, max_abs, trace_distance
from rndunit.mastereq import (
    TimeSeries,
    dephasing_analytic,
    gksl_resolvent,
    h_tilde,
    integrate,
    make_problem,
    master_rhs,
)

HS_QUBIT = 0.5 * SZ


def _verdict(number: int, label: str, failures: list[str], elapsed: float) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {number} ({label}): {status} [{elapsed:.2f} s]")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_1_three_formulations_agree():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(101)
    hs = random_hermitian(rng, 2)
    e = gauss_hermite_ensemble(SX, 0.3, 8)
    rho0 = random_density(rng, 2)
    times = 0.1 * np.arange(101)

    avg = evolve_average_series(hs, e, rho0, times)
    emb = evolve_embedded_series(embed(hs, e), rho0, times)
    gap_embedded = max(
        trace_distance(avg[i], emb[i]) for i in range(times.size)
    )
    gap_kraus = max(
        trace_distance(avg[i], apply_kraus(kraus_at(hs, e, float(t)), rho0))
        for i, t in enumerate(times)
    )
    if gap_embedded > 1e-10:
        failures.append(f"average vs embedded trace distance {gap_embedded:.3e} > 1e-10")
    if gap_kraus > 1e-12:
        failures.append(f"average vs Kraus trace distance {gap_kraus:.3e} > 1e-12")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 1 s")
    _verdict(1, "three-formulation equivalence", failures, elapsed)


def test_criterion_2_gaussian_dephasing_exact():
    started = time.perf_counter()
    failures = []
    sigma = 0.2
    e = gauss_hermite_ensemble(SZ, sigma, 32)
    p = make_problem(HS_QUBIT, e, "dephasing")

    ts = integrate(p, PLUS, 10.0, 1e-3)
    target = 0.5 * np.exp(-2.0 * sigma**2 * ts.times**2)
    dev_integrated = np.max(np.abs(np.abs(ts.states[:, 0, 1]) - target))

    exact = evolve_average_series(HS_QUBIT, e, PLUS, ts.times)
    dev_exact = np.max(np.abs(np.abs(exact[:, 0, 1]) - target))

    sub = slice(None, None, 10)  # every 0.01 still covers [0, 10] densely
    analytic = np.array(
        [abs(dephasing_analytic(p, PLUS, float(t))[0, 1]) for t in ts.times[sub]]
    )
    dev_analytic = np.max(np.abs(analytic - target[sub]))

    for name, dev in (
        ("exact channel", dev_exact),
        ("analytic solution", dev_analytic),
        ("integrated equation", dev_integrated),
    ):
        if dev > 1e-6:
            failures.append(f"{name} deviates from the Gaussian envelope by {dev:.3e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 5 s")
    _verdict(2, "Gaussian dephasing exactness", failures, elapsed)


def test_criterion_3_heisenberg_breakdown():
    started = time.perf_counter()
    failures = []
    g = 0.5
    e = two_point_ensemble(SZ, g)
    p = make_problem(HS_QUBIT, e, "dephasing")

    ts = integrate(p, PLUS, 5.0, 0.01)
    exact_states = evolve_average_series(HS_QUBIT, e, PLUS, ts.times)
    exact_coh = np.abs(exact_states[:, 0, 1])
    me_coh = np.abs(ts.states[:, 0, 1])
    cos_form = 0.5 * np.abs(np.cos(2.0 * g * ts.times))
    gauss_form = 0.5 * np.exp(-2.0 * g * g * ts.times**2)
    if np.max(np.abs(exact_coh - cos_form)) > 1e-10:
        failures.append("exact coherence does not follow |cos(2gt)|/2")
    if np.max(np.abs(me_coh - gauss_form)) > 1e-6:
        failures.append("master-equation coherence does not follow the Gaussian")

    early = ts.times <= 0.2
    dev_early = np.max(np.abs(exact_coh[early] - me_coh[early]))
    if dev_early > 1e-3:
        failures.append(f"short-time disagreement {dev_early:.3e} > 1e-3 for t <= 0.2")

    report = compare(TimeSeries(times=ts.times, states=exact_states), ts)
    if report.breakdown_time is None or not (0.5 <= report.breakdown_time <= 2.5):
        failures.append(f"breakdown time {report.breakdown_time} outside [0.5, 2.5]")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 1 s")
    _verdict(3, "Heisenberg-time breakdown", failures, elapsed)


def test_criterion_4_cptp_property_suite():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(104)
    times = np.linspace(0.0, 3.0, 16)
    worst = {"trace": 0.0, "eig": 0.0, "unital": 0.0, "purity": -np.inf}
    for case in range(20):
        dim = int(rng.choice([2, 3, 4]))
        size = int(rng.integers(2, 17))
        hams = np.stack([random_hermitian(rng, dim) for _ in range(size)])
        e = DisorderEnsemble(hamiltonians=hams, weights=random_weights(rng, size))
        hs = random_hermitian(rng, dim)
        rho0 = random_density(rng, dim)

        states = evolve_average_series(hs, e, rho0, times)
        traces = np.trace(states, axis1=1, axis2=2)
        worst["trace"] = max(worst["trace"], float(np.max(np.abs(traces - 1.0))))
        worst["eig"] = max(
            worst["eig"], float(-np.linalg.eigvalsh(states).min())
        )
        p0 = purity(rho0)
        purities = np.einsum("tij,tji->t", states, states).real
        worst["purity"] = max(worst["purity"], float(np.max(purities - p0)))

        mixed = np.eye(dim, dtype=complex) / dim
        unital = evolve_average_series(hs, e, mixed, times)
        worst["unital"] = max(
            worst["unital"], float(np.max(np.abs(unital - mixed[None])))
        )
    if worst["trace"] > 1e-12:
        failures.append(f"trace drift {worst['trace']:.3e} > 1e-12")
    if worst["eig"] > 1e-10:
        failures.append(f"negative eigenvalue {worst['eig']:.3e} beyond 1e-10")
    if worst["unital"] > 1e-12:
        failures.append(f"unitality residual {worst['unital']:.3e} > 1e-12")
    if worst["purity"] > 1e-12:
        failures.append(f"purity grows by {worst['purity']:.3e} > 1e-12")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 10 s")
    _verdict(4, "CPTP property suite", failures, elapsed)


def _trapezoid_oracle(hs: np.ndarray, h_lam: np.ndarray, t: float) -> np.ndarray:
    # brute-force the defining integral with raw numpy, 1e4 panels
    n = 10_000
    energies, basis = np.linalg.eigh(hs)
    s = np.linspace(0.0, t, n + 1)
    phase = np.exp(-1j * np.outer(s, energies))
    u = (basis[None, :, :] * phase[:, None, :]) @ basis.conj().T
    integrand = u @ h_lam[None] @ u.conj().transpose(0, 2, 1)
    return (t / n) * (
        0.5 * integrand[0] + integrand[1:-1].sum(axis=0) + 0.5 * integrand[-1]
    )


def test_criterion_5_h_tilde_closed_form():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(105)
    worst_quad = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        hs = random_hermitian(rng, dim, scale=0.5)
        h_lam = random_hermitian(rng, dim, scale=0.5)
        t = float(rng.uniform(0.3, 1.5))
        diff = max_abs(h_tilde(h_lam, herm_eig(hs), t) - _trapezoid_oracle(hs, h_lam, t))
        worst_quad = max(worst_quad, diff)
    if worst_quad > 1e-8:
        failures.append(f"quadrature mismatch {worst_quad:.3e} > 1e-8")

    worst_comm = 0.0
    for _ in range(5):
        hs = random_hermitian(rng, 3)
        h_lam = hs @ hs + 0.3 * hs  # commutes with hs by construction
        t = float(rng.uniform(0.1, 3.0))
        worst_comm = max(worst_comm, max_abs(h_tilde(h_lam, herm_eig(hs), t) - t * h_lam))
    if worst_comm > 1e-14:
        failures.append(f"commuting case deviates from t * H by {worst_comm:.3e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 2.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 2 s")
    _verdict(5, "interaction-picture integral closed form", failures, elapsed)


def test_criterion_6_gksl_structure():
    started = time.perf_counter()
    failures = []
    r = gksl_resolvent(herm_eig(HS_QUBIT), 0.0)
    if r[0, 1] != 1j or r[1, 0] != -1j:
        failures.append(f"qubit resolvent entries {r[0, 1]}, {r[1, 0]} != +i, -i")

    p = make_problem(HS_QUBIT, two_point_ensemble(SX, 0.4), "gksl")
    rho = random_density(np.random.default_rng(106), 2)
    a = master_rhs(p, rho, 0.0)
    b = master_rhs(p, rho, 0.0)
    if not np.array_equal(a, b):
        failures.append("generator is not bitwise reproducible")

    try:
        gksl_resolvent(herm_eig(np.eye(2, dtype=complex)), 0.0)
    except ValueError as err:
        if "degenerate" not in str(err):
            failures.append(f"degenerate error lacks context: {err}")
    else:
        failures.append("degenerate spectrum at epsilon = 0 did not raise")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 1 s")
    _verdict(6, "Markov-limit structure", failures, elapsed)


def test_criterion_7_redfield_consistency():
    started = time.perf_counter()
    failures = []
    # commuting disorder: the two generators are the same equation
    e_comm = gauss_hermite_ensemble(SZ, 0.3, 8)
    final_r = integrate(make_problem(HS_QUBIT, e_comm, "redfield"), PLUS, 2.0, 0.01).states[-1]
    final_d = integrate(make_problem(HS_QUBIT, e_comm, "dephasing"), PLUS, 2.0, 0.01).states[-1]
    gap_comm = trace_distance(final_r, final_d)
    if gap_comm > 1e-10:
        failures.append(f"commuting Redfield vs dephasing gap {gap_comm:.3e} > 1e-10")

    # non-commuting disorder: track the exact channel below the Heisenberg time
    e_perp = two_point_ensemble(SX, 0.3)
    tau = heisenberg_time(herm_eig(HS_QUBIT))
    ts = integrate(make_problem(HS_QUBIT, e_perp, "redfield"), PLUS, 0.1 * tau, 1e-3)
    exact = evolve_average_series(HS_QUBIT, e_perp, PLUS, ts.times)
    worst = max(trace_distance(exact[i], ts.states[i]) for i in range(ts.times.size))
    if worst > 1e-3:
        failures.append(f"short-time Redfield error {worst:.3e} > 1e-3")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 5 s")
    _verdict(7, "Redfield consistency", failures, elapsed)


def test_criterion_8_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    failures = []
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    for out in (first, second):
        code = main(["demo", "gaussian-dephasing", "--output", str(out), "--quiet"])
        if code != 0:
            failures.append(f"demo exited with {code}")
            break
    if not failures and first.read_bytes() != second.read_bytes():
        failures.append("two identical demo runs produced different CSV bytes")
    _verdict(8, "end-to-end determinism", failures, time.perf_counter() - started)
