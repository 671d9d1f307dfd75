"""Generators, closed solutions, and the fixed-step integrator."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import PLUS, SX, SY, SZ, random_density, random_hermitian

from rndunit import ensemble, linops, mastereq
from rndunit.channel import evolve_average
from rndunit.ensemble import (
    DisorderEnsemble,
    center,
    gauss_hermite_ensemble,
    two_point_ensemble,
)
from rndunit.linops import commutator, dagger, herm_eig, max_abs, propagator, trace_distance
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


# --- h_tilde ----------------------------------------------------------------


def test_h_tilde_commuting_is_linear_in_t():
    eig = herm_eig(HS_QUBIT)
    for t in (0.0, 0.4, 3.0):
        np.testing.assert_array_equal(h_tilde(0.3 * SZ, eig, t), t * 0.3 * SZ)


def test_h_tilde_qubit_closed_form():
    # for H_S = sigma_z / 2 the interaction picture of sigma_x precesses:
    # int_0^t (cos s sigma_x + sin s sigma_y) ds
    eig = herm_eig(HS_QUBIT)
    g = 0.7
    for t in (0.0, 0.3, 1.0, np.pi, 7.7):
        want = g * (np.sin(t) * SX + (1.0 - np.cos(t)) * SY)
        np.testing.assert_allclose(h_tilde(g * SX, eig, t), want, atol=1e-14)


def test_h_tilde_is_hermitian():
    rng = np.random.default_rng(31)
    hs = random_hermitian(rng, 4)
    hk = random_hermitian(rng, 4)
    out = h_tilde(hk, herm_eig(hs), 2.3)
    np.testing.assert_allclose(out, dagger(out), atol=1e-13)


def test_h_tilde_against_quadrature():
    # independent oracle: trapezoid over exp(-is H) H_k exp(is H) via expm
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(32)
    hs = random_hermitian(rng, 3)
    hk = random_hermitian(rng, 3)
    t = 1.3
    n = 2000
    s = np.linspace(0.0, t, n + 1)
    vals = np.stack([expm(-1j * si * hs) @ hk @ expm(1j * si * hs) for si in s])
    acc = (t / n) * (0.5 * vals[0] + vals[1:-1].sum(axis=0) + 0.5 * vals[-1])
    assert max_abs(h_tilde(hk, herm_eig(hs), t) - acc) <= 1e-6


def test_h_tilde_input_checks():
    eig = herm_eig(HS_QUBIT)
    with pytest.raises(ValueError, match="dimension"):
        h_tilde(np.eye(3), eig, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        h_tilde(SX, eig, -1.0)


# --- problem construction ---------------------------------------------------


def test_problem_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown generator kind"):
        make_problem(HS_QUBIT, two_point_ensemble(SZ, 0.5), "lindblad")


def test_problem_rejects_uncentered_ensemble():
    biased = DisorderEnsemble.from_pairs([(SZ, 0.7), (-SZ, 0.3)])
    with pytest.raises(ValueError, match="ensemble.center"):
        make_problem(HS_QUBIT, biased, "redfield")
    # centering and folding the mean back restores validity
    mean, fluctuations = center(biased)
    make_problem(HS_QUBIT + mean, fluctuations, "redfield")


def test_problem_zero_mean_scales_with_hs():
    # a static field of 1e5 folded into hs, with fluctuations of order 0.1:
    # centering leaves a mean of rounding size at the scale of the field
    field = 1e5 * (SZ + 0.37 * SX)
    fluctuations = np.array([0.03 * SX, -0.09 * SZ, 0.05 * SX + 0.01 * SZ])
    raw = DisorderEnsemble(hamiltonians=field + fluctuations, weights=[0.2, 0.3, 0.5])
    mean, fluctuations = center(raw)
    assert max_abs(fluctuations.hamiltonians) < 1.0
    make_problem(HS_QUBIT + mean, fluctuations, "redfield")


def test_problem_rejects_negative_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        make_problem(HS_QUBIT, two_point_ensemble(SX, 0.5), "gksl", epsilon=-0.1)


# --- generator oracles ------------------------------------------------------


def test_dephasing_rhs_qubit_oracle():
    # coherence obeys d rho01 / dt = (-i - 4 g^2 t) rho01, populations frozen
    g = 0.5
    p = make_problem(HS_QUBIT, two_point_ensemble(SZ, g), "dephasing")
    rng = np.random.default_rng(34)
    rho = random_density(rng, 2)
    for t in (0.0, 0.7, 2.0):
        out = master_rhs(p, rho, t)
        assert out[0, 1] == pytest.approx((-1j - 4 * g * g * t) * rho[0, 1], rel=1e-13)
        assert out[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert out[1, 1] == pytest.approx(0.0, abs=1e-15)


def test_redfield_equals_dephasing_when_commuting():
    # dephasing is redfield under the commuting guard, bit for bit: on a
    # diagonal H_S, and on a random one with H_k a polynomial in it
    rng = np.random.default_rng(35)
    hs = random_hermitian(rng, 3)
    cases = [
        (HS_QUBIT, gauss_hermite_ensemble(SZ, 0.3, 4), random_density(rng, 2)),
        (hs, two_point_ensemble(0.3 * hs @ hs - 0.2 * hs, 0.4), random_density(rng, 3)),
    ]
    for hs, e, rho in cases:
        p_r = make_problem(hs, e, "redfield")
        p_d = make_problem(hs, e, "dephasing")
        for t in (0.2, 1.1, 4.0, 5.0):
            np.testing.assert_array_equal(master_rhs(p_r, rho, t), master_rhs(p_d, rho, t))


def test_dephasing_rejects_noncommuting():
    with pytest.raises(ValueError, match="commute"):
        make_problem(HS_QUBIT, two_point_ensemble(SX, 0.5), "dephasing")


def test_rhs_trace_free_and_hermiticity_preserving():
    rng = np.random.default_rng(36)
    hs = random_hermitian(rng, 3)
    hams = np.stack([random_hermitian(rng, 3) for _ in range(3)])
    _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(3, 1 / 3)))
    rho = random_density(rng, 3)
    eig = herm_eig(hs)
    t = 0.9
    for kind, eps in (("redfield", 0.0), ("gksl", 0.2)):
        p = make_problem(hs, e, kind, epsilon=eps)
        out = master_rhs(p, rho, t)
        assert abs(np.trace(out)) <= 1e-13
        np.testing.assert_allclose(out, dagger(out), atol=1e-13)
        # the paper's sum over realizations, written without compression
        want = -1j * commutator(hs, rho)
        for k in range(e.size):
            hk = e.hamiltonians[k]
            if kind == "redfield":
                htil = h_tilde(hk, eig, t)
            else:
                g = dagger(eig.basis) @ hk @ eig.basis
                htil = eig.basis @ (g * gksl_resolvent(eig, eps)) @ dagger(eig.basis)
            want = want - e.weights[k] * commutator(hk, commutator(htil, rho))
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-13)


def test_rhs_zero_disorder_is_hamiltonian_motion():
    # g = 0 leaves no second moment: every kind reduces to -i[H_S, rho]
    rho = random_density(np.random.default_rng(41), 2)
    for kind in ("redfield", "dephasing", "gksl"):
        p = make_problem(HS_QUBIT, two_point_ensemble(SX, 0.0), kind)
        for t in (0.0, 1.3):
            np.testing.assert_array_equal(
                master_rhs(p, rho, t), -1j * commutator(HS_QUBIT, rho)
            )


def test_rhs_kind_guards():
    p = make_problem(HS_QUBIT, two_point_ensemble(SZ, 0.5), "dephasing")
    with pytest.raises(ValueError, match="state shape"):
        master_rhs(p, np.eye(3) / 3, 1.0)
    # each kind's guard runs where the problem is built, so no problem that
    # fails it reaches master_rhs or integrate
    with pytest.raises(ValueError, match="commute"):
        make_problem(HS_QUBIT, two_point_ensemble(SX, 0.5), "dephasing")
    with pytest.raises(ValueError, match="degenerate"):
        make_problem(0.3 * np.eye(2), two_point_ensemble(SX, 0.5), "gksl")
    # broadening lifts the degeneracy
    make_problem(0.3 * np.eye(2), two_point_ensemble(SX, 0.5), "gksl", epsilon=0.1)


def test_second_moment_factors_built_once_per_problem(monkeypatch):
    calls = []
    factors = mastereq._second_moment_factors

    def spy(e):
        calls.append(e)
        return factors(e)

    monkeypatch.setattr(mastereq, "_second_moment_factors", spy)
    rng = np.random.default_rng(45)
    hams = np.stack([random_hermitian(rng, 3) for _ in range(3)])
    _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(3, 1 / 3)))
    rho0 = random_density(rng, 3)
    for kind in ("redfield", "gksl"):
        p = make_problem(random_hermitian(rng, 3), e, kind, epsilon=0.1)
        assert len(calls) == 1
        master_rhs(p, rho0, 0.5)
        for representation in REPRESENTATIONS:
            _select(monkeypatch, representation, 3)
            integrate(p, rho0, 0.05, 0.01)
        assert len(calls) == 1
        calls.clear()


def test_commuting_guard_runs_once_per_dephasing_problem(monkeypatch):
    calls = []
    guard = ensemble.require_commuting

    def spy(e, reference):
        calls.append(e)
        return guard(e, reference)

    # both names are patched, so a call through either module is counted
    monkeypatch.setattr(ensemble, "require_commuting", spy)
    monkeypatch.setattr(mastereq, "require_commuting", spy)
    p = make_problem(HS_QUBIT, gauss_hermite_ensemble(SZ, 0.2, 8), "dephasing")
    assert len(calls) == 1
    for t in (0.0, 0.5, 2.0):
        dephasing_analytic(p, PLUS, t)
    master_rhs(p, PLUS, 0.5)
    for representation in REPRESENTATIONS:
        _select(monkeypatch, representation, 2)
        integrate(p, PLUS, 0.05, 0.01)
    assert len(calls) == 1


def test_gksl_resolvent_built_once_per_problem(monkeypatch):
    calls = []
    resolvent = mastereq.gksl_resolvent

    def spy(eig, epsilon):
        calls.append(epsilon)
        return resolvent(eig, epsilon)

    monkeypatch.setattr(mastereq, "gksl_resolvent", spy)
    rng = np.random.default_rng(46)
    hams = np.stack([random_hermitian(rng, 3) for _ in range(3)])
    _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(3, 1 / 3)))
    rho0 = random_density(rng, 3)
    for epsilon in (0.0, 0.1):
        p = make_problem(random_hermitian(rng, 3), e, "gksl", epsilon=epsilon)
        assert calls == [epsilon]
        master_rhs(p, rho0, 0.5)
        for representation in REPRESENTATIONS:
            _select(monkeypatch, representation, 3)
            integrate(p, rho0, 0.05, 0.01)
        assert calls == [epsilon]
        calls.clear()
    make_problem(random_hermitian(rng, 3), e, "redfield")
    assert calls == []


def test_rhs_rejects_nonhermitian_state():
    # the rhs sums the double commutators as B + B+, which needs rho = rho+
    p = make_problem(HS_QUBIT, two_point_ensemble(SX, 0.5), "redfield")
    rho = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        master_rhs(p, rho, 1.0)


# --- gksl -------------------------------------------------------------------


def test_gksl_resolvent_qubit():
    r = gksl_resolvent(herm_eig(HS_QUBIT), 0.0)
    # ascending energies -1/2, +1/2: gap +1 above, -1 below the diagonal
    np.testing.assert_array_equal(r, np.array([[0, 1j], [-1j, 0]]))


def test_gksl_resolvent_broadened():
    eps = 0.3
    r = gksl_resolvent(herm_eig(HS_QUBIT), eps)
    np.testing.assert_allclose(np.diag(r), [1 / eps, 1 / eps], atol=1e-15)
    np.testing.assert_allclose(r[0, 1], 1j / (1.0 + 1j * eps), atol=1e-15)


def test_gksl_resolvent_degenerate_needs_epsilon():
    eig = herm_eig(0.3 * np.eye(2))
    with pytest.raises(ValueError, match="degenerate"):
        gksl_resolvent(eig, 0.0)
    gksl_resolvent(eig, 0.1)


def test_gksl_rhs_qubit_oracle():
    # transverse two-point disorder: Htil_k = +-g sigma_y, so the dissipator
    # collapses to -g^2 [sigma_x, [sigma_y, rho]]
    g = 0.7
    p = make_problem(HS_QUBIT, two_point_ensemble(SX, g), "gksl")
    rng = np.random.default_rng(37)
    for _ in range(3):
        rho = random_density(rng, 2)
        want = -1j * commutator(HS_QUBIT, rho) - g * g * commutator(
            SX, commutator(SY, rho)
        )
        np.testing.assert_allclose(master_rhs(p, rho, 0.0), want, atol=1e-14)


def test_gksl_rhs_time_independent_bitwise():
    p = make_problem(HS_QUBIT, two_point_ensemble(SX, 0.4), "gksl")
    rho = random_density(np.random.default_rng(38), 2)
    np.testing.assert_array_equal(master_rhs(p, rho, 0.0), master_rhs(p, rho, 5.0))


# --- analytic dephasing -----------------------------------------------------


def test_dephasing_analytic_gaussian_envelope():
    sigma = 0.2
    p = make_problem(HS_QUBIT, gauss_hermite_ensemble(SZ, sigma, 16), "dephasing")
    for t in (0.0, 0.5, 2.0, 6.0):
        out = dephasing_analytic(p, PLUS, t)
        assert abs(out[0, 1]) == pytest.approx(
            0.5 * np.exp(-2 * sigma**2 * t**2), rel=1e-10
        )
        assert out[0, 0] == pytest.approx(0.5, abs=1e-13)


def test_dephasing_analytic_t0_identity():
    p = make_problem(HS_QUBIT, two_point_ensemble(SZ, 0.5), "dephasing")
    rho = random_density(np.random.default_rng(39), 2)
    np.testing.assert_allclose(dephasing_analytic(p, rho, 0.0), rho, atol=1e-14)


def test_dephasing_analytic_matches_exact_channel():
    # two-node quadrature reproduces the two-point model, so the analytic
    # Gaussian solution must agree with the averaged unitaries at second order
    sigma = 0.15
    e = gauss_hermite_ensemble(SZ, sigma, 12)
    p = make_problem(HS_QUBIT, e, "dephasing")
    for t in (0.3, 1.0):
        td = trace_distance(
            dephasing_analytic(p, PLUS, t), evolve_average(HS_QUBIT, e, PLUS, t)
        )
        assert td <= 1e-10


def test_integrate_matches_analytic_dephasing():
    p = make_problem(HS_QUBIT, gauss_hermite_ensemble(SZ, 0.3, 8), "dephasing")
    ts = integrate(p, PLUS, 2.0, 0.01)
    worst = max(
        max_abs(ts.states[i] - dephasing_analytic(p, PLUS, float(t)))
        for i, t in enumerate(ts.times)
    )
    assert worst <= 1e-8


# --- integrator -------------------------------------------------------------


def test_integrate_free_evolution():
    # zero disorder: the generator is pure Hamiltonian motion
    e = DisorderEnsemble(hamiltonians=np.zeros((1, 2, 2)), weights=np.array([1.0]))
    p = make_problem(HS_QUBIT, e, "redfield")
    ts = integrate(p, PLUS, 3.0, 0.01)
    u = propagator(HS_QUBIT, 3.0)
    assert max_abs(ts.states[-1] - u @ PLUS @ dagger(u)) <= 1e-9


def test_integrate_grid_and_shapes():
    p = make_problem(HS_QUBIT, two_point_ensemble(SZ, 0.2), "dephasing")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ts = integrate(p, PLUS, 1.0, 0.25)
    np.testing.assert_allclose(ts.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    # the one grid array, which the run's exact series is sampled on too
    np.testing.assert_array_equal(ts.times, mastereq.time_grid(1.0, 0.25))
    assert ts.states.shape == (5, 2, 2)
    np.testing.assert_array_equal(ts.states[0], PLUS)


def test_integrate_t_final_zero():
    p = make_problem(HS_QUBIT, two_point_ensemble(SZ, 0.2), "dephasing")
    ts = integrate(p, PLUS, 0.0, 0.1)
    assert ts.times.shape == (1,)
    np.testing.assert_array_equal(ts.states[0], PLUS)


def test_integrate_fourth_order():
    # halving dt must shrink the error by about 2^4
    p = make_problem(HS_QUBIT, gauss_hermite_ensemble(SZ, 0.3, 8), "dephasing")
    exact = dephasing_analytic(p, PLUS, 1.0)
    e1 = max_abs(integrate(p, PLUS, 1.0, 0.05).states[-1] - exact)
    e2 = max_abs(integrate(p, PLUS, 1.0, 0.025).states[-1] - exact)
    assert 12.0 < e1 / e2 < 20.0


def test_integrate_trace_stays_pinned():
    rng = np.random.default_rng(40)
    hams = np.stack([random_hermitian(rng, 3) for _ in range(3)])
    _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(3, 1 / 3)))
    p = make_problem(random_hermitian(rng, 3), e, "redfield")
    ts = integrate(p, random_density(rng, 3), 2.0, 0.01)
    drifts = np.abs(np.trace(ts.states, axis1=1, axis2=2) - 1.0)
    assert drifts.max() <= 1e-12


def _paper_rk4(hs, e, kind, eps, rho0, t_final, dt):
    # plain RK4 on the uncompressed paper formula, one double commutator per
    # realization, re-Hermitized after every step (integrate Hermitizes once
    # a chunk, which moves its states only at rounding level)
    eig = herm_eig(hs)

    def htil(hk, t):
        if kind == "redfield":
            return h_tilde(hk, eig, t)
        if kind == "dephasing":
            return t * hk
        g = dagger(eig.basis) @ hk @ eig.basis
        return eig.basis @ (g * gksl_resolvent(eig, eps)) @ dagger(eig.basis)

    def rhs(rho, t):
        out = -1j * commutator(hs, rho)
        for k in range(e.size):
            hk = e.hamiltonians[k]
            out = out - e.weights[k] * commutator(hk, commutator(htil(hk, t), rho))
        return out

    states = [rho0]
    rho = rho0
    for i in range(int(round(t_final / dt))):
        t = i * dt
        k1 = rhs(rho, t)
        k2 = rhs(rho + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(rho + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(rho + dt * k3, t + dt)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + dagger(rho))
        states.append(rho)
    return np.stack(states)


# _DENSE_MAX_DIM values that make every d <= 3 integrate with the dense
# Liouvillian or with the factored rhs
REPRESENTATIONS = {"dense": 3, "factored": 0}


def _select(monkeypatch, representation: str, d: int) -> None:
    monkeypatch.setattr(mastereq, "_DENSE_MAX_DIM", REPRESENTATIONS[representation])
    assert (d <= mastereq._DENSE_MAX_DIM) == (representation == "dense")


def _chunk_sizes(monkeypatch) -> dict[str, list[int]]:
    # the steps of each chunk each representation advances, in order, keyed
    # by the representation
    sizes = {}
    for name in ("_propagator", "_dense", "_factored"):

        def spy(p, dt, name=name, build=getattr(mastereq, name)):
            step_tables, step_bytes, advance = build(p, dt)

            def counted(rho, tables, block):
                sizes.setdefault(name, []).append(len(block))
                return advance(rho, tables, block)

            return step_tables, step_bytes, counted

        monkeypatch.setattr(mastereq, name, spy)
    return sizes


# budgets beside numpy's buffers, dense then factored, and the
# representation that runs with its chunks of the 100 steps below: a
# time-dependent kernel's tables take 7776 bytes a step dense and 1008
# factored (r = 2). A fixed kernel's step holds only its 144-byte rotation
# buffer, so it takes a smaller budget to split the steps; it is stepped by
# its propagator where the budget holds P's build (6480 bytes at d = 3),
# whatever _DENSE_MAX_DIM, and factored below that
CHUNKS = {
    "redfield": ((16_000, 16_000), (("_dense", 50), ("_factored", 7))),
    "dephasing": ((16_000, 16_000), (("_dense", 50), ("_factored", 7))),
    "gksl": ((7_200, 2_000), (("_propagator", 2), ("_factored", 8))),
}


@pytest.mark.parametrize("kind", ["redfield", "dephasing", "gksl"])
def test_integrate_matches_paper_formula_across_chunks(kind, monkeypatch):
    rng = np.random.default_rng(42)
    hs = random_hermitian(rng, 3)
    if kind == "dephasing":
        # disorder diagonal in the eigenbasis of H_S commutes with it
        v = herm_eig(hs).basis
        hams = np.stack([v @ np.diag(rng.normal(size=3)) @ dagger(v) for _ in range(3)])
    else:
        hams = np.stack([random_hermitian(rng, 3) for _ in range(3)])
    _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(3, 1 / 3)))
    p = make_problem(hs, e, kind, epsilon=0.2 if kind == "gksl" else 0.0)
    rho0 = random_density(rng, 3)
    want = _paper_rk4(hs, e, kind, p.epsilon, rho0, 1.0, 0.01)
    assert p.factors.shape[0] == 2
    budgets, chunks = CHUNKS[kind]
    sizes = _chunk_sizes(monkeypatch)
    runs = []
    for representation, budget in zip(REPRESENTATIONS, budgets):
        monkeypatch.setattr(linops, "WORKSPACE_BYTES", linops.buffer_bytes(2) + budget)
        _select(monkeypatch, representation, 3)
        sizes.clear()
        ts = integrate(p, rho0, 1.0, 0.01)
        np.testing.assert_allclose(ts.states, want, rtol=0, atol=1e-13, err_msg=representation)
        ((ran, steps),) = sizes.items()
        assert sum(steps) == 100
        runs.append((ran, len(steps)))
    assert tuple(runs) == chunks


def test_integrate_reads_a_fixed_kernel_from_the_problem(monkeypatch):
    # the kernel is never probed on an empty grid to learn whether it is
    # fixed: the problem says so
    rng = np.random.default_rng(43)
    hams = np.stack([random_hermitian(rng, 3) for _ in range(3)])
    _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(3, 1 / 3)))
    rho0 = random_density(rng, 3)
    for kind in ("redfield", "gksl"):
        p = make_problem(random_hermitian(rng, 3), e, kind, epsilon=0.2)
        assert p.fixed_kernel == (kind == "gksl")
        grids = []
        kernel = p.kernel
        object.__setattr__(p, "kernel", lambda ts: grids.append(ts.size) or kernel(ts))
        for representation in REPRESENTATIONS:
            _select(monkeypatch, representation, 3)
            grids.clear()
            integrate(p, rho0, 0.5, 0.01)
            assert grids and min(grids) > 0, (kind, representation)
    # a fixed kernel whose propagator's build is over the budget is stepped
    # factored, and its chunks hold only their rotation buffers: at d = 12
    # and r = 59 the tables of a time-dependent kernel would take 279 kB a
    # step, over the whole budget of 256 KiB beside numpy's buffers
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", linops.buffer_bytes(2) + 2**18)
    d, n = 12, 60
    hams = np.stack([random_hermitian(rng, d) for _ in range(n)])
    _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(n, 1 / n)))
    p = make_problem(random_hermitian(rng, d), e, "gksl", epsilon=0.2)
    assert p.factors.shape[0] == n - 1
    sizes = _chunk_sizes(monkeypatch)
    _select(monkeypatch, "factored", d)
    integrate(p, random_density(rng, d), 0.025, 0.005)
    assert list(sizes) == ["_factored"]
    assert sum(sizes["_factored"]) == 5 and len(sizes["_factored"]) < 5


@pytest.mark.parametrize("kind", ["redfield", "gksl"])
@pytest.mark.parametrize("representation", list(REPRESENTATIONS))
def test_integrate_tabulates_only_grid_points_and_midpoints(kind, representation, monkeypatch):
    # both representations tabulate the kernel at the grid times and their
    # midpoints only, and the table at the end of one step is the one at the
    # start of the next: a chunk tabulates its grid points and midpoints in
    # two calls, 2 rows a step and 1 a chunk, and a fixed kernel one row in all
    rng = np.random.default_rng(45)
    hams = np.stack([random_hermitian(rng, 3) for _ in range(3)])
    _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(3, 1 / 3)))
    p = make_problem(random_hermitian(rng, 3), e, kind, epsilon=0.2)
    seen = []
    kernel = p.kernel
    object.__setattr__(p, "kernel", lambda ts: seen.append(ts.copy()) or kernel(ts))
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", linops.buffer_bytes(3) + 16_000)
    _select(monkeypatch, representation, 3)
    dt = 0.01  # k dt + dt is not (k + 1) dt for 19 of these 200 steps
    grid = mastereq.time_grid(2.0, dt)
    integrate(p, random_density(rng, 3), 2.0, dt)
    rows = np.concatenate(seen)
    assert np.isin(rows, np.concatenate([grid, grid[:-1] + 0.5 * dt])).all()
    if kind == "gksl":
        assert rows.size == 1
    else:
        assert len(seen) > 2
        assert rows.size == 2 * (grid.size - 1) + len(seen) // 2


def test_integrate_keeps_rho0_bitwise(monkeypatch):
    # non-diagonal H_S: both representations run in its eigenbasis, but
    # store states[0] as given and every later state bitwise Hermitian
    rng = np.random.default_rng(44)
    hams = np.stack([random_hermitian(rng, 3) for _ in range(2)])
    _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(2, 0.5)))
    p = make_problem(random_hermitian(rng, 3), e, "redfield")
    assert max_abs(p.hs - np.diag(np.diag(p.hs))) > 0.1
    rho0 = random_density(rng, 3)
    for representation in REPRESENTATIONS:
        _select(monkeypatch, representation, 3)
        ts = integrate(p, rho0, 0.1, 0.01)
        np.testing.assert_array_equal(ts.states[0], rho0, err_msg=representation)
        later = ts.states[1:]
        np.testing.assert_array_equal(
            later, later.conj().swapaxes(1, 2), err_msg=representation
        )


@pytest.mark.parametrize("budget", [2**20, 2**19], ids=["1MiB", "512KiB"])
@pytest.mark.parametrize("kind", ["redfield", "gksl"])
@pytest.mark.parametrize(
    ("dim", "terms", "steps"), [(4, 16, 4000), (8, 1, 2000)], ids=["dense", "factored"]
)
def test_integrate_keeps_to_the_budget(dim, terms, steps, kind, budget, monkeypatch):
    # from the chunk loop on, beside the states, the grid and what was built
    # once (the dense affine matrix or the factor rows, a fixed kernel's
    # table), the chunks' tables and rotation buffers and numpy's buffers stay
    # within the budget: d = 4 on 16 full-rank terms (r = 15), and d = 8 on
    # one, gauss-d8's shape
    rng = np.random.default_rng(47)
    if terms == 1:
        e = two_point_ensemble(random_hermitian(rng, dim), 0.3)
    else:
        hams = 0.1 * np.stack([random_hermitian(rng, dim) for _ in range(terms)])
        _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(terms, 1 / terms)))
    p = make_problem(0.2 * random_hermitian(rng, dim), e, kind, epsilon=0.2)
    assert (dim <= mastereq._DENSE_MAX_DIM) == (terms > 1)
    assert p.factors.shape[0] == max(1, terms - 1)
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", budget)
    held = []
    chunks = linops.chunks

    def start(count, item_size, budget):
        if count == steps:
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return chunks(count, item_size, budget)

    monkeypatch.setattr(linops, "chunks", start)
    rho0 = random_density(rng, dim)
    tracemalloc.start()
    try:
        integrate(p, rho0, steps * 0.01, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) == 1
    assert peak - held[0] <= linops.WORKSPACE_BYTES


def _gauss_d8_shape(rng, kind: str):
    # the benchmark's gauss-d8 shape: d = 8, H_S of spectral radius 4 and
    # disorder 0.5 B along one base B of spectral radius 1 (r = 1)
    def unit(h):
        return h / np.max(np.abs(np.linalg.eigvalsh(h)))

    hs = 4.0 * unit(random_hermitian(rng, 8))
    return make_problem(hs, two_point_ensemble(unit(random_hermitian(rng, 8)), 0.5), kind)


def test_fixed_propagator_matches_the_factored_steps(monkeypatch):
    # gksl at gauss-d8's shape steps by its one propagator at the shipped
    # budget, and factored at a budget one byte below P's build
    rng = np.random.default_rng(48)
    p = _gauss_d8_shape(rng, "gksl")
    assert p.factors.shape[0] == 1
    rho0 = random_density(rng, 8)
    sizes = _chunk_sizes(monkeypatch)
    propagated = integrate(p, rho0, 10.0, 0.01).states
    below = mastereq._PROPAGATOR_ARRAYS * 16 * 8**4 - 1
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", linops.buffer_bytes(2) + below)
    factored = integrate(p, rho0, 10.0, 0.01).states
    assert list(sizes) == ["_propagator", "_factored"]
    np.testing.assert_allclose(propagated, factored, rtol=0, atol=1e-13)


@pytest.mark.parametrize("budget", [2**20, 2**19], ids=["1MiB", "512KiB"])
@pytest.mark.parametrize(("dim", "terms"), [(4, 16), (8, 1)])
def test_fixed_propagator_is_built_and_stepped_within_the_budget(dim, terms, budget, monkeypatch):
    # a fixed kernel's propagator is built within the budget, beside what
    # integrate held before (its states, the grid), and its chunks are
    # stepped within it beside P: d = 4 on 16 full-rank terms (r = 15), and
    # d = 8 on one, where P's build fits 1 MiB but not 512 KiB, so the
    # factored steps run there
    rng = np.random.default_rng(49)
    if terms == 1:
        p = _gauss_d8_shape(rng, "gksl")
    else:
        hams = 0.1 * np.stack([random_hermitian(rng, dim) for _ in range(terms)])
        _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(terms, 1 / terms)))
        p = make_problem(0.2 * random_hermitian(rng, dim), e, "gksl", epsilon=0.2)
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", budget)
    steps = 2000
    marks = []
    chunks = linops.chunks

    def start(count, item_size, budget):
        if count == steps:
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
        return chunks(count, item_size, budget)

    monkeypatch.setattr(linops, "chunks", start)
    sizes = _chunk_sizes(monkeypatch)
    rho0 = random_density(rng, dim)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        integrate(p, rho0, steps * 0.01, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ((held, build_peak),) = marks
    states_and_grid = (steps + 1) * (16 * dim * dim + 8)
    assert build_peak - before - states_and_grid <= budget
    assert peak - held <= budget
    assert list(sizes) == ["_factored" if (dim, budget) == (8, 2**19) else "_propagator"]


def test_dense_liouvillian_is_built_within_the_workspace():
    # past the (d^2 + 1) x d^4 matrix it keeps (0.73 MiB at d = 6), building
    # the dense Liouvillian holds at most one workspace budget: its rows are
    # written in the matrix's own buffer
    rng = np.random.default_rng(46)
    d, n = 6, 16
    hams = np.stack([random_hermitian(rng, d) for _ in range(n)])
    _, e = center(DisorderEnsemble(hamiltonians=hams, weights=np.full(n, 1 / n)))
    p = make_problem(random_hermitian(rng, d), e, "redfield")
    assert d <= mastereq._DENSE_MAX_DIM and p.factors.shape[0] == n - 1
    tracemalloc.start()
    try:
        tables = mastereq._make_liouvillian(p)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held >= (d**2 + 1) * d**4 * 16
    assert peak - held <= linops.WORKSPACE_BYTES
    assert tables(np.array([0.0, 0.5])).shape == (2, d * d, d * d)


def test_integrate_warns_on_coarse_dt():
    p = make_problem(HS_QUBIT, two_point_ensemble(SZ, 0.2), "dephasing")
    with pytest.warns(UserWarning, match="resolves the fastest"):
        integrate(p, PLUS, 1.0, 0.2)


def test_integrate_phase_warning_ignores_a_constant_shift():
    # the generator sees only the gaps E_m - E_n: shifting H_S by 10 takes
    # max|E| to 10.5, but changes neither the coherence nor the warning
    e = two_point_ensemble(SZ, 0.3)
    coherence = []
    for shift in (0.0, 10.0):
        p = make_problem(HS_QUBIT + shift * np.eye(2), e, "dephasing")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coherence.append(abs(integrate(p, PLUS, 1.0, 0.01).states[-1, 0, 1]))
    assert coherence[1] == pytest.approx(coherence[0], rel=0, abs=1e-12)


def test_integrate_warns_on_grid_mismatch():
    p = make_problem(HS_QUBIT, two_point_ensemble(SZ, 0.2), "dephasing")
    with pytest.warns(UserWarning, match="not a multiple"):
        ts = integrate(p, PLUS, 1.0, 0.07)
    assert ts.times[-1] == pytest.approx(0.98)


def test_integrate_aborts_on_blowup(monkeypatch):
    p = make_problem(HS_QUBIT, two_point_ensemble(SZ, 1e4), "dephasing")
    for representation in REPRESENTATIONS:
        _select(monkeypatch, representation, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(RuntimeError, match="step"):
                integrate(p, PLUS, 10.0, 1.0)


def test_integrate_input_checks():
    p = make_problem(HS_QUBIT, two_point_ensemble(SZ, 0.2), "dephasing")
    with pytest.raises(ValueError, match="dt"):
        integrate(p, PLUS, 1.0, 0.0)
    with pytest.raises(ValueError, match="t_final"):
        integrate(p, PLUS, -1.0, 0.1)
    with pytest.raises(ValueError, match="overflows"):
        integrate(p, PLUS, 1e300, 1e-300)
    with pytest.raises(ValueError, match="initial state"):
        integrate(p, np.eye(2), 1.0, 0.1)


def test_time_series_validation():
    with pytest.raises(ValueError, match="increasing"):
        TimeSeries(times=np.array([0.0, 0.0]), states=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="samples"):
        TimeSeries(times=np.array([0.0, 1.0]), states=np.zeros((3, 2, 2)))


# --- physics cross-checks ---------------------------------------------------


def test_redfield_tracks_exact_at_short_times():
    # transverse disorder, non-commuting: valid up to a fraction of the
    # Heisenberg time (here 1 / gap = 1)
    g = 0.3
    e = two_point_ensemble(SX, g)
    p = make_problem(HS_QUBIT, e, "redfield")
    ts = integrate(p, PLUS, 0.1, 0.001)
    worst = max(
        trace_distance(ts.states[i], evolve_average(HS_QUBIT, e, PLUS, float(t)))
        for i, t in enumerate(ts.times)
    )
    assert worst <= 1e-6


def test_redfield_positivity_is_not_guaranteed():
    # document, not assert: the time-local equation can leave the state cone.
    # The run below stays normalized and finite; its minimum eigenvalue is
    # printed for the record.
    p = make_problem(HS_QUBIT, two_point_ensemble(SX, 0.8), "redfield")
    ts = integrate(p, PLUS, 6.0, 0.01)
    eigs = np.linalg.eigvalsh(ts.states)
    print(f"redfield min eigenvalue over the run: {eigs.min():+.3e}")
    assert np.isfinite(ts.states).all()
    drifts = np.abs(np.trace(ts.states, axis1=1, axis2=2) - 1.0)
    assert drifts.max() <= 1e-12
