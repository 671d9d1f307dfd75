"""Disorder ensembles: centering, quadrature discretization, correlators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import PLUS, SX, SZ, random_hermitian, random_unitary, random_weights

from rndunit.channel import evolve_average, evolve_average_series
from rndunit.ensemble import (
    ENSEMBLE_LAWS,
    DisorderEnsemble,
    ExplicitLaw,
    GaussianLaw,
    TwoPointLaw,
    center,
    gauss_hermite_ensemble,
    mean_hamiltonian,
    mean_vanishes,
    require_commuting,
    two_point_ensemble,
)
from rndunit.linops import trace_distance
from rndunit.mastereq import dephasing_analytic, make_problem


def test_ensemble_validation():
    with pytest.raises(ValueError, match="weights must sum to 1"):
        DisorderEnsemble(hamiltonians=np.stack([SZ, SX]), weights=np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="non-negative"):
        DisorderEnsemble(hamiltonians=np.stack([SZ, SX]), weights=np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="realization 1"):
        DisorderEnsemble(
            hamiltonians=np.stack([SZ, np.array([[0.0, 1.0], [0.0, 0.0]])]),
            weights=np.array([0.5, 0.5]),
        )
    with pytest.raises(ValueError, match="at least one"):
        DisorderEnsemble.from_pairs([])


def test_from_pairs_preserves_order():
    e = DisorderEnsemble.from_pairs([(0.3 * SZ, 0.25), (SX, 0.75)])
    np.testing.assert_array_equal(e.hamiltonians[0], 0.3 * SZ)
    np.testing.assert_array_equal(e.hamiltonians[1], SX)
    np.testing.assert_array_equal(e.weights, [0.25, 0.75])


def test_mean_hamiltonian_weighted():
    e = DisorderEnsemble.from_pairs([(2.0 * SZ, 0.5), (np.zeros((2, 2)), 0.5)])
    np.testing.assert_array_equal(mean_hamiltonian(e), SZ)


def test_center_symmetric_ensemble_untouched():
    e = two_point_ensemble(SZ, 0.5)
    mean, fluctuations = center(e)
    np.testing.assert_array_equal(mean, np.zeros((2, 2)))
    np.testing.assert_array_equal(fluctuations.hamiltonians, e.hamiltonians)


def test_center_single_realization():
    h = 0.75 * SZ + 0.5 * SX
    mean, fluctuations = center(DisorderEnsemble.from_pairs([(h, 1.0)]))
    np.testing.assert_array_equal(mean, h)
    np.testing.assert_array_equal(fluctuations.hamiltonians[0], np.zeros((2, 2)))


def test_center_offset_exactly_removed():
    # dyadic entries so the mean split is exact in floating point
    e = DisorderEnsemble.from_pairs([(2.0 * SZ, 0.5), (np.zeros((2, 2)), 0.5)])
    mean, fluctuations = center(e)
    np.testing.assert_array_equal(mean, SZ)
    np.testing.assert_array_equal(fluctuations.hamiltonians[0], SZ)
    np.testing.assert_array_equal(fluctuations.hamiltonians[1], -SZ)
    # pairwise sums reproduce the originals
    for k in range(e.size):
        np.testing.assert_array_equal(mean + fluctuations.hamiltonians[k], e.hamiltonians[k])


def test_center_idempotent():
    rng = np.random.default_rng(21)
    hams = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    e = DisorderEnsemble(hamiltonians=hams, weights=random_weights(rng, 4))
    _, once = center(e)
    mean, twice = center(once)
    np.testing.assert_array_equal(mean, np.zeros((3, 3)))
    np.testing.assert_array_equal(twice.hamiltonians, once.hamiltonians)


def test_mean_vanishes_scales_with_the_offset():
    # the residual mean of a centered ensemble is rounding at the scale of
    # the largest of 1, the realizations and the offset the ensemble sits on
    e = DisorderEnsemble.from_pairs([(SZ + 1e-11 * SX, 0.5), (-SZ, 0.5)])
    assert not mean_vanishes(e)
    assert mean_vanishes(e, offset=1e2 * SZ)
    assert not mean_vanishes(e, offset=0.5 * SZ)
    big = DisorderEnsemble.from_pairs([(1e2 * SZ + 1e-11 * SX, 0.5), (-1e2 * SZ, 0.5)])
    assert mean_vanishes(big)


def test_centered_ensemble_on_a_large_field():
    # +-1e5 (SZ + 0.3 SX), slightly unequal weights: the mean 2 (SZ + 0.3 SX)
    # is removed, and the rounding left is far below 1e-12 of the realizations
    h = 1e5 * (SZ + 0.3 * SX)
    mean, _ = center(DisorderEnsemble.from_pairs([(h, 0.50001), (-h, 0.49999)]))
    np.testing.assert_allclose(mean, 2.0 * (SZ + 0.3 * SX), rtol=1e-9)


def test_center_leaves_dynamics_invariant():
    rng = np.random.default_rng(22)
    hams = np.stack([random_hermitian(rng, 2) for _ in range(3)])
    e = DisorderEnsemble(hamiltonians=hams, weights=random_weights(rng, 3))
    hs = random_hermitian(rng, 2)
    mean, fluctuations = center(e)
    for t in (0.3, 1.7):
        a = evolve_average(hs, e, PLUS, t)
        b = evolve_average(hs + mean, fluctuations, PLUS, t)
        assert trace_distance(a, b) <= 1e-12


def test_gauss_hermite_two_nodes():
    e = gauss_hermite_ensemble(SZ, 0.3, 2)
    # two-node rule: lambda = +-sigma, weight 1/2 each
    np.testing.assert_allclose(e.weights, [0.5, 0.5], atol=1e-15)
    lams = np.array([float(h[0, 0].real) for h in e.hamiltonians])
    np.testing.assert_allclose(np.sort(lams), [-0.3, 0.3], atol=1e-15)


@pytest.mark.parametrize("n_nodes", [1, 2, 3, 8, 32])
def test_gauss_hermite_weights_normalized(n_nodes):
    e = gauss_hermite_ensemble(SZ, 0.7, n_nodes)
    assert np.all(e.weights > 0)
    assert abs(e.weights.sum() - 1.0) <= 1e-12


def test_gauss_hermite_moments_three_nodes():
    # 3 nodes integrate polynomials to degree 5 exactly against N(0, sigma^2)
    sigma = 0.4
    e = gauss_hermite_ensemble(SZ, sigma, 3)
    lams = e.hamiltonians[:, 0, 0].real
    expected = {0: 1.0, 1: 0.0, 2: sigma**2, 3: 0.0, 4: 3 * sigma**4, 5: 0.0}
    for k, target in expected.items():
        assert np.dot(e.weights, lams**k) == pytest.approx(target, abs=1e-14)


def test_gauss_hermite_refuses_an_overflowing_rule():
    # numpy's 400-node rule overflows to NaN weights; its RuntimeWarnings
    # would fail the test, so the rule must be built without any
    with pytest.raises(ValueError, match="n_nodes = 400"):
        gauss_hermite_ensemble(SZ, 0.1, 400)


@pytest.mark.parametrize("n_nodes", [2, 5, 16])
def test_gauss_hermite_second_moment_exact(n_nodes):
    sigma = 1.3
    e = gauss_hermite_ensemble(SZ, sigma, n_nodes)
    lams = e.hamiltonians[:, 0, 0].real
    assert np.dot(e.weights, lams**2) == pytest.approx(sigma**2, rel=1e-13)


def test_gauss_hermite_exact_until_solves_the_bound():
    # t_q is where n! / (2^n (2n)!) a^(2n), a = 2 sqrt(2) sigma t |base|,
    # reaches the error; it sees sigma and the spectral norm of base only
    t_q = GaussianLaw(SZ, 0.2, 32).exact_until(1e-3)
    a = 2 * math.sqrt(2) * 0.2 * t_q
    bound = math.factorial(32) / (2**32 * math.factorial(64)) * a**64
    assert bound == pytest.approx(1e-3, rel=1e-9)
    assert GaussianLaw(2 * SX, 0.1, 32).exact_until(1e-3) == pytest.approx(t_q, rel=1e-12)
    assert GaussianLaw(SZ, 0.4, 32).exact_until(1e-3) == pytest.approx(t_q / 2, rel=1e-12)
    assert GaussianLaw(SZ, 0.2, 64).exact_until(1e-3) > t_q
    # (2n)! overflows a double from n = 86; the bound is solved in logs
    assert math.isfinite(GaussianLaw(SZ, 0.2, 300).exact_until(1e-3))
    assert GaussianLaw(SZ, 0.0, 32).exact_until(1e-3) == math.inf


def _gauss_d8_law() -> tuple[np.ndarray, GaussianLaw]:
    # the benchmark's gauss-d8 scenario at seed 1: H_S of spectral radius 4
    # and a base of spectral radius 1, from default_rng([1, 8]), with
    # sigma = 0.5 on 32 nodes
    rng = np.random.default_rng([1, 8])

    def unit(h):
        return h / np.max(np.abs(np.linalg.eigvalsh(h)))

    hs = 4.0 * unit(random_hermitian(rng, 8))
    return hs, GaussianLaw(unit(random_hermitian(rng, 8)), 0.5, 32)


@pytest.mark.parametrize("scenario", ["demo", "gauss-d8"])
def test_exact_until_precedes_the_doubling_estimate(scenario):
    # the a-posteriori estimate |Q_n - Q_2n| of the n-node rule's error, the
    # trace distance between the n- and 2n-node averages, first exceeds
    # 1e-3 no earlier than the a-priori t_q: at 20.10 against 15.48 on the
    # gaussian-dephasing demo, and at 18.10 against 6.19 on gauss-d8
    if scenario == "demo":
        hs, law, t_final = 0.5 * SZ, GaussianLaw(SZ, 0.2, 32), 40.0
    else:
        (hs, law), t_final = _gauss_d8_law(), 20.0
    d = hs.shape[0]
    rho0 = np.full((d, d), 1.0 / d, dtype=complex)  # the "plus" preset
    times = np.arange(round(t_final / 0.05) + 1) * 0.05
    doubled = GaussianLaw(law.base, law.sigma, 2 * law.n_nodes)
    estimate = trace_distance(
        evolve_average_series(hs, law.build(), rho0, times),
        evolve_average_series(hs, doubled.build(), rho0, times),
    )
    crossing = times[np.argmax(estimate > 1e-3)]
    assert estimate.max() > 1e-3  # the estimate does cross within the grid
    assert law.exact_until(1e-3) <= crossing


@pytest.mark.parametrize("n_nodes", [4, 8, 32])
def test_commuting_series_meets_the_gaussian_law_within_the_bound(n_nodes):
    # B = sigma_z commutes with H_S = sigma_z / 2, so the Gaussian average
    # is known in closed form: the populations stay, and the coherence of
    # |+> is e^(-it) e^(-2 sigma^2 t^2) / 2. Up to t_q the n-node series is
    # within the a-priori bound n! / (2^n (2n)!) a^(2n), a = 2 sqrt(2) sigma
    # t, in trace norm, beside rounding
    sigma = 0.2
    law = GaussianLaw(SZ, sigma, n_nodes)
    times = np.linspace(0.0, law.exact_until(1e-3), 2001)
    coherence = 0.5 * np.exp(-1j * times) * np.exp(-2 * sigma**2 * times**2)
    gaussian = np.empty((times.size, 2, 2), dtype=complex)
    gaussian[:, 0, 0] = gaussian[:, 1, 1] = 0.5
    gaussian[:, 0, 1], gaussian[:, 1, 0] = coherence, coherence.conj()
    series = evolve_average_series(0.5 * SZ, law.build(), PLUS, times)
    error = 2.0 * trace_distance(series, gaussian)
    a = 2 * math.sqrt(2) * sigma * times
    bound = math.factorial(n_nodes) / (2**n_nodes * math.factorial(2 * n_nodes)) * a ** (2 * n_nodes)
    assert bound[-1] == pytest.approx(1e-3, rel=1e-9)
    assert np.all(error <= bound + 1e-14)


def test_law_knows_its_size_before_it_builds():
    # a scenario is admitted on the law's size before the law is built
    laws = [
        ExplicitLaw(((SZ, 0.25), (SX, 0.5), (-SZ, 0.25))),
        GaussianLaw(SZ, 0.2, 7),
        TwoPointLaw(SX, 0.3),
    ]
    assert sorted(law.type for law in laws) == sorted(ENSEMBLE_LAWS)
    for law in laws:
        assert law.size == law.build().size
        assert ENSEMBLE_LAWS[law.type] is type(law)
    # only the Gauss-Hermite rule stands for a law it does not hold exactly
    assert math.isfinite(laws[1].exact_until(1e-3))
    assert laws[0].exact_until(1e-3) == laws[2].exact_until(1e-3) == math.inf


def test_two_point_structure():
    e = two_point_ensemble(SX, 0.25)
    np.testing.assert_array_equal(e.weights, [0.5, 0.5])
    np.testing.assert_array_equal(e.hamiltonians[0], 0.25 * SX)
    np.testing.assert_array_equal(e.hamiltonians[1], -0.25 * SX)


# C2[n, m] = sum_k p_k (E_n^k - E_m^k)^2 with E_n^k = <n|H_k|n>, the second
# moment of the level shifts of commuting disorder, is read through the closed
# dephasing solution, whose eigenbasis coherences decay as exp(-t^2 C2 / 2)


def _c2_from_envelope(p, t: float) -> np.ndarray:
    """C2 recovered from the coherence decay of dephasing_analytic at time t."""
    d = p.dim
    v = p.eig.basis
    rho0 = v @ np.full((d, d), 1.0 / d, dtype=complex) @ v.conj().T  # all coherences 1/d
    out = v.conj().T @ dephasing_analytic(p, rho0, t) @ v
    return -2.0 * np.log(d * np.abs(out)) / t**2


def test_c2_two_point_qubit():
    g = 0.5
    p = make_problem(0.5 * SZ, two_point_ensemble(SZ, g), "dephasing")
    for t in (0.3, 1.0, 2.0):
        out = dephasing_analytic(p, PLUS, t)
        # C2[0, 1] = 4 g^2, and the populations do not move
        assert abs(out[0, 1]) == pytest.approx(0.5 * np.exp(-2 * g * g * t * t), rel=1e-14)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert out[1, 1] == pytest.approx(0.5, abs=1e-15)


def test_c2_gaussian_matches_variance():
    sigma = 0.2
    p = make_problem(0.5 * SZ, gauss_hermite_ensemble(SZ, sigma, 8), "dephasing")
    assert _c2_from_envelope(p, 2.0)[0, 1] == pytest.approx(4 * sigma**2, rel=1e-13)


def test_c2_matrix_symmetric_nonnegative():
    # commuting disorder in a rotated eigenbasis: C2 read from the problem's
    # second-moment factors equals the sum over the realizations
    rng = np.random.default_rng(23)
    u = random_unitary(rng, 3)
    shifts = rng.normal(size=(5, 3))
    hams = np.stack([(u * row) @ u.conj().T for row in shifts])
    _, e = center(DisorderEnsemble(hamiltonians=hams, weights=random_weights(rng, 5)))
    p = make_problem((u * [0.0, 1.0, 3.0]) @ u.conj().T, e, "dephasing")
    level = shifts - np.dot(e.weights, shifts)  # the centered level shifts
    want = np.einsum("k,knm->nm", e.weights, (level[:, :, None] - level[:, None, :]) ** 2)
    mat = _c2_from_envelope(p, 0.7)
    np.testing.assert_allclose(mat, want, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(mat, mat.T, atol=1e-13)
    assert np.all(mat >= -1e-13)
    np.testing.assert_allclose(np.diag(mat), 0.0, atol=1e-13)


def test_c2_rejects_noncommuting():
    # C2 needs disorder that commutes with hs: a dephasing problem refuses
    # any other, and the closed solution takes dephasing problems only
    with pytest.raises(ValueError, match="realization 0"):
        make_problem(0.5 * SZ, two_point_ensemble(SX, 0.5), "dephasing")
    p = make_problem(0.5 * SZ, two_point_ensemble(SX, 0.5), "redfield")
    with pytest.raises(ValueError, match="expected 'dephasing'"):
        dephasing_analytic(p, PLUS, 1.0)


def test_require_commuting_scale_invariant():
    e = two_point_ensemble(SZ, 1e-8)
    require_commuting(e, 1e8 * SZ)
    with pytest.raises(ValueError, match="commute"):
        require_commuting(two_point_ensemble(SX, 1e-8), 1e8 * SZ)
