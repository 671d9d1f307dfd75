"""The channel three ways: average, Kraus, closed dilation."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import PLUS, SX, SZ, random_density, random_hermitian, random_weights

from rndunit.channel import (
    MAX_EMBEDDED_DIM,
    EmbeddedSystem,
    KrausChannel,
    apply_kraus,
    embed,
    evolve_average,
    evolve_average_series,
    evolve_embedded,
    evolve_embedded_series,
    kraus_at,
)
from rndunit.ensemble import DisorderEnsemble, two_point_ensemble
from rndunit.linops import dagger, propagator, trace_distance


def _random_setup(seed, dim=3, size=4):
    rng = np.random.default_rng(seed)
    hams = np.stack([random_hermitian(rng, dim) for _ in range(size)])
    e = DisorderEnsemble(hamiltonians=hams, weights=random_weights(rng, size))
    hs = random_hermitian(rng, dim)
    rho0 = random_density(rng, dim)
    return hs, e, rho0


# --- ensemble average -------------------------------------------------------


def test_average_t0_is_identity_channel():
    hs, e, rho0 = _random_setup(1)
    np.testing.assert_allclose(evolve_average(hs, e, rho0, 0.0), rho0, atol=1e-14)


def test_average_single_realization_is_unitary():
    rng = np.random.default_rng(2)
    hs = random_hermitian(rng, 2)
    hk = random_hermitian(rng, 2)
    e = DisorderEnsemble.from_pairs([(hk, 1.0)])
    rho0 = random_density(rng, 2)
    t = 0.9
    u = propagator(hs + hk, t)
    np.testing.assert_allclose(
        evolve_average(hs, e, rho0, t), u @ rho0 @ dagger(u), atol=1e-13
    )


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_average_output_is_density(seed):
    hs, e, rho0 = _random_setup(seed)
    out = evolve_average(hs, e, rho0, 2.5)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    np.testing.assert_allclose(out, dagger(out), atol=1e-12)
    assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_average_dimension_mismatch():
    e = two_point_ensemble(SZ, 0.5)
    with pytest.raises(ValueError, match="dimension"):
        evolve_average(np.eye(3), e, np.eye(2) / 2, 1.0)
    with pytest.raises(ValueError, match="initial state"):
        evolve_average(0.5 * SZ, e, np.eye(3) / 3, 1.0)


def test_average_series_matches_pointwise():
    hs, e, rho0 = _random_setup(6)
    times = np.linspace(0.0, 3.0, 7)
    series = evolve_average_series(hs, e, rho0, times)
    assert series.shape == (7, 3, 3)
    for i, t in enumerate(times):
        np.testing.assert_allclose(
            series[i], evolve_average(hs, e, rho0, t), atol=1e-12
        )


def test_average_series_rejects_bad_grid():
    hs, e, rho0 = _random_setup(7)
    with pytest.raises(ValueError, match="times"):
        evolve_average_series(hs, e, rho0, np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError, match="times"):
        evolve_average_series(hs, e, rho0, np.array([0.0, np.nan]))


# --- Kraus form -------------------------------------------------------------


def test_kraus_at_t0():
    e = two_point_ensemble(SX, 0.3)
    k = kraus_at(0.5 * SZ, e, 0.0)
    for j in range(2):
        np.testing.assert_allclose(
            k.operators[j], np.sqrt(0.5) * np.eye(2), atol=1e-15
        )


def test_kraus_completeness_enforced():
    bad = np.stack([0.5 * np.eye(2, dtype=complex)])
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel(operators=bad)
    with pytest.raises(ValueError, match="shape"):
        KrausChannel(operators=np.eye(2, dtype=complex))


def test_kraus_matches_average():
    hs, e, rho0 = _random_setup(10)
    for t in (0.4, 2.1):
        k = kraus_at(hs, e, t)
        assert trace_distance(apply_kraus(k, rho0), evolve_average(hs, e, rho0, t)) <= 1e-12


def test_apply_kraus_is_cptp():
    rng = np.random.default_rng(11)
    hs, e, _ = _random_setup(11)
    k = kraus_at(hs, e, 1.3)
    for _ in range(4):
        rho = random_density(rng, 3)
        out = apply_kraus(k, rho)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        np.testing.assert_allclose(out, dagger(out), atol=1e-12)
        assert np.linalg.eigvalsh(out).min() >= -1e-10


# --- closed dilation --------------------------------------------------------


def test_embed_block_structure():
    e = two_point_ensemble(SX, 0.3)
    hs = 0.5 * SZ
    sys = embed(hs, e)
    assert sys.dim_s == 2 and sys.dim_e == 2
    np.testing.assert_array_equal(sys.block(0), hs + 0.3 * SX)
    np.testing.assert_array_equal(sys.block(1), hs - 0.3 * SX)
    off = sys.total_hamiltonian.copy()
    off[:2, :2] = 0
    off[2:, 2:] = 0
    np.testing.assert_array_equal(off, np.zeros((4, 4)))


def test_embed_dimension_cap():
    hams = np.zeros((MAX_EMBEDDED_DIM // 2 + 1, 2, 2), dtype=complex)
    w = np.full(hams.shape[0], 1.0 / hams.shape[0])
    w[0] += 1.0 - w.sum()
    e = DisorderEnsemble(hamiltonians=hams, weights=w)
    with pytest.raises(ValueError, match="exceeds"):
        embed(np.zeros((2, 2)), e)


def test_embedded_system_validation():
    with pytest.raises(ValueError, match="dimension"):
        EmbeddedSystem(
            dim_s=2, dim_e=2, total_hamiltonian=np.eye(3), weights=np.array([0.5, 0.5])
        )
    with pytest.raises(ValueError, match="register"):
        EmbeddedSystem(
            dim_s=2, dim_e=2, total_hamiltonian=np.eye(4), weights=np.array([1.0])
        )


def test_embedded_matches_average():
    hs, e, rho0 = _random_setup(12)
    sys = embed(hs, e)
    for t in (0.0, 0.7, 3.9):
        assert (
            trace_distance(evolve_embedded(sys, rho0, t), evolve_average(hs, e, rho0, t))
            <= 1e-12
        )


def test_three_formulations_agree():
    # the package's central invariant, on an unstructured random instance
    hs, e, rho0 = _random_setup(13, dim=4, size=5)
    t = 1.9
    avg = evolve_average(hs, e, rho0, t)
    red = evolve_embedded(embed(hs, e), rho0, t)
    krs = apply_kraus(kraus_at(hs, e, t), rho0)
    assert trace_distance(avg, red) <= 1e-12
    assert trace_distance(avg, krs) <= 1e-12


def test_embedded_series_matches_pointwise():
    hs, e, rho0 = _random_setup(14)
    sys = embed(hs, e)
    times = np.linspace(0.0, 2.0, 9)
    series = evolve_embedded_series(sys, rho0, times)
    assert series.shape == (9, 3, 3)
    for i, t in enumerate(times):
        np.testing.assert_allclose(series[i], evolve_embedded(sys, rho0, t), atol=1e-12)


def test_embedded_series_chunking_is_invisible():
    hs, e, rho0 = _random_setup(15)
    sys = embed(hs, e)
    times = np.linspace(0.0, 5.0, 23)
    whole = evolve_embedded_series(sys, rho0, times, chunk=1024)
    tiny = evolve_embedded_series(sys, rho0, times, chunk=4)
    np.testing.assert_array_equal(whole, tiny)


def test_qubit_two_point_coherence_recurs():
    # pure dephasing by +-g sigma_z: coherence |cos(2gt)| revives, so the
    # exact channel is visibly non-Markovian
    g = 0.5
    e = two_point_ensemble(SZ, g)
    out = evolve_average(0.5 * SZ, e, PLUS, np.pi / (2 * g))
    assert abs(out[0, 1]) == pytest.approx(0.5, abs=1e-12)
