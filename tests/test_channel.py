"""The channel three ways: average, Kraus, closed dilation."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from conftest import PLUS, SX, SZ, random_density, random_hermitian, random_weights

from rndunit import channel, linops
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
from rndunit.ensemble import (
    DisorderEnsemble,
    gauss_hermite_ensemble,
    two_point_ensemble,
)
from rndunit.linops import (
    DEFAULT_TOL,
    WORKSPACE_BYTES,
    dagger,
    partial_trace_env,
    propagator,
    require_density,
    trace_distance,
)


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
    with pytest.raises(ValueError, match="initial state dimension"):
        evolve_average_series(0.5 * SZ, e, np.eye(3) / 3, [0.0, 1.0])


def test_average_series_matches_pointwise():
    hs, e, rho0 = _random_setup(6)
    times = np.linspace(0.0, 3.0, 7)
    series = evolve_average_series(hs, e, rho0, times)
    assert series.shape == (7, 3, 3)
    for i, t in enumerate(times):
        np.testing.assert_allclose(
            series[i], evolve_average(hs, e, rho0, t), atol=1e-12
        )


def test_average_series_is_bitwise_hermitian():
    hs, e, rho0 = _random_setup(8)
    series = evolve_average_series(hs, e, rho0, np.linspace(0.0, 4.0, 37))
    diag = np.arange(3)
    mirrored = np.conj(series.swapaxes(1, 2))
    mirrored.imag[:, diag, diag] = 0.0  # conj turns +0.0 into -0.0 there
    bits = series.view(np.uint64)
    assert np.array_equal(bits, np.ascontiguousarray(mirrored).view(np.uint64))
    assert not np.ascontiguousarray(series.imag[:, diag, diag]).view(np.uint64).any()


def _average_bytes(d):
    # evolve_average_series's temporaries per realization and sample, and
    # per sample, and numpy's buffers beside a chunk: np.getbufsize()
    # complex elements for each of the phases' two broadcast operands
    return 32 * d * (d + 1), 32 * d * d, 2 * 16 * np.getbufsize()


@pytest.mark.parametrize(
    ("rows", "realizations"),
    [(1, 5), (4, 5), (23, 5), (1, 2)],
    ids=["1", "4", "23", "1-blocks-of-2"],
)
def test_average_series_chunks_match_pointwise(rows, realizations, monkeypatch):
    # d = 3, five explicit terms, a full-rank rho0: this budget splits the 23
    # samples every rows samples, and a sample's five realizations into
    # blocks of realizations
    hs, e, rho0 = _random_setup(9, dim=3, size=5)
    assert np.linalg.eigvalsh(rho0).min() > 1e-3
    realization, sample, buffers = _average_bytes(3)
    budget = buffers + rows * (sample + realizations * realization)
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", budget)
    splits = {}
    chunks = linops.chunks

    def recorded(count, item_size, budget):
        slices = list(chunks(count, item_size, budget))
        splits[count] = [sl.stop - sl.start for sl in slices]
        return iter(slices)

    monkeypatch.setattr(linops, "chunks", recorded)
    times = np.linspace(0.0, 6.0, 23)
    series = evolve_average_series(hs, e, rho0, times)
    for count, step in ((23, rows), (5, realizations)):
        assert splits[count] == [min(step, count - i) for i in range(0, count, step)]
    for i, t in enumerate(times):
        np.testing.assert_allclose(
            series[i], evolve_average(hs, e, rho0, t), rtol=0, atol=1e-13
        )


def _average_peak(hs, e, rho0, times):
    """The series, and its tracemalloc peak beyond it and the arrays the
    stage holds: the form's V_k, V_k+ and b_k, 3 n d^2 complex, the n d
    energies, and four d x d complex for hs, rho0, the last realization's
    eigensystem and the triangle's indices."""
    tracemalloc.start()
    try:
        series = evolve_average_series(hs, e, rho0, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    d, n = e.dim, e.size
    return series, peak - series.nbytes - n * d * (48 * d + 8) - 4 * 16 * d * d


def test_average_series_workspace_is_bounded(monkeypatch):
    # 16 terms at d = 4 over 2001 samples, at half the shipped budget: half
    # of it goes to numpy's buffers, and the chunks keep the rest of the
    # stage within the other half
    hs, e, rho0 = _random_setup(10, dim=4, size=16)
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", 512 * 1024)
    assert linops.WORKSPACE_BYTES == 2 * _average_bytes(4)[2]
    _, beyond = _average_peak(hs, e, rho0, np.linspace(0.0, 10.0, 2001))
    assert beyond <= linops.WORKSPACE_BYTES


@pytest.mark.parametrize(
    ("dim", "size", "steps"), [(2, 32, 2001), (4, 16, 2001), (8, 32, 1001), (16, 256, 11)]
)
def test_average_series_keeps_to_the_shipped_budget(dim, size, steps):
    # small systems on long grids, whose chunks fill the budget as counted,
    # numpy's buffers included, and a sample over realization blocks
    hs, e, rho0 = _random_setup(13, dim=dim, size=size)
    _, beyond = _average_peak(hs, e, rho0, np.linspace(0.0, 10.0, steps))
    assert beyond <= WORKSPACE_BYTES


def test_average_series_at_d24_keeps_to_the_budget():
    # d = 24 on 32 realizations, where a table over the Bohr frequencies of
    # every realization took 91.6 MiB: one sample's realizations take 0.6 MiB,
    # and the stage holds at most the budget beside its output and its
    # 0.84 MiB of fixed arrays
    hs, e, rho0 = _random_setup(11, dim=24, size=32)
    times = np.linspace(0.0, 2.0, 21)
    series, beyond = _average_peak(hs, e, rho0, times)
    assert beyond <= WORKSPACE_BYTES
    for i in (1, 20):
        np.testing.assert_allclose(
            series[i], evolve_average(hs, e, rho0, times[i]), rtol=0, atol=1e-12
        )


def test_average_series_realization_blocks_keep_to_the_budget(monkeypatch):
    # d = 16 on 256 realizations at half the shipped budget: one sample's
    # realizations would take 2.1 MiB, so each sample is summed over 9 blocks
    # of at most 29, and the stage holds at most the budget beside its
    # output and fixed arrays
    hs, e, rho0 = _random_setup(12, dim=16, size=256)
    times = np.linspace(0.0, 3.0, 11)
    whole = evolve_average_series(hs, e, rho0, times)
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", 512 * 1024)
    realization, sample, buffers = _average_bytes(16)
    assert 256 * realization > 2 * 2**20
    assert (linops.WORKSPACE_BYTES - buffers - sample) // realization == 29
    series, beyond = _average_peak(hs, e, rho0, times)
    assert beyond <= linops.WORKSPACE_BYTES
    np.testing.assert_allclose(series, whole, rtol=0, atol=1e-14)


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
    with pytest.raises(ValueError, match="non-negative"):
        EmbeddedSystem(total_hamiltonian=np.eye(4), weights=np.array([1.5, -0.5]))
    # the register dimension is read from the weights
    sys = EmbeddedSystem(total_hamiltonian=np.eye(6), weights=np.array([0.5, 0.5]))
    assert (sys.dim_s, sys.dim_e) == (3, 2)
    # 3 levels cannot be split over 2 register states
    with pytest.raises(ValueError, match="dimension 3 is not a multiple of the 2"):
        EmbeddedSystem(total_hamiltonian=np.eye(3), weights=np.array([0.5, 0.5]))


def test_embedded_system_refuses_unnormalized_weights():
    # register weights of total 10 would scale every output state by 10
    total = np.kron(np.eye(2), SZ)
    with pytest.raises(ValueError, match="sum to 1"):
        EmbeddedSystem(total_hamiltonian=total, weights=[5.0, 5.0])
    sys = EmbeddedSystem(total_hamiltonian=total, weights=[0.25, 0.75])
    states = evolve_embedded_series(sys, PLUS, np.array([0.0, 0.4]))
    np.testing.assert_allclose(np.trace(states, axis1=1, axis2=2), 1.0, rtol=0, atol=1e-14)


def test_embedded_matches_average():
    hs, e, rho0 = _random_setup(12)
    sys = embed(hs, e)
    for t in (0.0, 0.7, 3.9):
        assert (
            trace_distance(evolve_embedded(sys, rho0, t), evolve_average(hs, e, rho0, t))
            <= 1e-12
        )


def test_partial_trace_reads_the_dilation_layout():
    # embed puts the register as the slow factor, and partial_trace_env
    # traces that layout: reading the system as the slow factor instead gave
    # diag(0.5, 0.5) here, 0.42 off the ensemble average
    hs, e = 0.5 * SZ, two_point_ensemble(SX, 0.4)
    sys = embed(hs, e)
    u = propagator(sys.total_hamiltonian, 1.3)
    total = u @ np.kron(np.diag(sys.weights), PLUS) @ dagger(u)
    np.testing.assert_allclose(
        partial_trace_env(total, sys.dim_s, sys.dim_e),
        evolve_average(hs, e, PLUS, 1.3),
        rtol=0,
        atol=1e-14,
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
    # the series evolves a factor of rho0; the dense pointwise dilation is the
    # oracle for a full-rank, a rank-1 and a slightly non-positive rho0
    hs, e, mixed = _random_setup(14)
    plus = np.full((3, 3), 1.0 / 3, dtype=complex)
    u = np.linalg.qr(mixed)[0]
    signed = require_density(u @ np.diag([0.6, 0.4 + 5e-11, -5e-11]) @ dagger(u))
    sys = embed(hs, e)
    times = np.linspace(0.0, 2.0, 9)
    for rho0 in (mixed, plus, signed):
        series = evolve_embedded_series(sys, rho0, times)
        assert series.shape == (9, 3, 3)
        for i, t in enumerate(times):
            np.testing.assert_allclose(
                series[i], evolve_embedded(sys, rho0, t), rtol=0, atol=1e-12
            )


def test_embedded_series_chunking_is_invisible(monkeypatch):
    # a budget of numpy's buffers and k times 16 (N + d^2 + 2 N r) bytes holds
    # k samples of r factor columns. A rank-1 rho0 gives one column per
    # sample, so k = 1 and the one-sample tail of k = 2 are one-row products
    hs, e, mixed = _random_setup(15)
    plus = np.full((3, 3), 1.0 / 3, dtype=complex)
    sys = embed(hs, e)
    n = sys.dim_s * sys.dim_e
    times = np.linspace(0.0, 5.0, 23)
    sizes = []
    chunks = linops.chunks

    def recorded(count, item_size, budget):
        slices = list(chunks(count, item_size, budget))
        if count == times.size:
            sizes.extend(sl.stop - sl.start for sl in slices)
        return iter(slices)

    monkeypatch.setattr(linops, "chunks", recorded)
    for rho0, rank in ((mixed, 3), (plus, 1)):
        sizes.clear()
        whole = evolve_embedded_series(sys, rho0, times)
        assert sizes == [times.size]
        for k in (1, 2, 4):
            sizes.clear()
            budget = linops.buffer_bytes(2) + k * 16 * (n + sys.dim_s**2 + 2 * n * rank)
            with monkeypatch.context() as m:
                m.setattr(linops, "WORKSPACE_BYTES", budget)
                part = evolve_embedded_series(sys, rho0, times)
            assert max(sizes) == k and sum(sizes) == times.size
            np.testing.assert_array_equal(whole, part)


@pytest.mark.parametrize("budget", [2**20, 2**19], ids=["1MiB", "512KiB"])
@pytest.mark.parametrize("rank", ["pure", "full"])
@pytest.mark.parametrize(("dim", "size", "steps"), [(2, 32, 2001), (4, 16, 2001), (8, 32, 1001)])
def test_embedded_series_loop_keeps_to_the_budget(dim, size, steps, rank, budget, monkeypatch):
    # from herm_eig's return on, the stage holds its output, V, the energies
    # and G^T beside the loop, whose chunks of phases and factor columns and
    # numpy's buffers stay within the budget (small systems on long grids,
    # whose chunks fill it as counted)
    hs, e, rho0 = _random_setup(19, dim=dim, size=size)
    if rank == "pure":
        rho0 = np.full((dim, dim), 1.0 / dim, dtype=complex)
    sys = embed(hs, e)
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", budget)
    held = []
    eig = channel.herm_eig

    def reset(h):
        result = eig(h)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return result

    monkeypatch.setattr(channel, "herm_eig", reset)
    tracemalloc.start()
    try:
        series = evolve_embedded_series(sys, rho0, np.linspace(0.0, 10.0, steps))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    factor = 16 * dim * size * (1 if rank == "pure" else dim)
    assert peak - held[0] - series.nbytes - factor <= linops.WORKSPACE_BYTES


def test_embedded_series_workspace_is_bounded():
    # a full-rank rho0 gives the widest factor, r = d; unchunked, the
    # temporaries of these 2001 samples would take 26 MB
    hs, e, rho0 = _random_setup(16, dim=4, size=16)
    sys = embed(hs, e)
    n = sys.dim_s * sys.dim_e
    tracemalloc.start()
    try:
        series = evolve_embedded_series(sys, rho0, np.linspace(0.0, 1.0, 2001))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the chunks stay within the budget, and herm_eig with its checks, V, G
    # and the output come on top: measured 5.9 MB in all, 2.5 MB under the
    # budget alone; allowed the output and 4 N x N complex arrays
    fixed = series.nbytes + 4 * n * n * 16
    assert peak <= WORKSPACE_BYTES + fixed


def test_embedded_series_splits_a_sample_over_budget(monkeypatch):
    # full-rank rho0, N = 640, r = 4 columns a sample; a budget of one
    # sample's phases and three columns' temporaries sums them in blocks
    # of 3 and 1
    hs, e, rho0 = _random_setup(17, dim=4, size=160)
    sys = embed(hs, e)
    n = sys.dim_s * sys.dim_e
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", 16 * n * (1 + 3 * 3))
    times = np.array([0.0, 0.7, 1.5])
    tracemalloc.start()
    try:
        series = evolve_embedded_series(sys, rho0, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # herm_eig's V and its checks' row blocks set the peak: measured at
    # 1.06 N x N complex arrays
    fixed = 3.25 * n * n * 16
    assert peak <= linops.WORKSPACE_BYTES + fixed
    for i, t in enumerate(times):
        np.testing.assert_allclose(
            series[i], evolve_embedded(sys, rho0, t), rtol=0, atol=1e-12
        )


def test_embedded_series_fixed_memory_is_v_and_check_rows():
    # full-rank rho0, N = 640: H_tot exists before, so the stage holds V, the
    # checks' row blocks (the budget) and small arrays, measured at 1.16
    # N x N complex arrays at the shipped budget
    hs, e, rho0 = _random_setup(17, dim=4, size=160)
    sys = embed(hs, e)
    n = sys.dim_s * sys.dim_e
    tracemalloc.start()
    try:
        evolve_embedded_series(sys, rho0, np.array([0.0, 0.7, 1.5]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * n * n * 16 + WORKSPACE_BYTES


def test_embedded_series_sees_a_coupling_between_registers():
    # the register starts pure, so a coupling eps between two registers,
    # which the block structure forbids, moves the series at first order in
    # eps; a mixed register diag(p) would hide it to second order
    hs, e, rho0 = _random_setup(18, dim=3, size=4)
    d = e.dim
    k, l = np.argsort(e.weights)[-2:]
    assert e.weights[[k, l]].min() >= 0.1
    sys = embed(hs, e)
    times = np.linspace(0.0, 4.0, 41)
    exact = evolve_average_series(hs, e, rho0, times)

    def gap(eps):
        total = sys.total_hamiltonian.copy()
        total[k * d, l * d + 1] += eps
        total[l * d + 1, k * d] += eps
        coupled = EmbeddedSystem(total_hamiltonian=total, weights=sys.weights)
        return trace_distance(exact, evolve_embedded_series(coupled, rho0, times)).max()

    assert gap(0.0) <= 1e-12
    assert gap(1e-8) > DEFAULT_TOL.equivalence


def _zero_weight_ensemble():
    hs, e, rho0 = _random_setup(19, dim=3, size=4)
    weights = e.weights.copy()
    weights[0] += weights[2]
    weights[2] = 0.0
    return hs, DisorderEnsemble(hamiltonians=e.hamiltonians, weights=weights), rho0


def _gauss_hermite_32():
    e = gauss_hermite_ensemble(SX, 0.3, 32)
    assert e.weights.min() < 1e-22
    return 0.5 * SZ, e, PLUS


@pytest.mark.parametrize("setup", [_zero_weight_ensemble, _gauss_hermite_32])
def test_embedded_series_matches_pointwise_at_tiny_populations(setup):
    # the pure register holds sqrt(p_k); a zero or a 4e-23 population must
    # still reproduce the mixed register's dilation
    hs, e, rho0 = setup()
    sys = embed(hs, e)
    times = np.linspace(0.0, 3.0, 7)
    series = evolve_embedded_series(sys, rho0, times)
    for i, t in enumerate(times):
        np.testing.assert_allclose(
            series[i], evolve_embedded(sys, rho0, t), rtol=0, atol=1e-12
        )


def test_qubit_two_point_coherence_recurs():
    # pure dephasing by +-g sigma_z: coherence |cos(2gt)| revives, so the
    # exact channel is visibly non-Markovian
    g = 0.5
    e = two_point_ensemble(SZ, g)
    out = evolve_average(0.5 * SZ, e, PLUS, np.pi / (2 * g))
    assert abs(out[0, 1]) == pytest.approx(0.5, abs=1e-12)
