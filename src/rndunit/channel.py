"""Random-unitary channels three equivalent ways.

A static-disorder ensemble {(H_k, p_k)} generates the dynamical map

    rho(t) = sum_k p_k U_k(t) rho(0) U_k(t)+,   U_k(t) = exp(-it(H_S + H_k)),

which is simultaneously an ensemble average over unitary evolutions, a
Kraus channel with operators sqrt(p_k) U_k(t), and the reduced dynamics
of a closed system-environment pair with a block-diagonal total
Hamiltonian. All three are implemented here; agreeing results across
them is the main correctness cross-check of the whole package.

The averaged series over a time grid is a sum over the Bohr frequencies
w = E_a - E_b of every realization. One table exp(-itw) over the pairs
a < b, times one coefficient matrix, gives the upper triangle of every
sample; the lower triangle is its mirrored conjugate, so the series is
Hermitian bit for bit, as the re-Hermitized generator series are. The
table is built a chunk of samples at a time, within a small share of
linops.WORKSPACE_BYTES, so the stage holds little more than its output.

The dilation over a time grid never forms a composite density matrix. Its
total Hamiltonian sum_k (H_S + H_k) (x) |k><k| commutes with every register
projector, so the reduced dynamics see the register state only through its
populations p_k: the pure register |e> = sum_k sqrt(p_k) |k> gives the same
channel as diag(p), whose cross terms |k><l| never reach the system's
trace. With rho0 = sum_m lam_m |q_m><q_m| the composite initial state
|e><e| (x) rho0 is a signed sum over the r columns |e> (x) |q_m>, r the
number of kept eigenvalues. Only those columns are evolved, with one
eigendecomposition of the whole dense total Hamiltonian (N = d n): one
N x N x r product per sample instead of two N^3 products. A coupling
between registers, which the block structure forbids, moves the result at
first order in its size, where a mixed register would hide it to second
order. Eigenvalues are dropped only while their total magnitude stays
within 1e-3 of the equivalence budget, which moves the result by at most
half that in trace distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linops
from .ensemble import DisorderEnsemble
from .linops import (
    DEFAULT_TOL,
    dagger,
    herm_eig,
    max_abs,
    partial_trace_env,
    propagator,
    require_density,
    require_hermitian,
    require_probabilities,
    require_unitary,
)

__all__ = [
    "MAX_EMBEDDED_DIM",
    "MAX_SERIES_BYTES",
    "KrausChannel",
    "EmbeddedSystem",
    "evolve_average",
    "evolve_average_series",
    "require_embeddable",
    "require_series_fit",
    "embed",
    "evolve_embedded",
    "evolve_embedded_series",
    "kraus_at",
    "apply_kraus",
]

# Dense-only implementation: the composite dimension d_S * d_E is capped so
# an accidental large ensemble cannot allocate a huge total Hamiltonian.
MAX_EMBEDDED_DIM = 4096

# A run holds its time grid and every series whole, one (d, d) complex state
# per grid point and series, for comparison and the CSV. Their predicted size
# is capped so a tiny dt cannot ask for more memory than a workstation has;
# the run's transient copies come on top, so the cap sits well below that.
MAX_SERIES_BYTES = 2**30

# evolve_average_series keeps the temporaries of a chunk of samples (its
# frequency table and upper triangles) within this share of
# linops.WORKSPACE_BYTES. A quarter of it ran faster at d = 8, n = 32
# (48 against 83 ms for 1001 samples) but raised the stage's peak for a
# 32-node qubit ensemble from 0.20 to 0.65 MiB, above the 0.38 MiB of the
# per-realization sum over (T, d, d) arrays that this replaced
_TABLE_SHARE = 64


@dataclass(frozen=True)
class KrausChannel:
    """Kraus operators (n, d, d) with sum_k K_k+ K_k = 1 within tolerance."""

    operators: np.ndarray

    def __post_init__(self) -> None:
        ops = np.asarray(self.operators, dtype=np.complex128)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"operators must have shape (n, d, d), got {ops.shape}")
        if ops.shape[0] == 0:
            raise ValueError("channel needs at least one Kraus operator")
        if not np.isfinite(ops).all():
            raise ValueError("Kraus operators contain non-finite entries")
        completeness = np.einsum("lba,lbc->ac", ops.conj(), ops)
        defect = max_abs(completeness - np.eye(ops.shape[1]))
        if defect > DEFAULT_TOL.unitary:
            raise ValueError(
                f"Kraus completeness violated: |sum K+K - 1|_max = {defect:.3e}"
            )
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    @property
    def size(self) -> int:
        return self.operators.shape[0]


@dataclass(frozen=True)
class EmbeddedSystem:
    """Closed dilation: block-diagonal total Hamiltonian over the register.

    The environment register index k is the slow tensor factor, so block k
    (rows and columns k*dim_s .. (k+1)*dim_s) equals H_S + H_k and everything
    off those blocks is exactly zero.
    """

    dim_s: int
    dim_e: int
    total_hamiltonian: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        dim_s, dim_e = int(self.dim_s), int(self.dim_e)
        if dim_s < 1 or dim_e < 1:
            raise ValueError("dimensions must be positive")
        total = require_hermitian(self.total_hamiltonian, name="total Hamiltonian")
        if total.shape[0] != dim_s * dim_e:
            raise ValueError(
                f"total Hamiltonian dimension {total.shape[0]} != dim_s * dim_e"
            )
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (dim_e,):
            raise ValueError("weights must have one entry per register state")
        require_probabilities(weights)
        object.__setattr__(self, "dim_s", dim_s)
        object.__setattr__(self, "dim_e", dim_e)
        object.__setattr__(self, "total_hamiltonian", total)
        object.__setattr__(self, "weights", weights)

    def block(self, k: int) -> np.ndarray:
        """The k-th diagonal block H_S + H_k."""
        d = self.dim_s
        return self.total_hamiltonian[k * d : (k + 1) * d, k * d : (k + 1) * d]


def _check_inputs(hs, e: DisorderEnsemble):
    hs = require_hermitian(hs, name="system Hamiltonian")
    if hs.shape[0] != e.dim:
        raise ValueError(
            f"system dimension {hs.shape[0]} does not match ensemble dimension {e.dim}"
        )
    return hs


def _check_state(rho, dim: int, owner: str, name: str = "initial state") -> np.ndarray:
    rho = require_density(rho, name=name)
    if rho.shape[0] != dim:
        raise ValueError(f"{name} dimension does not match the {owner}")
    return rho


def evolve_average(hs, e: DisorderEnsemble, rho0, t: float) -> np.ndarray:
    """Ensemble-averaged state sum_k p_k U_k(t) rho0 U_k(t)+, summed in order."""
    hs = _check_inputs(hs, e)
    rho0 = _check_state(rho0, e.dim, "ensemble")
    out = np.zeros_like(rho0)
    for k in range(e.size):
        u = propagator(hs + e.hamiltonians[k], t)
        out += e.weights[k] * (u @ rho0 @ dagger(u))
    return out


def evolve_average_series(hs, e: DisorderEnsemble, rho0, times) -> np.ndarray:
    """Ensemble-averaged states over a whole time grid, shape (T, d, d).

    Each realization is eigendecomposed once, H_S + H_k = V_k diag(E_k) V_k+.
    With b_k = V_k+ rho0 V_k the average is a sum over Bohr frequencies,

        rho(t)_ij = sum_(k, a, b) p_k b_k[a, b] V_k[i, a] conj(V_k[j, b])
                    exp(-it (E_k[a] - E_k[b])),

    so one frequency table exp(-it w) times one coefficient matrix gives the
    upper triangle i <= j of every sample. The terms a = b are constant and
    those of a > b are the conjugate phases of a < b, so the table holds
    only the n d (d - 1) / 2 phases with a < b, and the lower triangle is
    mirrored as the conjugate of the upper one: the series is Hermitian
    bit for bit, with diagonal imaginary parts +0.0. Times go in chunks
    whose table and triangles stay within 1 / _TABLE_SHARE of
    linops.WORKSPACE_BYTES (at least one sample); the split moves the
    result by rounding only, since the product's summation order may
    depend on the number of rows.
    """
    hs = _check_inputs(hs, e)
    rho0 = _check_state(rho0, e.dim, "ensemble")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0 or not np.isfinite(times).all():
        raise ValueError("times must be a non-empty finite 1d array")
    d = e.dim
    upper, lower = np.triu_indices(d, 1)  # frequency pairs a < b
    rows, cols = np.triu_indices(d)  # output entries i <= j
    pairs = upper.size
    freqs = np.empty((e.size, pairs))
    # per pair a < b, the coefficients of cos(t w) and of -sin(t w): the
    # terms exp(-itw) f_ab + exp(itw) f_ba are cos(tw) (f_ab + f_ba)
    # + (-sin(tw)) i (f_ab - f_ba), so in the table's (re, im) layout one
    # real product gives them all
    coeffs = np.empty((e.size, pairs, 2, rows.size), dtype=np.complex128)
    constant = np.zeros(rows.size, dtype=np.complex128)
    for k in range(e.size):
        eig = herm_eig(hs + e.hamiltonians[k])
        v = eig.basis
        b = e.weights[k] * (dagger(v) @ rho0 @ v)
        # f[a, b, (i, j)] = p_k b_k[a, b] V_k[i, a] conj(V_k[j, b])
        f = b[:, :, None] * v[rows].T[:, None, :] * v[cols].conj().T[None, :, :]
        constant += np.einsum("aaq->q", f)
        up, down = f[upper, lower], f[lower, upper]
        coeffs[k, :, 0] = up + down
        coeffs[k, :, 1] = 1j * (up - down)
        freqs[k] = eig.energies[upper] - eig.energies[lower]
    freqs = freqs.ravel()
    # (2 m, 2 q) real: row (pair, re/im of the phase), column (entry, re/im)
    coeffs = coeffs.view(np.float64).reshape(2 * freqs.size, -1)
    # per sample: the table row, and the upper triangle with its conjugate
    row_bytes = 16 * (freqs.size + 2 * rows.size)
    step = max(1, linops.WORKSPACE_BYTES // (_TABLE_SHARE * row_bytes))
    out = np.empty((times.size, d, d), dtype=np.complex128)
    table = np.empty((min(step, times.size), freqs.size), dtype=np.complex128)
    for start in range(0, times.size, step):
        ts = times[start : start + step]
        phases = table[: ts.size]
        phases.real = 0.0
        # -t w as a (T, 1) x (1, m) product: matmul writes the strided
        # imaginary parts directly, where a broadcasting ufunc would first
        # allocate a buffer as large as the table
        np.matmul(-ts[:, None], freqs[None, :], out=phases.imag)
        np.exp(phases, out=phases)
        tri = (phases.view(np.float64) @ coeffs).view(np.complex128)
        tri += constant
        block = out[start : start + ts.size]
        block[:, rows, cols] = tri
        block[:, cols, rows] = tri.conj()
        block.imag[:, range(d), range(d)] = 0.0
    return out


def require_embeddable(dim_s: int, dim_e: int) -> None:
    """Check that a dilation of dim_s levels by dim_e realizations fits the cap."""
    if dim_s * dim_e > MAX_EMBEDDED_DIM:
        raise ValueError(
            f"composite dimension {dim_s} x {dim_e} = {dim_s * dim_e} exceeds the "
            f"dense-path cap {MAX_EMBEDDED_DIM}; reduce the ensemble or the system size"
        )


def require_series_fit(points: int, dim: int, n_series: int) -> None:
    """Check that a grid of points samples of n_series (dim, dim) series fits.

    The prediction counts the grid's float64 times and 16 bytes per complex
    state entry, points * (8 + 16 dim^2 n_series), against MAX_SERIES_BYTES.
    """
    predicted = points * (8 + 16 * dim * dim * n_series)
    if predicted > MAX_SERIES_BYTES:
        raise ValueError(
            f"{points} grid points of {n_series} series at dimension {dim} need "
            f"{predicted / 2**20:.4g} MiB, over the {MAX_SERIES_BYTES / 2**20:.4g} MiB "
            f"ceiling; raise dt or lower t_final"
        )


def embed(hs, e: DisorderEnsemble) -> EmbeddedSystem:
    """Dilate to a closed system: one register state per realization.

    The total Hamiltonian is sum_k (H_S + H_k) (x) |k><k| with the register
    as the slow factor, i.e. literally block-diagonal. A register energy
    term would commute with everything here and drop out of the reduced
    dynamics, so none is added.
    """
    hs = _check_inputs(hs, e)
    dim_s, dim_e = e.dim, e.size
    require_embeddable(dim_s, dim_e)
    total = np.zeros((dim_s * dim_e, dim_s * dim_e), dtype=np.complex128)
    for k in range(dim_e):
        total[k * dim_s : (k + 1) * dim_s, k * dim_s : (k + 1) * dim_s] = (
            hs + e.hamiltonians[k]
        )
    return EmbeddedSystem(
        dim_s=dim_s, dim_e=dim_e, total_hamiltonian=total, weights=e.weights.copy()
    )


def _embedded_initial(sys: EmbeddedSystem, rho0_s: np.ndarray) -> np.ndarray:
    # product state rho0 (x) diag(p); register slow to match the block layout
    return np.kron(np.diag(sys.weights).astype(np.complex128), rho0_s)


def _to_system_major(rho: np.ndarray, dim_s: int, dim_e: int) -> np.ndarray:
    # reorder (register, system) -> (system, register) composite indices
    full = dim_s * dim_e
    return (
        rho.reshape(dim_e, dim_s, dim_e, dim_s)
        .transpose(1, 0, 3, 2)
        .reshape(full, full)
    )


def evolve_embedded(sys: EmbeddedSystem, rho0_s, t: float) -> np.ndarray:
    """Closed evolution of the dilation, then partial trace over the register.

    Starts from rho0 (x) diag(p), which is stationary for the register, and
    reproduces the ensemble average exactly. This is the oracle for
    evolve_embedded_series, which starts from the pure register instead.
    """
    rho0_s = _check_state(rho0_s, sys.dim_s, "embedding")
    u = propagator(sys.total_hamiltonian, t)
    rho_t = u @ _embedded_initial(sys, rho0_s) @ dagger(u)
    return partial_trace_env(
        _to_system_major(rho_t, sys.dim_s, sys.dim_e), sys.dim_s, sys.dim_e
    )


def evolve_embedded_series(sys: EmbeddedSystem, rho0_s, times) -> np.ndarray:
    """Reduced states of the dilation over a time grid, shape (T, d_s, d_s).

    No composite density matrix is formed. H_tot commutes with every
    register projector |k><k|, so the register's populations p_k are all
    the reduced dynamics see of its state: the pure register
    |e> = sum_k sqrt(p_k) |k> gives the same reduced states as diag(p),
    since the cross terms |k><l| of |e><e| stay off the register's
    diagonal and drop out of its trace. The initial state is factored as
    |e><e| (x) rho0 = sum_m lam_m |c_m><c_m|, c_m = |e> (x) |q_m>, with
    rho0 = sum_m lam_m |q_m><q_m| and the signed weights lam_m kept without
    square roots (so the slightly negative eigenvalues that require_density
    admits are kept exactly). One eigendecomposition H_tot = V diag(E) V+
    of the whole dense total Hamiltonian then evolves the N x r factor
    C = [c_1 ... c_r], Y(t) = V (exp(-itE) o V+ C), and

        rho_S(t)_ij = sum_m lam_m sum_k Y[(k, i), m] conj(Y[(k, j), m]).

    Each sample costs one N x N x r product, N = d_s n, against two N^3
    products for the full composite state. A wrong H_tot that couples two
    registers shows at first order in the coupling here, where the mixed
    register of evolve_embedded hides it to second order. The smallest
    |lam_m| are dropped while their sum stays within a thousandth of
    DEFAULT_TOL.equivalence, the budget the dilation is checked against; since the
    channel contracts trace distance, the result moves by at most half that
    sum.

    Times are processed in chunks of as many samples as keep their
    temporaries (the phases, and the scaled factor, Y and the weighted Y of
    each column) within linops.WORKSPACE_BYTES. The r columns of every
    sample in a chunk go through one product with V. When one sample alone
    exceeds the budget, its r columns are summed in blocks that fit.
    Neither split changes the result of a run whose samples fit the
    budget. Besides H_tot, the fixed arrays are the eigendecomposition and
    the r x N factor G^T, G = V+ C.
    """
    rho0_s = _check_state(rho0_s, sys.dim_s, "embedding")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0 or not np.isfinite(times).all():
        raise ValueError("times must be a non-empty finite 1d array")
    d, n = sys.dim_s, sys.dim_e
    full = d * n
    eig = herm_eig(sys.total_hamiltonian)
    lam, q = np.linalg.eigh(rho0_s)
    order = np.argsort(np.abs(lam))
    dropped = np.cumsum(np.abs(lam[order])) <= 1e-3 * DEFAULT_TOL.equivalence
    keep = order[~dropped]
    lam, q = lam[keep], q[:, keep]
    # G^T for G = V+ C, formed as conj(C+ V) so V is neither conjugated nor
    # reordered: _reduced_chunk multiplies by the transposed view V^T
    c = np.kron(np.sqrt(sys.weights)[:, None], q)
    gt = np.conjugate(dagger(c) @ eig.basis)
    vt = eig.basis.T
    # per sample, its phases and per factor column the scaled factor, Y and
    # the weighted Y (Y is conjugated in place)
    phase_row, column = 16 * full, 3 * 16 * full
    budget = linops.WORKSPACE_BYTES
    step = max(1, budget // (phase_row + lam.size * column))
    width = min(lam.size, max(1, (budget - phase_row) // column))
    blocks = [
        (gt[m : m + width], lam[m : m + width]) for m in range(0, lam.size, width)
    ]
    out = np.empty((times.size, d, d), dtype=np.complex128)
    for start in range(0, times.size, step):
        sl = slice(start, min(start + step, times.size))
        out[sl] = _reduced_chunk(times[sl], eig.energies, blocks, vt, n)
    return out


def _reduced_chunk(ts, energies, blocks, vt, dim_e: int) -> np.ndarray:
    # per block of factor columns: the rows (sample, m) of Y^T from one
    # product with V^T, then sum_(m, k) lam_m Y Y+ over factor columns and
    # register rows (the sum is additive over blocks). The phases die before
    # the product, and each temporary of a block before the next one
    full = vt.shape[0]
    out = None
    for gt, lam in blocks:
        phases = -1j * np.multiply.outer(ts, energies)
        np.exp(phases, out=phases)
        x = (phases[:, None, :] * gt).reshape(-1, full)
        del phases
        if x.shape[0] == 1:
            # matmul sends a one-row product to gemv, which rounds otherwise
            # than gemm; a second row keeps every chunk on gemm, so how the
            # samples are split never shows in the result
            x = np.concatenate([x, x])
        y = (x @ vt)[: ts.size * lam.size].reshape(ts.size, -1, full // dim_e)
        del x
        weighted = y * np.repeat(lam, dim_e)[:, None]
        part = weighted.swapaxes(1, 2) @ np.conjugate(y, out=y)
        del y, weighted
        if out is None:
            out = part
        else:
            out += part
    return out


def kraus_at(hs, e: DisorderEnsemble, t: float) -> KrausChannel:
    """Kraus form of the channel at time t: operators sqrt(p_k) U_k(t)."""
    hs = _check_inputs(hs, e)
    ops = np.empty((e.size, e.dim, e.dim), dtype=np.complex128)
    for k in range(e.size):
        u = propagator(hs + e.hamiltonians[k], t)
        require_unitary(u, name=f"propagator of realization {k}")
        ops[k] = np.sqrt(e.weights[k]) * u
    return KrausChannel(operators=ops)


def apply_kraus(k: KrausChannel, rho) -> np.ndarray:
    """Apply the channel: sum_k K_k rho K_k+."""
    rho = _check_state(rho, k.dim, "channel", name="input state")
    out = np.zeros_like(rho)
    for j in range(k.size):
        op = k.operators[j]
        out += op @ rho @ dagger(op)
    return out
