"""Random-unitary channels three equivalent ways.

A static-disorder ensemble {(H_k, p_k)} generates the dynamical map

    rho(t) = sum_k p_k U_k(t) rho(0) U_k(t)+,   U_k(t) = exp(-it(H_S + H_k)),

which is simultaneously an ensemble average over unitary evolutions, a
Kraus channel with operators sqrt(p_k) U_k(t), and the reduced dynamics
of a closed system-environment pair with a block-diagonal total
Hamiltonian. All three are implemented here; agreeing results across
them is the main correctness cross-check of the whole package.

The averaged series over a time grid is a sum over realizations: each is
eigendecomposed once, H_S + H_k = V_k diag(E_k) V_k+, and its term at time
t is V_k (b_k o P_k(t)) V_k+ with b_k = p_k V_k+ rho0 V_k and the Bohr
phases P_k(t) = p p*, p = exp(-itE_k), whose diagonal is exactly 1. Only
the upper triangle of the sum is kept; the lower one is its mirrored
conjugate, so the series is Hermitian bit for bit, as the re-Hermitized
generator series are.

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

Both series run one loop: samples go in linops.chunks whose temporaries
fit linops.WORKSPACE_BYTES less numpy's buffers for the loop's one
broadcast product, each chunk's phases are made once, and the inner axis
(the realizations, or the dilation's factor columns) of a sample over the
budget is summed in blocks split by the same rule. Each stage so holds at
most one budget beside its output and its fixed arrays: the V_k, V_k+ and
b_k (3 n d^2 complex), or H_tot's eigendecomposition and an r x N factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linops
from .ensemble import DisorderEnsemble, require_system
from .linops import (
    DEFAULT_TOL,
    dagger,
    herm_eig,
    max_abs,
    propagator,
    require_density,
    require_hermitian,
    require_probabilities,
    require_times,
    require_unitary,
)

__all__ = [
    "MAX_EMBEDDED_DIM",
    "KrausChannel",
    "EmbeddedSystem",
    "evolve_average",
    "evolve_average_series",
    "require_embeddable",
    "embed",
    "evolve_embedded",
    "evolve_embedded_series",
    "kraus_at",
    "apply_kraus",
]

# Dense-only implementation: the composite dimension d_S * d_E is capped so
# an accidental large ensemble cannot allocate a huge total Hamiltonian.
MAX_EMBEDDED_DIM = 4096

@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class EmbeddedSystem:
    """Closed dilation: block-diagonal total Hamiltonian over the register.

    The environment register index k is the slow tensor factor, so block k
    (rows and columns k*dim_s .. (k+1)*dim_s) equals H_S + H_k and everything
    off those blocks is exactly zero. Building it derives dim_e, one register
    state per weight, and dim_s = N / dim_e from the total dimension N.
    """

    total_hamiltonian: np.ndarray
    weights: np.ndarray
    dim_s: int = field(init=False)
    dim_e: int = field(init=False)

    def __post_init__(self) -> None:
        total = require_hermitian(self.total_hamiltonian, name="total Hamiltonian")
        weights = np.asarray(self.weights, dtype=np.float64)
        require_probabilities(weights)
        if weights.ndim != 1 or total.shape[0] % weights.size:
            raise ValueError(
                f"total Hamiltonian dimension {total.shape[0]} is not a multiple "
                f"of the {weights.size} register weights"
            )
        object.__setattr__(self, "total_hamiltonian", total)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dim_e", weights.size)
        object.__setattr__(self, "dim_s", total.shape[0] // weights.size)

    def block(self, k: int) -> np.ndarray:
        """The k-th diagonal block H_S + H_k."""
        d = self.dim_s
        return self.total_hamiltonian[k * d : (k + 1) * d, k * d : (k + 1) * d]


def evolve_average(hs, e: DisorderEnsemble, rho0, t: float) -> np.ndarray:
    """Ensemble-averaged state sum_k p_k U_k(t) rho0 U_k(t)+, summed in order."""
    hs = require_system(hs, e)
    rho0 = require_density(rho0, "initial state", e.dim)
    out = np.zeros_like(rho0)
    for k in range(e.size):
        u = propagator(hs + e.hamiltonians[k], t)
        out += e.weights[k] * (u @ rho0 @ dagger(u))
    return out


def evolve_average_series(hs, e: DisorderEnsemble, rho0, times) -> np.ndarray:
    """Ensemble-averaged states over a whole time grid, shape (T, d, d).

    Each realization is eigendecomposed once, H_S + H_k = V_k diag(E_k) V_k+.
    With b_k = p_k V_k+ rho0 V_k the average is a sum over realizations,

        rho(t) = sum_k V_k (b_k o P_k(t)) V_k+,   P_k(t) = p p*,  p = exp(-it E_k),

    so a sample costs d phases and two d x d products per realization, made
    for a whole chunk of samples in one product per realization and factor.
    The diagonal of P_k is exactly 1, as the constant terms a = b are. Only
    the upper triangle i <= j is kept: the lower one is mirrored as its
    conjugate, so the series is Hermitian bit for bit, with diagonal
    imaginary parts +0.0.

    It runs the module's one loop, whose splits move the result by rounding
    only; from d = 110 or so one realization's sample is taken whole. The
    fixed arrays, 3 n d^2 = 3 N^2 / n complex for the dilation's dimension
    N = n d, are as large as its total Hamiltonian at n = 3; its cap alone
    bounds them.
    """
    hs = require_system(hs, e)
    rho0 = require_density(rho0, "initial state", e.dim)
    times = require_times(times)
    d, n = e.dim, e.size
    energies = np.empty((n, d))
    v, vh, b = np.empty((3, n, d, d), dtype=np.complex128)  # V_k, V_k+, b_k
    for k in range(n):
        eig = herm_eig(hs + e.hamiltonians[k])
        energies[k], v[k], vh[k] = eig.energies, eig.basis, dagger(eig.basis)
        b[k] = e.weights[k] * (dagger(eig.basis) @ rho0 @ eig.basis)
    # per realization and sample: its phases and their conjugates, and the
    # two work buffers; per sample the sum over a block's realizations and
    # the triangle; beside a chunk, numpy's buffers for the outer product
    realization, sample, buffers = 32 * d * (d + 1), 32 * d * d, linops.buffer_bytes(2)
    blocks = [
        (energies[sl], v[sl], vh[sl], b[sl, :, None, :])
        for sl in linops.chunks(n, realization, linops.WORKSPACE_BYTES - (buffers + sample))
    ]
    upper, lower = np.triu_indices(d, 1)
    out = np.zeros((times.size, d, d), dtype=np.complex128)
    work = None
    for sl in linops.chunks(times.size, sample + n * realization, linops.WORKSPACE_BYTES - buffers):
        ts, block = times[sl], out[sl]
        for energy, v_block, vh_block, b_block in blocks:
            m = len(energy)
            size = m * d * ts.size * d
            if work is None:
                # the first chunk and block are the largest; reusing their
                # buffers spares a fresh process the page faults of new ones
                work = np.empty((2, size), dtype=np.complex128)
            # b_k o P_k with entries [k, a, t, b], so that one product per
            # realization multiplies its rows (a, t) by V_k+, and V_k times
            # the result's rows (a, t j) writes V_k (b_k o P_k) V_k+ over it
            phases, x = work[0, :size].reshape(m, d, ts.size, d), work[1, :size]
            p = -1j * np.multiply.outer(energy, ts)
            np.exp(p, out=p)
            np.multiply(p[..., None], p.conj().transpose(0, 2, 1)[:, None], out=phases)
            phases[:, range(d), :, range(d)] = 1.0
            phases *= b_block
            np.matmul(phases.reshape(m, -1, d), vh_block, out=x.reshape(m, -1, d))
            terms = phases.reshape(m, d, -1)
            np.matmul(v_block, x.reshape(m, d, -1), out=terms)
            # entries [i, t, j]
            block += terms.sum(axis=0).reshape(d, ts.size, d).transpose(1, 0, 2)
        tri = block[:, upper, lower]
        block[:, lower, upper] = np.conjugate(tri, out=tri)
        block.imag[:, range(d), range(d)] = 0.0
    return out


def require_embeddable(dim_s: int, dim_e: int) -> None:
    """Check that a dilation of dim_s levels by dim_e realizations fits the cap."""
    if dim_s * dim_e > MAX_EMBEDDED_DIM:
        raise ValueError(
            f"composite dimension {dim_s} x {dim_e} = {dim_s * dim_e} exceeds the "
            f"dense-path cap {MAX_EMBEDDED_DIM}; reduce the ensemble or the system size"
        )


def embed(hs, e: DisorderEnsemble) -> EmbeddedSystem:
    """Dilate to a closed system: one register state per realization.

    The total Hamiltonian is sum_k (H_S + H_k) (x) |k><k| with the register
    as the slow factor, i.e. literally block-diagonal. A register energy
    term would commute with everything here and drop out of the reduced
    dynamics, so none is added.
    """
    hs = require_system(hs, e)
    dim_s, dim_e = e.dim, e.size
    require_embeddable(dim_s, dim_e)
    total = np.zeros((dim_s * dim_e, dim_s * dim_e), dtype=np.complex128)
    for k in range(dim_e):
        total[k * dim_s : (k + 1) * dim_s, k * dim_s : (k + 1) * dim_s] = (
            hs + e.hamiltonians[k]
        )
    return EmbeddedSystem(total_hamiltonian=total, weights=e.weights.copy())


def evolve_embedded(sys: EmbeddedSystem, rho0_s, t: float) -> np.ndarray:
    """Closed evolution of the dilation, then partial trace over the register.

    Starts from diag(p) (x) rho0, which is stationary for the register, and
    reproduces the ensemble average exactly. This is the oracle for
    evolve_embedded_series, which starts from the pure register instead.
    """
    rho0_s = require_density(rho0_s, "initial state", sys.dim_s)
    u = propagator(sys.total_hamiltonian, t)
    rho_t = u @ np.kron(np.diag(sys.weights), rho0_s) @ dagger(u)
    return linops.partial_trace_env(rho_t, sys.dim_s, sys.dim_e)


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

    It runs the module's one loop: per chunk the phases exp(-itE), once;
    per block of factor columns the rows (sample, m) of Y^T from one
    product with V^T, and sum_m lam_m Y Y+ written into the chunk's slice
    of the output, or added to it after the first block. Neither split
    changes the result of a run whose samples fit the budget. Beside H_tot
    the fixed arrays are the eigendecomposition and G^T, G = V+ C.
    """
    rho0_s = require_density(rho0_s, "initial state", sys.dim_s)
    times = require_times(times)
    d, n = sys.dim_s, sys.dim_e
    full = d * n
    eig = herm_eig(sys.total_hamiltonian)
    lam, q = np.linalg.eigh(rho0_s)
    order = np.argsort(np.abs(lam))
    dropped = np.cumsum(np.abs(lam[order])) <= 1e-3 * DEFAULT_TOL.equivalence
    keep = order[~dropped]
    lam, q = lam[keep], q[:, keep]
    # G^T for G = V+ C, formed as conj(C+ V) so V is neither conjugated nor
    # reordered: the loop multiplies by the transposed view V^T
    c = np.kron(np.sqrt(sys.weights)[:, None], q)
    gt = np.conjugate(dagger(c) @ eig.basis)
    vt = eig.basis.T
    # per sample its phases and a later block's sum; per sample and factor
    # column two N-rows, the scaled factor and Y, then Y and its weighted copy
    sample, column, buffers = 16 * (full + d * d), 32 * full, linops.buffer_bytes(2)
    blocks = [
        (gt[sl], np.repeat(lam[sl], n)[:, None])
        for sl in linops.chunks(lam.size, column, linops.WORKSPACE_BYTES - (buffers + sample))
    ]
    out = np.empty((times.size, d, d), dtype=np.complex128)
    for sl in linops.chunks(times.size, sample + lam.size * column, linops.WORKSPACE_BYTES - buffers):
        ts, block = times[sl], out[sl]
        phases = -1j * np.multiply.outer(ts, eig.energies)
        np.exp(phases, out=phases)
        for i, (gt_block, weights) in enumerate(blocks):
            x = (phases[:, None, :] * gt_block).reshape(-1, full)
            if x.shape[0] == 1:
                # matmul sends a one-row product to gemv, which rounds otherwise
                # than gemm; a second row keeps every chunk on gemm, so how the
                # samples are split never shows in the result
                x = np.concatenate([x, x])
            y = (x @ vt)[: ts.size * len(gt_block)].reshape(ts.size, -1, d)  # [t, (m, k), i]
            del x
            weighted = (y * weights).swapaxes(1, 2)
            np.conjugate(y, out=y)
            if i == 0:
                np.matmul(weighted, y, out=block)
            else:
                block += weighted @ y
            del y, weighted  # before the next block's or chunk's are made
    return out


def kraus_at(hs, e: DisorderEnsemble, t: float) -> KrausChannel:
    """Kraus form of the channel at time t: operators sqrt(p_k) U_k(t)."""
    hs = require_system(hs, e)
    ops = np.empty((e.size, e.dim, e.dim), dtype=np.complex128)
    for k in range(e.size):
        u = propagator(hs + e.hamiltonians[k], t)
        require_unitary(u, name=f"propagator of realization {k}")
        ops[k] = np.sqrt(e.weights[k]) * u
    return KrausChannel(operators=ops)


def apply_kraus(k: KrausChannel, rho) -> np.ndarray:
    """Apply the channel: sum_k K_k rho K_k+."""
    rho = require_density(rho, "input state", k.dim)
    out = np.zeros_like(rho)
    for j in range(k.size):
        op = k.operators[j]
        out += op @ rho @ dagger(op)
    return out
