"""Random-unitary channels three equivalent ways.

A static-disorder ensemble {(H_k, p_k)} generates the dynamical map

    rho(t) = sum_k p_k U_k(t) rho(0) U_k(t)+,   U_k(t) = exp(-it(H_S + H_k)),

which is simultaneously an ensemble average over unitary evolutions, a
Kraus channel with operators sqrt(p_k) U_k(t), and the reduced dynamics
of a closed system-environment pair with a block-diagonal total
Hamiltonian. All three are implemented here; agreeing results across
them is the main correctness cross-check of the whole package.

The dilation over a time grid never forms a composite density matrix. With
rho0 = sum_m lam_m |q_m><q_m|, the composite initial state diag(p) (x) rho0
is a signed sum over the n r columns |k> (x) |q_m>, r the number of kept
eigenvalues. Only those columns are evolved, with one eigendecomposition
of the whole dense total Hamiltonian (N = d n): one N x N x (n r) product
per sample instead of two N^3 products, d times cheaper again for a pure
rho0. Eigenvalues are dropped only while their total magnitude stays
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
    Tolerances,
    dagger,
    herm_eig,
    max_abs,
    partial_trace_env,
    propagator,
    require_density,
    require_hermitian,
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
        object.__setattr__(self, "dim_s", dim_s)
        object.__setattr__(self, "dim_e", dim_e)
        object.__setattr__(self, "total_hamiltonian", total)
        object.__setattr__(self, "weights", weights)

    def block(self, k: int) -> np.ndarray:
        """The k-th diagonal block H_S + H_k."""
        d = self.dim_s
        return self.total_hamiltonian[k * d : (k + 1) * d, k * d : (k + 1) * d]


def _check_inputs(hs, e: DisorderEnsemble, tol: Tolerances):
    hs = require_hermitian(hs, tol, name="system Hamiltonian")
    if hs.shape[0] != e.dim:
        raise ValueError(
            f"system dimension {hs.shape[0]} does not match ensemble dimension {e.dim}"
        )
    return hs


def evolve_average(
    hs, e: DisorderEnsemble, rho0, t: float, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Ensemble-averaged state sum_k p_k U_k(t) rho0 U_k(t)+, summed in order."""
    hs = _check_inputs(hs, e, tol)
    rho0 = require_density(rho0, tol, name="initial state")
    if rho0.shape[0] != e.dim:
        raise ValueError("initial state dimension does not match the ensemble")
    out = np.zeros_like(rho0)
    for k in range(e.size):
        u = propagator(hs + e.hamiltonians[k], t, tol)
        out += e.weights[k] * (u @ rho0 @ dagger(u))
    return out


def evolve_average_series(
    hs, e: DisorderEnsemble, rho0, times, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Ensemble-averaged states over a whole time grid, shape (T, d, d).

    Each realization is eigendecomposed once; the time dependence is then a
    pure phase pattern in that eigenbasis, which keeps long grids cheap.
    """
    hs = _check_inputs(hs, e, tol)
    rho0 = require_density(rho0, tol, name="initial state")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0 or not np.isfinite(times).all():
        raise ValueError("times must be a non-empty finite 1d array")
    out = np.zeros((times.size, e.dim, e.dim), dtype=np.complex128)
    for k in range(e.size):
        eig = herm_eig(hs + e.hamiltonians[k], tol)
        gaps = eig.energies[:, None] - eig.energies[None, :]
        b = dagger(eig.basis) @ rho0 @ eig.basis
        phases = np.exp(-1j * times[:, None, None] * gaps[None, :, :])
        rotated = eig.basis @ (phases * b[None, :, :]) @ dagger(eig.basis)
        out += e.weights[k] * rotated
    return out


def require_embeddable(dim_s: int, dim_e: int) -> None:
    """Check that a dilation of dim_s levels by dim_e realizations fits the cap."""
    if dim_s * dim_e > MAX_EMBEDDED_DIM:
        raise ValueError(
            f"composite dimension {dim_s} x {dim_e} = {dim_s * dim_e} exceeds the "
            f"dense-path cap {MAX_EMBEDDED_DIM}; reduce the ensemble or the system size"
        )


def embed(hs, e: DisorderEnsemble, tol: Tolerances = DEFAULT_TOL) -> EmbeddedSystem:
    """Dilate to a closed system: one register state per realization.

    The total Hamiltonian is sum_k (H_S + H_k) (x) |k><k| with the register
    as the slow factor, i.e. literally block-diagonal. A register energy
    term would commute with everything here and drop out of the reduced
    dynamics, so none is added.
    """
    hs = _check_inputs(hs, e, tol)
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


def evolve_embedded(
    sys: EmbeddedSystem, rho0_s, t: float, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Closed evolution of the dilation, then partial trace over the register.

    Starts from rho0 (x) diag(p), which is stationary for the register, and
    reproduces the ensemble average exactly.
    """
    rho0_s = require_density(rho0_s, tol, name="initial state")
    if rho0_s.shape[0] != sys.dim_s:
        raise ValueError("initial state dimension does not match the embedding")
    u = propagator(sys.total_hamiltonian, t, tol)
    rho_t = u @ _embedded_initial(sys, rho0_s) @ dagger(u)
    return partial_trace_env(
        _to_system_major(rho_t, sys.dim_s, sys.dim_e), sys.dim_s, sys.dim_e, tol
    )


def evolve_embedded_series(
    sys: EmbeddedSystem,
    rho0_s,
    times,
    tol: Tolerances = DEFAULT_TOL,
    chunk: int | None = None,
) -> np.ndarray:
    """Reduced states of the dilation over a time grid, shape (T, d_s, d_s).

    No composite density matrix is formed. The initial state is factored as
    diag(p) (x) rho0 = sum_c w_c |k, q_m><k, q_m| over the columns
    c = (k, m), with rho0 = sum_m lam_m |q_m><q_m| and signed weights
    w_c = p_k lam_m (no square roots, so the slightly negative eigenvalues
    that require_density admits are kept exactly). One eigendecomposition
    H_tot = V diag(E) V+ of the whole dense total Hamiltonian then evolves
    the N x (n r) factor columns, Y(t) = V (exp(-itE) o V+ C), and

        rho_S(t)_ij = sum_k sum_c w_c Y[(k, i), c] conj(Y[(k, j), c]).

    Each sample costs one N x N x (n r) product, N = d_s n, against two
    N^3 products for the full composite state; a pure rho0 has n r = N / d_s.
    The smallest |lam_m| are dropped while their sum stays within a
    thousandth of tol.equivalence, the budget the dilation is checked
    against; since the channel contracts trace distance, the result moves
    by at most half that sum.

    Times are processed in chunks: by default as many samples as keep the
    two complex N x (n r) temporaries of each sample within
    linops.WORKSPACE_BYTES (at least one), otherwise chunk samples at a
    time. When one sample alone exceeds the budget, its n r columns are
    summed in blocks that fit. Neither split changes the result of a run
    whose samples fit the budget; the fixed N x N arrays (the
    eigendecomposition, V, G) are not budgeted.
    """
    rho0_s = require_density(rho0_s, tol, name="initial state")
    if rho0_s.shape[0] != sys.dim_s:
        raise ValueError("initial state dimension does not match the embedding")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0 or not np.isfinite(times).all():
        raise ValueError("times must be a non-empty finite 1d array")
    d, n = sys.dim_s, sys.dim_e
    eig = herm_eig(sys.total_hamiltonian, tol)
    lam, q = np.linalg.eigh(rho0_s)
    order = np.argsort(np.abs(lam))
    dropped = np.cumsum(np.abs(lam[order])) <= 1e-3 * tol.equivalence
    keep = order[~dropped]
    lam, q = lam[keep], q[:, keep]
    cols = n * lam.size
    # G = V+ C with column (k, m) of C equal to |k> (x) |q_m>
    g = (dagger(eig.basis).reshape(d * n, n, d) @ q).reshape(d * n, cols)
    # rows of V reordered system-major, so Y[t] reshapes to (d, n * cols)
    v = eig.basis.reshape(n, d, d * n).transpose(1, 0, 2).reshape(d * n, d * n)
    w = np.outer(sys.weights, lam).ravel()
    budget = linops.WORKSPACE_BYTES // (2 * 16 * d * n)  # columns in budget
    if chunk is None:
        chunk = budget // cols
    step = max(1, int(chunk))
    width = min(cols, max(1, budget))
    # per block of factor columns: G's columns and their weights, tiled over
    # the register index k, which leads within each row of Y
    blocks = [
        (g[:, c : c + width], np.tile(w[c : c + width], n))
        for c in range(0, cols, width)
    ]
    out = np.empty((times.size, d, d), dtype=np.complex128)
    for start in range(0, times.size, step):
        sl = slice(start, min(start + step, times.size))
        phases = np.exp(-1j * times[sl, None] * eig.energies[None, :])
        out[sl] = _reduced_chunk(phases, blocks, v, d)
    return out


def _reduced_chunk(phases, blocks, v, dim_s: int) -> np.ndarray:
    # Y = V (phases o G) per sample, then sum_(k, c) w_c Y Y+ over register
    # rows and factor columns, one column block at a time (the sum is
    # additive); the two temporaries of a block die before the next one
    out = None
    for g, w in blocks:
        y = (v @ (phases[:, :, None] * g)).reshape(phases.shape[0], dim_s, -1)
        part = (y * w) @ np.conjugate(y, out=y).swapaxes(1, 2)
        del y
        if out is None:
            out = part
        else:
            out += part
    return out


def kraus_at(
    hs, e: DisorderEnsemble, t: float, tol: Tolerances = DEFAULT_TOL
) -> KrausChannel:
    """Kraus form of the channel at time t: operators sqrt(p_k) U_k(t)."""
    hs = _check_inputs(hs, e, tol)
    ops = np.empty((e.size, e.dim, e.dim), dtype=np.complex128)
    for k in range(e.size):
        u = propagator(hs + e.hamiltonians[k], t, tol)
        require_unitary(u, tol, name=f"propagator of realization {k}")
        ops[k] = np.sqrt(e.weights[k]) * u
    return KrausChannel(operators=ops)


def apply_kraus(k: KrausChannel, rho, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Apply the channel: sum_k K_k rho K_k+."""
    rho = require_density(rho, tol, name="input state")
    if rho.shape[0] != k.dim:
        raise ValueError("state dimension does not match the channel")
    out = np.zeros_like(rho)
    for j in range(k.size):
        op = k.operators[j]
        out += op @ rho @ dagger(op)
    return out
