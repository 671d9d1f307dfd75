"""Random-unitary channels three equivalent ways.

A static-disorder ensemble {(H_k, p_k)} generates the dynamical map

    rho(t) = sum_k p_k U_k(t) rho(0) U_k(t)+,   U_k(t) = exp(-it(H_S + H_k)),

which is simultaneously an ensemble average over unitary evolutions, a
Kraus channel with operators sqrt(p_k) U_k(t), and the reduced dynamics
of a closed system-environment pair with a block-diagonal total
Hamiltonian. All three are implemented here; agreeing results across
them is the main correctness cross-check of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def embed(hs, e: DisorderEnsemble, tol: Tolerances = DEFAULT_TOL) -> EmbeddedSystem:
    """Dilate to a closed system: one register state per realization.

    The total Hamiltonian is sum_k (H_S + H_k) (x) |k><k| with the register
    as the slow factor, i.e. literally block-diagonal. A register energy
    term would commute with everything here and drop out of the reduced
    dynamics, so none is added.
    """
    hs = _check_inputs(hs, e, tol)
    dim_s, dim_e = e.dim, e.size
    if dim_s * dim_e > MAX_EMBEDDED_DIM:
        raise ValueError(
            f"composite dimension {dim_s * dim_e} exceeds the dense-path cap "
            f"{MAX_EMBEDDED_DIM}; reduce the ensemble or the system size"
        )
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
    chunk: int = 256,
) -> np.ndarray:
    """Reduced states of the dilation over a time grid, shape (T, d_s, d_s).

    One eigendecomposition of the total Hamiltonian serves every sample;
    times are processed in chunks to bound the composite-state workspace.
    """
    rho0_s = require_density(rho0_s, tol, name="initial state")
    if rho0_s.shape[0] != sys.dim_s:
        raise ValueError("initial state dimension does not match the embedding")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0 or not np.isfinite(times).all():
        raise ValueError("times must be a non-empty finite 1d array")
    eig = herm_eig(sys.total_hamiltonian, tol)
    gaps = eig.energies[:, None] - eig.energies[None, :]
    b = dagger(eig.basis) @ _embedded_initial(sys, rho0_s) @ eig.basis
    out = np.empty((times.size, sys.dim_s, sys.dim_s), dtype=np.complex128)
    for start in range(0, times.size, max(1, int(chunk))):
        sl = slice(start, min(start + chunk, times.size))
        phases = np.exp(-1j * times[sl, None, None] * gaps[None, :, :])
        rho_t = eig.basis @ (phases * b[None, :, :]) @ dagger(eig.basis)
        composite = rho_t.reshape(-1, sys.dim_e, sys.dim_s, sys.dim_e, sys.dim_s)
        out[sl] = np.einsum("tkikj->tij", composite)
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
