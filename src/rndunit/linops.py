"""Dense complex linear algebra for finite-dimensional quantum states.

Everything here works on plain complex numpy arrays with hbar = 1, so
energies and inverse times share units. Propagators are built from a
Hermitian eigendecomposition rather than a Pade expansion: exp(-itH) is
then unitary to rounding for any t. Validation helpers enforce the
numeric contracts (Hermiticity, unitarity, density-matrix conditions)
and share one tolerance record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "WORKSPACE_BYTES",
    "EigenSystem",
    "as_complex_matrix",
    "dagger",
    "max_abs",
    "require_hermitian",
    "require_unitary",
    "require_density",
    "require_probabilities",
    "herm_eig",
    "propagator",
    "kron",
    "partial_trace_env",
    "trace_distance",
    "commutator",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances of the validation checks.

    Every check reads the one instance DEFAULT_TOL; none takes a record
    as an argument, so the values below are the package's contract.

    hermitian    allowed max-norm of A - A+, relative to max(1, |A|_max)
    unitary      allowed max-norm of U+U - 1 (also Kraus completeness)
    trace        allowed |tr(rho) - 1| and other trace residuals
    positivity   most negative state eigenvalue tolerated
    zero_mean    relative max-norm of a vanishing ensemble mean (mean_vanishes)
    commutation  relative bound used by [H_k, H] compatibility checks
    degeneracy   relative threshold below which energy gaps count as zero
    equivalence  trace-distance budget for exact-dynamics cross-checks
    """

    hermitian: float = 1e-12
    unitary: float = 1e-10
    trace: float = 1e-12
    positivity: float = 1e-10
    zero_mean: float = 1e-12
    commutation: float = 1e-10
    degeneracy: float = 1e-12
    equivalence: float = 1e-10


DEFAULT_TOL = Tolerances()

# Byte budget for the transient workspace of the batched loops over a time
# grid (the dilation series, the master-equation kernel tables). They size
# their chunks from it, so memory stays bounded whatever the grid length.
# Larger budgets ran no faster on the benchmark workloads and only raised
# their peak RSS. Read as linops.WORKSPACE_BYTES at call time.
WORKSPACE_BYTES = 8 * 2**20


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2d complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _require_square(a: np.ndarray, name: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def max_abs(a: np.ndarray) -> float:
    """Max-norm |A|_max; zero for empty input."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def require_hermitian(h, name: str = "operator") -> np.ndarray:
    """Validate |A - A+|_max <= DEFAULT_TOL.hermitian max(1, |A|_max); return A."""
    arr = as_complex_matrix(h, name)
    _require_square(arr, name)
    defect = max_abs(arr - dagger(arr))
    bound = DEFAULT_TOL.hermitian * max(1.0, max_abs(arr))
    if defect > bound:
        raise ValueError(
            f"{name} is not Hermitian: |A - A+|_max = {defect:.3e} exceeds {bound:.3e}"
        )
    return arr


def require_unitary(u, name: str = "operator") -> np.ndarray:
    """Validate |U+U - 1|_max <= DEFAULT_TOL.unitary; return the array."""
    arr = as_complex_matrix(u, name)
    _require_square(arr, name)
    defect = max_abs(dagger(arr) @ arr - np.eye(arr.shape[0]))
    if defect > DEFAULT_TOL.unitary:
        raise ValueError(
            f"{name} is not unitary: |U+U - 1|_max = {defect:.3e} "
            f"exceeds {DEFAULT_TOL.unitary:.3e}"
        )
    return arr


def require_density(rho, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, unit trace, and near-positivity of a state."""
    arr = require_hermitian(rho, name)
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > DEFAULT_TOL.trace:
        raise ValueError(f"{name} must have unit trace, got tr = {tr:.12g}")
    lowest = float(np.linalg.eigvalsh(0.5 * (arr + dagger(arr)))[0])
    if lowest < -DEFAULT_TOL.positivity:
        raise ValueError(
            f"{name} is not positive semidefinite: lowest eigenvalue {lowest:.3e}"
        )
    return arr


def require_probabilities(weights: np.ndarray) -> None:
    """Validate weights as a probability vector: finite, non-negative, sum 1."""
    if not np.isfinite(weights).all() or np.any(weights < 0):
        raise ValueError("weights must be finite and non-negative")
    total = float(weights.sum())
    if abs(total - 1.0) > DEFAULT_TOL.trace:
        raise ValueError(f"weights must sum to 1, got {total:.15g}")


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of a Hermitian operator: ascending energies, unitary basis.

    Column k of `basis` is the eigenvector belonging to `energies[k]`.
    Eigenvector phases are whatever the solver returned; downstream code
    must not depend on them.
    """

    energies: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        energies = np.asarray(self.energies, dtype=np.float64)
        if energies.ndim != 1 or energies.size == 0:
            raise ValueError("energies must be a non-empty 1d real array")
        if not np.isfinite(energies).all():
            raise ValueError("energies contain non-finite entries")
        if np.any(np.diff(energies) < 0):
            raise ValueError("energies must be sorted ascending")
        basis = require_unitary(self.basis, name="eigenbasis")
        if basis.shape[0] != energies.size:
            raise ValueError(
                f"basis shape {basis.shape} does not match {energies.size} energies"
            )
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def gaps(self) -> np.ndarray:
        """Bohr frequencies E_m - E_n as a (d, d) matrix, entry (m, n)."""
        return self.energies[:, None] - self.energies[None, :]

    @property
    def degeneracy_threshold(self) -> float:
        """Gaps at or below DEFAULT_TOL.degeneracy * max(1, span) count as zero."""
        span = float(self.energies[-1] - self.energies[0])
        return DEFAULT_TOL.degeneracy * max(1.0, span)


def herm_eig(h) -> EigenSystem:
    """Eigendecompose a Hermitian operator into an EigenSystem."""
    arr = require_hermitian(h)
    energies, basis = np.linalg.eigh(arr)
    return EigenSystem(energies=energies, basis=basis)


def propagator(h, t: float) -> np.ndarray:
    """Unitary exp(-itH) of a Hermitian H, via eigendecomposition."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("propagation time must be finite")
    eig = herm_eig(h)
    phases = np.exp(-1j * t * eig.energies)
    return (eig.basis * phases) @ dagger(eig.basis)


def kron(a, b) -> np.ndarray:
    """Kronecker product; the first factor carries the slow index."""
    return np.kron(
        as_complex_matrix(a, "left factor"), as_complex_matrix(b, "right factor")
    )


def partial_trace_env(rho_total, dim_s: int, dim_e: int) -> np.ndarray:
    """Trace out the environment factor of a system (x) environment state.

    The composite index is (i, k) = i * dim_e + k with i on the system,
    matching kron(system, environment). Returns the dim_s x dim_s state
    rho_S[i, j] = sum_k rho[(i, k), (j, k)].
    """
    arr = as_complex_matrix(rho_total, "composite state")
    _require_square(arr, "composite state")
    dim_s, dim_e = int(dim_s), int(dim_e)
    if dim_s < 1 or dim_e < 1:
        raise ValueError("factor dimensions must be positive")
    if arr.shape[0] != dim_s * dim_e:
        raise ValueError(
            f"composite dimension {arr.shape[0]} != dim_s * dim_e = {dim_s * dim_e}"
        )
    return np.einsum("ikjk->ij", arr.reshape(dim_s, dim_e, dim_s, dim_e))


def trace_distance(a, b) -> float | np.ndarray:
    """Trace distance (1/2) sum of singular values of a - b.

    Matrices give a float; stacks (..., d, d) give the array of pairwise
    distances, from one batched SVD.
    """
    am = np.asarray(a, dtype=np.complex128)
    bm = np.asarray(b, dtype=np.complex128)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch {am.shape} vs {bm.shape}")
    if am.ndim < 2:
        raise ValueError(f"states must be matrices or stacks, got shape {am.shape}")
    diff = am - bm
    if not np.isfinite(diff).all():
        raise ValueError("states contain non-finite entries")
    dist = 0.5 * np.sum(np.linalg.svd(diff, compute_uv=False), axis=-1)
    return float(dist) if am.ndim == 2 else dist


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    am = as_complex_matrix(a, "first operand")
    bm = as_complex_matrix(b, "second operand")
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch {am.shape} vs {bm.shape}")
    _require_square(am, "first operand")
    return am @ bm - bm @ am
