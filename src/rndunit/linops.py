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
    "buffer_bytes",
    "MAX_SERIES_BYTES",
    "chunks",
    "EigenSystem",
    "as_complex_matrix",
    "dagger",
    "max_abs",
    "require_hermitian",
    "require_unitary",
    "require_density",
    "require_probabilities",
    "require_times",
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

# Byte budget of one chunk of any loop. Every batched loop (the averaged and
# dilation series, the integrator's one chunk loop, whose chunks hold a
# time-dependent generator's tables at their grid points and midpoints, or
# for a fixed kernel only the buffer that rotates and Hermitizes a chunk in
# place, the trace distances of a stack, the CSV row blocks with their
# purities, and the row blocks of the Hermitian and unitary checks) passes it
# to chunks, whole or, where a chunk makes a ufunc call that numpy buffers
# (the two exact series and the integrator), less buffer_bytes. The one
# build that is not a loop, a fixed kernel's RK4 propagator, is made only
# where it fits the same budget. The loops run one at a time, none inside
# another, so a run's transient memory is at most one chunk of
# WORKSPACE_BYTES, numpy's buffers included, on top of the arrays it holds.
# At 1 MiB, against the per-loop shares it replaced (best of 15 interleaved
# runs, seed 1, 2-core Xeon): gauss-d8's averaged series took 62 ms (74 at
# 128 KiB), its dilation 41 ms (45 at 8 MiB) and its factored redfield
# tables 67 ms (65 at 4 MiB); explicit-d4's dilation 13 ms (17 at 8 MiB) and
# its dense redfield tables 54 ms (52 at 2 MiB). Each benchmark run's own
# peak RSS fell, by up to 4.4 MB (gauss-d8). Full-rank tables pay most: at
# d = 6, r = 35 dense redfield ran about 10% slower, 8 steps a chunk against
# 16. Read as linops.WORKSPACE_BYTES at call time.
WORKSPACE_BYTES = 2**20


def buffer_bytes(operands: int) -> int:
    """numpy's buffers for one ufunc call: np.getbufsize() elements of each
    buffered complex operand (a broadcast one, or a strided output)."""
    return operands * 16 * np.getbufsize()


# A run holds its time grid and every series whole, one (d, d) complex state
# per grid point and series, for comparison and the CSV. Their predicted
# size is capped so a tiny dt cannot ask for more memory than a workstation
# has; the run's transient copies come on top, so the cap sits well below
# that. The exact series is built beside its fixed arrays, 3 n d^2 = 3 N^2 / n
# complex for the dilation's dimension N = n d, which only the dilation cap
# (channel.MAX_EMBEDDED_DIM) bounds. Read as linops.MAX_SERIES_BYTES at call time.
MAX_SERIES_BYTES = 2**30


def chunks(count: int, item_size: int, budget: int):
    """Slices covering range(count) in order, made lazily: each holds
    max(1, budget // item_size) items, the last the remainder. item_size and
    budget share one unit (bytes, for WORKSPACE_BYTES), so a chunk holds as
    many items as fit the budget, and at least one."""
    step = max(1, budget // item_size)
    return (slice(first, min(first + step, count)) for first in range(0, count, step))


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


def _row_blocks(n: int):
    # row blocks of an n x n check, their temporaries (about three complex rows
    # each) within WORKSPACE_BYTES: checking the dilation's N x N H_tot and V
    # then costs far less than another N x N array
    return chunks(n, 48 * max(n, 1), WORKSPACE_BYTES)


def require_hermitian(h, name: str = "operator") -> np.ndarray:
    """Validate |A - A+|_max <= DEFAULT_TOL.hermitian max(1, |A|_max); return A."""
    arr = as_complex_matrix(h, name)
    _require_square(arr, name)
    defect = 0.0
    for rows in _row_blocks(arr.shape[0]):
        defect = max(defect, max_abs(arr[rows] - dagger(arr[:, rows])))
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
    defect = 0.0
    for rows in _row_blocks(arr.shape[0]):
        block = dagger(arr[:, rows]) @ arr  # these rows of U+U
        np.einsum("ii->i", block[:, rows])[...] -= 1.0
        defect = max(defect, max_abs(block))
    if defect > DEFAULT_TOL.unitary:
        raise ValueError(
            f"{name} is not unitary: |U+U - 1|_max = {defect:.3e} "
            f"exceeds {DEFAULT_TOL.unitary:.3e}"
        )
    return arr


def require_density(rho, name: str = "state", dim: int | None = None) -> np.ndarray:
    """Validate Hermiticity, unit trace, near-positivity and, if given, dim."""
    arr = require_hermitian(rho, name)
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} dimension {arr.shape[0]} does not match {dim}")
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


def require_times(times) -> np.ndarray:
    """Validate sample times as a non-empty finite 1d array; return it as float64."""
    arr = np.asarray(times, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
        raise ValueError("times must be a non-empty finite 1d array")
    return arr


@dataclass(frozen=True, eq=False)
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
    """Trace out the environment factor of an environment (x) system state.

    The composite index is (k, i) = k * dim_s + i with k on the environment,
    matching kron(environment, system): the register-major layout that
    channel.embed builds. Returns the dim_s x dim_s state
    rho_S[i, j] = sum_k rho[(k, i), (k, j)].
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
    return np.einsum("kikj->ij", arr.reshape(dim_e, dim_s, dim_e, dim_s))


def trace_distance(a, b) -> float | np.ndarray:
    """Trace distance (1/2) sum |lambda| over the eigenvalues of a - b.

    a - b must be Hermitian: one whose anti-Hermitian part (D - D+) / 2 has
    a real or imaginary part beyond DEFAULT_TOL.hermitian is refused, as is
    one with non-finite entries. Matrices give a float; stacks (..., d, d)
    give the array of pairwise distances, from batched eigvalsh over chunks
    of WORKSPACE_BYTES, so a stack costs no temporary of its own size.
    """
    am = np.asarray(a, dtype=np.complex128)
    bm = np.asarray(b, dtype=np.complex128)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch {am.shape} vs {bm.shape}")
    if am.ndim < 2:
        raise ValueError(f"states must be matrices or stacks, got shape {am.shape}")
    shape = am.shape[:-2]
    am, bm = (m.reshape(-1, *m.shape[-2:]) for m in (am, bm))
    dist = np.empty(len(am))
    # a - b and, one at a time, a real part of its anti-Hermitian part and
    # that part's magnitudes take 32 bytes an entry, the eigenvalues and
    # their sums at most 24 a row (tracemalloc: 34.3, 28.2 and 32.2 bytes an
    # entry at d = 2, 4 and 8, the distances included)
    rows_bytes = am.shape[1] * (32 * am.shape[2] + 24)
    for rows in chunks(len(am), rows_bytes, WORKSPACE_BYTES):
        diff = am[rows] - bm[rows]
        if not np.isfinite(diff).all():
            raise ValueError("states contain non-finite entries")
        defect = 0.5 * max(
            max_abs(diff.real - diff.real.swapaxes(-1, -2)),
            max_abs(diff.imag + diff.imag.swapaxes(-1, -2)),
        )
        if defect > DEFAULT_TOL.hermitian:
            raise ValueError(
                f"a - b is not Hermitian: its anti-Hermitian part reaches {defect:.3e}, "
                f"beyond {DEFAULT_TOL.hermitian:.3e}"
            )
        dist[rows] = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
        del diff  # before the next chunk's difference is made
    return float(dist[0]) if not shape else dist.reshape(shape)


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    am = as_complex_matrix(a, "first operand")
    bm = as_complex_matrix(b, "second operand")
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch {am.shape} vs {bm.shape}")
    _require_square(am, "first operand")
    return am @ bm - bm @ am
