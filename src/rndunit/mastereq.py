"""Master equations for ensemble-averaged unitary dynamics.

For a zero-mean disorder ensemble the averaged dynamics obeys, to second
order in the disorder (Born approximation),

    d rho / dt = -i [H_S, rho] - sum_k p_k [H_k, [Htil_k(t), rho]],

with the time-integrated interaction picture of each realization

    Htil_k(t) = int_0^t dt' exp(-it' H_S) H_k exp(it' H_S).

Three generators are offered:

* redfield    the time-local equation above, valid for short times
              (up to a fraction of the Heisenberg time of H_S);
* dephasing   the commuting special case [H_S, H_k] = 0, where
              Htil_k(t) = t H_k and the populations freeze; it admits the
              closed solution rho_nm(t) = rho_nm(0) exp(-it(E_n - E_m))
              exp(-t^2 C2(n, m) / 2), exact for Gaussian disorder;
* gksl        the Markov limit, where the kernel is pushed to t -> inf
              and Htil_k becomes time independent through the retarded
              resolvent of H_S. The result is of Lindblad form and is a
              crude approximation here; it exists to expose exactly that.

Everything is integrated with a fixed-step classical Runge-Kutta scheme,
re-Hermitizing after every step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ensemble import DisorderEnsemble, mean_hamiltonian, require_commuting, c2_matrix
from .linops import (
    DEFAULT_TOL,
    EigenSystem,
    Tolerances,
    as_complex_matrix,
    dagger,
    herm_eig,
    max_abs,
    require_density,
    require_hermitian,
)

__all__ = [
    "GENERATOR_KINDS",
    "MasterEqProblem",
    "TimeSeries",
    "make_problem",
    "h_tilde",
    "dephasing_analytic",
    "gksl_resolvent",
    "master_rhs",
    "integrate",
]

GENERATOR_KINDS = ("redfield", "dephasing", "gksl")


@dataclass(frozen=True)
class MasterEqProblem:
    """System Hamiltonian, zero-mean ensemble, and the generator choice.

    `eig` must diagonalize `hs`; `epsilon` is the resolvent broadening and
    only meaningful for kind "gksl". The zero-mean requirement is verified
    here, not silently repaired: center the ensemble first.
    """

    hs: np.ndarray
    ensemble: DisorderEnsemble
    eig: EigenSystem
    kind: str
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        hs = require_hermitian(self.hs, name="system Hamiltonian")
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}"
            )
        if hs.shape[0] != self.ensemble.dim:
            raise ValueError("system and ensemble dimensions disagree")
        if self.eig.dim != hs.shape[0]:
            raise ValueError("eigensystem dimension does not match the Hamiltonian")
        recon = max_abs(self.eig.matrix() - hs)
        if recon > 1e-10 * max(1.0, max_abs(hs)):
            raise ValueError("eigensystem does not diagonalize the system Hamiltonian")
        scale = max(
            1.0, max(max_abs(self.ensemble.hamiltonians[k]) for k in range(self.ensemble.size))
        )
        residual = max_abs(mean_hamiltonian(self.ensemble))
        if residual > DEFAULT_TOL.zero_mean * scale:
            raise ValueError(
                f"ensemble mean must vanish (got |mean|_max = {residual:.3e}); "
                "apply ensemble.center and fold the mean into hs first"
            )
        epsilon = float(self.epsilon)
        if not np.isfinite(epsilon) or epsilon < 0:
            raise ValueError("epsilon must be finite and non-negative")
        object.__setattr__(self, "hs", hs)
        object.__setattr__(self, "epsilon", epsilon)

    @property
    def dim(self) -> int:
        return self.ensemble.dim


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory: strictly increasing times (T,), states (T, d, d)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        states = np.asarray(self.states, dtype=np.complex128)
        if times.ndim != 1 or times.size == 0 or not np.isfinite(times).all():
            raise ValueError("times must be a non-empty finite 1d array")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if states.ndim != 3 or states.shape[0] != times.size:
            raise ValueError(
                f"states shape {states.shape} does not match {times.size} samples"
            )
        if states.shape[1] != states.shape[2]:
            raise ValueError("states must be square matrices")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def make_problem(
    hs,
    ensemble: DisorderEnsemble,
    kind: str,
    epsilon: float = 0.0,
    tol: Tolerances = DEFAULT_TOL,
) -> MasterEqProblem:
    """Convenience constructor that eigendecomposes hs itself."""
    hs = require_hermitian(hs, tol, name="system Hamiltonian")
    return MasterEqProblem(
        hs=hs, ensemble=ensemble, eig=herm_eig(hs, tol), kind=kind, epsilon=epsilon
    )


def _degeneracy_threshold(eig: EigenSystem, tol: Tolerances) -> float:
    span = float(eig.energies[-1] - eig.energies[0])
    return tol.degeneracy * max(1.0, span)


def _phase_integral(gaps: np.ndarray, t: float, deg_tol: float) -> np.ndarray:
    """Elementwise int_0^t dt' exp(-it' gap) = (1 - exp(-it gap)) / (i gap).

    Gaps below deg_tol take the degenerate value t, the analytic limit.
    """
    phi = np.full(gaps.shape, complex(t), dtype=np.complex128)
    live = np.abs(gaps) > deg_tol
    g = gaps[live]
    phi[live] = (1.0 - np.exp(-1j * t * g)) / (1j * g)
    return phi


def h_tilde(h_lambda, eig: EigenSystem, t: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Time-integrated interaction picture of one realization.

    In the eigenbasis of the system Hamiltonian the integral is elementwise:
    element (m, n) of Htil is (H_k)_mn * (1 - exp(-it(E_m - E_n))) / (i(E_m - E_n)),
    degenerate gaps contributing a factor t. If the realization commutes
    with the system Hamiltonian this reduces to t * H_k exactly.
    """
    h_lambda = require_hermitian(h_lambda, tol, name="realization")
    if h_lambda.shape[0] != eig.dim:
        raise ValueError("realization dimension does not match the eigensystem")
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise ValueError("t must be finite and non-negative")
    gaps = eig.energies[:, None] - eig.energies[None, :]
    phi = _phase_integral(gaps, t, _degeneracy_threshold(eig, tol))
    g = dagger(eig.basis) @ h_lambda @ eig.basis
    return eig.basis @ (g * phi) @ dagger(eig.basis)


def gksl_resolvent(
    eig: EigenSystem, epsilon: float, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Markov-limit kernel matrix R_mn = i / (E_n - E_m + i epsilon).

    This is the t -> inf limit of the elementwise time integral behind
    h_tilde, regularized by epsilon. At epsilon = 0 the diagonal (and any
    degenerate pair) diverges, so those entries are excluded: diagonal
    terms only shift energies and are dropped by convention, while true
    degeneracies raise an error instead of being silently skipped.
    """
    epsilon = float(epsilon)
    if not np.isfinite(epsilon) or epsilon < 0:
        raise ValueError("epsilon must be finite and non-negative")
    diffs = eig.energies[None, :] - eig.energies[:, None]  # entry (m, n): E_n - E_m
    if epsilon > 0:
        return 1j / (diffs + 1j * epsilon)
    deg_tol = _degeneracy_threshold(eig, tol)
    off = ~np.eye(eig.dim, dtype=bool)
    if np.any(np.abs(diffs[off]) <= deg_tol):
        raise ValueError(
            "degenerate spectrum at epsilon = 0: the resolvent 1 / (E_n - E_m) "
            "diverges; pass epsilon > 0 to regularize"
        )
    r = np.zeros_like(diffs, dtype=np.complex128)
    r[off] = 1j / diffs[off]
    return r


def _require_kind(p: MasterEqProblem, kind: str) -> None:
    if p.kind != kind:
        raise ValueError(f"problem kind is {p.kind!r}, expected {kind!r}")


def _check_state_arg(p: MasterEqProblem, rho) -> np.ndarray:
    rho = as_complex_matrix(rho, "state")
    if rho.shape != (p.dim, p.dim):
        raise ValueError(
            f"state shape {rho.shape} does not match problem dimension {p.dim}"
        )
    return rho


# Singular values of the second-moment factorization below this fraction of
# the largest one are rounding noise (e.g. the direction removed by centering)
# and are dropped; each one dropped moves the second moment by its square.
_RANK_CUTOFF = 1e-12


def _second_moment_factors(e: DisorderEnsemble) -> np.ndarray:
    """Hermitian F_j (r, d, d) with sum_j F_j (x) F_j = sum_k p_k H_k (x) H_k.

    Every generator depends on the ensemble only through that second moment,
    and Htil is linear in H_k, so the r <= min(n, d^2) factors replace the n
    realizations. They come from the SVD of the real rows
    sqrt(p_k) (Re H_k, Im H_k): F_j = sum_k U_kj sqrt(p_k) H_k.
    """
    scaled = np.sqrt(e.weights)[:, None, None] * e.hamiltonians
    rows = np.concatenate([scaled.real, scaled.imag], axis=1).reshape(e.size, -1)
    u, s, _ = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.count_nonzero(s > _RANK_CUTOFF * s[0]))
    return np.tensordot(u[:, :rank].T, scaled, axes=1)


def _make_rhs(p: MasterEqProblem, tol: Tolerances):
    """Build rhs(rho, t) = -i[H_S, rho] - sum_j [F_j, [X_j(t), rho]].

    The kinds differ only in the kernel X_j(t) = Htil of factor F_j:
    t F_j for commuting disorder, V (G_j o phase integral(t)) V+ for
    redfield and the fixed V (G_j o resolvent) V+ for gksl, G_j = V+ F_j V.
    """
    hs = p.hs
    f = _second_moment_factors(p.ensemble)
    if p.kind == "dephasing":
        require_commuting(p.ensemble, hs, tol)

        def kernel(t: float) -> np.ndarray:
            return t * f

    else:
        v = p.eig.basis
        vh = dagger(v)
        g = vh @ f @ v
        if p.kind == "redfield":
            gaps = p.eig.energies[:, None] - p.eig.energies[None, :]
            deg_tol = _degeneracy_threshold(p.eig, tol)

            def kernel(t: float) -> np.ndarray:
                return v @ (g * _phase_integral(gaps, t, deg_tol)) @ vh

        else:
            fixed = v @ (g * gksl_resolvent(p.eig, p.epsilon, tol)) @ vh

            def kernel(t: float) -> np.ndarray:
                return fixed

    def rhs(rho: np.ndarray, t: float) -> np.ndarray:
        x = kernel(t)
        inner = x @ rho - rho @ x
        outer = f @ inner - inner @ f
        return -1j * (hs @ rho - rho @ hs) - outer.sum(axis=0)

    return rhs


def dephasing_analytic(
    p: MasterEqProblem, rho0, t: float, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Closed pure-dephasing solution in the system eigenbasis.

    rho_nm(t) = rho_nm(0) exp(-it(E_n - E_m)) exp(-t^2 C2(n, m) / 2).
    Populations are constant; coherences rotate and decay with a Gaussian
    envelope set by the disorder's second moment. Exact for Gaussian
    disorder, second-order accurate otherwise.
    """
    _require_kind(p, "dephasing")
    rho0 = require_density(rho0, tol, name="initial state")
    if rho0.shape[0] != p.dim:
        raise ValueError("initial state dimension does not match the problem")
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise ValueError("t must be finite and non-negative")
    c2 = c2_matrix(p.ensemble, p.eig, tol)
    v = p.eig.basis
    gaps = p.eig.energies[:, None] - p.eig.energies[None, :]
    in_eig = dagger(v) @ rho0 @ v
    damped = in_eig * np.exp(-1j * t * gaps) * np.exp(-0.5 * t * t * c2)
    return v @ damped @ dagger(v)


def master_rhs(
    p: MasterEqProblem, rho, t: float, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Generator selected by p.kind, evaluated at (rho, t); gksl ignores t."""
    rho = _check_state_arg(p, rho)
    return _make_rhs(p, tol)(rho, float(t))


def integrate(
    p: MasterEqProblem,
    rho0,
    t_final: float,
    dt: float,
    tol: Tolerances = DEFAULT_TOL,
) -> TimeSeries:
    """Fixed-step classical Runge-Kutta integration, sampled at every step.

    The state is re-Hermitized, rho <- (rho + rho+) / 2, after each step;
    together with the trace-free generators this keeps the trace drift at
    rounding level. Steps that produce non-finite entries abort with the
    step index. A warning is emitted when dt resolves the fastest phase
    poorly (dt * max |E_n| > 0.05).
    """
    rho0 = require_density(rho0, tol, name="initial state")
    if rho0.shape[0] != p.dim:
        raise ValueError("initial state dimension does not match the problem")
    dt = float(dt)
    t_final = float(t_final)
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError("dt must be finite and positive")
    if not np.isfinite(t_final) or t_final < 0:
        raise ValueError("t_final must be finite and non-negative")
    fastest = float(np.max(np.abs(p.eig.energies))) if p.eig.dim else 0.0
    if dt * fastest > 0.05:
        warnings.warn(
            f"dt = {dt:g} resolves the fastest system phase poorly "
            f"(dt * max|E| = {dt * fastest:.3g} > 0.05); expect discretization error",
            stacklevel=2,
        )
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(dt, t_final):
        warnings.warn(
            f"t_final = {t_final:g} is not a multiple of dt = {dt:g}; "
            f"integrating to {n_steps * dt:g}",
            stacklevel=2,
        )
    rhs = _make_rhs(p, tol)
    states = np.empty((n_steps + 1, p.dim, p.dim), dtype=np.complex128)
    states[0] = rho0
    rho = rho0.copy()
    for i in range(n_steps):
        t = i * dt
        k1 = rhs(rho, t)
        k2 = rhs(rho + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(rho + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(rho + dt * k3, t + dt)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + dagger(rho))
        if not np.isfinite(rho).all():
            raise RuntimeError(
                f"integration produced non-finite entries at step {i + 1} "
                f"(t = {(i + 1) * dt:g}); reduce dt"
            )
        states[i + 1] = rho
    times = np.arange(n_steps + 1, dtype=np.float64) * dt
    return TimeSeries(times=times, states=states)
