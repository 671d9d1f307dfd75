"""Master equations for ensemble-averaged unitary dynamics.

For a zero-mean disorder ensemble the averaged dynamics obeys, to second
order in the disorder (Born approximation),

    d rho / dt = -i [H_S, rho] - sum_k p_k [H_k, [Htil_k(t), rho]],

with the time-integrated interaction picture of each realization

    Htil_k(t) = int_0^t dt' exp(-it' H_S) H_k exp(it' H_S).

Three generators are offered:

* redfield    the time-local equation above, valid for short times; the
              Heisenberg time of H_S is only a weak lower bound on how
              long, and the disorder strength sets the breakdown;
* dephasing   the commuting special case [H_S, H_k] = 0, where
              Htil_k(t) = t H_k and the populations freeze; it admits the
              closed solution rho_nm(t) = rho_nm(0) exp(-it(E_n - E_m))
              exp(-t^2 C2(n, m) / 2), exact for Gaussian disorder;
* gksl        the Markov limit, where the kernel is pushed to t -> inf
              and Htil_k becomes time independent through the retarded
              resolvent of H_S. The result is of Lindblad form and is a
              crude approximation here; it exists to expose exactly that.

All three are one generator in the eigenbasis of H_S = V diag(E) V+,
acting on rho~ = V+ rho V. The ensemble enters only through r Hermitian
second-moment factors G_j = V+ F_j V, and the kind only through the
kernel factor phi(t) of X~_j(t) = G_j o phi(t), which stands in for Htil:
t (dephasing), the phase integral (redfield) or the fixed resolvent
(gksl); both are derived once, when the problem is built. Since G_j,
X~_j and rho~ are Hermitian, the generator is
-i (E_m - E_n) o rho~ - (B + B+) with
B = (sum_j G_j X~_j) rho~ - [G_1 rho~ ... G_r rho~] [X~_1; ...; X~_r],
three matrix products whatever r; so master_rhs takes Hermitian rho only.

integrate runs fixed-step classical Runge-Kutta in the eigenbasis over
one of two representations of that generator, chosen from d alone: for
d <= _DENSE_MAX_DIM (the measured crossover) the dense d^2 x d^2
Liouvillian, affine in phi, so a chunk's one-step propagators are composed
in batch; above it the factored form, with the kernels of a chunk
tabulated at once. A chunk's tables stay within half the shared budget
linops.WORKSPACE_BYTES.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import linops
from .ensemble import (
    DisorderEnsemble,
    mean_hamiltonian,
    mean_vanishes,
    require_commuting,
)
from .linops import (
    EigenSystem,
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

    `epsilon` is the resolvent broadening, only meaningful for kind "gksl".
    Building a problem runs every check once: the ensemble mean must vanish
    on hs (ensemble.mean_vanishes; nothing is repaired here, so center the
    ensemble and fold its mean into hs first), dephasing needs disorder that
    commutes with hs, and gksl at epsilon = 0 a non-degenerate spectrum. It
    also derives, once, what every generator reads: `eig`, the eigensystem
    V diag(E) V+ of hs, `factors`, the second-moment factors
    G_j = V+ F_j V as (r, d, d), and `kernel`, the kernel factor phi of
    X~_j(t) = G_j o phi(t): kernel(ts) is the (T, d, d) stack at times
    ts (T,), t for dephasing or the phase integral for redfield; for gksl
    the resolvent, built here, as one fixed (1, d, d) stack whatever ts.
    The kind is read here, where its guard runs; elsewhere only
    dephasing_analytic checks it.
    """

    hs: np.ndarray
    ensemble: DisorderEnsemble
    kind: str
    epsilon: float = 0.0
    eig: EigenSystem = field(init=False, repr=False)
    factors: np.ndarray = field(init=False, repr=False)
    kernel: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        hs = require_hermitian(self.hs, name="system Hamiltonian")
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}"
            )
        if hs.shape[0] != self.ensemble.dim:
            raise ValueError("system and ensemble dimensions disagree")
        if not mean_vanishes(self.ensemble, offset=hs):
            residual = max_abs(mean_hamiltonian(self.ensemble))
            raise ValueError(
                f"ensemble mean must vanish (got |mean|_max = {residual:.3e}); "
                "apply ensemble.center and fold the mean into hs first"
            )
        epsilon = float(self.epsilon)
        if not np.isfinite(epsilon) or epsilon < 0:
            raise ValueError("epsilon must be finite and non-negative")
        eig = herm_eig(hs)
        if self.kind == "dephasing":
            require_commuting(self.ensemble, hs)
            d = eig.dim
            kernel = lambda ts: np.broadcast_to(ts[:, None, None], (ts.size, d, d))
        elif self.kind == "redfield":
            gaps, deg_tol = eig.gaps, eig.degeneracy_threshold
            kernel = lambda ts: _phase_integral(gaps, ts, deg_tol)
        else:
            fixed = gksl_resolvent(eig, epsilon)[None]  # refuses a degenerate spectrum at epsilon = 0
            kernel = lambda ts: fixed
        factors = dagger(eig.basis) @ _second_moment_factors(self.ensemble) @ eig.basis
        object.__setattr__(self, "hs", hs)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "eig", eig)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "kernel", kernel)

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


# the name the run pipeline builds its problems by
make_problem = MasterEqProblem


def _phase_integral(gaps: np.ndarray, t, deg_tol: float) -> np.ndarray:
    """Elementwise int_0^t dt' exp(-it' gap) = (1 - exp(-it gap)) / (i gap).

    Gaps below deg_tol take the degenerate value t, the analytic limit. A
    scalar t gives one matrix, an array of times (T,) the stack (T, d, d).
    """
    t = np.asarray(t, dtype=np.float64)[..., None, None]
    live = np.abs(gaps) > deg_tol
    g = np.where(live, gaps, 1.0)
    return np.where(live, (1.0 - np.exp(-1j * t * g)) / (1j * g), t)


def h_tilde(h_lambda, eig: EigenSystem, t: float) -> np.ndarray:
    """Time-integrated interaction picture of one realization.

    In the eigenbasis of the system Hamiltonian the integral is elementwise:
    element (m, n) of Htil is (H_k)_mn * (1 - exp(-it(E_m - E_n))) / (i(E_m - E_n)),
    degenerate gaps contributing a factor t. If the realization commutes
    with the system Hamiltonian this reduces to t * H_k exactly.
    """
    h_lambda = require_hermitian(h_lambda, name="realization")
    if h_lambda.shape[0] != eig.dim:
        raise ValueError("realization dimension does not match the eigensystem")
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise ValueError("t must be finite and non-negative")
    phi = _phase_integral(eig.gaps, t, eig.degeneracy_threshold)
    g = dagger(eig.basis) @ h_lambda @ eig.basis
    return eig.basis @ (g * phi) @ dagger(eig.basis)


def gksl_resolvent(eig: EigenSystem, epsilon: float) -> np.ndarray:
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
    diffs = -eig.gaps  # entry (m, n): E_n - E_m
    if epsilon > 0:
        return 1j / (diffs + 1j * epsilon)
    deg_tol = eig.degeneracy_threshold
    off = ~np.eye(eig.dim, dtype=bool)
    if np.any(np.abs(diffs[off]) <= deg_tol):
        raise ValueError(
            "degenerate spectrum at epsilon = 0: the resolvent 1 / (E_n - E_m) "
            "diverges; pass epsilon > 0 to regularize"
        )
    r = np.zeros_like(diffs, dtype=np.complex128)
    r[off] = 1j / diffs[off]
    return r


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


def _make_rhs(p: MasterEqProblem):
    """Build kernels(ts) and rhs(rho~, x, a), the generator of p acting on
    rho~ = V+ rho V in the eigenbasis of H_S.

    kernels(ts) tabulates x = [X~_1; ...; X~_r] with X~_j = G_j o phi(t) as
    (T, r d, d) and a = sum_j G_j X~_j as (T, d, d) for times (T,); the
    fixed gksl kernels are only broadcast. rhs(rho~, x, a) is
    -i (E_m - E_n) o rho~ - (B + B+) with B = a rho~ - [G_1 rho~ ... G_r rho~] x,
    which needs a Hermitian rho~.
    """
    g, phi = p.factors, p.kernel
    r, d = g.shape[0], p.dim
    # row (m, j) holds row m of G_j: g_rows @ rho reshapes to the row block
    # [G_1 rho ... G_r rho] and g_rows.reshape(d, r d) is [G_1 ... G_r]
    g_rows = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(d * r, d)
    g_cols = g_rows.reshape(d, r * d)
    free = -1j * p.eig.gaps

    def kernels(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = phi(ts)
        x = (g * at[:, None]).reshape(at.shape[0], r * d, d)
        return (
            np.broadcast_to(x, (ts.size, r * d, d)),
            np.broadcast_to(g_cols @ x, (ts.size, d, d)),
        )

    def rhs(rho: np.ndarray, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        b = a @ rho - (g_rows @ rho).reshape(d, r * d) @ x
        return free * rho - (b + dagger(b))

    return kernels, rhs


def _make_liouvillian(p: MasterEqProblem):
    """Build tables(ts), the generator of p as d^2 x d^2 matrices at times ts.

    The matrices act on the row-major vec of rho~ = V+ rho V. Entry
    [(a, b), (c, e)] of -sum_j [G_j, [X~_j, rho~]] with X~_j = G_j o phi is
    K[a, b, c, e] (phi_eb + phi_ac) - A_ac delta_be - delta_ac B_eb, with
    the fixed K[a, b, c, e] = sum_j (G_j)_ac (G_j)_eb, A = sum_j G_j X~_j
    and B = sum_j X~_j G_j. So the generator is affine in phi whatever the
    rank r, and a table is one product [vec phi, 1] @ M with a fixed
    (d^2 + 1, d^4) matrix M, whose last row holds -i[E, rho~].

    tables(ts) is (T, d^2, d^2) for times (T,); for the time-independent
    gksl generator it is one fixed (1, d^2, d^2) stack, whatever ts.
    """
    g, phi = p.factors, p.kernel
    d = p.dim
    n = d * d
    k = np.einsum("jac,jeb->abce", g, g)
    q = np.einsum("jam,jmc->amc", g, g)  # A_ac = sum_m Q_amc phi_mc, B_eb = sum_m Q_emb phi_em
    unit = np.eye(n).reshape(n, d, d)  # each phi_mn = 1 in turn: the rows of M
    eye = np.eye(d)
    # axes [u, a, b, c, e]; eye[:, None, :] is delta_be, eye[:, None, :, None] delta_ac
    rows = k * (unit.swapaxes(1, 2)[:, None, :, None, :] + unit[:, :, None, :, None])
    rows -= np.einsum("amc,umc->uac", q, unit)[:, :, None, :, None] * eye[:, None, :]
    rows -= np.einsum("emb,uem->ube", q, unit)[:, None, :, None, :] * eye[:, None, :, None]
    free = -1j * np.diag(p.eig.gaps.ravel())
    m = np.concatenate([rows.reshape(n, n * n), free.reshape(1, n * n)])

    def tables(ts: np.ndarray) -> np.ndarray:
        at = phi(ts)
        coords = np.concatenate([at.reshape(-1, n), np.ones((at.shape[0], 1))], axis=1)
        return (coords @ m).reshape(-1, n, n)

    return tables


def _rk4_propagators(l1: np.ndarray, l2: np.ndarray, l4: np.ndarray, h: float) -> np.ndarray:
    """One-step propagators of classical RK4 for v' = L(t) v, batched.

    With L1, L2 and L4 the generator at t, t + h / 2 and t + h,
    P = I + h/6 (L1 + 2 A2 + 2 A3 + A4), where A2 = L2 + h/2 L2 L1,
    A3 = L2 + h/2 L2 A2 and A4 = L4 + h L4 A3 map v to the stages k2..k4.
    """
    stage = l2 @ l1
    stage *= 0.5 * h
    stage += l2
    total = stage + stage
    total += l1
    stage = l2 @ stage
    stage *= 0.5 * h
    stage += l2
    total += stage
    total += stage
    stage = l4 @ stage
    stage *= h
    stage += l4
    total += stage
    total *= h / 6.0
    np.einsum("...ii->...i", total)[...] += 1.0
    return total


def dephasing_analytic(p: MasterEqProblem, rho0, t: float) -> np.ndarray:
    """Closed pure-dephasing solution in the system eigenbasis.

    rho_nm(t) = rho_nm(0) exp(-it(E_n - E_m)) exp(-t^2 C2(n, m) / 2).
    Populations are constant; coherences rotate and decay with a Gaussian
    envelope set by the disorder's second moment, restricted to the level
    shifts: C2(n, m) = sum_k p_k (E_n^k - E_m^k)^2 with E_n^k = <n|H_k|n>,
    read from the problem's factors as sum_j ((G_j)_nn - (G_j)_mm)^2.
    Exact for Gaussian disorder, second-order accurate otherwise.
    """
    if p.kind != "dephasing":
        raise ValueError(f"problem kind is {p.kind!r}, expected 'dephasing'")
    rho0 = require_density(rho0, name="initial state")
    if rho0.shape[0] != p.dim:
        raise ValueError("initial state dimension does not match the problem")
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise ValueError("t must be finite and non-negative")
    shifts = np.diagonal(p.factors, axis1=1, axis2=2).real
    c2 = np.sum((shifts[:, :, None] - shifts[:, None, :]) ** 2, axis=0)
    v = p.eig.basis
    in_eig = dagger(v) @ rho0 @ v
    damped = in_eig * np.exp(-1j * t * p.eig.gaps) * np.exp(-0.5 * t * t * c2)
    return v @ damped @ dagger(v)


def master_rhs(p: MasterEqProblem, rho, t: float) -> np.ndarray:
    """Generator selected by p.kind, evaluated at (rho, t); gksl ignores t.

    rho must be Hermitian (within DEFAULT_TOL.hermitian): the generator is evaluated
    in a form that holds for Hermitian operators only, as V rhs(V+ rho V) V+
    in the eigenbasis of H_S.
    """
    rho = as_complex_matrix(rho, "state")
    if rho.shape != (p.dim, p.dim):
        raise ValueError(f"state shape {rho.shape} does not match problem dimension {p.dim}")
    require_hermitian(rho, name="state")
    kernels, rhs = _make_rhs(p)
    x, a = kernels(np.array([float(t)]))
    v = p.eig.basis
    return v @ rhs(dagger(v) @ rho @ v, x[0], a[0]) @ dagger(v)


def integrate(p: MasterEqProblem, rho0, t_final: float, dt: float) -> TimeSeries:
    """Fixed-step classical Runge-Kutta integration, sampled at every step.

    The state is evolved as rho~ = V+ rho V in the eigenbasis of H_S, where
    every kind is one generator with the problem's kernel factor phi(t),
    and re-Hermitized, rho~ <- (rho~ + rho~+) / 2, after each
    step; together with the trace-free generator this keeps the trace
    drift at rounding level. Steps run in chunks, each chunk's tables built
    at once, with one of two representations, chosen from d alone:

    * dense, for d <= _DENSE_MAX_DIM when one step's tables fit in half of
      linops.WORKSPACE_BYTES: the d^2 x d^2 Liouvillian, from which the
      chunk's RK4 one-step propagators are composed in batch (the fixed
      gksl one once); each step is then one matrix-vector product;
    * factored, otherwise: the kernels at t, t + dt / 2 and t + dt of every
      step are tabulated within half the budget, and each step makes four
      master_rhs-style evaluations.

    Each chunk is rotated back and re-Hermitized once more, so the states
    after states[0] = rho0 are bitwise Hermitian. A chunk with non-finite
    entries aborts the run, naming its first bad step. A warning is emitted
    when dt resolves the fastest phase poorly (dt * max |E_n| > 0.05).
    """
    rho0 = require_density(rho0, name="initial state")
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
    if not np.isfinite(t_final / dt):
        raise ValueError(f"dt = {dt:g} is too small: t_final / dt overflows")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(dt, t_final):
        warnings.warn(
            f"t_final = {t_final:g} is not a multiple of dt = {dt:g}; "
            f"integrating to {n_steps * dt:g}",
            stacklevel=2,
        )
    states = np.empty((n_steps + 1, p.dim, p.dim), dtype=np.complex128)
    states[0] = rho0
    v = p.eig.basis
    vh = dagger(v)
    rho = vh @ rho0 @ v
    chunk = _dense_chunk(p.dim)
    if chunk:
        blocks = _steps_dense(p, rho, n_steps, dt, chunk)
    else:
        blocks = _steps_factored(p, rho, n_steps, dt)
    for start, block in blocks:
        block = v @ block @ vh
        block = 0.5 * (block + block.conj().swapaxes(1, 2))
        bad = ~np.isfinite(block).all(axis=(1, 2))
        if bad.any():
            step = start + int(np.argmax(bad)) + 1
            raise RuntimeError(
                f"integration produced non-finite entries at step {step} "
                f"(t = {step * dt:g}); reduce dt"
            )
        states[start + 1 : start + 1 + block.shape[0]] = block
    times = np.arange(n_steps + 1, dtype=np.float64) * dt
    return TimeSeries(times=times, states=states)


# Largest d integrated with the dense Liouvillian. A dense step costs three
# batched d^2 x d^2 products to compose, growing as d^6, plus a few small
# numpy calls; a factored step is about 70 small numpy calls whatever d.
# Per step, dense against factored, redfield then gksl (2-core Xeon, 2000
# steps, 16 full-rank terms, two runs): d = 4: 34-47 / 8-13 us against
# 159-167 / 142-146 us; d = 5: 56-67 / 16-17 against 206-218 / 152-155;
# d = 6: 99-128 / 21-25 against 230-253 / 129-161; d = 7: 259-267 / 36-49
# against 208-220 / 141-142; d = 8: 530-667 / 92 against 258-262 / 166-180.
# Redfield crosses over between 6 and 7.
_DENSE_MAX_DIM = 6

# complex d^2 x d^2 arrays per step at the peak of a dense chunk: the
# generator at the grid points and the midpoints, the running propagator, one
# RK4 stage and a product (tracemalloc, redfield: 5.3 to 5.9 at d = 2, 4, 5)
_DENSE_TABLES = 6

# Bytes of tables per dense chunk, below half the budget. Larger tables went
# back to the system between chunks: for 4000 redfield steps at d = 4,
# chunks of 4 MiB took 25700 minor page faults and 46-50 us per step,
# chunks of 2 MiB 590 faults and 25-27 us, chunks of 1 MiB 26-29 us.
_DENSE_CHUNK_BYTES = 2**21


def _dense_chunk(d: int) -> int:
    """Steps per chunk of the dense representation, 0 to integrate factored.

    The dense form is taken for d <= _DENSE_MAX_DIM, when one step's tables
    fit in half of linops.WORKSPACE_BYTES.
    """
    budget = linops.WORKSPACE_BYTES // 2
    step_bytes = _DENSE_TABLES * d**4 * 16
    if d > _DENSE_MAX_DIM or step_bytes > budget:
        return 0
    return min(budget, _DENSE_CHUNK_BYTES) // step_bytes


def _steps_factored(p: MasterEqProblem, rho, n_steps: int, dt: float):
    """RK4 over the factored rhs from rho~ = rho in the eigenbasis of H_S,
    yielding (start, block) with the states after steps start + 1, ...
    of each chunk."""
    kernels, rhs = _make_rhs(p)
    d = p.dim
    # an empty table has the kernels' shape: r d + d rows of d complex
    # entries per time, three times per step, and up to two more copies of
    # the r d rows while the tables are built. They get half the budget:
    # at all of it, explicit-d4's peak RSS rose by about 1 MB (the heap
    # grows once the dilation's large temporaries are unmapped), while
    # chunks of fifty steps or more already cost under 1 us per step.
    rows = kernels(np.empty(0))[0].shape[1] + d
    chunk = max(1, linops.WORKSPACE_BYTES // (2 * 3 * 3 * rows * d * 16))
    for start in range(0, n_steps, chunk):
        t = np.arange(start, min(start + chunk, n_steps)) * dt
        x, a = kernels(np.concatenate([t, t + 0.5 * dt, t + dt]))
        steps = t.size
        block = np.empty((steps, d, d), dtype=np.complex128)
        for j in range(steps):
            h = steps + j  # t + dt / 2; t + dt is h + steps
            k1 = rhs(rho, x[j], a[j])
            k2 = rhs(rho + 0.5 * dt * k1, x[h], a[h])
            k3 = rhs(rho + 0.5 * dt * k2, x[h], a[h])
            k4 = rhs(rho + dt * k3, x[h + steps], a[h + steps])
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + dagger(rho))
            block[j] = rho
        del x, a  # before the next chunk's tables are built
        yield start, block


def _steps_dense(p: MasterEqProblem, rho, n_steps: int, dt: float, chunk: int):
    """The dense RK4 step propagators of _make_liouvillian applied to
    rho~ = rho in the eigenbasis of H_S, chunk steps at a time, yielding
    (start, block) like _steps_factored."""
    tables = _make_liouvillian(p)
    d = p.dim
    fixed = tables(np.empty(0))
    if fixed.shape[0]:  # time independent (gksl): one propagator for all steps
        fixed = _rk4_propagators(fixed, fixed, fixed, dt)
    for start in range(0, n_steps, chunk):
        stop = min(start + chunk, n_steps)
        steps = stop - start
        if fixed.shape[0]:
            props = np.broadcast_to(fixed, (steps, d * d, d * d))
        else:
            # the generator at t + dt of one step is the one at t of the next
            grid = np.arange(start, stop + 1) * dt
            at_grid = tables(grid)
            props = _rk4_propagators(
                at_grid[:-1], tables(grid[:-1] + 0.5 * dt), at_grid[1:], dt
            )
            del at_grid
        block = np.empty((steps, d, d), dtype=np.complex128)
        for j in range(steps):
            rho = (props[j] @ rho.reshape(-1)).reshape(d, d)
            rho = 0.5 * (rho + dagger(rho))
            block[j] = rho
        del props
        yield start, block
