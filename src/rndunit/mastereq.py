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
* dephasing   redfield under a guard that [H_S, H_k] = 0, where
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
the phase integral (redfield and dephasing, where it is t on every entry
the commuting guard lets G_j reach) or the fixed resolvent (gksl); both
are derived once, when the problem is built. Since G_j,
X~_j and rho~ are Hermitian, the generator is
-i (E_m - E_n) o rho~ - (B + B+) with
B = (sum_j G_j X~_j) rho~ - [G_1 rho~ ... G_r rho~] [X~_1; ...; X~_r],
three matrix products whatever r; so master_rhs takes Hermitian rho only.

integrate runs fixed-step classical Runge-Kutta in the eigenbasis over
one of three representations of that generator. A fixed kernel (gksl)
makes the generator time independent, so every step is one d^2 x d^2
propagator, composed once from the Liouvillian written straight from the
kernel, whenever that build fits linops.WORKSPACE_BYTES less numpy's
buffers. A time-dependent kernel takes, for d <= _DENSE_MAX_DIM (the
measured crossover), the dense Liouvillian, affine in phi, from which a
chunk's one-step propagators are composed in batch; above it, as does a
fixed kernel whose propagator does not fit, the factored form. One loop
steps all three: linops.chunks splits the steps so that a chunk's tables
fit that same budget, each chunk tabulates a time-dependent generator at
its grid points and midpoints at once, and each chunk is rotated back and
Hermitized once, in place. A fixed kernel is tabulated once for all steps,
so its chunks are sized by their rotation buffers alone.
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
    require_system,
)
from .linops import (
    EigenSystem,
    as_complex_matrix,
    dagger,
    herm_eig,
    max_abs,
    require_density,
    require_hermitian,
    require_times,
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
    "grid_steps",
    "time_grid",
    "check_grid",
    "integrate",
]

GENERATOR_KINDS = ("redfield", "dephasing", "gksl")


@dataclass(frozen=True, eq=False)
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
    ts (T,), the phase integral for redfield and dephasing; for gksl the
    resolvent, built here, as one fixed (1, d, d) stack whatever ts, which
    `fixed_kernel` records. The kind is read here, where its guard runs;
    elsewhere only dephasing_analytic checks it.
    """

    hs: np.ndarray
    ensemble: DisorderEnsemble
    kind: str
    epsilon: float = 0.0
    eig: EigenSystem = field(init=False, repr=False)
    factors: np.ndarray = field(init=False, repr=False)
    kernel: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)
    fixed_kernel: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        hs = require_system(self.hs, self.ensemble)
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}"
            )
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
        fixed_kernel = self.kind == "gksl"
        if fixed_kernel:
            fixed = gksl_resolvent(eig, epsilon)[None]  # refuses a degenerate spectrum at epsilon = 0
            kernel = lambda ts: fixed
        else:
            gaps, deg_tol = eig.gaps, eig.degeneracy_threshold
            kernel = lambda ts: _phase_integral(gaps, ts, deg_tol)
        factors = dagger(eig.basis) @ _second_moment_factors(self.ensemble) @ eig.basis
        object.__setattr__(self, "hs", hs)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "eig", eig)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "fixed_kernel", fixed_kernel)

    @property
    def dim(self) -> int:
        return self.ensemble.dim


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled trajectory: strictly increasing times (T,), states (T, d, d)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        times = require_times(self.times)
        states = np.asarray(self.states, dtype=np.complex128)
        # a comparison of two views makes only the bool array, not a diff
        if not (times[1:] > times[:-1]).all():
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
    """Build tables(ts) and rhs(rho~, x, a), the generator of p acting on
    rho~ = V+ rho V in the eigenbasis of H_S.

    tables(ts) gives, for times (T,), the pair of stacks x = [X~_1; ...; X~_r]
    with X~_j = G_j o phi(t), (T, r d, d), and a = sum_j G_j X~_j, (T, d, d),
    each written whole, so no product writes a strided slice; the fixed gksl
    kernel gives stacks of one whatever ts. rhs(rho~, x, a) is
    -i (E_m - E_n) o rho~ - (B + B+) with B = a rho~ - [G_1 rho~ ... G_r rho~] x,
    which needs a Hermitian rho~.
    """
    g, phi = p.factors, p.kernel
    r, d = g.shape[0], p.dim
    rd = r * d
    # row (m, j) holds row m of G_j: g_rows @ rho reshapes to the row block
    # [G_1 rho ... G_r rho] and g_rows.reshape(d, r d) is [G_1 ... G_r]
    g_rows = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(rd, d)
    g_cols = g_rows.reshape(d, rd)
    free = -1j * p.eig.gaps

    def tables(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = phi(ts)
        x = np.multiply(g, at[:, None]).reshape(len(at), rd, d)
        return x, g_cols @ x

    def rhs(rho: np.ndarray, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        b = a @ rho - (g_rows @ rho).reshape(d, rd) @ x
        return free * rho - (b + dagger(b))

    return tables, rhs


def _dissipators(g: np.ndarray, phi: np.ndarray, out: np.ndarray) -> None:
    """Write into out (T, d^2, d^2) the dissipator -sum_j [G_j, [X~_j, .]]
    of the factors g (r, d, d) at each kernel matrix of phi (T, d, d), with
    X~_j = G_j o phi, as it acts on the row-major vec of rho~.

    Its entry [(a, b), (c, e)] is K[a, b, c, e] (phi_eb + phi_ac)
    - A_ac delta_be - delta_ac B_eb, with K[a, b, c, e] = sum_j (G_j)_ac (G_j)_eb,
    A = sum_j G_j X~_j and B = sum_j X~_j G_j: A_ac = sum_m Q_amc phi_mc and
    B_eb = sum_m Q_emb phi_em with Q_amc = sum_j (G_j)_am (G_j)_mc. Every
    term is written in out's own buffer, through np.einsum diagonal views.
    """
    k = np.einsum("jac,jeb->abce", g, g)
    q = np.einsum("jam,jmc->amc", g, g)
    d = g.shape[1]
    rows = out.reshape(-1, d, d, d, d)  # axes [t, a, b, c, e]
    np.add(phi.transpose(0, 2, 1)[:, None, :, None, :], phi[:, :, None, :, None], out=rows)
    rows *= k
    np.einsum("tabcb->tabc", rows)[...] -= np.einsum("amc,tmc->tac", q, phi)[:, :, None, :]
    np.einsum("tabae->tabe", rows)[...] -= np.einsum("emb,tem->tbe", q, phi)[:, None]


def _make_liouvillian(p: MasterEqProblem):
    """Build tables(ts), the generator of p as d^2 x d^2 matrices at times ts.

    The matrices act on the row-major vec of rho~ = V+ rho V. The
    dissipator (_dissipators) is linear in phi whatever the rank r, so a
    table is one product [vec phi, 1] @ M with a fixed (d^2 + 1, d^4) matrix
    M: row (x, y) is the dissipator at the unit kernel phi_xy = 1, the last
    row -i[E, rho~].

    tables(ts) is (T, d^2, d^2) for times (T,).
    """
    d = p.dim
    n = d * d
    m = np.empty((n + 1, n * n), dtype=np.complex128)
    _dissipators(p.factors, np.eye(n, dtype=np.complex128).reshape(n, d, d), m[:n])
    m[n] = (-1j * np.diag(p.eig.gaps.ravel())).ravel()

    def tables(ts: np.ndarray) -> np.ndarray:
        at = p.kernel(ts)
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
    rho0 = require_density(rho0, "initial state", p.dim)
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
    tables, rhs = _make_rhs(p)
    x, a = tables(np.array([float(t)]))
    v = p.eig.basis
    return v @ rhs(dagger(v) @ rho @ v, x[0], a[0]) @ dagger(v)


def grid_steps(t_final: float, dt: float) -> int:
    """round(t_final / dt) steps of dt: the one rule for the time grid. A
    t_final that is not finite and non-negative, a dt that is not finite and
    positive, and a t_final / dt that overflows are refused naming the field."""
    if not np.isfinite(t_final) or t_final < 0:
        raise ValueError("t_final: must be finite and non-negative")
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError("dt: must be finite and positive")
    if not np.isfinite(t_final / dt):
        raise ValueError("dt: too small for t_final, the step count overflows")
    return int(round(t_final / dt))


def time_grid(t_final: float, dt: float) -> np.ndarray:
    """The times k dt, k = 0 .. grid_steps(t_final, dt): the one grid array."""
    return np.arange(grid_steps(t_final, dt) + 1, dtype=np.float64) * dt


def check_grid(p: MasterEqProblem, t_final: float, dt: float) -> None:
    """Warn when dt resolves the fastest phase of p's system poorly, by a
    rule that sees only the gaps, as the generator does:
    dt (E_max - E_min) / 2 > 0.05; and when t_final is not on the grid.
    integrate calls it first, so its warnings point at integrate's caller."""
    fastest = 0.5 * float(p.eig.energies[-1] - p.eig.energies[0])
    if dt * fastest > 0.05:
        warnings.warn(
            f"dt = {dt:g} resolves the fastest system phase poorly (dt (E_max - E_min)"
            f" / 2 = {dt * fastest:.3g} > 0.05); expect discretization error",
            stacklevel=3,
        )
    # the last grid point, as time_grid makes it
    last = grid_steps(t_final, dt) * dt
    if abs(last - t_final) > 1e-9 * max(dt, t_final):
        warnings.warn(
            f"t_final = {t_final:g} is not a multiple of dt = {dt:g}; "
            f"integrating to {last:g}",
            stacklevel=3,
        )


def integrate(p: MasterEqProblem, rho0, t_final: float, dt: float) -> TimeSeries:
    """Fixed-step classical Runge-Kutta integration, sampled at every step.

    The state is evolved as rho~ = V+ rho V in the eigenbasis of H_S, where
    every kind is one generator with the problem's kernel factor phi(t), in
    one of three representations:

    * propagator, for a fixed kernel (gksl) whose build fits the room below:
      the generator is time independent, so every RK4 step is one d^2 x d^2
      propagator P, composed once from the Liouvillian written straight from
      the kernel; each step is one matrix-vector product on the row-major
      vector of rho~;
    * dense, for a time-dependent kernel at d <= _DENSE_MAX_DIM: the d^2 x d^2
      Liouvillian, from which each chunk's one-step propagators are composed
      in batch, each step again one product;
    * factored, otherwise: each step makes four master_rhs-style
      evaluations. Their B + B+ form assumes a Hermitian rho~: the
      rounding-level anti-Hermitian part the steps leave is only rotated,
      feeds the Hermitian part at rounding level, and is removed when the
      chunk is Hermitized.

    The steps run in linops.chunks chunks. A time-dependent kernel is
    tabulated at each chunk's grid points and midpoints at once, the end
    table of one step being the start table of the next; a fixed one once,
    for every step, so its chunks hold only their rotation buffers. A
    chunk's tables, and P's build, fit linops.WORKSPACE_BYTES less numpy's
    buffers for one ufunc call with two buffered operands (the factored
    tables' broadcast product); a fixed kernel whose P does not fit is
    stepped factored.

    No representation re-Hermitizes within a chunk. Each chunk is
    rotated back and Hermitized once, in place, so the states after
    states[0] = rho0 are bitwise Hermitian; with the trace-free generator
    this keeps the trace drift at rounding level. A chunk with non-finite
    entries aborts the run, naming its first bad step. The grid is
    time_grid(t_final, dt), checked first by check_grid.
    """
    rho0 = require_density(rho0, "initial state", p.dim)
    dt = float(dt)
    t_final = float(t_final)
    check_grid(p, t_final, dt)
    times = time_grid(t_final, dt)
    states = np.empty((times.size, p.dim, p.dim), dtype=np.complex128)
    states[0] = rho0
    v = p.eig.basis
    vh = dagger(v)
    rho = vh @ rho0 @ v
    if p.fixed_kernel:
        fits = _PROPAGATOR_ARRAYS * 16 * p.dim**4 <= linops.WORKSPACE_BYTES - linops.buffer_bytes(2)
        build = _propagator if fits else _factored
    else:
        build = _dense if p.dim <= _DENSE_MAX_DIM else _factored
    step_tables, step_bytes, advance = build(p, dt)
    for sl in linops.chunks(times.size - 1, step_bytes, linops.WORKSPACE_BYTES - linops.buffer_bytes(2)):
        block = states[sl.start + 1 : sl.stop + 1]
        advance(rho, step_tables(times[sl.start : sl.stop + 1]), block)
        rho = block[-1].copy()
        # block <- V block V+, then (block + block+) / 2, beside one buffer,
        # freed before the finiteness mask is made
        buffer = np.matmul(v, block)
        np.matmul(buffer, vh, out=block)
        np.conjugate(block.swapaxes(1, 2), out=buffer)
        np.add(block, buffer, out=block)
        block *= 0.5
        del buffer
        bad = ~np.isfinite(block).all(axis=(1, 2))
        if bad.any():
            step = sl.start + int(np.argmax(bad)) + 1
            raise RuntimeError(
                f"integration produced non-finite entries at step {step} "
                f"(t = {step * dt:g}); reduce dt"
            )
    return TimeSeries(times=times, states=states)


# Largest d at which a time-dependent kernel (redfield, dephasing) is
# integrated with the dense Liouvillian; a fixed one takes its propagator
# whenever that fits the budget. A dense step costs three batched d^2 x d^2
# products to compose, growing as d^6, plus a few small numpy calls; a
# factored step is about 70 small numpy calls whatever d, on products that
# shrink with the rank r. Per redfield step, dense against factored (2-core
# Xeon, 2000 steps, 16 full-rank terms: r = 15, the form chosen by setting
# this constant, as the tests do; three processes, two warm runs each,
# leaving out one first run of 512 us at d = 4): d = 4: 12-15 against
# 55-115 us; d = 5: 27-39 against 59-92; d = 6: 62-82 against 62-88;
# d = 7: 183-278 against 82-143; d = 8: 506-771 against 85-123. The two
# forms tie at d = 6 and the factored one wins from d = 7. At r = 1 the
# factored cost falls: on gauss-d8 (d = 8) traced runs took 75-96 us a
# step (quartiles). At d <= 6 one step's dense tables take at most
# 6 * 6^4 * 16 B (122 KiB), well within the budget.
_DENSE_MAX_DIM = 6

# complex d^2 x d^2 arrays per step at the peak of a dense chunk: the
# generator at the grid points and the midpoints, the running propagator, one
# RK4 stage and a product (tracemalloc, redfield: 5.3 to 5.9 at d = 2, 4, 5)
_DENSE_TABLES = 6

# complex d^2 x d^2 arrays at the peak of the fixed propagator's build: the
# generator beside P and two RK4 stages, after K and Q are freed, and one to
# spare (tracemalloc: 4.0 to 4.7 at d = 4, 8 and 10, r = 1; at r = 15 the
# einsums for K and Q add numpy's buffers, which the budget leaves out). So
# P is built for d <= 9 at 1 MiB, for d <= 7 at 512 KiB
_PROPAGATOR_ARRAYS = 5


def _propagate(rho, props, block):
    """Write to block the states after each of its steps from rho~, each step
    one product with its one-step propagator in props (one propagator, for a
    fixed kernel, serving every step) on the row-major vector of rho~."""
    n = rho.size
    props = np.broadcast_to(props, (len(block), n, n))
    vec = rho.reshape(-1)
    rows = block.reshape(len(block), n)
    for j in range(len(block)):
        vec = props[j] @ vec
        rows[j] = vec


def _propagator(p: MasterEqProblem, dt: float):
    """The propagator representation of a fixed kernel: step_tables(grid),
    which gives the one RK4 propagator of every step, composed here from the
    Liouvillian at the kernel (read once, at t = 0); the bytes a step holds,
    its rotation buffer; and advance(rho~, props, block), which writes to
    block the states after each of its steps."""
    n = p.dim * p.dim
    generator = np.empty((1, n, n), dtype=np.complex128)
    _dissipators(p.factors, p.kernel(np.zeros(1)), generator)
    np.einsum("ii->i", generator[0])[...] += -1j * p.eig.gaps.ravel()
    props = _rk4_propagators(generator, generator, generator, dt)
    return lambda grid: props, 16 * n, _propagate


def _dense(p: MasterEqProblem, dt: float):
    """The dense representation of a time-dependent kernel, as _propagator:
    step_tables(grid) composes a chunk's one-step propagators from the
    tables of _make_liouvillian at its grid points and midpoints."""
    tables = _make_liouvillian(p)
    n = p.dim * p.dim

    def step_tables(grid):
        # the table at the end of one step is the one at the start of the next
        at_grid = tables(grid)
        return _rk4_propagators(at_grid[:-1], tables(grid[:-1] + 0.5 * dt), at_grid[1:], dt)

    return step_tables, _DENSE_TABLES * n * n * 16, _propagate


def _factored(p: MasterEqProblem, dt: float):
    """The factored representation, as _propagator: step_tables(grid) gives
    the tables of _make_rhs at a chunk's step starts, midpoints and ends (one
    table, for a fixed kernel, serving every step), and advance makes the
    four RK4 stages of each step."""
    tables, rhs = _make_rhs(p)
    r, d = p.factors.shape[:2]
    if p.fixed_kernel:
        fixed = tables(np.zeros(1))
        step_tables = lambda grid: (fixed, fixed, fixed)
        # a step then holds only its rotation buffer (tracemalloc: 1.0
        # d x d arrays a step, at d = 4, 5 and 8)
        step_bytes = 16 * d * d
    else:

        def step_tables(grid):
            # the table at the end of one step is the one at the start of the next
            (x, a), mid = tables(grid), tables(grid[:-1] + 0.5 * dt)
            return (x[:-1], a[:-1]), mid, (x[1:], a[1:])

        # a table's (r + 1) d rows of d complex entries, twice a step, and
        # one more d x d array while the midpoint tables are built
        # (tracemalloc: 2 (r + 1) + 1.0 d x d arrays a step at d = 4, 5, 8
        # and r = 1, 15)
        step_bytes = (2 * r + 3) * d * d * 16

    def advance(rho, step, block):
        (x1, a1), (x2, a2), (x4, a4) = (
            [np.broadcast_to(t, (len(block), *t.shape[1:])) for t in table] for table in step
        )
        for j in range(len(block)):
            k1 = rhs(rho, x1[j], a1[j])
            k2 = rhs(rho + 0.5 * dt * k1, x2[j], a2[j])
            k3 = rhs(rho + 0.5 * dt * k2, x2[j], a2[j])
            k4 = rhs(rho + dt * k3, x4[j], a4[j])
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            block[j] = rho

    return step_tables, step_bytes, advance
