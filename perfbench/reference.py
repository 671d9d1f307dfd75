"""Reference answers for the output checks, computed without rndunit.

This restates, in plain numpy, what rndunit computes for a scenario:
the ensemble-averaged exact channel, the three master-equation generators
integrated by the same fixed-step RK4 scheme, and the trace-distance
comparison with its breakdown time. It follows the formulas of the
package as it stood when the benchmark was written, so a later change to
rndunit that moves a reported breakdown time or maximum error beyond the
check tolerances shows up as a failed output check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GENERATOR_ORDER = ("redfield", "dephasing", "gksl")
THRESHOLD = 1e-2
ZERO_MEAN_TOL = 1e-12
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class Resolved:
    """A scenario document resolved the way rndunit resolves it."""

    dim: int
    hs: np.ndarray
    hams: np.ndarray
    weights: np.ndarray
    rho0: np.ndarray
    times: np.ndarray
    dt: float
    generators: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class Report:
    """What rndunit's .run.json reports for one generator."""

    max_error: float
    breakdown_time: float | None


def _matrix(value) -> np.ndarray:
    return np.array(
        [[complex(*z) if isinstance(z, list) else complex(z) for z in row] for row in value],
        dtype=np.complex128,
    )


def _ensemble(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    if spec["type"] == "explicit":
        hams = np.stack([_matrix(t["matrix"]) for t in spec["terms"]])
        return hams, np.array([float(t["weight"]) for t in spec["terms"]])
    base = _matrix(spec["base"])
    if spec["type"] == "gaussian":
        nodes, raw = np.polynomial.hermite.hermgauss(int(spec["n_nodes"]))
        lams = np.sqrt(2.0) * float(spec["sigma"]) * nodes
        return lams[:, None, None] * base[None], raw / np.sqrt(np.pi)
    g = float(spec["g"])
    return np.stack([g * base, -g * base]), np.array([0.5, 0.5])


def resolve(doc: dict) -> Resolved:
    """Parse a scenario document, center its ensemble and fold the mean into H_S."""
    dim = int(doc["dim"])
    hs = _matrix(doc["hs"])
    hams, weights = _ensemble(doc["ensemble"])
    mean = np.einsum("l,lab->ab", weights, hams)
    scale = max(1.0, max(float(np.max(np.abs(h))) for h in hams))
    if np.max(np.abs(mean)) > ZERO_MEAN_TOL * scale:
        hams = hams - mean[None]
        hs = hs + mean
    if doc["rho0"] != "plus":
        raise ValueError("the benchmark scenarios start from the plus state")
    vec = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    dt = float(doc["dt"])
    n_steps = int(round(float(doc["t_final"]) / dt))
    gens = []
    for g in doc.get("generators", []):
        gens.append((g, 0.0) if isinstance(g, str) else (g["name"], float(g.get("epsilon", 0.0))))
    gens.sort(key=lambda c: GENERATOR_ORDER.index(c[0]))
    return Resolved(
        dim=dim,
        hs=hs,
        hams=hams,
        weights=weights,
        rho0=np.outer(vec, vec.conj()),
        times=np.arange(n_steps + 1, dtype=np.float64) * dt,
        dt=dt,
        generators=tuple(gens),
    )


def exact_series(r: Resolved) -> np.ndarray:
    """sum_k p_k U_k(t) rho0 U_k(t)+ on the whole grid, shape (T, d, d)."""
    out = np.zeros((r.times.size, r.dim, r.dim), dtype=np.complex128)
    for h, w in zip(r.hams, r.weights):
        energies, v = np.linalg.eigh(r.hs + h)
        gaps = energies[:, None] - energies[None, :]
        b = v.conj().T @ r.rho0 @ v
        phases = np.exp(-1j * r.times[:, None, None] * gaps[None])
        out += w * (v @ (phases * b[None]) @ v.conj().T)
    return out


def _rhs(r: Resolved, kind: str, epsilon: float):
    hs, hams, w = r.hs, r.hams, r.weights
    energies, v = np.linalg.eigh(hs)
    vh = v.conj().T
    deg_tol = DEGENERACY_TOL * max(1.0, float(energies[-1] - energies[0]))
    gaps = energies[:, None] - energies[None, :]
    g_stack = vh @ hams @ v

    def dissipate(htil: np.ndarray, rho: np.ndarray) -> np.ndarray:
        inner = htil @ rho - rho @ htil
        return np.tensordot(w, hams @ inner - inner @ hams, axes=1)

    if kind == "dephasing":
        s2 = np.tensordot(w, hams @ hams, axes=1)
        hw = np.sqrt(w)[:, None, None] * hams

        def rhs(rho, t):
            mid = ((hw @ rho) @ hw).sum(axis=0)
            return -1j * (hs @ rho - rho @ hs) - t * (s2 @ rho + rho @ s2 - 2.0 * mid)

        return rhs
    if kind == "redfield":
        live = np.abs(gaps) > deg_tol

        def rhs(rho, t):
            phi = np.full(gaps.shape, complex(t), dtype=np.complex128)
            phi[live] = (1.0 - np.exp(-1j * t * gaps[live])) / (1j * gaps[live])
            return -1j * (hs @ rho - rho @ hs) - dissipate(v @ (g_stack * phi) @ vh, rho)

        return rhs
    diffs = -gaps  # entry (m, n): E_n - E_m
    if epsilon > 0:
        kernel = 1j / (diffs + 1j * epsilon)
    else:
        off = ~np.eye(r.dim, dtype=bool)
        kernel = np.zeros(diffs.shape, dtype=np.complex128)
        kernel[off] = 1j / diffs[off]
    htil = v @ (g_stack * kernel) @ vh
    return lambda rho, t: -1j * (hs @ rho - rho @ hs) - dissipate(htil, rho)


def integrate(r: Resolved, kind: str, epsilon: float) -> np.ndarray:
    """Classical RK4 with re-Hermitization after every step, shape (T, d, d)."""
    rhs = _rhs(r, kind, epsilon)
    dt = r.dt
    states = np.empty((r.times.size, r.dim, r.dim), dtype=np.complex128)
    rho = states[0] = r.rho0
    for i in range(r.times.size - 1):
        t = i * dt
        k1 = rhs(rho, t)
        k2 = rhs(rho + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(rho + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(rho + dt * k3, t + dt)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        states[i + 1] = rho
    return states


def compare(times: np.ndarray, exact: np.ndarray, approx: np.ndarray) -> Report:
    """Maximum trace distance and first time it exceeds THRESHOLD."""
    dist = 0.5 * np.linalg.svd(exact - approx, compute_uv=False).sum(axis=1)
    over = np.flatnonzero(dist > THRESHOLD)
    return Report(
        max_error=float(dist.max()),
        breakdown_time=float(times[over[0]]) if over.size else None,
    )


def reports(r: Resolved) -> dict[str, Report]:
    """Reference report for every generator a scenario requests."""
    exact = exact_series(r)
    return {
        kind: compare(r.times, exact, integrate(r, kind, eps)) for kind, eps in r.generators
    }


def ensemble_rank(r: Resolved) -> int:
    """Numerical rank of the stacked rows sqrt(p_k) vec(H_k) of the centered ensemble."""
    rows = np.sqrt(r.weights)[:, None] * r.hams.reshape(r.hams.shape[0], -1)
    return int(np.linalg.matrix_rank(rows))
