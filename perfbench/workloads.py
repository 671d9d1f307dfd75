"""Scenario documents for the three benchmark workloads.

Every random input comes from the benchmark's --seed; rndunit only ever
sees the generated JSON. The built-in demos are copied here rather than
read from rndunit, so the reference check notices if a change alters them.
"""

from __future__ import annotations

import numpy as np

DT = 0.01
# dt * max|E| must stay at or below 0.05 or rndunit's integrator warns
MAX_ENERGY = 4.0


def _emit(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


_SZ = np.diag([1.0, -1.0]).astype(np.complex128)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)

DEMOS = {
    "gaussian-dephasing": {
        "name": "gaussian-dephasing",
        "dim": 2,
        "hs": _emit(0.5 * _SZ),
        "ensemble": {"type": "gaussian", "base": _emit(_SZ), "sigma": 0.2, "n_nodes": 32},
        "rho0": "plus",
        "t_final": 10.0,
        "dt": 0.01,
        "generators": ["redfield", "dephasing"],
        "seed": 7,
    },
    "two-point-breakdown": {
        "name": "two-point-breakdown",
        "dim": 2,
        "hs": _emit(0.5 * _SZ),
        "ensemble": {"type": "two_point", "base": _emit(_SZ), "g": 0.5},
        "rho0": "plus",
        "t_final": 5.0,
        "dt": 0.01,
        "generators": ["dephasing"],
        "seed": 11,
    },
    "gksl-qubit": {
        "name": "gksl-qubit",
        "dim": 2,
        "hs": _emit(0.5 * _SZ),
        "ensemble": {"type": "two_point", "base": _emit(_SX), "g": 0.1},
        "rho0": "plus",
        "t_final": 20.0,
        "dt": 0.01,
        "generators": ["redfield", "gksl"],
        "seed": 13,
    },
}

# sigma of the Gaussian disorder in gauss-d8, in units of |B| = 1
GAUSS_SIGMA = 0.5
# strength of each explicit term in explicit-d4, in units of |H_k| = 1
EXPLICIT_STRENGTH = 0.15


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def _unit_norm(h: np.ndarray) -> np.ndarray:
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def _system(rng: np.random.Generator, dim: int) -> np.ndarray:
    return MAX_ENERGY * _unit_norm(_random_hermitian(rng, dim))


def gauss_d8(seed: int) -> dict:
    """Random H_S (d=8) with Gaussian disorder sigma*B, 32 Gauss-Hermite nodes."""
    rng = np.random.default_rng([seed, 8])
    hs = _system(rng, 8)
    base = _unit_norm(_random_hermitian(rng, 8))
    return {
        "name": "gauss-d8",
        "dim": 8,
        "hs": _emit(hs),
        "ensemble": {"type": "gaussian", "base": _emit(base), "sigma": GAUSS_SIGMA, "n_nodes": 32},
        "rho0": "plus",
        "t_final": 10.0,
        "dt": DT,
        "generators": ["redfield", "gksl"],
    }


def explicit_d4(seed: int) -> dict:
    """Random H_S (d=4) with 16 random full-rank, zero-mean explicit terms."""
    rng = np.random.default_rng([seed, 4])
    hs = _system(rng, 4)
    weights = rng.uniform(0.5, 1.0, size=16)
    weights /= weights.sum()
    hams = np.stack([_unit_norm(_random_hermitian(rng, 4)) for _ in range(16)])
    # zero mean up front, so centering folds nothing into H_S
    hams -= np.einsum("k,kab->ab", weights, hams)[None]
    hams *= EXPLICIT_STRENGTH
    return {
        "name": "explicit-d4",
        "dim": 4,
        "hs": _emit(hs),
        "ensemble": {
            "type": "explicit",
            "terms": [
                {"matrix": _emit(h), "weight": float(w)} for h, w in zip(hams, weights)
            ],
        },
        "rho0": "plus",
        "t_final": 40.0,
        "dt": DT,
        "generators": ["redfield", "gksl"],
    }


def scenarios(workload: str, seed: int) -> dict[str, dict]:
    """Scenario documents of a workload, keyed by the name of each invocation."""
    if workload == "demos":
        return dict(DEMOS)
    if workload == "gauss-d8":
        return {"gauss-d8": gauss_d8(seed)}
    if workload == "explicit-d4":
        return {"explicit-d4": explicit_d4(seed)}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("demos", "gauss-d8", "explicit-d4")
