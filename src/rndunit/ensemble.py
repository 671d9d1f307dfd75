"""Static disorder ensembles: weighted Hamiltonian realizations.

A DisorderEnsemble models a classical probability distribution over
Hamiltonians H_k with weights p_k >= 0, sum p_k = 1. Centering splits
off the weighted mean so the fluctuation part averages to zero; the
master-equation generators require that centered form, and mean_vanishes
is the one rule that decides when a mean counts as zero. Gaussian
distributions are discretized by Gauss-Hermite quadrature, which keeps
low moments exact with a handful of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import (
    DEFAULT_TOL,
    as_complex_matrix,
    commutator,
    max_abs,
    require_hermitian,
    require_probabilities,
)

__all__ = [
    "DisorderEnsemble",
    "CenteredEnsemble",
    "mean_hamiltonian",
    "mean_vanishes",
    "center",
    "gauss_hermite_ensemble",
    "two_point_ensemble",
    "require_commuting",
]


@dataclass(frozen=True)
class DisorderEnsemble:
    """Ordered Hamiltonian realizations (n, d, d) with weights (n,)."""

    hamiltonians: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        hams = np.asarray(self.hamiltonians, dtype=np.complex128)
        if hams.ndim != 3 or hams.shape[1] != hams.shape[2]:
            raise ValueError(
                f"hamiltonians must have shape (n, d, d), got {hams.shape}"
            )
        if hams.shape[0] == 0:
            raise ValueError("ensemble needs at least one realization")
        for k in range(hams.shape[0]):
            require_hermitian(hams[k], name=f"realization {k}")
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (hams.shape[0],):
            raise ValueError(
                f"weights shape {weights.shape} does not match {hams.shape[0]} realizations"
            )
        require_probabilities(weights)
        object.__setattr__(self, "hamiltonians", hams)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.hamiltonians.shape[1]

    @property
    def size(self) -> int:
        return self.hamiltonians.shape[0]

    @classmethod
    def from_pairs(cls, pairs) -> "DisorderEnsemble":
        """Build from an iterable of (hamiltonian, weight) pairs."""
        pairs = list(pairs)
        if not pairs:
            raise ValueError("ensemble needs at least one realization")
        hams = np.stack([as_complex_matrix(h, "realization") for h, _ in pairs])
        weights = np.array([w for _, w in pairs], dtype=np.float64)
        return cls(hamiltonians=hams, weights=weights)


@dataclass(frozen=True)
class CenteredEnsemble:
    """Weighted mean plus a fluctuation ensemble whose mean vanishes."""

    mean: np.ndarray
    ensemble: DisorderEnsemble

    def __post_init__(self) -> None:
        mean = require_hermitian(self.mean, name="ensemble mean")
        if mean.shape[0] != self.ensemble.dim:
            raise ValueError("mean dimension does not match the ensemble")
        if not mean_vanishes(self.ensemble, offset=mean):
            residual = max_abs(mean_hamiltonian(self.ensemble))
            raise ValueError(
                f"centered ensemble has nonzero mean: |mean|_max = {residual:.3e}"
            )
        object.__setattr__(self, "mean", mean)


def mean_hamiltonian(e: DisorderEnsemble) -> np.ndarray:
    """Weighted mean sum_k p_k H_k."""
    return np.einsum("l,lab->ab", e.weights, e.hamiltonians)


def mean_vanishes(e: DisorderEnsemble, offset=None) -> bool:
    """Whether the weighted mean of e counts as zero.

    The bound is DEFAULT_TOL.zero_mean * max(1, |offset|_max, max_k |H_k|_max),
    where offset is the Hamiltonian the ensemble sits on: the mean removed
    by centering, or the system Hamiltonian it was folded into. Rounding in
    sum_k p_k H_k and in H_k - Hbar scales with both, so a centered
    ensemble passes whatever the size of the field it was centered on.
    """
    scale = max(1.0, max_abs(e.hamiltonians))
    if offset is not None:
        scale = max(scale, max_abs(offset))
    return max_abs(mean_hamiltonian(e)) <= DEFAULT_TOL.zero_mean * scale


def center(e: DisorderEnsemble) -> CenteredEnsemble:
    """Split off the weighted mean: H_k -> H_k - Hbar, so the rest averages to zero.

    Adding the mean to the system Hamiltonian leaves every total block
    H_S + H_k unchanged, so the dynamics is invariant under this split.
    A mean that mean_vanishes (on no offset) is treated as exactly zero,
    which makes centering idempotent bit for bit.
    """
    mean = mean_hamiltonian(e)
    if mean_vanishes(e):
        return CenteredEnsemble(mean=np.zeros_like(mean), ensemble=e)
    shifted = e.hamiltonians - mean[None, :, :]
    return CenteredEnsemble(
        mean=mean,
        ensemble=DisorderEnsemble(hamiltonians=shifted, weights=e.weights.copy()),
    )


def gauss_hermite_ensemble(base, sigma: float, n_nodes: int) -> DisorderEnsemble:
    """Discretize lambda ~ N(0, sigma^2) acting as H_lambda = lambda * base.

    Uses the n-node Gauss-Hermite rule: nodes x_k and weights v_k for
    weight function exp(-x^2) become lambda_k = sigma * sqrt(2) * x_k and
    p_k = v_k / sqrt(pi). Moments of the Gaussian up to degree 2n - 1 are
    reproduced exactly; in particular sum p_k lambda_k^2 = sigma^2 for n >= 2.
    numpy's rule overflows in double precision beyond a few hundred nodes
    (from 371 with numpy 2.4); such a rule is refused, naming n_nodes.
    """
    base = require_hermitian(base, name="base operator")
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError("sigma must be finite and non-negative")
    n_nodes = int(n_nodes)
    if n_nodes < 1:
        raise ValueError("n_nodes must be at least 1")
    with np.errstate(all="ignore"):
        nodes, raw = np.polynomial.hermite.hermgauss(n_nodes)
    weights = raw / np.sqrt(np.pi)
    finite = np.isfinite(nodes).all() and np.isfinite(weights).all()
    if not finite or abs(weights.sum() - 1.0) > DEFAULT_TOL.trace:
        raise ValueError(
            f"n_nodes = {n_nodes} is too many: numpy's Gauss-Hermite rule "
            "overflows in double precision; use fewer nodes"
        )
    lams = np.sqrt(2.0) * sigma * nodes
    hams = lams[:, None, None] * base[None, :, :]
    return DisorderEnsemble(hamiltonians=hams, weights=weights)


def two_point_ensemble(base, g: float) -> DisorderEnsemble:
    """Symmetric two-point distribution lambda = +-g with weight 1/2 each."""
    base = require_hermitian(base, name="base operator")
    g = float(g)
    if not np.isfinite(g):
        raise ValueError("g must be finite")
    hams = np.stack([g * base, -g * base])
    return DisorderEnsemble(hamiltonians=hams, weights=np.array([0.5, 0.5]))


def require_commuting(e: DisorderEnsemble, reference) -> None:
    """Check every realization commutes with `reference` within tolerance.

    The bound is |[H_k, H]|_max <= DEFAULT_TOL.commutation * |H_k|_max * |H|_max,
    so scaling either operator does not change the verdict.
    """
    ref = require_hermitian(reference, name="reference operator")
    ref_scale = max_abs(ref)
    for k in range(e.size):
        h_k = e.hamiltonians[k]
        defect = max_abs(commutator(h_k, ref))
        bound = DEFAULT_TOL.commutation * max_abs(h_k) * ref_scale
        if defect > bound:
            raise ValueError(
                f"realization {k} does not commute with the system Hamiltonian: "
                f"|[H_{k}, H]|_max = {defect:.3e} exceeds {bound:.3e}"
            )
