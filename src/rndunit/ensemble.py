"""Static disorder ensembles: weighted Hamiltonian realizations.

A DisorderEnsemble models a classical probability distribution over
Hamiltonians H_k with weights p_k >= 0, sum p_k = 1. Centering splits
off the weighted mean as the pair (mean, fluctuations); the
master-equation generators require the zero-mean fluctuations, and
mean_vanishes is the one rule that decides when a mean counts as zero.
Gaussian distributions are discretized by Gauss-Hermite quadrature, which keeps
low moments exact with a handful of nodes. A scenario keeps its law, one
of ENSEMBLE_LAWS, and builds the ensemble from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

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
    "DisorderLaw",
    "ExplicitLaw",
    "GaussianLaw",
    "TwoPointLaw",
    "ENSEMBLE_LAWS",
    "mean_hamiltonian",
    "mean_vanishes",
    "center",
    "gauss_hermite_ensemble",
    "two_point_ensemble",
    "require_commuting",
    "require_system",
]


@dataclass(frozen=True, eq=False)
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


def center(e: DisorderEnsemble) -> tuple[np.ndarray, DisorderEnsemble]:
    """Split off the weighted mean: the pair (Hbar, fluctuations H_k - Hbar).

    Adding the mean to the system Hamiltonian leaves every total block
    H_S + H_k unchanged, so the dynamics is invariant under this split.
    A mean that mean_vanishes (on no offset) is treated as exactly zero,
    which makes centering idempotent bit for bit.
    """
    mean = mean_hamiltonian(e)
    if mean_vanishes(e):
        return np.zeros_like(mean), e
    shifted = e.hamiltonians - mean[None, :, :]
    return mean, DisorderEnsemble(hamiltonians=shifted, weights=e.weights.copy())


def require_system(hs, e: DisorderEnsemble) -> np.ndarray:
    """Validate hs as a Hermitian system Hamiltonian of e's dimension; return
    it. Errors start "hs" or "ensemble:", the scenario fields at fault."""
    hs = require_hermitian(hs, name="hs")
    if hs.shape[0] != e.dim:
        raise ValueError(f"ensemble: dimension {e.dim} does not match hs")
    return hs


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


class DisorderLaw:
    """A disorder law as a scenario gives it; its fields are the keys of its
    ensemble type. Its size, the number of realizations build() makes, is
    known before they are made and set by the scenario field size_field.
    exact_until(error) is the time up to which the built ensemble's average
    stays within error of the law's: inf where the ensemble is the law."""

    type: ClassVar[str]
    size_field: ClassVar[str] = "ensemble"

    def exact_until(self, error: float) -> float:
        return math.inf


@dataclass(frozen=True, eq=False)
class ExplicitLaw(DisorderLaw):
    """Listed realizations: terms is a tuple of (hamiltonian, weight) pairs."""

    terms: tuple
    type = "explicit"
    size = property(lambda self: len(self.terms))

    def build(self) -> DisorderEnsemble:
        return DisorderEnsemble.from_pairs(self.terms)


@dataclass(frozen=True, eq=False)
class GaussianLaw(DisorderLaw):
    """lambda ~ N(0, sigma^2) acting as lambda * base, on an n_nodes rule."""

    base: np.ndarray
    sigma: float
    n_nodes: int
    type = "gaussian"
    size_field = "ensemble.n_nodes"
    size = property(lambda self: self.n_nodes)

    def build(self) -> DisorderEnsemble:
        return gauss_hermite_ensemble(self.base, self.sigma, self.n_nodes)

    def exact_until(self, error: float) -> float:
        """The time t_q up to which the rule that build() makes keeps the
        averaged state within `error` of the Gaussian average, whatever H_S.

        The n-node rule integrates f(x) exp(-x^2) / sqrt(pi) with an error of
        at most n! / (2^n (2n)!) max |f^(2n)|. As a function of the node x,
        the state U rho0 U+ with U = exp(-it(H_S + sqrt(2) sigma x base)) has
        a 2n-th derivative of trace norm at most a^(2n), a = 2 sqrt(2) sigma t
        |base| (spectral norm): each derivative brings down one commutator
        with sqrt(2) sigma t base. t_q is where the bound reaches error, inf
        for a vanishing sigma or base.
        """
        n = int(self.n_nodes)
        rate = 2.0 * math.sqrt(2.0) * float(self.sigma) * float(np.linalg.norm(self.base, 2))
        if rate == 0.0:
            return math.inf
        # log a^(2n) at which the bound equals error, in logs since (2n)!
        # overflows a double from n = 86
        log_a2n = math.log(error) + n * math.log(2.0) + math.lgamma(2 * n + 1) - math.lgamma(n + 1)
        return math.exp(log_a2n / (2 * n)) / rate


@dataclass(frozen=True, eq=False)
class TwoPointLaw(DisorderLaw):
    """lambda = +-g with weight 1/2 each, acting as lambda * base."""

    base: np.ndarray
    g: float
    type = "two_point"
    size = 2

    def build(self) -> DisorderEnsemble:
        return two_point_ensemble(self.base, self.g)


# each ensemble type's law, keyed by the scenario's "type"
ENSEMBLE_LAWS = {law.type: law for law in (ExplicitLaw, GaussianLaw, TwoPointLaw)}


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
