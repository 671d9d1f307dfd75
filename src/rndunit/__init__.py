"""Random-unitary channel dynamics and the master equations that chase it.

Static Hamiltonian disorder generates dynamical maps that are convex
combinations of unitaries. This package evolves them exactly (ensemble
average, Kraus form, or closed-system embedding), derives the matching
Redfield, pure-dephasing, and GKSL master equations, and quantifies
where each approximation breaks down.
"""

__version__ = "0.1.0"

from .analysis import ComparisonReport, compare, coherence_rate, heisenberg_time, purity
from .channel import (
    EmbeddedSystem,
    KrausChannel,
    apply_kraus,
    embed,
    evolve_average,
    evolve_average_series,
    evolve_embedded,
    evolve_embedded_series,
    kraus_at,
)
from .ensemble import (
    CenteredEnsemble,
    DisorderEnsemble,
    center,
    gauss_hermite_ensemble,
    mean_hamiltonian,
    mean_vanishes,
    require_commuting,
    two_point_ensemble,
)
from .linops import (
    DEFAULT_TOL,
    EigenSystem,
    Tolerances,
    commutator,
    herm_eig,
    kron,
    partial_trace_env,
    propagator,
    trace_distance,
)
from .mastereq import (
    GENERATOR_KINDS,
    MasterEqProblem,
    TimeSeries,
    dephasing_analytic,
    gksl_resolvent,
    h_tilde,
    integrate,
    make_problem,
    master_rhs,
)

__all__ = [
    "__version__",
    "ComparisonReport",
    "compare",
    "coherence_rate",
    "heisenberg_time",
    "purity",
    "EmbeddedSystem",
    "KrausChannel",
    "apply_kraus",
    "embed",
    "evolve_average",
    "evolve_average_series",
    "evolve_embedded",
    "evolve_embedded_series",
    "kraus_at",
    "CenteredEnsemble",
    "DisorderEnsemble",
    "center",
    "gauss_hermite_ensemble",
    "mean_hamiltonian",
    "mean_vanishes",
    "require_commuting",
    "two_point_ensemble",
    "DEFAULT_TOL",
    "EigenSystem",
    "Tolerances",
    "commutator",
    "herm_eig",
    "kron",
    "partial_trace_env",
    "propagator",
    "trace_distance",
    "GENERATOR_KINDS",
    "MasterEqProblem",
    "TimeSeries",
    "dephasing_analytic",
    "gksl_resolvent",
    "h_tilde",
    "integrate",
    "make_problem",
    "master_rhs",
]
