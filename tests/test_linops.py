"""Linear-algebra kernel: eigendecomposition, propagators, traces, distances."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import SX, SY, SZ, random_density, random_hermitian
from scipy.linalg import expm

import rndunit
from rndunit import linops
from rndunit.analysis import compare
from rndunit.channel import embed, kraus_at
from rndunit.cli import RunRecord, demo_scenario, scenario_from_dict
from rndunit.ensemble import two_point_ensemble
from rndunit.linops import (
    DEFAULT_TOL,
    EigenSystem,
    chunks,
    commutator,
    herm_eig,
    kron,
    partial_trace_env,
    propagator,
    require_density,
    require_hermitian,
    require_unitary,
    trace_distance,
)
from rndunit.mastereq import integrate, make_problem


def _reassemble(eig: EigenSystem) -> np.ndarray:
    """The operator V diag(E) V+ of an eigensystem."""
    return (eig.basis * eig.energies) @ eig.basis.conj().T


def test_herm_eig_diagonal_qubit():
    eig = herm_eig(0.5 * SZ)
    np.testing.assert_allclose(eig.energies, [-0.5, 0.5], atol=1e-15)
    # ascending order puts |1> first: columns are computational states, up to phase
    np.testing.assert_allclose(np.abs(eig.basis), np.fliplr(np.eye(2)), atol=1e-15)
    np.testing.assert_allclose(_reassemble(eig), 0.5 * SZ, atol=1e-15)


def test_herm_eig_sigma_x():
    eig = herm_eig(SX)
    np.testing.assert_allclose(eig.energies, [-1.0, 1.0], atol=1e-14)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(minus.conj() @ eig.basis[:, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(plus.conj() @ eig.basis[:, 1]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_herm_eig_reconstruction(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 4)
    eig = herm_eig(h)
    assert np.all(np.diff(eig.energies) >= 0)
    assert np.max(np.abs(_reassemble(eig) - h)) <= 1e-10
    assert np.max(np.abs(eig.basis.conj().T @ eig.basis - np.eye(4))) <= 1e-10


def test_eigensystem_gaps_and_degeneracy_threshold():
    eig = herm_eig(np.diag([-1.0, 0.5, 2.0]).astype(complex))
    want = np.array([[0.0, -1.5, -3.0], [1.5, 0.0, -1.5], [3.0, 1.5, 0.0]])
    np.testing.assert_allclose(eig.gaps, want, atol=1e-15)
    assert eig.degeneracy_threshold == pytest.approx(3.0 * DEFAULT_TOL.degeneracy)
    # a span below 1 does not shrink the threshold
    assert herm_eig(0.1 * SZ).degeneracy_threshold == DEFAULT_TOL.degeneracy


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensystem_rejects_unsorted():
    with pytest.raises(ValueError, match="ascending"):
        EigenSystem(energies=np.array([1.0, -1.0]), basis=np.eye(2))


def test_propagator_sigma_z():
    t = 0.83
    u = propagator(SZ, t)
    np.testing.assert_allclose(u, np.diag([np.exp(-1j * t), np.exp(1j * t)]), atol=1e-14)


def test_propagator_sigma_x_at_pi():
    np.testing.assert_allclose(propagator(SX, np.pi), -np.eye(2), atol=1e-13)


def test_propagator_zero_time_is_identity():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 3)
    np.testing.assert_allclose(propagator(h, 0.0), np.eye(3), atol=1e-14)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_propagator_matches_expm(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 4)
    t = float(rng.uniform(0.1, 3.0))
    np.testing.assert_allclose(propagator(h, t), expm(-1j * t * h), atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_propagator_group_property(seed):
    rng = np.random.default_rng(100 + seed)
    h = random_hermitian(rng, 3)
    t1, t2 = rng.uniform(-2.0, 2.0, size=2)
    lhs = propagator(h, t1 + t2)
    rhs = propagator(h, t1) @ propagator(h, t2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_propagator_unitary():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 5, scale=3.0)
    u = propagator(h, 11.7)
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) <= 1e-10


def test_kron_sigma_z_projector():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_array_equal(kron(SZ, p0), np.diag([1.0, 0.0, -1.0, 0.0]))


def test_kron_mixed_product():
    rng = np.random.default_rng(8)
    a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_partial_trace_product_state():
    rng = np.random.default_rng(9)
    rho_s = random_density(rng, 2)
    rho_e = random_density(rng, 3)
    out = partial_trace_env(kron(rho_e, rho_s), 2, 3)
    np.testing.assert_allclose(out, rho_s, atol=1e-14)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2)
    out = partial_trace_env(np.outer(bell, bell.conj()), 2, 2)
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_block_mixture():
    # sum_k p_k |k><k| (x) rho_k reduces to sum_k p_k rho_k
    rng = np.random.default_rng(10)
    weights = np.array([0.2, 0.5, 0.3])
    rhos = [random_density(rng, 2) for _ in range(3)]
    total = np.zeros((6, 6), dtype=complex)
    expected = np.zeros((2, 2), dtype=complex)
    for k, (w, r) in enumerate(zip(weights, rhos)):
        sel = np.zeros((3, 3))
        sel[k, k] = 1.0
        total += w * kron(sel, r)
        expected += w * r
    np.testing.assert_allclose(partial_trace_env(total, 2, 3), expected, atol=1e-14)


@pytest.mark.parametrize("dims", [(2, 2), (2, 5), (4, 3)])
def test_partial_trace_preserves_trace(dims):
    dim_s, dim_e = dims
    rng = np.random.default_rng(dim_s * 10 + dim_e)
    rho = random_density(rng, dim_s * dim_e)
    out = partial_trace_env(rho, dim_s, dim_e)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.max(np.abs(out - out.conj().T)) <= 1e-13


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="dim_s"):
        partial_trace_env(np.eye(6) / 6, 2, 2)


def test_trace_distance_extremes():
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    ket1 = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(ket0, ket0) == 0.0
    assert trace_distance(ket0, ket1) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(ket0, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_trace_distance_triangle_and_symmetry(seed):
    rng = np.random.default_rng(200 + seed)
    a, b, c = (random_density(rng, 3) for _ in range(3))
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-14)
    assert 0.0 <= trace_distance(a, b) <= 1.0 + 1e-12


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_trace_distance_equals_the_singular_value_form(dim):
    # a - b is Hermitian, so its singular values are the magnitudes of its
    # eigenvalues: random Hermitian stacks, and differences of states
    rng = np.random.default_rng(220 + dim)
    a = np.stack([random_hermitian(rng, dim, 1.0 / dim) for _ in range(50)])
    b = np.stack([random_density(rng, dim) for _ in range(50)])
    for x, y in ((a, b), (b[::-1], b)):
        want = 0.5 * np.linalg.svd(x - y, compute_uv=False).sum(axis=-1)
        np.testing.assert_allclose(trace_distance(x, y), want, rtol=0, atol=1e-14)


def test_trace_distance_refuses_a_non_hermitian_difference():
    rng = np.random.default_rng(230)
    a, b = random_density(rng, 3), random_density(rng, 3)
    # a rounding-level anti-Hermitian part is taken as Hermitian
    trace_distance(a + 1e-15j * np.eye(3), b)
    # 1e-6 i 1 is anti-Hermitian, as one matrix and as one entry of a stack
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_distance(a + 1e-6j * np.eye(3), b)
    skewed = np.stack([a] * 4)
    skewed[3, 0, 1] += 1e-6
    skewed[3, 1, 0] -= 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_distance(skewed, np.stack([b] * 4))


def test_chunks_cover_the_range_in_order():
    def spans(*args):
        return [(sl.start, sl.stop) for sl in chunks(*args)]

    assert spans(0, 8, 64) == []
    assert spans(6, 8, 16) == [(0, 2), (2, 4), (4, 6)]
    assert spans(7, 8, 24) == [(0, 3), (3, 6), (6, 7)]
    # one item a slice when even one is over budget
    ones = [(0, 1), (1, 2), (2, 3)]
    assert spans(3, 100, 64) == spans(3, 8, 0) == spans(3, 8, -5) == ones
    # lazy: the slices of a huge range are not built up front
    assert next(iter(chunks(10**12, 1, 1))) == slice(0, 1)


def test_commutator_pauli_algebra():
    np.testing.assert_allclose(commutator(SX, SY), 2j * SZ, atol=1e-15)
    np.testing.assert_array_equal(commutator(SZ, SZ), np.zeros((2, 2)))


def test_commutator_leibniz():
    rng = np.random.default_rng(11)
    a, b, c = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    lhs = commutator(a, b @ c)
    rhs = commutator(a, b) @ c + b @ commutator(a, c)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_require_density_rejects_bad_states():
    with pytest.raises(ValueError, match="unit trace"):
        require_density(np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        require_density(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="Hermitian"):
        require_density(np.array([[0.5, 0.2], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="^initial state dimension 3 does not match 2$"):
        require_density(np.eye(3) / 3, "initial state", 2)


def test_checks_in_row_blocks_keep_their_verdicts(monkeypatch):
    # a budget of a few bytes puts each row in a block of its own: the
    # identity is then subtracted at a different column in every block
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 5)
    u = herm_eig(h).basis
    monkeypatch.setattr(linops, "WORKSPACE_BYTES", 8)
    require_hermitian(h)
    require_unitary(u)
    skewed, stretched = h.copy(), u.copy()
    skewed[4, 0] += 1e-9
    stretched[:, 4] *= 1 + 1e-9
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(skewed)
    with pytest.raises(ValueError, match="not unitary"):
        require_unitary(stretched)


def test_require_unitary_and_tolerance_knob():
    with pytest.raises(ValueError, match="unitary"):
        require_unitary(np.diag([1.0, 1.0 + 1e-6]))
    # the one record every check reads
    assert dataclasses.asdict(DEFAULT_TOL) == {
        "hermitian": 1e-12,
        "unitary": 1e-10,
        "trace": 1e-12,
        "positivity": 1e-10,
        "zero_mean": 1e-12,
        "commutation": 1e-10,
        "degeneracy": 1e-12,
        "equivalence": 1e-10,
    }


def test_readme_tolerance_table_matches_the_record():
    # the README's Tolerances table lists exactly the fields and values of
    # DEFAULT_TOL, so the documented contract cannot drift from the code
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Tolerances", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| ([^ |]+) +\|", section, flags=re.M)
    assert len(rows) == len({name for name, _ in rows})
    assert {name: float(value) for name, value in rows} == dataclasses.asdict(DEFAULT_TOL)


def test_no_function_takes_a_tolerance_argument():
    # a tolerance passed by a caller can silently miss its check; every
    # check reads DEFAULT_TOL instead, so no function or method offers one
    modules = [rndunit] + [
        importlib.import_module(f"rndunit.{info.name}")
        for info in pkgutil.iter_modules(rndunit.__path__)
    ]
    checked, offenders = set(), []
    for module in modules:
        names = set(module.__all__) | set(vars(module))
        for obj in (getattr(module, name) for name in names):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else []
            # a classmethod or staticmethod wraps its function as __func__
            members = [getattr(m, "__func__", m) for m in members]
            for fn in filter(inspect.isfunction, [obj, *members]):
                checked.add(fn.__qualname__)
                if "tol" in inspect.signature(fn).parameters:
                    offenders.append(f"{module.__name__}.{fn.__qualname__}")
    assert {
        "integrate",
        "herm_eig",
        "_make_rhs",
        "EigenSystem.__init__",
        "DisorderEnsemble.from_pairs",
    } <= checked
    assert offenders == []


def test_require_hermitian_scales_with_magnitude():
    big = 1e6 * SZ + np.array([[0.0, 1e-8], [0.0, 0.0]])
    require_hermitian(big)  # defect 1e-8 is within 1e-12 * 1e6
    with pytest.raises(ValueError):
        require_hermitian(SZ + np.array([[0.0, 1e-8], [0.0, 0.0]]))


@pytest.mark.parametrize("dim, count", [(2, 200_001), (4, 20_001), (8, 20_001)])
def test_trace_distance_workspace_is_bounded(dim, count):
    # past its output, the distances, a call holds one chunk of
    # WORKSPACE_BYTES: each chunk's difference goes before the next is made
    a = np.zeros((count, dim, dim), dtype=complex)
    b = np.zeros((count, dim, dim), dtype=complex)
    b[:, 0, 0] = 1.0
    tracemalloc.start()
    try:
        distances = trace_distance(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(distances == 0.5)
    assert peak - distances.nbytes <= linops.WORKSPACE_BYTES


def test_trace_distance_batches_stacks():
    rng = np.random.default_rng(210)
    a = np.stack([random_density(rng, 3) for _ in range(4)]).reshape(2, 2, 3, 3)
    b = np.stack([random_density(rng, 3) for _ in range(4)]).reshape(2, 2, 3, 3)
    batched = trace_distance(a, b)
    assert batched.shape == (2, 2)
    for i in range(2):
        for j in range(2):
            single = trace_distance(a[i, j], b[i, j])
            assert isinstance(single, float)
            assert batched[i, j] == single
    with pytest.raises(ValueError, match="shape mismatch"):
        trace_distance(a, b[0])
    with pytest.raises(ValueError, match="non-finite"):
        trace_distance(a, np.full_like(b, np.nan))


def test_every_module_level_definition_is_exported_or_used():
    # a module-level function or class that is neither in its module's
    # __all__ nor referenced anywhere else in the package is dead code
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(Path(rndunit.__file__).parent.glob("*.py"))
    }
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    referenced = {
        id(stmt): {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        for stmt in statements
    }
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    checked, dead = set(), []
    for module, tree in trees.items():
        exported = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and "__all__" in referenced[id(stmt)]:
                exported = set(ast.literal_eval(stmt.value))
        for stmt in tree.body:
            if not isinstance(stmt, definitions):
                continue
            checked.add(f"{module}.{stmt.name}")
            used = any(
                stmt.name in referenced[id(other)] for other in statements if other is not stmt
            )
            if stmt.name not in exported and not used:
                dead.append(f"{module}.{stmt.name}")
    assert {"mastereq._make_rhs", "linops.EigenSystem", "cli.scenario_echo"} <= checked
    assert dead == []


def test_workspace_budget_is_passed_whole_to_chunks():
    # every loop's chunk takes the whole of WORKSPACE_BYTES, so one sentence
    # bounds a run's transient memory. Each read of it must be the budget of
    # a chunks call, itself or less a fixed part (the averaged series'
    # realization blocks and the dilation's column blocks sit beside one
    # sample's own arrays), or the same whole budget that a one-off build
    # must fit (size <= budget): no loop scales or divides it into a share,
    # directly or through another name
    def is_budget(node, parent):
        return (
            isinstance(parent, ast.Call)
            and len(parent.args) == 3
            and parent.args[2] is node
            and (getattr(parent.func, "id", None) or getattr(parent.func, "attr", None))
            == "chunks"
        )

    def is_bound(node, parent):
        return (
            isinstance(parent, ast.Compare)
            and len(parent.ops) == 1
            and isinstance(parent.ops[0], ast.LtE)
            and parent.comparators[0] is node
        )

    reads, misused = 0, []
    for path in sorted(Path(rndunit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name != "WORKSPACE_BYTES" or not isinstance(node.ctx, ast.Load):
                continue
            reads += 1
            parent = parents[node]
            if isinstance(parent, ast.BinOp) and isinstance(parent.op, ast.Sub):
                node, parent = parent, parents[parent]
            if not (is_budget(node, parent) or is_bound(node, parent)):
                misused.append(f"{path.stem}:{node.lineno}")
    # the averaged series' samples and realization blocks, the dilation's
    # samples and factor columns, the integrator's one chunk loop and its
    # fixed propagator's build, the trace distances, the CSV writer and the
    # check row blocks
    assert reads == 9
    assert misused == []


def _array_dataclasses():
    # one factory per frozen dataclass with array fields, in module order
    def problem():
        return make_problem(0.5 * SZ, two_point_ensemble(SZ, 0.5), "dephasing")

    def series():
        return integrate(problem(), 0.5 * np.ones((2, 2)), 0.1, 0.05)

    def scenario():
        return scenario_from_dict(demo_scenario("two-point-breakdown"))

    return {
        "ComparisonReport": lambda: compare(series(), series()),
        "KrausChannel": lambda: kraus_at(0.5 * SZ, two_point_ensemble(SZ, 0.5), 1.0),
        "EmbeddedSystem": lambda: embed(0.5 * SZ, two_point_ensemble(SZ, 0.5)),
        "Scenario": scenario,
        "RunRecord": lambda: RunRecord(
            scenario=scenario(), series={}, reports={}, equivalence_error=0.0, wall_time_s=0.0
        ),
        "DisorderEnsemble": lambda: two_point_ensemble(SZ, 0.5),
        "EigenSystem": lambda: herm_eig(0.5 * SZ),
        "MasterEqProblem": problem,
        "TimeSeries": series,
    }


@pytest.mark.parametrize("name", sorted(_array_dataclasses()))
def test_array_dataclasses_compare_by_identity(name):
    # field-wise == would compare arrays, which raises ValueError, and a
    # field-wise hash would hash them, which raises TypeError
    make = _array_dataclasses()[name]
    first, copy = make(), make()
    assert type(first).__name__ == name
    assert first == first
    assert (first == copy) is False and first != copy
    assert hash(first) == hash(first)
