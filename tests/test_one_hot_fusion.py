"""Tests for the one-hot substitution fusion rules of ``repro.matlang.rewrites``.

``Sigma_v (s_1 x ... x s_k) x m`` with every scalar linear in the iterator
(``v^T . c`` or ``r . v``) and ``m`` holding ``v`` / ``v^T`` once compiles to
``m`` with the vector (or the Hadamard product of the vectors) in the
iterator's slot; a sum whose body is such an inner sum substitutes the inner
iterator first and fuses the outer one on the result.

Every shape is checked against the reference tree-walk
(``Evaluator(compile=False)``) over all seven semirings, under the default
optimizer and with normalization or reordering switched off, and through
``evaluate_batch`` on the batched dense and block-diagonal CSR lanes.
Shapes the rule must not take keep a ``loop`` op and still agree.
"""

import numpy as np
import pytest

from repro.exceptions import SemiringError
from repro.matlang import rewrites
from repro.matlang.builder import forloop, ssum, var
from repro.matlang.compiler import (
    OptimizationOptions,
    clear_plan_cache,
    compile_expression,
)
from repro.matlang.evaluator import Evaluator, evaluate_batch
from repro.matlang.functions import default_registry
from repro.matlang.instance import Instance
from repro.matlang.ir import execute_plan
from repro.semiring import (
    BOOLEAN,
    INTEGER,
    MAX_PLUS,
    MIN_PLUS,
    NATURAL,
    REAL,
    IntegerRing,
    ObjectFoldKernels,
)
from repro.semiring.backends import plan_physical
from repro.semiring.provenance import PROVENANCE, Polynomial
from repro.stdlib import shortest_path_matrix, transitive_closure_floyd_warshall
from repro.stdlib.linalg import lu_upper

try:
    import scipy.sparse  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    HAVE_SCIPY = False

ALL_SEMIRINGS = [REAL, NATURAL, INTEGER, BOOLEAN, MIN_PLUS, MAX_PLUS, PROVENANCE]
SIZES = (1, 2, 3, 17)

A, B, c, r = var("A"), var("B"), var("c"), var("r")
v, i, j = var("_v"), var("_i"), var("_j")

#: Bodies the one-hot rules must fuse away entirely (no ``loop`` op left).
FUSED = {
    # v^T . c scalar, slot at the end of m.
    "col-scalar-slot-end": ssum("_v", (v.T @ A @ c) * (B @ v)),
    # r . v scalar, slot v^T at the start of m.
    "row-scalar-slot-start": ssum("_v", (r @ A @ v) * (v.T @ B)),
    # Slot in the middle of m.
    "slot-middle": ssum("_v", (v.T @ c) * (A @ v @ r @ B)),
    # m is the iterator alone (LU's column extraction).
    "slot-alone": ssum("_v", (v.T @ A @ c) * v),
    # Orientation mismatch: a row fills a column slot and vice versa.
    "row-into-column-slot": ssum("_v", (r @ B @ v) * (A @ v)),
    "column-into-row-slot": ssum("_v", (v.T @ A @ c) * (v.T @ B)),
    # A 1x1 m: Sigma_v r_v c_v = r . c.
    "scalar-m": ssum("_v", (r @ v) * (v.T @ A @ c)),
    # Two and three linear scalars: the Hadamard path.
    "hadamard-2": ssum("_v", (r @ v) * ((v.T @ A @ c) * (B @ v))),
    "hadamard-3": ssum("_v", (r @ v) * ((v.T @ c) * ((r @ B @ v) * (A @ v @ r)))),
    "hadamard-scalar-product": ssum("_v", ((r @ v) * (v.T @ c)) * (v.T @ A)),
    # Nested Sigma_i Sigma_j: the inner substitution leaves a selector pair.
    "nested": ssum("_i", ssum("_j", (i.T @ A @ B @ j) * (i @ j.T))),
    # Nested with the transpose pushed through the substituted chain.
    "nested-transposed": ssum("_i", ssum("_j", (j.T @ A @ i) * (i @ j.T))),
    # The paper's for-loop sugar, as the loop itself and as the inner sum.
    "for-sugar": forloop("_v", "_X", var("_X") + (v.T @ A @ c) * (B @ v)),
    "nested-for-sugar": ssum(
        "_i", forloop("_j", "_X", var("_X") + (i.T @ A @ j) * (i @ j.T))
    ),
}

#: Bodies outside the rule's shape: they must keep a ``loop`` op.
UNFUSED = {
    "iterator-twice-in-scalar": ssum("_v", (v.T @ A @ v) * (B @ v)),
    "iterator-twice-in-m": ssum("_v", (v.T @ c) * (A @ v @ v.T @ B @ v)),
    "iterator-mid-scalar": ssum("_v", ((r @ v) @ (r @ c)) * (B @ v)),
    # The accumulator shadows the iterator: not the sum sugar.
    "shadowed-by-accumulator": forloop("_v", "_v", var("_v") + (v.T @ A @ c) * (B @ v)),
    "nested-shadowed-by-accumulator": ssum(
        "_i", forloop("_v", "_v", var("_v") + (v.T @ A @ c) * (B @ v))
    ),
}

#: The inner binder shadows the outer one: the body is invariant in the
#: outer iterator, so it is n copies of the inner sum.
SHADOWED = ssum("_v", ssum("_v", (v.T @ A @ c) * (B @ v)))


def _entries(semiring, rng, shape):
    """Random carrier values; tropical inputs include the semiring's infinity."""
    name = semiring.name
    if name == "boolean":
        return rng.random(shape) < 0.4
    if name == "natural":
        return rng.integers(0, 4, size=shape)
    if name == "integer":
        return rng.integers(-3, 4, size=shape)
    if name in ("min_plus", "max_plus"):
        values = rng.integers(0, 9, size=shape).astype(np.float64)
        values[rng.random(shape) < 0.3] = semiring.zero
        return values
    if name == "provenance":
        values = np.zeros(shape, dtype=object)
        for index in np.ndindex(shape):
            if rng.random() < 0.5:
                values[index] = Polynomial.variable(f"x{rng.integers(0, 4)}")
        return values
    return rng.standard_normal(shape)


def _instance(semiring, n, seed=0):
    rng = np.random.default_rng(seed)
    shapes = {"A": (n, n), "B": (n, n), "c": (n, 1), "r": (1, n)}
    return Instance.from_matrices(
        {name: _entries(semiring, rng, shape) for name, shape in shapes.items()},
        semiring=semiring,
    )


def _agree(semiring, left, right):
    tolerance = 1e-9 if semiring.name == "real" else 0.0
    return left.shape == right.shape and semiring.matrices_equal(left, right, tolerance)


def _run_plan(plan, instance):
    physical = plan_physical(plan, instance)
    value = execute_plan(
        physical.plan, physical.backend, instance, default_registry(),
        backends=physical.backends,
    )
    return physical.result_backend.to_dense(value)


def _reference(expression, instance):
    return Evaluator(instance, compile=False).run(expression)


CASES = [
    pytest.param(semiring, n, id=f"{semiring.name}-n{n}")
    for semiring in ALL_SEMIRINGS
    for n in SIZES
]


class TestAgreement:
    @pytest.mark.parametrize("semiring, n", CASES)
    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_fused_shapes_agree_with_tree_walk(self, semiring, n, name):
        expression = FUSED[name]
        instance = _instance(semiring, n)
        plan = compile_expression(expression, instance.schema)
        assert plan.count_ops("loop") == 0, plan.explain()
        assert _agree(semiring, Evaluator(instance).run(expression),
                      _reference(expression, instance))

    @pytest.mark.parametrize("semiring, n", CASES)
    @pytest.mark.parametrize("name", sorted(UNFUSED))
    def test_other_shapes_keep_their_loop(self, semiring, n, name):
        expression = UNFUSED[name]
        instance = _instance(semiring, n)
        plan = compile_expression(expression, instance.schema)
        assert plan.count_ops("loop") >= 1, plan.explain()
        assert _agree(semiring, Evaluator(instance).run(expression),
                      _reference(expression, instance))

    @pytest.mark.parametrize("semiring, n", CASES)
    def test_shadowed_inner_iterator(self, semiring, n):
        instance = _instance(semiring, n)
        assert _agree(semiring, Evaluator(instance).run(SHADOWED),
                      _reference(SHADOWED, instance))

    @pytest.mark.parametrize(
        "options",
        [OptimizationOptions(normalize=False), OptimizationOptions(reorder=False)],
        ids=["no-normalize", "no-reorder"],
    )
    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_fusion_without_normalize_or_reorder(self, options, semiring, name):
        expression = FUSED[name]
        instance = _instance(semiring, 3, seed=1)
        plan = compile_expression(expression, instance.schema, options)
        assert plan.count_ops("loop") == 0, plan.explain()
        assert _agree(semiring, _run_plan(plan, instance),
                      _reference(expression, instance))

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_evaluate_batch_dense(self, semiring):
        instances = [_instance(semiring, 3, seed=seed) for seed in range(4)]
        for name, expression in FUSED.items():
            plan = compile_expression(expression, instances[0].schema)
            mode = plan_physical(plan, instances[0], None, batch_size=4).batch_mode
            assert mode == "dense", (name, mode)
            results = evaluate_batch(expression, instances)
            for instance, result in zip(instances, results):
                assert _agree(semiring, result, _reference(expression, instance)), name


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy required for sparse batching")
def test_evaluate_batch_block_diagonal_csr():
    """Boolean n=128 at density 0.01 runs the fused plan on block-diagonal CSR."""
    n, count = 128, 4
    instances = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        instances.append(Instance.from_matrices(
            {"A": rng.random((n, n)) < 0.01, "B": rng.random((n, n)) < 0.01,
             "c": rng.random((n, 1)) < 0.01, "r": rng.random((1, n)) < 0.01},
            semiring=BOOLEAN,
        ))
    for name in ("col-scalar-slot-end", "slot-middle", "hadamard-2", "nested"):
        expression = FUSED[name]
        plan = compile_expression(expression, instances[0].schema)
        assert plan.count_ops("loop") == 0
        mode = plan_physical(plan, instances[0], None, batch_size=count).batch_mode
        assert mode == "sparse", (name, mode)
        results = evaluate_batch(expression, instances)
        for instance, result in zip(instances, results):
            assert np.array_equal(result, Evaluator(instance).run(expression)), name
    # The tree-walk at n=128 takes a few seconds per shape; one suffices.
    expression = FUSED["nested"]
    assert np.array_equal(
        evaluate_batch(expression, instances[:1])[0], _reference(expression, instances[0])
    )


@pytest.mark.parametrize("big", [np.iinfo(np.int64).max, 2**31, 2**20])
@pytest.mark.parametrize("name", ["hadamard-2", "hadamard-3", "slot-middle", "nested"])
def test_integer_boundary_values_raise_or_agree(name, big):
    """Near int64 limits: an exact answer or a SemiringError, never a wrapped one."""
    rng = np.random.default_rng(7)
    matrices = {
        "A": rng.choice([big, -big, 1, 0], size=(3, 3)).astype(object),
        "B": rng.choice([big, 2, -1], size=(3, 3)).astype(object),
        "c": np.array([[big], [-big], [3]], dtype=object),
        "r": np.array([[2, big, -1]], dtype=object),
    }
    instance = Instance.from_matrices(matrices, semiring=INTEGER)
    expression = FUSED[name]
    try:
        compiled = Evaluator(instance).run(expression)
    except SemiringError:
        return
    # The object-fold kernels compute over arbitrary-precision Python ints.
    exact_ring = IntegerRing()
    exact_ring._kernels = ObjectFoldKernels(exact_ring, dtype=object)
    exact = Evaluator(
        Instance.from_matrices(matrices, semiring=exact_ring), compile=False
    ).run(expression)
    assert [int(value) for value in compiled.ravel()] == [
        int(value) for value in exact.ravel()
    ]


class TestPlanShapes:
    def _plan(self, expression, semiring=BOOLEAN):
        return compile_expression(expression, _instance(semiring, 4).schema)

    def test_floyd_warshall_for_body_has_no_loop(self):
        plan = self._plan(transitive_closure_floyd_warshall("A"))
        (loop,) = [op for op in plan.ops if op.opcode == "loop"]
        assert loop.kind == "for"
        assert loop.body.count_ops("loop") == 0, plan.explain()
        # X + (X . v_k) . (v_k^T . X): three products, one add.
        assert loop.body.count_ops("matmul") == 3
        assert loop.body.count_ops("add") == 1
        assert "fuse: sum_nested_one_hot fired 1x" in plan.notes

    def test_lu_upper_nests_one_deep(self):
        plan = self._plan(lu_upper("A"), REAL)

        def depth(plan):
            return max(
                (1 + depth(op.body) for op in plan.ops if op.opcode == "loop"),
                default=0,
            )

        assert depth(plan) == 1, plan.explain()
        assert "fuse: sum_one_hot fired 1x" in plan.notes

    def test_shortest_paths_notes_its_power_fusion(self):
        plan = self._plan(shortest_path_matrix("A"), MIN_PLUS)
        assert plan.notes == ("fuse: product_invariant fired 1x",)
        assert "(no rewrites fired)" not in plan.explain()

    def test_unfused_loop_records_no_fusion(self):
        plan = self._plan(UNFUSED["iterator-twice-in-scalar"], REAL)
        assert not any(note.startswith("fuse:") for note in plan.notes)

    def test_rules_run_after_the_existing_ones(self):
        names = [rule.__name__ for rule in rewrites.SUM_RULES]
        assert names[-2:] == ["_rule_sum_one_hot", "_rule_sum_nested_one_hot"]

    def test_without_the_rules_the_loops_come_back(self, monkeypatch):
        kept = [
            rule for rule in rewrites.SUM_RULES
            if rule.__name__ not in ("_rule_sum_one_hot", "_rule_sum_nested_one_hot")
        ]
        monkeypatch.setattr(rewrites, "SUM_RULES", kept)
        clear_plan_cache()
        try:
            plan = self._plan(transitive_closure_floyd_warshall("A"))
            assert plan.count_ops("loop") == 3
        finally:
            clear_plan_cache()
