"""P13 — Plan ledger: one-hot substitution fuses the paper's index loops.

Reproduction-specific experiment (the paper has no performance study).  The
for-MATLANG algorithms index with canonical vectors: Floyd-Warshall's
``Sigma v_i Sigma v_j (v_i^T.X.v_k.v_k^T.X.v_j) x (v_i.v_j^T)`` (Ex. 3.5)
and LU's column extraction ``Sigma v. succ^+(y, v) x ((v^T.V.y) x v)``
(Prop. 4.1) sum a scalar linear in the iterator times a matrix holding it
once.  The one-hot substitution rules of :mod:`repro.matlang.rewrites`
compile those sums to the vector in the iterator's slot, so Floyd-Warshall's
for-body becomes ``X + (X.v_k).(v_k^T.X)`` and LU loses its inner loop.

The ledger runs both algorithms — Floyd-Warshall over the booleans at
n=32, ``lu_upper`` over the reals at n=64 — against a baseline plan
compiled with the two rules taken out of ``SUM_RULES``.  The baseline is
also the equality oracle: bitwise on the booleans, a norm-wise relative
error of at most 1e-12 on the reals.  Two floors are asserted (also under
``--benchmark-disable``, so CI checks them on every push): at least 20x for
Floyd-Warshall and 3x for LU.

Measurements are recorded to ``BENCH_p13.json`` with the host CPU count.
"""

import os
import time

import numpy as np
import pytest

from repro.matlang import rewrites
from repro.matlang.compiler import clear_plan_cache, compile_expression
from repro.matlang.functions import default_registry
from repro.matlang.instance import Instance
from repro.matlang.ir import execute_plan
from repro.semiring import BOOLEAN, REAL
from repro.semiring.backends import plan_physical
from repro.stdlib import transitive_closure_floyd_warshall
from repro.stdlib.linalg import lu_upper

#: The rules the baseline compiles without.
ONE_HOT_RULES = ("_rule_sum_one_hot", "_rule_sum_nested_one_hot")
#: Each timed sample repeats a call until it has run at least this long.
MIN_SAMPLE_SECONDS = 0.05


def _floyd_warshall_case():
    rng = np.random.default_rng(13)
    adjacency = rng.random((32, 32)) < 0.05
    return transitive_closure_floyd_warshall("A"), Instance.from_matrices(
        {"A": adjacency}, semiring=BOOLEAN
    )


def _lu_case():
    rng = np.random.default_rng(13)
    # Diagonally dominant: every pivot is non-zero without row exchanges.
    matrix = rng.random((64, 64)) + 64 * np.eye(64)
    return lu_upper("A"), Instance.from_matrices({"A": matrix}, semiring=REAL)


CASES = {
    "floyd-warshall": (_floyd_warshall_case, 20.0),
    "lu-upper": (_lu_case, 3.0),
}


def _compile(expression, instance, monkeypatch, fused):
    """The plan with or without the one-hot rules, from a cold plan cache."""
    clear_plan_cache()
    with monkeypatch.context() as patch:
        if not fused:
            patch.setattr(rewrites, "SUM_RULES", [
                rule for rule in rewrites.SUM_RULES if rule.__name__ not in ONE_HOT_RULES
            ])
        plan = compile_expression(expression, instance.schema)
    clear_plan_cache()
    return plan


def _runner(plan, instance):
    physical = plan_physical(plan, instance)
    functions = default_registry()

    def run():
        value = execute_plan(
            physical.plan, physical.backend, instance, functions,
            backends=physical.backends,
        )
        return physical.result_backend.to_dense(value)

    return run


def _measure(calls, samples=3):
    """Median per-call seconds of each call; samples alternate between them."""
    timings = {call: [] for call in calls}
    counts = {}
    for call in calls:
        start = time.perf_counter()
        call()
        counts[call] = max(1, int(MIN_SAMPLE_SECONDS / max(time.perf_counter() - start, 1e-7)))
    for _ in range(samples):
        for call in calls:
            start = time.perf_counter()
            for _ in range(counts[call]):
                call()
            timings[call].append((time.perf_counter() - start) / counts[call])
    return [float(np.median(timings[call])) for call in calls]


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_hot_fusion_ledger(bench_artifact, monkeypatch, name):
    build, floor = CASES[name]
    expression, instance = build()
    fused_plan = _compile(expression, instance, monkeypatch, fused=True)
    baseline_plan = _compile(expression, instance, monkeypatch, fused=False)
    loops, unfused_loops = fused_plan.count_ops("loop"), baseline_plan.count_ops("loop")
    assert loops < unfused_loops
    fused, baseline = _runner(fused_plan, instance), _runner(baseline_plan, instance)

    result, expected = fused(), baseline()
    if instance.semiring is BOOLEAN:
        assert np.array_equal(result, expected)
    else:
        # Norm-wise: U's zeroed entries hold rounding residue of ~1e-15.
        error = np.linalg.norm(result - expected) / np.linalg.norm(expected)
        assert error <= 1e-12, error

    # A retry ladder so one scheduler hiccup on a shared CI host cannot fail
    # the push; every attempt is a full median measurement.
    for _attempt in range(3):
        baseline_seconds, fused_seconds = _measure([baseline, fused])
        speedup = baseline_seconds / fused_seconds
        if speedup >= floor:
            break
    n = instance.dimension("alpha")
    bench_artifact(
        "p13", op=name, size=n, backend="one-hot-fused", seconds=fused_seconds,
        speedup=speedup, semiring=instance.semiring.name,
        unfused_seconds=round(baseline_seconds, 9),
        loops=loops, unfused_loops=unfused_loops,
        cpus=os.cpu_count(),
    )
    print(
        f"\n{name} {instance.semiring.name} n={n}: unfused "
        f"{baseline_seconds * 1e3:.2f} ms ({unfused_loops} loops) -> fused "
        f"{fused_seconds * 1e3:.3f} ms ({loops} loops), {speedup:.1f}x"
    )
    assert speedup >= floor, (
        f"{name} one-hot fusion speedup {speedup:.1f}x is below the {floor:.0f}x floor"
    )
