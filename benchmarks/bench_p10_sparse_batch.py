"""P10 — Block-diagonal CSR batching: sparse sweeps join the batch axis.

Reproduction-specific experiment (the paper has no performance study): it
quantifies what the block-diagonal trick buys on sparse-selected sweeps.
``B`` sparse instances of one (plan, semiring, signature) group assemble
into a single block-diagonal CSR operand per input, and every plan op runs
once over the whole batch — one spgemm / union add / intersection hadamard
instead of ``B`` — with results sliced back per block.  Before this lane
landed, sparse-selected sweeps degraded to a per-instance Python loop,
paying the executor's dispatch cost once per op *per instance*.

Three claims are asserted (also under ``--benchmark-disable``, so CI checks
them on every push):

* a 256-instance sweep of n=128 sparse boolean reachability closures runs
  at least 4x faster through the block-diagonal batch than through the
  per-instance sparse loop;
* the same sweep beats the batched *dense* lane by at least 10x — at this
  density the dense stack pays for entries that are almost entirely zero;
* the block-diagonal results are **bitwise-equal** to both per-instance
  paths, on the boolean and both tropical semirings.

Measurements are recorded to ``BENCH_p10.json`` via the ``bench_artifact``
fixture; the ``nnz`` and ``batch`` fields key the entries in the perf
trajectory (see ``benchmarks/compare_artifacts.py``).
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import assert_speedup

from repro.experiments.harness import CompiledWorkload
from repro.experiments.workloads import random_digraph
from repro.matlang.builder import var
from repro.matlang.instance import Instance
from repro.semiring import BOOLEAN, MAX_PLUS, MIN_PLUS
from repro.semiring.backends import plan_physical
from repro.stdlib import shortest_path_matrix

pytest.importorskip("scipy.sparse")

DIMENSION = 128
SWEEP = 256
#: Expected out-degree 0.64 — below the percolation threshold, so the
#: reachability closure stays sparse and sparse-selected.
PROBABILITY = 0.005
SPARSE_LOOP_FLOOR = 4.0
DENSE_BATCH_FLOOR = 10.0
#: Warm-up rounds, then timed repeats (median taken), per side of the
#: tropical-chain comparison.
TROPICAL_REPEATS = 7


def _reachability_instances(count, dimension, probability=PROBABILITY):
    return [
        Instance.from_matrices(
            {"A": random_digraph(dimension, probability=probability, seed=seed)},
            semiring=BOOLEAN,
        )
        for seed in range(count)
    ]


def _tropical_instances(semiring, count, dimension, density=0.01):
    instances = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        weights = np.full((dimension, dimension), float(semiring.zero))
        mask = rng.random((dimension, dimension)) < density
        weights[mask] = np.round(rng.random(int(mask.sum())) * 7, 3)
        instances.append(
            Instance.from_matrices({"A": weights}, semiring=semiring)
        )
    return instances


def _seconds(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _sweep_nnz(instances):
    zero = instances[0].semiring.zero
    return int(
        sum(np.count_nonzero(inst.matrix("A") != zero) for inst in instances)
    )


# ----------------------------------------------------------------------
# Throughput: block-diagonal batch vs per-instance sparse loop vs dense
# ----------------------------------------------------------------------
def test_block_diagonal_batch_beats_sparse_loop_and_dense(bench_artifact):
    instances = _reachability_instances(SWEEP, DIMENSION)
    expression = shortest_path_matrix("A")
    adaptive = CompiledWorkload(expression, instances[0].schema)
    sparse_loop = CompiledWorkload(
        expression, instances[0].schema, backend="sparse"
    )
    dense_batch = CompiledWorkload(
        expression, instances[0].schema, backend="dense"
    )

    # The sweep must actually ride the block-diagonal lane: a selection
    # regression would otherwise let this benchmark silently measure dense.
    physical = plan_physical(adaptive.plan, instances[0], None, batch_size=SWEEP)
    assert physical.batch_mode == "sparse", physical.notes

    batched = adaptive.run_batch(instances)
    per_instance = sparse_loop.run_batch(instances)
    dense = dense_batch.run_batch(instances)
    for block, sparse_one, dense_one in zip(batched, per_instance, dense):
        assert np.array_equal(block, sparse_one), "must match per-instance sparse"
        assert np.array_equal(block, dense_one), "must match batched dense"

    nnz = _sweep_nnz(instances)
    slow, fast, speedup = assert_speedup(
        lambda: sparse_loop.run_batch(instances),
        lambda: adaptive.run_batch(instances),
        SPARSE_LOOP_FLOOR,
        f"block-diagonal {SWEEP}-instance {DIMENSION}-node reachability sweep",
    )
    bench_artifact(
        "p10", op="reachability-sparse-loop", size=DIMENSION, backend="sparse",
        seconds=slow, instances=SWEEP, nnz=nnz, batch=1,
    )
    bench_artifact(
        "p10", op="reachability-block-diag", size=DIMENSION,
        backend="sparse-batched", seconds=fast, speedup=speedup,
        instances=SWEEP, nnz=nnz, batch=SWEEP,
    )
    print(f"\nblock-diag over per-instance sparse loop: {speedup:.1f}x")

    dense_slow, fast, dense_speedup = assert_speedup(
        lambda: dense_batch.run_batch(instances),
        lambda: adaptive.run_batch(instances),
        DENSE_BATCH_FLOOR,
        f"block-diagonal vs dense {SWEEP}-instance {DIMENSION}-node sweep",
    )
    bench_artifact(
        "p10", op="reachability-dense-batch", size=DIMENSION, backend="batched",
        seconds=dense_slow, instances=SWEEP, nnz=nnz, batch=SWEEP,
    )
    bench_artifact(
        "p10", op="reachability-block-diag-vs-dense", size=DIMENSION,
        backend="sparse-batched", seconds=fast, speedup=dense_speedup,
        instances=SWEEP, nnz=nnz, batch=SWEEP,
    )
    print(f"block-diag over batched dense: {dense_speedup:.1f}x")


def test_sparse_loop_sweep(benchmark):
    instances = _reachability_instances(64, DIMENSION)
    workload = CompiledWorkload(
        shortest_path_matrix("A"), instances[0].schema, backend="sparse"
    )
    workload.run(instances[0])
    results = benchmark(lambda: workload.run_batch(instances))
    assert len(results) == 64


def test_block_diagonal_sweep(benchmark):
    instances = _reachability_instances(64, DIMENSION)
    workload = CompiledWorkload(shortest_path_matrix("A"), instances[0].schema)
    workload.run_batch(instances[:4])
    results = benchmark(lambda: workload.run_batch(instances))
    assert len(results) == 64


# ----------------------------------------------------------------------
# Bitwise equality on the tropical semirings
# ----------------------------------------------------------------------
def test_tropical_block_diagonal_equals_per_instance(bench_artifact):
    expression = (var("A") @ var("A")) @ var("A")
    for semiring in (MIN_PLUS, MAX_PLUS):
        instances = _tropical_instances(semiring, 64, DIMENSION)
        adaptive = CompiledWorkload(expression, instances[0].schema)
        sparse_loop = CompiledWorkload(
            expression, instances[0].schema, backend="sparse"
        )
        physical = plan_physical(
            adaptive.plan, instances[0], None, batch_size=len(instances)
        )
        assert physical.batch_mode == "sparse", physical.notes

        batched = adaptive.run_batch(instances)
        per_instance = sparse_loop.run_batch(instances)
        for block, reference in zip(batched, per_instance):
            assert np.array_equal(block, reference), semiring.name
        # Steady state, not one cold shot per side: untimed rounds first let
        # caches and the allocator's reuse of freed blocks settle, and the
        # timed rounds alternate the sides so both see the same conditions.
        batched_times, loop_times = [], []
        for _ in range(2 * TROPICAL_REPEATS):
            batched_times.append(_seconds(lambda: adaptive.run_batch(instances)))
            loop_times.append(_seconds(lambda: sparse_loop.run_batch(instances)))
        batched_seconds = float(np.median(batched_times[TROPICAL_REPEATS:]))
        loop_seconds = float(np.median(loop_times[TROPICAL_REPEATS:]))
        bench_artifact(
            "p10", op="tropical-chain", size=DIMENSION, backend="sparse-batched",
            seconds=batched_seconds,
            speedup=loop_seconds / batched_seconds if batched_seconds else None,
            semiring=semiring.name, instances=len(instances),
            nnz=_sweep_nnz(instances), batch=len(instances),
        )
