"""P12 — Kernel ledger, first slice: the rank-1-update tropical matrix product.

Reproduction-specific experiment (the paper has no performance study).  The
dimension-bounded recursion of Sec. 6.3 turns shortest paths and closures
into repeated-squaring ladders of min-plus / max-plus matrix products, so
the tropical product is the kernel those algorithms live in.  It used to be
one broadcast outer sum ``left[:, :, None] + right[None]`` reduced along the
inner axis, blocked over rows (2-D) or instances (batched) to bound a 32 MiB
temporary.  It is now a loop of rank-1 updates over the inner index into
two output-sized buffers, with the outer sum kept only for products below
~2048 output entries (:class:`repro.semiring.kernels.TropicalKernels`).

The ledger times both kernels over min-plus and max-plus at
n ∈ {8, 64, 256, 512} (2-D) and at n ∈ {8, 64} batched ``B = 16``.  The
old kernel is an inline copy below; it also serves as the equality oracle —
every measured product is **bitwise-equal** to it.  One claim is asserted
(also under ``--benchmark-disable``, so CI checks it on every push): the
2-D n=256 product is at least 2x faster than the old kernel.

Measurements are recorded to ``BENCH_p12.json`` with the host CPU count;
``semiring`` and ``batch`` key the entries in the perf trajectory (see
``benchmarks/compare_artifacts.py``).
"""

import os
import time

import numpy as np
import pytest

from repro.semiring import MAX_PLUS, MIN_PLUS

SIZES = (8, 64, 256, 512)
BATCHED_SIZES = (8, 64)
BATCH = 16
FLOOR_N256 = 2.0
#: Each timed sample repeats a call until it has run at least this long, so
#: the n=8 products are not timed at the clock's resolution.
MIN_SAMPLE_SECONDS = 0.02

#: The retired kernel's bound on one broadcast temporary (32 MiB of float64).
_BLOCK_ENTRIES = 1 << 22


def _blocked_outer_sum(semiring, left, right):
    """The retired 2-D tropical product: row-blocked broadcast outer sums."""
    reduce = np.min if semiring.zero == np.inf else np.max
    rows, inner = left.shape
    cols = right.shape[1]
    result = np.empty((rows, cols), dtype=np.float64)
    block = max(1, _BLOCK_ENTRIES // max(1, inner * cols))
    for start in range(0, rows, block):
        stop = min(rows, start + block)
        result[start:stop] = reduce(left[start:stop, :, None] + right[None], axis=1)
    return result


def _blocked_batch_outer_sum(semiring, left, right):
    """The retired batched tropical product: instance-blocked outer sums."""
    reduce = np.min if semiring.zero == np.inf else np.max
    batch, rows, inner = left.shape
    cols = right.shape[2]
    result = np.empty((batch, rows, cols), dtype=np.float64)
    per_instance = rows * inner * cols
    if per_instance > _BLOCK_ENTRIES:
        for index in range(batch):
            result[index] = _blocked_outer_sum(semiring, left[index], right[index])
        return result
    block = max(1, _BLOCK_ENTRIES // per_instance)
    for start in range(0, batch, block):
        stop = min(batch, start + block)
        outer = left[start:stop, :, :, None] + right[start:stop, None, :, :]
        result[start:stop] = reduce(outer, axis=2)
    return result


def _operand(semiring, shape, seed):
    """Integer weights 1-9 with 30% semiring-zero entries (perfbench's mix)."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 10, size=shape).astype(np.float64)
    values[rng.random(shape) < 0.3] = semiring.zero
    return values


def _calls_per_sample(call):
    """How many calls one timed sample needs to last MIN_SAMPLE_SECONDS."""
    start = time.perf_counter()
    call()
    return max(1, int(MIN_SAMPLE_SECONDS / max(time.perf_counter() - start, 1e-7)))


def _measure(old, new, samples=5):
    """Median per-call ``(old_seconds, new_seconds)``, after an equality check.

    The samples alternate between the kernels, so a change in the host's
    state (the old kernel's 32 MiB temporaries are sensitive to it) lands
    on both sides.
    """
    assert np.array_equal(old(), new())
    timings = {old: [], new: []}
    counts = {call: _calls_per_sample(call) for call in timings}
    for _ in range(samples):
        for call, calls in counts.items():
            start = time.perf_counter()
            for _ in range(calls):
                call()
            timings[call].append((time.perf_counter() - start) / calls)
    return float(np.median(timings[old])), float(np.median(timings[new]))


def _record(bench_artifact, semiring, size, batch, old_seconds, new_seconds):
    speedup = old_seconds / new_seconds
    bench_artifact(
        "p12", op="tropical-matmul", size=size, backend="rank1-update",
        seconds=new_seconds, speedup=speedup, semiring=semiring.name,
        batch=batch, blocked_seconds=round(old_seconds, 9),
        cpus=os.cpu_count(),
    )
    print(
        f"\n{semiring.name} n={size} B={batch}: blocked {old_seconds * 1e3:.3f} ms"
        f" -> rank-1 {new_seconds * 1e3:.3f} ms ({speedup:.2f}x)"
    )
    return speedup


@pytest.mark.parametrize("semiring", [MIN_PLUS, MAX_PLUS], ids=lambda s: s.name)
@pytest.mark.parametrize("size", SIZES)
def test_tropical_matmul_2d(bench_artifact, semiring, size):
    kernels = semiring.kernels
    left = _operand(semiring, (size, size), 1)
    right = _operand(semiring, (size, size), 2)
    # The floor gets a retry ladder so one scheduler hiccup on a shared CI
    # host cannot fail the push; every attempt is a full median measurement.
    for _attempt in range(3):
        old_seconds, new_seconds = _measure(
            lambda: _blocked_outer_sum(semiring, left, right),
            lambda: kernels.matmul(left, right),
        )
        if size != 256 or old_seconds / new_seconds >= FLOOR_N256:
            break
    speedup = _record(bench_artifact, semiring, size, 1, old_seconds, new_seconds)
    if size == 256:
        assert speedup >= FLOOR_N256, (
            f"{semiring.name} n=256 tropical matmul speedup {speedup:.2f}x is "
            f"below the {FLOOR_N256:.0f}x floor"
        )


@pytest.mark.parametrize("semiring", [MIN_PLUS, MAX_PLUS], ids=lambda s: s.name)
@pytest.mark.parametrize("size", BATCHED_SIZES)
def test_tropical_matmul_batched(bench_artifact, semiring, size):
    kernels = semiring.kernels
    left = _operand(semiring, (BATCH, size, size), 3)
    right = _operand(semiring, (BATCH, size, size), 4)
    old_seconds, new_seconds = _measure(
        lambda: _blocked_batch_outer_sum(semiring, left, right),
        lambda: kernels.batch_matmul(left, right),
    )
    _record(bench_artifact, semiring, size, BATCH, old_seconds, new_seconds)
