"""``serve_distinct`` and ``serve_hot``: light queries through ``Engine()``.

Both workloads send the same five shapes over the same semirings and sizes
through an engine at its defaults, from one generator thread:

* phase A, an open loop at ``RATE`` requests/s, well below saturation, for
  latency (timed from each request's due time), sent in segments of
  ``SEGMENT`` requests;
* phase B, a closed loop keeping ``WINDOW`` requests outstanding, for
  throughput (the median of its ``ROUND_S`` rounds).

They differ in one property only, reuse: ``serve_distinct`` never repeats
an (expression, instance) pair, ``serve_hot`` draws every request from a
Zipf-weighted hot set of 64 pairs.  The open loop paces the repeats, so
most of them arrive after their first copy completed — the reuse a result
memo or the engine's stacking cache can exploit.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

import inputs
import loadgen
import spans
from repro.matlang import clear_plan_cache, compile_expression, plan_cache_info
from repro.obs import Tracer, anchor
from repro.semiring.backends import plan_physical
from repro.service import Engine

#: Offered rate of the open loop.  Saturation on a 2-CPU host is ~6k
#: requests/s; at 2000/s the tail already swings run to run.
RATE = 500.0
#: Outstanding requests in the closed loop (one full coalescing round, so
#: the scheduler always finds a full queue).
WINDOW = 256
#: Share of ``--seconds`` spent in the open loop; the rest is closed loop.
#: The p50 latency settles within a few thousand requests (it sits on the
#: 2 ms coalescing window); throughput moves with the host and needs the
#: longer stretch.
OPEN_SHARE = 0.2
#: Requests per open-loop segment.  Each segment is drawn before it and
#: checked after it, so the harness holds one segment of inputs and results
#: at a time; the engine drains between segments.
SEGMENT = 1000
#: Length of one closed-loop round; ``throughput_rps`` is the median round.
ROUND_S = 0.5
#: Requests on hand per closed-loop round second, above the fastest
#: measured round (13.4k/s).  A round that runs dry ends early; its rate is
#: still measured over its own length.
POOL_RPS = 16000
#: A run is invalid when more than this many seconds of offered load are
#: outstanding at once: the open loop was past saturation.
BACKLOG_LIMIT_S = 0.25
#: Set-ups per run; ``setup_s`` reports their median.  One set-up takes
#: ~15-25 ms, so the median needs many to be steady.
SETUPS = 25

#: The kernel ledger rows reported by the traced run (all present in both
#: served workloads and in ``paper_algorithms``).
KERNEL_METRICS = [
    ("all", "real"),
    ("all", "min_plus"),
    ("all", "boolean"),
    ("matmul", "real"),
    ("matmul", "boolean"),
    ("power", "min_plus"),
    ("power", "boolean"),
]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Traffic:
    """The seeded request stream of one served workload.

    Requests are drawn in order from the seed, and a round's unsent rest is
    handed back and sent first by the next one, so a run sends a prefix of
    one fixed sequence however fast the engine is, and draws only a round's
    worth of requests more than it sends.
    """

    def __init__(self, workload: str, rng: np.random.Generator) -> None:
        self.rng = rng
        self.expressions = inputs.serve_expressions()
        self.warm = inputs.warm_items(rng, self.expressions)
        self.hot = inputs.hot_items(rng, self.expressions) if workload == "serve_hot" else None
        self.unsent: list = []
        _freeze_inputs()

    def draw(self, count: int) -> list:
        """The next ``count`` requests, outside any timed region."""
        items, self.unsent = self.unsent[:count], self.unsent[count:]
        fresh = count - len(items)
        if self.hot is None:
            items += inputs.draw_items(self.rng, self.expressions, fresh)
        else:
            items += [self.hot[rank] for rank in inputs.zipf_ranks(self.rng, fresh)]
        _freeze_inputs()
        return items

    def hand_back(self, items: list) -> None:
        """Return drawn but unsent requests to the front of the stream."""
        self.unsent = list(items) + self.unsent


def set_up(warm: list, checker: "Checker", trace: Any = None) -> Tuple[Any, float]:
    """Start an engine and compile every served plan through it (timed)."""
    clear_plan_cache()
    started = time.perf_counter()
    engine = Engine(trace=trace)
    futures = engine.submit_many([(item.expression, item.instance) for item in warm])
    for future in futures:
        future.exception(timeout=loadgen.RESULT_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    checker.check(futures, warm)
    return engine, elapsed


class Checker:
    """Counts attempted requests and every kind of failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors = 0
        self.timeouts = 0
        self.wrong = 0

    @property
    def failed(self) -> int:
        return self.errors + self.timeouts + self.wrong

    def check(self, futures: List[Any], items: List[Any]) -> None:
        for future, item in zip(futures, items):
            self.attempted += 1
            if not future.done():
                self.timeouts += 1
            elif future.exception() is not None:
                self.errors += 1
            elif not item.check(future.result()):
                self.wrong += 1


class Repeats:
    """Counts requests whose identical pair had already completed when sent."""

    def __init__(self) -> None:
        self.first_done: Dict[int, float] = {}
        self.repeats = 0
        self.sent = 0

    def count(self, record: loadgen.LoopRecord, items: List[Any]) -> None:
        for index, item in enumerate(items[: len(record.futures)]):
            earliest = self.first_done.get(item.key, float("inf"))
            if earliest <= record.sent[index]:
                self.repeats += 1
            self.first_done[item.key] = min(earliest, record.done[index] or float("inf"))
        self.sent += len(record.futures)

    @property
    def share(self) -> float:
        return spans.ratio(self.repeats, self.sent)


def _backlog_ok(backlog: int) -> bool:
    return backlog <= RATE * BACKLOG_LIMIT_S


@dataclass
class OpenPhase:
    """Phase A's figures, pooled over its segments (times in seconds)."""

    latencies: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    backlog: int = 0
    repeats: Repeats = field(default_factory=Repeats)


def _open_segments(engine: Any, traffic: Traffic, count: int, checker: Checker) -> OpenPhase:
    """Phase A: ``count`` requests at ``RATE``, in open-loop segments of ``SEGMENT``."""
    phase = OpenPhase()
    for first in range(0, count, SEGMENT):
        items = traffic.draw(min(SEGMENT, count - first))
        record = loadgen.open_loop(engine, items, RATE)
        checker.check(record.futures, items)
        phase.latencies += record.latencies()
        phase.late += record.late()
        phase.backlog = max(phase.backlog, max(record.backlog, default=0))
        phase.repeats.count(record, items)
    return phase


def _closed_rounds(engine: Any, traffic: Traffic, seconds: float,
                   checker: Checker) -> List[float]:
    """Throughput (requests/s) of each closed-loop round.

    Each round's requests are drawn, and checked, outside the round, so the
    harness holds one round of inputs and results at a time.
    """
    rates = []
    for _ in range(max(1, round(seconds / ROUND_S))):
        pool = traffic.draw(int(POOL_RPS * ROUND_S))
        record = loadgen.closed_loop(engine, pool, WINDOW, ROUND_S)
        checker.check(record.futures, pool)
        traffic.hand_back(pool[len(record.futures):])
        rates.append(len(record.futures) / record.elapsed())
    return rates


def _freeze_inputs() -> None:
    """Exempt the generated inputs from garbage collection.

    A run holds thousands of pre-generated requests, more live objects than
    a serving process would; left in the collected heap they make every
    full collection, and so the measured figures, depend on the size of
    the harness's request pool.
    """
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# The timed run (tracing off)
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    traffic = Traffic(workload, np.random.default_rng(seed))
    checker = Checker()
    # The peak covers set-up and both phases, with the harness holding the
    # warm-up items and one segment or round of requests at a time.
    reset = spans.reset_peak_rss()

    setups, engine = [], None
    for _ in range(SETUPS):
        if engine is not None:
            engine.shutdown()
        engine, elapsed = set_up(traffic.warm, checker)
        setups.append(elapsed)
    try:
        phase_a = _open_segments(engine, traffic, int(RATE * seconds * OPEN_SHARE), checker)
        rates = _closed_rounds(engine, traffic, seconds * (1.0 - OPEN_SHARE), checker)
    finally:
        engine.shutdown()

    latencies = np.array(phase_a.latencies) * 1e3
    late = np.array(phase_a.late) * 1e3
    valid = _backlog_ok(phase_a.backlog)
    notes = [
        f"phase A: {len(latencies)} requests at {RATE:.0f}/s, "
        f"latency p50 {np.percentile(latencies, 50):.3f} ms p99 "
        f"{np.percentile(latencies, 99):.3f} ms, generator late p99 "
        f"{np.percentile(late, 99):.3f} ms, max backlog {phase_a.backlog}"
        + ("" if valid else " (OVER SATURATION: backlog grew)"),
        "phase B: window %d, rounds %s requests/s"
        % (WINDOW, " ".join(f"{rate:.0f}" for rate in rates)),
        f"repeat share (earlier copy already completed): {phase_a.repeats.share:.3f}",
        f"set-ups: {' '.join(f'{value:.4f}' for value in setups)} s",
        "peak resident set " + ("since the inputs were drawn" if reset
                                else "of the whole process (no high-water reset)"),
        f"failures: {checker.errors} errors, {checker.timeouts} timeouts, "
        f"{checker.wrong} wrong answers of {checker.attempted}",
    ]
    return {
        "valid": valid,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "notes": notes,
        "metrics": {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": float(np.percentile(latencies, 50)),
            "throughput_rps": statistics.median(rates),
            "peak_rss_mb": spans.peak_rss_mb(),
        },
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def compile_layers(pairs: List[Tuple[Any, Any]]) -> Dict[str, float]:
    """Cold compile time, plan size and physical planning of ``pairs``.

    ``pairs`` are (expression, instance) with one entry per distinct plan.
    """
    clear_plan_cache()
    compile_seconds, plans = 0.0, []
    for expression, instance in pairs:
        started = time.perf_counter()
        plans.append(compile_expression(expression, instance.schema))
        compile_seconds += time.perf_counter() - started
    physical_times, sparse_ops, all_ops = [], 0, 0
    for plan, (_, instance) in zip(plans, pairs):
        for _ in range(3):
            started = time.perf_counter()
            physical = plan_physical(plan, instance, None)
            physical_times.append(time.perf_counter() - started)
        for op in physical.plan.walk_ops():
            all_ops += 1
            sparse_ops += (op.backend or physical.default_tag) == "sparse"
    return {
        "matlang.compiler.cold_compile_ms": 1e3 * compile_seconds,
        "matlang.compiler.plan_ops": float(sum(len(list(plan.walk_ops())) for plan in plans)),
        "semiring.backends.plan_physical_ms": 1e3 * statistics.median(physical_times),
        "semiring.backends.sparse_op_share": spans.ratio(sparse_ops, all_ops),
    }


def engine_layers(tracer: Any, record: loadgen.LoopRecord,
                  items: List[Any]) -> Tuple[Dict[str, float], float]:
    """Per-request layer times from the spans ``Engine(trace=...)`` emits.

    Request ``k`` of ``record`` carries trace id ``k + 1``: the tracer was
    not sampling before ``record`` began (trace ids count sampled requests
    from 1), one generator thread submits in order and every request is
    sampled.  Kernel spans of a batched dispatch are attached to every
    member request; the ledger counts each once, so its per-request figures
    are amortized over the batch.  Returns the metrics and the share of the requests'
    end-to-end time (due time to completion) that no span covers.
    """
    by_trace: Dict[int, list] = {}
    for span in tracer.spans():
        by_trace.setdefault(span.trace_id, []).append(span)
    to_perf = anchor().monotonic_of
    ledger = spans.KernelLedger()
    seen_kernels = set()
    stages: Dict[str, List[float]] = {
        name: [] for name in ("submit", "queue", "coalesce", "dispatch_self", "deliver")
    }
    dispatch_self: Dict[float, float] = {}
    total = attributed = 0.0
    for index, item in enumerate(items[: len(record.futures)]):
        due, sent, submitted, done = (
            record.due[index], record.sent[index], record.submitted[index], record.done[index],
        )
        stages["submit"].append(1e6 * (submitted - sent))
        intervals = [(due, sent), (sent, submitted)]
        kernel_seconds, named = 0.0, {}
        for span in by_trace.get(index + 1, ()):
            if span.category == "kernel":
                opcode = span.name.split(" ", 1)[1]
                if opcode not in spans.CONTAINER_OPS:
                    kernel_seconds += span.duration
                if (span.name, span.start) not in seen_kernels:
                    seen_kernels.add((span.name, span.start))
                    ledger.add(opcode, item.semiring, span.duration)
                continue
            start = to_perf(span.start)
            named[span.name] = (start, span.duration)
            if span.duration > 0:
                intervals.append((start, start + span.duration))
        for stage in ("queue", "coalesce"):
            if stage in named:
                stages[stage].append(1e3 * named[stage][1])
        if "dispatch" in named:
            start, duration = named["dispatch"]
            self_s = max(0.0, duration - kernel_seconds)
            stages["dispatch_self"].append(1e3 * self_s)
            dispatch_self[start] = self_s
            if "deliver" in named:
                # The engine stamps ``deliver`` when the future resolves; the
                # delivery stage runs from the end of the dispatch to it.
                deliver_at = named["deliver"][0]
                stages["deliver"].append(1e3 * max(0.0, deliver_at - start - duration))
                intervals.append((start + duration, deliver_at))
        if done > due:
            total += done - due
            attributed += spans.covered(intervals, due, done)
    metrics = {
        "service.engine.submit_us_p50": spans.percentile(stages["submit"], 50),
        "service.engine.queue_ms_p50": spans.percentile(stages["queue"], 50),
        "service.engine.coalesce_ms_p50": spans.percentile(stages["coalesce"], 50),
        "service.engine.dispatch_self_ms_p50": spans.percentile(stages["dispatch_self"], 50),
        "service.engine.deliver_ms_p50": spans.percentile(stages["deliver"], 50),
        "matlang.ir.interp_self_ms": 1e3 * spans.ratio(
            sum(dispatch_self.values()), len(dispatch_self)
        ),
    }
    metrics.update(ledger.metrics(KERNEL_METRICS, len(record.futures)))
    return metrics, 1.0 - spans.ratio(attributed, total)


def engine_counters(before: Any, after: Any) -> Dict[str, float]:
    """Coalescing and dispatch counts between two ``Engine.stats()`` snapshots."""
    finished = (after.completed + after.failed) - (before.completed + before.failed)
    dispatches = after.dispatches - before.dispatches
    return {
        "service.engine.coalesce_ratio": spans.ratio(finished, dispatches),
        "service.engine.dispatches": float(dispatches),
    }


def memo_counters(before: Any, after: Any) -> Dict[str, float]:
    """Result-memo hit ratio between two snapshots, and its retained bytes."""
    hits = after.memo_hits - before.memo_hits
    lookups = hits + after.memo_misses - before.memo_misses
    return {
        "service.memo.hit_ratio": spans.ratio(hits, lookups),
        "service.memo.bytes": float(after.memo_bytes),
    }


def stack_hit_ratio(before: Any, after: Any) -> float:
    """``StackCache`` hit ratio between two ``stack_cache_info()`` readings."""
    hits = after.hits - before.hits
    return spans.ratio(hits, hits + after.misses - before.misses)


def run_traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """An untraced pass, then a traced pass over fresh requests, same seed.

    Latency-side layers (stages, memo, unattributed time) come from the
    traced open loop, sent as one segment so request ``k`` carries trace id
    ``k + 1``; throughput-side ones (coalescing, dispatches, stack cache)
    from the traced closed loop, whose median round throughput against the
    untraced pass's is the price of tracing.
    """
    traffic = Traffic(workload, np.random.default_rng(seed))
    half = seconds / 2.0
    closed_s = half * (1.0 - OPEN_SHARE)
    checker = Checker()

    metrics = compile_layers([(item.expression, item.instance) for item in traffic.warm])

    engine, _ = set_up(traffic.warm, checker)
    try:
        plain = _open_segments(engine, traffic, int(RATE * half * OPEN_SHARE), checker)
        plain_rps = statistics.median(_closed_rounds(engine, traffic, closed_s, checker))
    finally:
        engine.shutdown()

    traced_open = traffic.draw(int(RATE * half * OPEN_SHARE))
    tracer = Tracer(sample_rate=0.0, capacity=1 << 18)
    engine, _ = set_up(traffic.warm, checker, trace=tracer)
    try:
        tracer.sample_rate = 1.0
        stats_before, plan_before = engine.stats(), plan_cache_info()
        phase_a = loadgen.open_loop(engine, traced_open, RATE)
        checker.check(phase_a.futures, traced_open)
        stats_after, plan_after = engine.stats(), plan_cache_info()
        layer, unattributed = engine_layers(tracer, phase_a, traced_open)
        tracer.clear()
        stack_before = engine.stack_cache_info()
        traced_rps = statistics.median(_closed_rounds(engine, traffic, closed_s, checker))
        metrics.update(engine_counters(stats_after, engine.stats()))
        metrics["matlang.ir.stack_cache.hit_ratio"] = stack_hit_ratio(
            stack_before, engine.stack_cache_info()
        )
    finally:
        engine.shutdown()
    repeats = Repeats()
    repeats.count(phase_a, traced_open)

    metrics.update(layer)
    metrics.update(memo_counters(stats_before, stats_after))
    metrics.update({
        # Share of requests that needed no cold compile in the measured phase.
        "matlang.compiler.plan_cache.hit_ratio": 1.0 - spans.ratio(
            plan_after.misses - plan_before.misses, len(phase_a.futures)
        ),
        "latency_p99_ms": 1e3 * spans.percentile(plain.latencies, 99),
        "unattributed_frac": unattributed,
        "obs.trace_overhead_frac": plain_rps / traced_rps - 1.0,
        "loadgen.late_p99_ms": 1e3 * spans.percentile(phase_a.late(), 99),
        "loadgen.repeat_share": repeats.share,
    })
    notes = [
        f"traced {len(phase_a.futures)} open-loop requests; closed loop median round "
        f"untraced {plain_rps:.0f} req/s, traced {traced_rps:.0f} req/s",
        f"failures: {checker.errors} errors, {checker.timeouts} timeouts, "
        f"{checker.wrong} wrong answers of {checker.attempted}",
    ]
    return {
        "valid": _backlog_ok(max(phase_a.backlog, default=0)) and _backlog_ok(plain.backlog),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "notes": notes,
        "metrics": metrics,
    }
