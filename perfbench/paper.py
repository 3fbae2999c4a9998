"""``paper_algorithms``: the paper's for-MATLANG algorithms through ``evaluate``.

A closed loop, one query at a time, cycling through shortest paths
(min-plus ``Pi v. (I + A)``), reachability as a product quantifier
(Sec. 6.3), Floyd-Warshall (Ex. 3.5), LU by Gaussian elimination
(Prop. 4.1) and Csanky's inverse (Prop. 4.3).  Kernels and the for-loop
interpreter do almost all the work; no engine is involved, and the
compiler's cost shows in ``setup_s``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Any, Dict, List

import numpy as np

import inputs
import loadgen
import serve
import spans
from repro.matlang import Evaluator, clear_plan_cache, compile_expression, evaluate, plan_cache_info
from repro.obs import Tracer
from repro.service import Engine

SETUPS = 5


def _set_up(cases: List[inputs.AlgorithmCase]) -> float:
    """Compile every algorithm's plan from a cold plan cache (timed)."""
    clear_plan_cache()
    started = time.perf_counter()
    for case in cases:
        compile_expression(case.expression, case.instance.schema)
    return time.perf_counter() - started


def _closed_loop(cases: List[inputs.AlgorithmCase], seconds: float, call: Any) -> Dict[str, Any]:
    """Cycle through ``cases`` in whole rounds until ``seconds`` are measured.

    Each result is checked, and dropped, as soon as its call returns; the
    check lies outside every measured interval.  ``gaps`` are the loop's own
    delays between one check's end and the next call's start, and ``busy``
    is the measured time: every call plus every gap.
    """
    times: Dict[str, List[float]] = {case.name: [] for case in cases}
    gaps: List[float] = []
    wrong, busy = 0, 0.0
    previous = time.perf_counter()
    while busy < seconds:
        for case in cases:
            begin = time.perf_counter()
            gaps.append(begin - previous)
            result = call(case)
            end = time.perf_counter()
            times[case.name].append(end - begin)
            busy += end - previous
            wrong += not case.check(result)
            del result
            previous = time.perf_counter()
    return {"times": times, "gaps": gaps, "wrong": wrong, "calls": len(gaps), "busy": busy}


def _typical_ms(times: Dict[str, List[float]]) -> float:
    """Geometric mean of the algorithms' median call times, in ms.

    Every algorithm moves it by the same share of its own speed-up, however
    long its calls are.
    """
    medians = [statistics.median(values) for values in times.values()]
    return 1e3 * math.exp(statistics.fmean(math.log(value) for value in medians))


def _evaluate(case: inputs.AlgorithmCase) -> Any:
    return evaluate(case.expression, case.instance)


def run(seed: int, seconds: float) -> Dict[str, Any]:
    cases = inputs.algorithm_cases(np.random.default_rng(seed))
    # The peak covers set-up and the loop, not drawing the inputs and their
    # references; the harness then holds the five inputs and references.
    gc.collect()
    reset = spans.reset_peak_rss()
    setups = [_set_up(cases) for _ in range(SETUPS)]
    loop = _closed_loop(cases, seconds, _evaluate)
    wrong, calls = loop["wrong"], loop["calls"]
    every = [value for values in loop["times"].values() for value in values]
    notes = [
        f"{case.name}: median {statistics.median(loop['times'][case.name]):.4f} s "
        f"over {len(loop['times'][case.name])} calls"
        for case in cases
    ] + [
        f"latency p99 {1e3 * np.percentile(every, 99):.1f} ms",
        f"set-ups: {' '.join(f'{value:.3f}' for value in setups)} s",
        "peak resident set " + ("since the inputs were drawn" if reset
                                else "of the whole process (no high-water reset)"),
        f"failures: {wrong} wrong answers of {calls}",
    ]
    return {
        "valid": True,
        "attempted": calls,
        "failed": wrong,
        "notes": notes,
        "metrics": {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": _typical_ms(loop["times"]),
            "throughput_rps": calls / loop["busy"],
            "peak_rss_mb": spans.peak_rss_mb(),
        },
    }


class _TracedCall:
    """``evaluate`` split at its layer boundaries, with spans around each.

    Runs exactly what ``evaluate`` runs — ``compile_expression``, physical
    planning, then the plan interpreter — through the public ``Evaluator``,
    with the ``profiler=`` hook collecting per-op kernel times.
    """

    def __init__(self) -> None:
        self.ledger = spans.KernelLedger()
        self.compile_s = self.physical_s = self.execute_s = self.interp_self_s = 0.0

    def __call__(self, case: inputs.AlgorithmCase) -> Any:
        ledger = spans.KernelLedger(case.semiring)
        started = time.perf_counter()
        plan = compile_expression(case.expression, case.instance.schema)
        compiled = time.perf_counter()
        evaluator = Evaluator(case.instance, profiler=ledger)
        evaluator.physical(plan)
        planned = time.perf_counter()
        result = evaluator.run(case.expression)
        ended = time.perf_counter()
        self.compile_s += compiled - started
        self.physical_s += planned - compiled
        self.execute_s += ended - planned
        self.interp_self_s += (ended - planned) - ledger.op_seconds
        self.ledger.merge(ledger)
        return result


#: Algorithms sent once through a traced engine for the ``service.*``
#: metrics: the fused single-kernel plans.  The loop-heavy ones would attach
#: tens of thousands of kernel spans to one request.
ENGINE_PASS = ("shortest_paths", "closure")


def run_traced(seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced and traced halves, plus a pass through a traced engine.

    The engine pass only feeds the ``service.*`` layer metrics (the engine's
    own overhead on heavy queries); every other number comes from the
    ``evaluate`` path this workload measures.
    """
    cases = inputs.algorithm_cases(np.random.default_rng(seed))
    metrics = serve.compile_layers([(case.expression, case.instance) for case in cases])
    _set_up(cases)
    half = seconds / 2.0
    plain = _closed_loop(cases, half, _evaluate)
    traced_call = _TracedCall()
    misses_before = plan_cache_info().misses
    traced = _closed_loop(cases, half, traced_call)
    misses = plan_cache_info().misses - misses_before
    calls = traced["calls"]

    checker = serve.Checker()
    tracer = Tracer(capacity=1 << 16)
    engine_cases = [case for case in cases if case.name in ENGINE_PASS]
    with Engine(trace=tracer) as engine:
        before, stack_before = engine.stats(), engine.stack_cache_info()
        record = loadgen.closed_loop(engine, engine_cases, window=1)
        checker.check(record.futures, engine_cases)
        after = engine.stats()
        metrics["matlang.ir.stack_cache.hit_ratio"] = serve.stack_hit_ratio(
            stack_before, engine.stack_cache_info()
        )
    layer, _ = serve.engine_layers(tracer, record, engine_cases)
    metrics.update({name: value for name, value in layer.items() if name.startswith("service.")})
    metrics.update(serve.engine_counters(before, after))
    metrics.update(serve.memo_counters(before, after))
    wrong = plain["wrong"] + traced["wrong"]

    metrics.update(traced_call.ledger.metrics(serve.KERNEL_METRICS, calls))
    plain_rate = plain["calls"] / plain["busy"]
    traced_rate = calls / traced["busy"]
    metrics.update({
        "latency_p99_ms": 1e3 * spans.percentile(
            [value for values in plain["times"].values() for value in values], 99
        ),
        "matlang.compiler.plan_cache.hit_ratio": 1.0 - spans.ratio(misses, calls),
        "matlang.ir.interp_self_ms": 1e3 * traced_call.interp_self_s / calls,
        # The loop's measured time, gaps included, against the three stamped
        # layers; the rest is the traced call's own bookkeeping and the loop.
        "unattributed_frac": 1.0 - spans.ratio(
            traced_call.compile_s + traced_call.physical_s + traced_call.execute_s,
            traced["busy"],
        ),
        "obs.trace_overhead_frac": plain_rate / traced_rate - 1.0,
        "loadgen.late_p99_ms": 1e3 * spans.percentile(traced["gaps"], 99),
        # Every round re-evaluates the same five (expression, instance) pairs.
        "loadgen.repeat_share": 1.0 - spans.ratio(len(cases), calls),
    })
    notes = [
        f"per call: compile {1e3 * traced_call.compile_s / calls:.3f} ms, physical "
        f"{1e3 * traced_call.physical_s / calls:.3f} ms, execute "
        f"{1e3 * traced_call.execute_s / calls:.3f} ms (interpreter self "
        f"{1e3 * traced_call.interp_self_s / calls:.3f} ms)",
        f"failures: {wrong + checker.failed} of {plain['calls'] + calls + checker.attempted}",
    ]
    return {
        "valid": True,
        "attempted": plain["calls"] + calls + checker.attempted,
        "failed": wrong + checker.failed,
        "notes": notes,
        "metrics": metrics,
    }
