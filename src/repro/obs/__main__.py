"""``python -m repro.obs`` — observability CLI for the serving tier.

Subcommands::

    stats    poll a running QueryServer once and print the snapshot
    metrics  poll a running QueryServer and print the Prometheus exposition
    watch    live dashboard against a running QueryServer, redrawn in place
    demo     run a short traced in-process stream and (optionally) export
             the Chrome trace / JSONL spans / Prometheus text — the CI
             smoke step runs this

The first three speak the :mod:`repro.service.server` socket protocol, so
they can run in a different process (and, for ``metrics``, even without
unpickling any repro classes beyond plain strings).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict


def _client(args: argparse.Namespace):
    from repro.service.server import QueryClient

    return QueryClient(args.host, args.port)


def _cmd_stats(args: argparse.Namespace) -> int:
    with _client(args) as client:
        snapshot = client.stats()
        print(snapshot.render())
        for index, worker in enumerate(client.worker_stats()):
            if worker is None:
                print(f"worker[{index}]: DOWN")
            else:
                print(f"worker[{index}]: {worker.render()}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    with _client(args) as client:
        sys.stdout.write(client.metrics())
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import DashboardLoop

    with _client(args) as client:
        def poll() -> Dict[str, Any]:
            return {
                "stats": client.stats(),
                "workers": client.worker_stats(),
                "hot_plans": client.hot_plans(args.top),
            }

        frames = DashboardLoop(
            poll, interval=args.interval, frames=args.frames
        ).run()
    print(f"({frames} frame{'s' if frames != 1 else ''} rendered)")
    return 0


def _demo_stream(count: int):
    """A small mixed stream (sizes x semirings x expressions) like p06's."""
    import numpy as np

    from repro.matlang.builder import ssum, var
    from repro.matlang.instance import Instance
    from repro.semiring import MIN_PLUS, REAL

    A, v = var("A"), var("_v")
    expressions = (ssum("_v", A @ v), ssum("_v", v.T @ A @ v) * (A @ A))
    requests = []
    for seed in range(count):
        dimension = (8, 12, 16)[seed % 3]
        semiring = (REAL, MIN_PLUS)[(seed // 2) % 2]
        rng = np.random.default_rng(seed)
        matrix = rng.random((dimension, dimension))
        if semiring is MIN_PLUS:
            matrix = np.abs(matrix)
        instance = Instance.from_matrices({"A": matrix}, semiring=semiring)
        requests.append((expressions[seed % 2], instance))
    return requests


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.experiments.harness import ServedWorkload
    from repro.obs.dashboard import render_dashboard
    from repro.obs.metrics import engine_registry
    from repro.obs.trace import Tracer
    from repro.service.stats import fold_workers

    tracer = Tracer(sample_rate=args.sample_rate)
    requests = _demo_stream(args.requests)
    with ServedWorkload(workers=args.workers, trace=tracer) as served:
        served.replay(requests, timeout=120)
        snapshot = served.stats()
        engine = served.engine
        registry = engine_registry(engine, tracer=tracer)
        exposition = registry.prometheus()
        workers = engine.worker_stats(timeout=2.0) if args.workers else []
        frame = render_dashboard(
            snapshot, workers=workers, hot_plans=tracer.hot_plans(args.top)
        )

    print(frame)
    print(fold_workers(snapshot, workers).render())
    print(
        f"traces: {tracer.finished} finished / {tracer.started} started "
        f"(sample rate {tracer.sample_rate:g}), {len(tracer.spans())} spans buffered"
    )
    if args.chrome_out:
        events = tracer.export_chrome(args.chrome_out)
        print(f"wrote {events} trace events -> {args.chrome_out}")
    if args.jsonl_out:
        spans = tracer.export_jsonl(args.jsonl_out)
        print(f"wrote {spans} spans -> {args.jsonl_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(exposition)
        print(f"wrote Prometheus exposition -> {args.metrics_out}")
    if args.hot_json:
        print(json.dumps(tracer.hot_plans(args.top), indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability CLI for the repro serving tier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_endpoint(command):
        command.add_argument("--host", default="127.0.0.1")
        command.add_argument("--port", type=int, required=True)

    stats = sub.add_parser("stats", help="print one engine snapshot")
    add_endpoint(stats)
    stats.set_defaults(func=_cmd_stats)

    metrics = sub.add_parser("metrics", help="print the Prometheus exposition")
    add_endpoint(metrics)
    metrics.set_defaults(func=_cmd_metrics)

    watch = sub.add_parser("watch", help="live dashboard (redraws in place)")
    add_endpoint(watch)
    watch.add_argument("--interval", type=float, default=1.0)
    watch.add_argument("--frames", type=int, default=None,
                       help="stop after N frames (default: until Ctrl-C)")
    watch.add_argument("--top", type=int, default=5)
    watch.set_defaults(func=_cmd_watch)

    demo = sub.add_parser(
        "demo", help="run a short traced stream in-process and export"
    )
    demo.add_argument("--requests", type=int, default=120)
    demo.add_argument("--workers", type=int, default=0)
    demo.add_argument("--sample-rate", type=float, default=1.0)
    demo.add_argument("--top", type=int, default=5)
    demo.add_argument("--chrome-out", default=None)
    demo.add_argument("--jsonl-out", default=None)
    demo.add_argument("--metrics-out", default=None)
    demo.add_argument("--hot-json", action="store_true")
    demo.set_defaults(func=_cmd_demo)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
