"""A live terminal dashboard for the serving tier.

Pure rendering: :func:`render_dashboard` turns one poll's worth of data —
an ``EngineStatsSnapshot``, per-worker snapshots, the tracer's hottest
plans, and a short throughput history — into a fixed-width text frame.
:class:`DashboardLoop` repeats a poll callable and redraws the frame in
place (ANSI cursor-home + clear), which is what ``python -m repro.obs
watch`` runs against a live :class:`repro.service.server.QueryServer`.

Everything here is stdlib-only and side-effect free below the loop, so
tests can render frames and assert on their content without a TTY.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

__all__ = ["DashboardLoop", "render_dashboard", "sparkline"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """A one-line unicode bar chart of the last ``width`` values."""
    values = [float(v) for v in values][-width:]
    if not values:
        return ""
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0.0:
        return _BLOCKS[0] * len(values)
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, int((v - low) / span * len(_BLOCKS)))]
        for v in values
    )


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}µs"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _fmt_count(value: float) -> str:
    value = float(value)
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}k"
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


def _bar(label: str, value: float, peak: float, width: int, suffix: str) -> str:
    fill = 0 if peak <= 0 else int(round(min(1.0, value / peak) * width))
    return f"  {label:<12} [{'#' * fill}{'.' * (width - fill)}] {suffix}"


def render_dashboard(
    stats: Any,
    workers: Sequence[Any] = (),
    hot_plans: Iterable[Dict[str, Any]] = (),
    history: Sequence[float] = (),
    width: int = 78,
) -> str:
    """One dashboard frame as a multi-line string.

    ``stats`` is an ``EngineStatsSnapshot`` (or anything with its fields);
    ``workers`` the per-worker snapshots (``None`` entries = unresponsive);
    ``hot_plans`` entries as produced by :meth:`repro.obs.trace.Tracer.hot_plans`;
    ``history`` recent throughput samples for the sparkline.
    """
    # Imported lazily: the service package imports this one.
    from repro.service.stats import fold_workers

    # A pooled router dispatches nothing itself; its headline counts the
    # dispatches its workers report.
    stats = fold_workers(stats, workers)
    rule = "─" * width
    lines: List[str] = []
    uptime = getattr(stats, "uptime_seconds", 0.0)
    anchor_epoch = getattr(stats, "snapshot_epoch", 0.0)
    clock = (
        time.strftime("%H:%M:%S", time.localtime(anchor_epoch))
        if anchor_epoch
        else "--:--:--"
    )
    lines.append(f"repro serving dashboard · {clock} · up {_fmt_seconds(uptime)}")
    lines.append(rule)

    lines.append(
        "  throughput  {:>10} req/s   submitted {:>8}   completed {:>8}".format(
            _fmt_count(stats.throughput), _fmt_count(stats.submitted),
            _fmt_count(stats.completed),
        )
    )
    lines.append(
        "  queue depth {:>10}         failed    {:>8}   shed      {:>8}".format(
            _fmt_count(stats.queue_depth), _fmt_count(stats.failed),
            _fmt_count(stats.shed_expired + stats.shed_overload),
        )
    )
    lines.append(
        "  coalesce    {:>10.2f}x        latency p50 {:>8}  p95 {:>10}".format(
            stats.coalesce_ratio, _fmt_seconds(stats.latency_p50),
            _fmt_seconds(stats.latency_p95),
        )
    )
    if stats.memo_hits or stats.memo_misses:
        total = stats.memo_hits + stats.memo_misses
        rate = 100.0 * stats.memo_hits / total if total else 0.0
        lines.append(
            "  memo        {:>9.1f}%         hits      {:>8}   bytes     {:>8}".format(
                rate, _fmt_count(stats.memo_hits), _fmt_count(stats.memo_bytes)
            )
        )
    if history:
        lines.append(f"  trend       {sparkline(history, width - 16)}")

    if workers:
        lines.append(rule)
        lines.append("  workers")
        for index, snapshot in enumerate(workers):
            if snapshot is None:
                lines.append(f"    w{index}: DOWN (no stats reply)")
                continue
            lines.append(
                "    w{}: {:>7} done  {:>6.1f} req/s  coalesce {:>5.1f}x  "
                "queue {:>4}  p95 {:>8}".format(
                    index, _fmt_count(snapshot.completed), snapshot.throughput,
                    snapshot.coalesce_ratio, _fmt_count(snapshot.queue_depth),
                    _fmt_seconds(snapshot.latency_p95),
                )
            )

    hot = list(hot_plans)
    if hot:
        lines.append(rule)
        lines.append("  hottest plans (traced kernel time)")
        peak = max(entry["seconds"] for entry in hot) or 1.0
        bar_width = 24
        for entry in hot:
            label = str(entry["plan"])
            if len(label) > width - 48:
                label = label[: width - 51] + "..."
            lines.append(
                _bar(
                    "",
                    entry["seconds"],
                    peak,
                    bar_width,
                    f"{_fmt_seconds(entry['seconds'])} / {entry['count']} spans  {label}",
                )
            )
            for op in entry.get("ops", [])[:3]:
                lines.append(
                    f"      {op['op']:<18} {_fmt_seconds(op['seconds']):>8}"
                    f"  × {op['count']}"
                )

    lines.append(rule)
    return "\n".join(lines)


class DashboardLoop:
    """Poll → render → redraw-in-place, ``interval`` seconds apart.

    ``poll`` returns the keyword arguments for :func:`render_dashboard`
    (any subset of ``stats``/``workers``/``hot_plans``); the loop keeps the
    throughput history itself.  ``frames`` bounds the iteration count so
    demos and tests terminate; ``None`` runs until KeyboardInterrupt.
    """

    def __init__(
        self,
        poll: Callable[[], Dict[str, Any]],
        interval: float = 1.0,
        frames: Optional[int] = None,
        stream: Any = None,
        clear: bool = True,
        history_len: int = 64,
    ) -> None:
        self.poll = poll
        self.interval = interval
        self.frames = frames
        self.stream = stream if stream is not None else sys.stdout
        self.clear = clear
        self.history: List[float] = []
        self.history_len = history_len

    def run(self) -> int:
        """Render frames until the budget runs out; returns frames drawn."""
        drawn = 0
        try:
            while self.frames is None or drawn < self.frames:
                data = self.poll()
                stats = data.get("stats")
                if stats is not None:
                    self.history.append(float(stats.throughput))
                    del self.history[: -self.history_len]
                frame = render_dashboard(history=self.history, **data)
                if self.clear:
                    self.stream.write("\x1b[H\x1b[2J")
                self.stream.write(frame + "\n")
                self.stream.flush()
                drawn += 1
                if self.frames is None or drawn < self.frames:
                    time.sleep(self.interval)
        except KeyboardInterrupt:
            pass
        return drawn
