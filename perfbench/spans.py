"""Small measuring helpers: percentiles, self times, coverage, peak memory."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

import numpy as np

#: The interpreter's container op: its recorded time includes the ops of its
#: body, which the profiler hook records on their own, so it is not a kernel.
CONTAINER_OPS = ("loop",)


def percentile(values: Iterable[float], q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def reset_peak_rss() -> bool:
    """Restart the process's resident-set high-water mark (Linux).

    Returns whether the kernel accepted the reset; without it the peak
    covers the whole process lifetime.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """The resident-set high-water mark (``VmHWM``) in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in intervals if end > low and start < high
    )
    total, reach = 0.0, low
    for start, end in clipped:
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class KernelLedger:
    """Per-(opcode, semiring) kernel time and call counts.

    ``record`` matches the ``profiler=`` hook of ``Evaluator`` /
    ``execute_plan``; ``add`` takes spans read back from an engine trace.
    """

    def __init__(self, semiring: str = "") -> None:
        self.semiring = semiring
        self.seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.op_seconds = 0.0

    # -- profiler hook -----------------------------------------------------
    def record(self, op, backend_name, values, seconds) -> None:
        del backend_name, values
        self.add(op.opcode, self.semiring, seconds)

    def observe_instance(self, instance) -> None:
        del instance

    # ----------------------------------------------------------------------
    def add(self, opcode: str, semiring: str, seconds: float) -> None:
        if opcode in CONTAINER_OPS:
            return
        self.seconds[opcode, semiring] += seconds
        self.calls[opcode, semiring] += 1
        self.op_seconds += seconds

    def merge(self, other: "KernelLedger") -> None:
        for key, seconds in other.seconds.items():
            self.seconds[key] += seconds
            self.calls[key] += other.calls[key]
        self.op_seconds += other.op_seconds

    def metrics(self, names: List[Tuple[str, str]], per: int) -> Dict[str, float]:
        """``semiring.kernels.<op>.<semiring>.{ms,calls}`` per request, plus
        per-semiring totals, for the fixed metric list ``names``."""
        out: Dict[str, float] = {}
        per = max(per, 1)
        for opcode, semiring in names:
            key = (opcode, semiring)
            if opcode == "all":
                seconds = sum(v for (_, s), v in self.seconds.items() if s == semiring)
                calls = sum(v for (_, s), v in self.calls.items() if s == semiring)
            else:
                seconds, calls = self.seconds.get(key, 0.0), self.calls.get(key, 0)
            out[f"semiring.kernels.{opcode}.{semiring}.ms"] = 1e3 * seconds / per
            out[f"semiring.kernels.{opcode}.{semiring}.calls"] = calls / per
        return out
