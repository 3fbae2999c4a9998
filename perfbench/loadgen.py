"""Open- and closed-loop load generators driving ``Engine.submit``.

One generator thread (the caller's) submits; the engine's own scheduler
thread executes.  On a 2-CPU host the two share one interpreter lock, so
the generator never spins: it sleeps until each due time, and a closed
loop blocks on a semaphore the completion callbacks release.

Latency is measured from each request's *due* time to the moment its
future resolves (stamped by an ``add_done_callback``), so a stall also
charges the wait it imposes on every later request.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

#: How long a run waits for stragglers before it counts them as timed out.
RESULT_TIMEOUT_S = 60.0


@dataclass
class LoopRecord:
    """Per-request timestamps (``perf_counter`` seconds) of one loop."""

    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    submitted: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    futures: List[Any] = field(default_factory=list)
    #: Requests outstanding (sent, not resolved) at each send.
    backlog: List[int] = field(default_factory=list)
    started: float = 0.0

    def latencies(self) -> List[float]:
        return [done - due for due, done in zip(self.due, self.done)]

    def late(self) -> List[float]:
        return [sent - due for due, sent in zip(self.due, self.sent)]

    def elapsed(self) -> float:
        return max(self.done) - self.started if self.done else 0.0


def _track(record: LoopRecord, index: int, finished: list, release: Any = None):
    def stamp(_future: Any) -> None:
        record.done[index] = time.perf_counter()
        finished.append(index)
        if release is not None:
            release()

    return stamp


def _submit(engine: Any, record: LoopRecord, item: Any, due: float,
            finished: list, release: Any = None) -> None:
    index = len(record.futures)
    sent = time.perf_counter()
    future = engine.submit(item.expression, item.instance)
    record.submitted.append(time.perf_counter())
    record.due.append(due)
    record.sent.append(sent)
    record.done.append(0.0)
    record.backlog.append(index - len(finished))
    record.futures.append(future)
    future.add_done_callback(_track(record, index, finished, release))


def wait_all(record: LoopRecord) -> None:
    """Block until every future resolved or the run-wide timeout passed."""
    deadline = time.perf_counter() + RESULT_TIMEOUT_S
    for future in record.futures:
        try:
            future.exception(timeout=max(0.0, deadline - time.perf_counter()))
        except TimeoutError:
            return


def open_loop(engine: Any, items: Sequence[Any], rate: float) -> LoopRecord:
    """Send ``items`` at ``rate`` requests/s, regardless of completions.

    Items carry ``expression`` and ``instance``.
    """
    record = LoopRecord()
    finished: list = []
    interval = 1.0 / rate
    record.started = start = time.perf_counter() + 0.01
    for index, item in enumerate(items):
        due = start + index * interval
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        _submit(engine, record, item, due, finished)
    wait_all(record)
    return record


def closed_loop(engine: Any, items: Sequence[Any], window: int,
                seconds: Optional[float] = None) -> LoopRecord:
    """Keep ``window`` requests outstanding; stop sending after ``seconds``.

    A request is due the moment a window slot frees up, so its latency
    includes any time the generator took to refill the slot.
    """
    record = LoopRecord()
    finished: list = []
    slots = threading.Semaphore(window)
    record.started = start = time.perf_counter()
    for item in items:
        slots.acquire()
        due = time.perf_counter()
        if seconds is not None and due - start > seconds:
            break
        _submit(engine, record, item, due, finished, slots.release)
    wait_all(record)
    return record
