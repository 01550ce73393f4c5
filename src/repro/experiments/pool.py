"""One synchronous worker pool for batch campaigns, the fuzzer and the service.

A :class:`WorkerPool` runs N worker processes, each over its own pipe,
with at most one *unit* — a list of items — in flight per worker.  A
worker runs the caller's initializer once per incarnation, then applies
the caller's task to each item of every unit it receives and sends each
result back as soon as it is ready.  :meth:`WorkerPool.poll` hands the
results to the parent, which journals them as they arrive.

Failure is detected by the parent, never reported by the worker: a
worker whose process ends (SIGKILL, OOM, a task that raised) is
``killed``, and one whose in-flight unit yields no result within
``deadline_s`` of its dispatch or of its previous result is a ``hang``.
Either way the worker is killed and respawned, re-running the
initializer, and its unit comes back to the caller as :class:`Lost`, to
retry or to fail.  The parent blocks in
:func:`multiprocessing.connection.wait` on the worker pipes and process
sentinels with the nearest deadline as its timeout, so it never
sleep-polls and never misses a hang.

``workers=0`` runs units inline in the calling process, whose state is
already in place (no initializer) and which cannot be preempted (no
deadline).  ``context`` names a :mod:`multiprocessing` start method;
``None`` keeps the platform default (cheap ``fork`` workers on Linux),
and the service asks for ``spawn`` because its parent runs threads and
an event loop.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence

__all__ = ["Lost", "Result", "WorkerPool"]

# How long close() waits for idle workers to exit before killing them.
_CLOSE_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class Result:
    """One item's result, from the worker in ``slot``."""

    tag: Any
    slot: int
    value: Any


@dataclass(frozen=True)
class Lost:
    """A unit whose worker was killed (``reason`` ``"killed"`` or
    ``"hang"``) before it returned every result; ``detail`` says how."""

    tag: Any
    slot: int
    reason: str
    detail: str


def _work(
    conn, task: Callable, initializer: Optional[Callable], initargs: tuple
) -> None:
    """A worker's life: initialize, then run units until told to stop."""
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            unit = conn.recv()
        except EOFError:  # the parent is gone
            return
        if unit is None:
            return
        for item in unit:
            conn.send(task(item))


def _exit_status(code: Optional[int]) -> str:
    if code is not None and code < 0:
        try:
            return f"signal {signal.Signals(-code).name}"
        except ValueError:
            return f"signal {-code}"
    return f"exit code {code}"


class _Worker:
    """One slot: its current process incarnation and in-flight unit."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process = None
        self.conn = None
        self.generation = 0  # incarnations so far
        self.tag: Any = None  # the in-flight unit's tag; None when idle
        self.pending: List[Any] = []  # its items still owed a result
        self.last_progress = time.monotonic()  # dispatch or last result


class WorkerPool:
    """N workers, one unit in flight each; see the module docstring."""

    def __init__(
        self,
        task: Callable[[Any], Any],
        workers: int,
        *,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Sequence[Any] = (),
        deadline_s: Optional[float] = None,
        context: Optional[str] = None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        self._task = task
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._inline = workers < 1
        self.deadline_s = None if self._inline else deadline_s
        self._ctx = multiprocessing.get_context(context)
        self.workers = [_Worker(slot) for slot in range(max(1, workers))]
        if not self._inline:
            for worker in self.workers:
                self._spawn(worker)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def idle(self) -> int:
        """How many units :meth:`submit` can start right now."""
        return sum(1 for worker in self.workers if worker.tag is None)

    @property
    def busy(self) -> bool:
        return any(worker.tag is not None for worker in self.workers)

    def submit(self, tag: Any, items: Sequence[Any]) -> int:
        """Start a unit on an idle worker; returns the worker's slot."""
        items = list(items)
        if not items:
            raise ValueError("a unit needs at least one item")
        worker = next((w for w in self.workers if w.tag is None), None)
        if worker is None:
            raise RuntimeError("no idle worker: poll() until one frees up")
        worker.tag, worker.pending = tag, items
        worker.last_progress = time.monotonic()
        if not self._inline:
            try:
                worker.conn.send(items)
            except OSError:
                pass  # the worker just died: poll() reports the unit lost
        return worker.slot

    def poll(self, timeout: Optional[float] = None) -> List[Result | Lost]:
        """Wait up to ``timeout`` seconds (``None``: until something
        happens) and return the results, deaths and hangs since the last
        call.  Inline, run the next item instead."""
        events: List[Result | Lost] = []
        if self._inline:
            worker = self.workers[0]
            if worker.tag is not None:
                self._deliver(worker, self._task(worker.pending[0]), events)
            return events
        if self.deadline_s is not None:
            due = [
                worker.last_progress + self.deadline_s
                for worker in self.workers
                if worker.tag is not None
            ]
            if due:
                until = max(0.0, min(due) - time.monotonic())
                timeout = until if timeout is None else min(timeout, until)
        handles = {}
        for worker in self.workers:
            handles[worker.conn] = worker.slot
            handles[worker.process.sentinel] = worker.slot
        woken = {handles[handle] for handle in wait(list(handles), timeout)}
        for worker in self.workers:
            if worker.slot in woken and (
                not self._drain(worker, events)
                or not worker.process.is_alive()
            ):
                self._restart(worker, "killed", events)
            elif (
                self.deadline_s is not None
                and worker.tag is not None
                and time.monotonic() - worker.last_progress >= self.deadline_s
            ):
                self._restart(worker, "hang", events)
        return events

    def run(self, units: Iterable[tuple]) -> Iterator[Result | Lost]:
        """Submit ``(tag, items)`` units as workers free up — ``units`` is
        consumed lazily, one unit per free worker — and yield every event
        until the units run out and the last one settles."""
        source = iter(units)
        while True:
            while self.idle:
                unit = next(source, None)
                if unit is None:
                    break
                self.submit(*unit)
            if not self.busy:
                return
            yield from self.poll()

    def close(self) -> None:
        """Stop every worker: idle ones exit, busy ones are killed and
        their units abandoned."""
        if self._inline:
            return
        for worker in self.workers:
            if worker.tag is None:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass  # already gone
            else:
                worker.process.kill()
        for worker in self.workers:
            worker.process.join(_CLOSE_TIMEOUT_S)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.conn.close()

    # -- internals -------------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        parent_end, child_end = self._ctx.Pipe()
        worker.process = self._ctx.Process(
            target=_work,
            args=(child_end, self._task, self._initializer, self._initargs),
            daemon=True,
            name=f"repro-worker-{worker.slot}",
        )
        worker.process.start()
        child_end.close()  # the pipe reports EOF once the child is gone
        worker.conn = parent_end
        worker.generation += 1
        worker.last_progress = time.monotonic()

    def _deliver(self, worker: _Worker, value: Any, events: list) -> None:
        events.append(Result(worker.tag, worker.slot, value))
        worker.pending.pop(0)
        worker.last_progress = time.monotonic()
        if not worker.pending:
            worker.tag = None

    def _drain(self, worker: _Worker, events: list) -> bool:
        """Deliver every result waiting in the worker's pipe; False once
        the pipe has closed (the worker is dead)."""
        try:
            while worker.conn.poll():
                self._deliver(worker, worker.conn.recv(), events)
        except (EOFError, OSError):
            return False
        return True

    def _restart(self, worker: _Worker, reason: str, events: list) -> None:
        """Kill and respawn a worker; an unfinished unit becomes Lost."""
        worker.process.kill()
        worker.process.join()
        self._drain(worker, events)  # results sent before it died count
        if worker.tag is not None:
            detail = (
                f"no result within {self.deadline_s:g}s"
                if reason == "hang"
                else f"worker died ({_exit_status(worker.process.exitcode)})"
            )
            events.append(Lost(worker.tag, worker.slot, reason, detail))
            worker.tag, worker.pending = None, []
        worker.conn.close()
        worker.process.close()
        self._spawn(worker)
