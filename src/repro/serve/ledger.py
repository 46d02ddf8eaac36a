"""The one supervision core under every executor.

A :class:`WindowLedger` owns the bookkeeping of one serving session,
whatever moves the windows: in-process calls
(:class:`~repro.serve.StreamScheduler`), :mod:`multiprocessing` queues
(:class:`~repro.serve.PoolScheduler`) or sockets
(:class:`~repro.serve.net.FleetServer`). Each executor is a transport
adapter: it reports events (dispatched, result, spoiled attempt,
deadline passed, worker lost) and asks what to dispatch next. The ledger
owns the window accounting and tally, one in-flight table keyed by
window index, the retry ladder (``max_retries`` primary attempts, one
reference-engine attempt, then quarantine) with an injected backoff,
dispatch order (due retries outrank fresh windows), at-least-once dedup
(``late_results``, ``quarantine_rescues``), stall detection and failure
capture. Time comes from an injected ``clock``, so tests drive it with a
fake one. What a lost worker costs is the adapter's rule, built from two
primitives: :meth:`WindowLedger.spoil` spends a rung,
:meth:`WindowLedger.requeue` re-dispatches for free (docs/robustness.md,
"Worker supervision").
"""

from __future__ import annotations

import collections
import queue
import threading
import time
import traceback
from typing import NamedTuple

from repro.core.errors import SimulationError
from repro.obs.bus import get_bus
from repro.obs.instruments import (
    record_failed,
    record_net_retry,
    record_progress,
    record_resilience,
    record_window,
)
from repro.serve.report import FailedWindow, merge_counts


class PoolWorkerError(SimulationError):
    """A pool worker failed; carries the worker-side traceback.

    Round-trips :mod:`pickle` losslessly (``__reduce__`` rebuilds from
    the original constructor arguments, not the formatted message), so a
    remote failure shipped over the fleet transport
    (:mod:`repro.serve.net`) or across a process boundary re-raises with
    the same ``worker_id``/``window_index``/``details`` — and the same
    rendered message — as a local one.
    """

    def __init__(self, worker_id, window_index, details: str) -> None:
        who = (
            "pool feeder thread" if worker_id == "feeder"
            else f"pool worker {worker_id}"
        )
        where = (
            f" at window {window_index}" if window_index is not None
            else ""
        )
        super().__init__(
            f"{who} failed{where} "
            "(completed windows are checkpointed when a checkpoint is "
            f"configured):\n{details}"
        )
        self.worker_id = worker_id
        self.window_index = window_index
        self.details = details

    def __reduce__(self):
        return (
            type(self),
            (self.worker_id, self.window_index, self.details),
        )


class Task(NamedTuple):
    """One serving attempt of one window — the unit every transport ships."""

    index: int
    start: int
    samples: object
    attempt: int = 0
    force_reference: bool = False


def no_backoff(attempt: int) -> float:
    """Retry delay of in-process and pool executors: none."""
    return 0.0


class Feeder:
    """Fresh windows of a stream, minus those ``skip(index)`` rejects.

    Inline (``maxsize=None``) :meth:`take` slices the next window on the
    caller's thread, and a slicing error propagates there. With a
    ``maxsize`` a daemon thread — started by the first :meth:`take`, so a
    pool forks its workers before it exists — slices ahead into a
    bounded queue, so materializing windows of a long trace overlaps
    serving; :meth:`take` then never blocks, and a slicing error is kept
    in :attr:`failure` for the supervisor to surface — never swallowed
    into a hang.
    """

    def __init__(self, stream, skip, maxsize: int = None) -> None:
        self.failure = None
        self._windows = (w for w in stream if not skip(w.index))
        self._exhausted = False
        self._queue = None if maxsize is None else queue.Queue(maxsize)
        self._abort = threading.Event()
        self._thread = None

    @property
    def done(self) -> bool:
        """No window is left to take, now or later."""
        if self._queue is None:
            return self._exhausted
        return self._exhausted and self._queue.empty()

    def take(self):
        """The next fresh :class:`~repro.serve.Window`, or ``None``."""
        if self._queue is not None:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._slice, daemon=True
                )
                self._thread.start()
            try:
                return self._queue.get_nowait()
            except queue.Empty:
                return None
        window = next(self._windows, None)
        if window is None:
            self._exhausted = True
        return window

    def _slice(self) -> None:
        try:
            for window in self._windows:
                while not self._abort.is_set():
                    try:
                        self._queue.put(window, timeout=0.1)
                        break
                    except queue.Full:
                        continue
                if self._abort.is_set():
                    break
        except Exception:
            self.failure = traceback.format_exc()
        finally:
            self._exhausted = True

    def close(self) -> None:
        """Stop the slicing thread (if any) and drop what it buffered."""
        self._abort.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            while self.take() is not None:
                pass


class WindowLedger:
    """Supervision state of one serving session (see the module docs).

    ``session`` is the :class:`~repro.serve.checkpoint.Session` whose
    state the ledger settles windows into; ``feeder`` supplies fresh
    windows. ``resilient`` says whether supervision may legitimately
    re-serve a window whose first result is still on its way — without
    it a duplicate result is a sharding bug and raises.
    """

    def __init__(self, session, feeder, max_retries: int = 0,
                 reference_fallback: bool = True, resilient: bool = False,
                 backoff=no_backoff, clock=time.monotonic) -> None:
        self.session = session
        self.state = session.state
        self.feeder = feeder
        self.max_retries = max_retries
        self.reference_fallback = reference_fallback
        self.resilient = resilient
        self.backoff = backoff
        self.clock = clock
        #: window index -> (task, worker, deadline or None), in
        #: dispatch order.
        self.in_flight = {}
        #: worker -> number of its tasks in flight.
        self.load = collections.Counter()
        #: window index -> (not_before, task) of queued retries, FIFO.
        self.retries = {}
        #: (worker, window index, details) of the first failure.
        self.failure = None
        #: engines the workers reported.
        self.engines = set()
        #: results accepted this session.
        self.accepted = 0
        self._kinds = {}  # index -> fault kinds of its spoiled attempts

    # -- accounting ---------------------------------------------------------

    @property
    def settled(self) -> int:
        """Windows accounted for: accepted or quarantined."""
        return self.state.n_done + self.state.n_failed

    @property
    def running(self) -> bool:
        """Neither finished nor failed: supervision goes on."""
        return (
            self.failure is None and self.feeder.failure is None
            and not self.state.complete
        )

    def tally(self, counts: dict) -> None:
        """Add resilience counters (and publish them on the bus)."""
        merge_counts(self.state.resilience, counts)
        bus = get_bus()
        if bus is not None:
            record_resilience(bus, counts)

    def _settle(self) -> None:
        self.session.mark()
        bus = get_bus()
        if bus is not None:
            record_progress(
                bus, self.settled, self.state.n_windows, self.session.wall()
            )

    def _pending(self, index: int) -> bool:
        state = self.state
        return (
            index in state.results or index in state.failed
            or index in self.in_flight or index in self.retries
        )

    # -- dispatch -----------------------------------------------------------

    def next_task(self, now: float = None):
        """The next :class:`Task` to dispatch, or ``None`` for now.

        A due retry outranks a fresh window; fresh windows already
        settled, in flight or queued are skipped.
        """
        if self.retries:
            now = self.clock() if now is None else now
            for index, (not_before, task) in self.retries.items():
                if not_before <= now:
                    del self.retries[index]
                    return task
        while True:
            window = self.feeder.take()
            if window is None:
                return None
            if not self._pending(window.index):
                return Task(window.index, window.start, window.samples)

    def assign(self, workers, prefetch: int, timeout: float = None):
        """Hand out tasks, each to the least-loaded of ``workers()``.

        Yields ``(task, worker)`` pairs already recorded as dispatched
        (expiring ``timeout`` seconds from now, if given) while some
        worker holds fewer than ``prefetch`` tasks and a task is ready.
        ``workers`` is re-read per task: sending may lose a worker.
        """
        while True:
            open_workers = [
                w for w in workers() if self.load[w] < prefetch
            ]
            if not open_workers:
                return
            task = self.next_task()
            if task is None:
                return
            worker = min(open_workers, key=self.load.__getitem__)
            self.dispatched(
                task, worker,
                None if timeout is None else self.clock() + timeout,
            )
            yield task, worker

    def dispatched(self, task: Task, worker, deadline: float = None) -> None:
        """``task`` is on its way to ``worker`` (expiring at ``deadline``)."""
        self.in_flight[task.index] = (task, worker, deadline)
        self.load[worker] += 1

    def _take(self, index: int):
        entry = self.in_flight.pop(index, None)
        if entry is not None:
            self.load[entry[1]] -= 1
        return entry

    def release(self, worker) -> list:
        """Take every task in flight on ``worker``, in dispatch order.

        The lost-worker primitive: the adapter then decides, task by
        task, between :meth:`spoil` and :meth:`requeue`.
        """
        tasks = [
            task for task, owner, _ in self.in_flight.values()
            if owner == worker
        ]
        for task in tasks:
            self._take(task.index)
        self.load.pop(worker, None)
        return tasks

    def expired(self, now: float = None) -> list:
        """Take every task past its deadline: ``(task, worker)`` pairs."""
        now = self.clock() if now is None else now
        late = [
            (task, worker)
            for task, worker, deadline in self.in_flight.values()
            if deadline is not None and now > deadline
        ]
        for task, _ in late:
            self._take(task.index)
        return late

    # -- verdicts -----------------------------------------------------------

    def result(self, index, result, stats_delta: dict, worker=None,
               force_reference: bool = False) -> str:
        """A worker delivered a clean result for window ``index``.

        Returns ``"accepted"``, ``"late"`` (a duplicate of a window
        already accepted) or ``"invalid"`` (``index`` is outside the
        stream or disagrees with the result's own index — refused and
        tallied as ``net_protocol_errors``, never counted toward
        completion).
        """
        state = self.state
        if (
            type(index) is not int
            or not 0 <= index < state.n_windows
            or getattr(result, "index", None) != index
        ):
            self.tally({"net_protocol_errors": 1})
            return "invalid"
        self._take(index)
        self.retries.pop(index, None)
        if index in state.results:
            # A result raced its own re-dispatch (the worker was presumed
            # lost or late). Without supervision that can only be a
            # sharding bug; with it, it is bookkept and dropped.
            if not self.resilient:
                raise SimulationError(
                    f"window {index} was served twice — sharding bug"
                )
            self.tally({"late_results": 1})
            return "late"
        if index in state.failed:
            # Quarantined, then a late clean result arrived after all.
            del state.failed[index]
            self.tally({"quarantine_rescues": 1})
        self._kinds.pop(index, None)
        state.results[index] = result
        merge_counts(state.store_stats, stats_delta)
        self.accepted += 1
        bus = get_bus()
        if bus is not None:
            # One record per accepted result, so bus totals equal the
            # merged report's counts exactly.
            record_window(bus, result, stats_delta, worker=worker)
        if force_reference:
            self.tally({"reference_recoveries": 1})
        self._settle()
        return "accepted"

    def spoiled(self, index: int, kinds, reason: str = None) -> None:
        """A worker reported injected faults spoiling its attempt."""
        self.tally({f"fault:{kind}": 1 for kind in kinds})
        entry = self._take(index)
        if entry is None:
            # Supervision already re-dispatched it: a stale verdict.
            self.tally({"late_results": 1})
            return
        self.spoil(entry[0], kinds, reason=reason)

    def spoil(self, task: Task, kinds, why: str = None,
              reason: str = None) -> None:
        """Spend one rung of the retry ladder on ``task``.

        Queues the next attempt (after ``backoff``), or quarantines the
        window once the ladder is exhausted. ``why`` describes a
        non-fault loss for the quarantine record; ``reason`` labels the
        rung on the fleet's retry counter.
        """
        index = task.index
        if index in self.state.results or index in self.state.failed:
            return
        self._kinds.setdefault(index, []).extend(kinds)
        retry = task.attempt < self.max_retries
        if retry or (self.reference_fallback and not task.force_reference):
            self.tally({"retries": 1})
            bus = get_bus()
            if bus is not None and reason is not None:
                record_net_retry(bus, reason)
            self.retries[index] = (
                self.clock() + self.backoff(task.attempt),
                task._replace(
                    attempt=task.attempt + 1, force_reference=not retry
                ),
            )
            return
        kinds = self._kinds.pop(index)
        attempts = task.attempt + 1
        detail = f"exhausted {attempts} attempts; faults fired: " \
            + ", ".join(kinds)
        if why:
            detail += f"; last: {why}"
        self.state.failed[index] = FailedWindow(
            index=index, start=task.start, attempts=attempts,
            kinds=tuple(dict.fromkeys(kinds)), detail=detail,
        )
        self.tally({"quarantined": 1})
        bus = get_bus()
        if bus is not None:
            record_failed(bus)
        self._settle()

    def requeue(self, task: Task) -> None:
        """Re-dispatch ``task`` at its current attempt: no rung spent."""
        self.retries[task.index] = (self.clock(), task)

    # -- failure ------------------------------------------------------------

    def fail(self, worker, index, details: str) -> None:
        """Record a failure; only the first one is raised."""
        if self.failure is None:
            self.failure = (worker, index, details)

    def check_stall(self, who: str, worker) -> None:
        """Fail when nothing is left to serve yet the stream is open."""
        if (
            self.feeder.done and not self.retries and not self.in_flight
            and not self.state.complete
        ):
            self.fail(
                worker, None,
                f"{who} stalled with {self.settled}/{self.state.n_windows} "
                "windows accounted — sharding bug",
            )

    def finish(self, who: str, engine: str, stopped: bool = False) -> str:
        """The workers' engine (``engine`` if none reported one).

        Raises :class:`PoolWorkerError` for a captured worker or feeder
        failure (the session flushes the checkpoint on the way out), and
        :class:`~repro.core.errors.SimulationError` when workers disagree
        on the engine or an unstopped session left windows unaccounted.
        """
        if self.failure is None and self.feeder.failure is not None:
            self.failure = (
                "feeder", None,
                f"trace slicing failed mid-stream:\n{self.feeder.failure}",
            )
        if self.failure is not None:
            raise PoolWorkerError(*self.failure)
        if len(self.engines) > 1:
            raise SimulationError(
                f"{who} workers disagree on the engine: "
                f"{sorted(self.engines)}"
            )
        state = self.state
        if not stopped and not state.complete:
            raise SimulationError(
                f"{who} finished with {state.n_done} served and "
                f"{state.n_failed} quarantined of {state.n_windows} "
                "windows — sharding bug"
            )
        return self.engines.pop() if self.engines else engine
