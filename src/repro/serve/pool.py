"""Parallel multi-instance serving: one window stream, N platforms.

Every window of a :class:`~repro.serve.WindowStream` is independent once
the engine decision for its kernels is made at compile time, so a long
trace shards embarrassingly: a :class:`PoolScheduler` runs N worker
processes, each owning its **own** simulated platform (a fresh
:class:`~repro.kernels.KernelRunner` built worker-side from a picklable
:class:`~repro.kernels.runner.RunnerFactory`, with the store-once config
cache warming on the worker's first window — or eagerly via
:meth:`KernelRunner.warm`), and merges the per-window
:class:`~repro.serve.WindowResult` objects back into one order-stable
:class:`~repro.serve.StreamReport`.

**Determinism.** Per-window results are history-independent: a window
served on a cold platform is bit-identical (cycles, events, energy,
engine decisions, features, labels) to the same window served mid-stream
on a warm one — ``tests/test_serve.py`` proves it against the sequential
flow, ``tests/test_pool.py`` against this pool. Sharding therefore
changes *nothing* about the report except host-side wall time and the
``store_stats`` counters, which honestly total the cache work all
workers actually did (N cold stores instead of one). See
docs/parallel.md.

**Feeding.** A :class:`~repro.serve.ledger.Feeder` thread slices the
trace ahead of the workers, so window materialization (tuple slicing of
multi-hour traces) overlaps window execution in the workers.

**Checkpointing.** Passing a :class:`~repro.serve.StreamCheckpoint` (or
a path) to :meth:`PoolScheduler.run` persists completed windows as their
results arrive; a killed run resumes mid-stream — with any worker count,
or even under the single-process scheduler — and the final report is
bit-identical to an uninterrupted one.

**Supervision.** Workers are expendable: the host's
:class:`~repro.serve.ledger.WindowLedger` tracks every window it
dispatched and walks spoiled ones down the retry ladder, while the
transport detects dead workers by exit code and hung ones by progress
timeout and respawns them within ``respawn_limit``. See
docs/robustness.md.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import signal as _signal
import sys
import time
import traceback
from dataclasses import dataclass

from repro.app.mbiotracker import window_pipeline
from repro.core.errors import ConfigurationError
from repro.kernels.runner import RunnerFactory
from repro.obs.bus import get_bus
from repro.obs.instruments import record_pool_state, record_worker_retired
from repro.serve.checkpoint import Session
from repro.serve.ledger import (  # noqa: F401  (PoolWorkerError re-exported)
    Feeder,
    PoolWorkerError,
    WindowLedger,
)
from repro.serve.report import StreamReport
from repro.serve.scheduler import AttemptServer, StreamScheduler
from repro.serve.stream import WindowStream

#: Seconds between liveness checks while waiting on worker results.
_POLL_SECONDS = 0.1


def describe_exit(exitcode) -> str:
    """Diagnose a dead worker's exit code for humans.

    Signal deaths (:mod:`multiprocessing` reports them as negative exit
    codes; shells as ``128 + signum``) are named, with an explicit hint
    for SIGKILL — the one the OOM killer, a fault plan's ``worker_kill``
    and an external ``kill -9`` all share. A clean zero exit without a
    final report is called out too: it usually means the worker's result
    queue was torn down under it.
    """
    if exitcode is None:
        return "still running"
    if exitcode == 0:
        return (
            "exit code 0 — the worker exited cleanly without reporting "
            "(result queue torn down?)"
        )
    signum = None
    if exitcode < 0:
        signum = -exitcode
    elif exitcode > 128:
        signum = exitcode - 128
    if signum is not None:
        try:
            name = _signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        hint = ""
        if signum == getattr(_signal, "SIGKILL", 9):
            hint = (
                " — killed hard: the kernel OOM killer, a fault plan's "
                "worker_kill, or an external kill -9"
            )
        return f"died on {name}{hint}"
    return f"exited with code {exitcode}"


def _discard(q) -> None:
    """Drain and close ``q`` so its feeder thread never blocks shutdown."""
    try:
        while True:
            q.get_nowait()
    except (queue.Empty, OSError, ValueError):
        pass
    q.close()
    q.cancel_join_thread()


def _default_start_method() -> str:
    """``"fork"`` on Linux (workers inherit the warm structure table),
    ``"spawn"`` everywhere else — the one policy for pools and sweeps.

    Fork is deliberately not preferred on macOS even though it is
    available there: CPython switched its default to spawn (bpo-33725)
    because forked children can crash in system frameworks.
    """
    if sys.platform == "linux" \
            and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker needs to build its platform — all picklable."""

    config: str
    pipeline: object
    double_buffer: bool
    energy_model: object
    runner_factory: object
    warm_samples: tuple
    fault_plan: object = None


def _worker_main(worker_id: int, spec: _WorkerSpec, tasks, results,
                 stop) -> None:
    """Worker process body: own platform, one serving *attempt* per task.

    Tasks are :class:`~repro.serve.ledger.Task` tuples on this worker's
    private queue; the worker serves exactly one attempt (via the shared
    :class:`AttemptServer`) and reports ``"ok"`` (clean result),
    ``"retry"`` (an injected fault spoiled the attempt — the host owns
    the retry ladder) or ``"err"`` (a genuine pipeline exception, which
    aborts the pool as it always did), each tagged with the worker id
    and window index.
    The worker exits when the host sets ``stop``, reporting ``"fin"``
    with its engine.
    """
    # Exception (not BaseException) throughout: KeyboardInterrupt /
    # SystemExit must kill the worker outright — the host's liveness
    # polling reports dead workers — rather than be wrapped as a
    # per-window error while the worker keeps draining its queue.
    try:
        def _flush_results() -> None:
            # About to die or hang on purpose: push every buffered
            # result fully onto the wire first, or SIGKILL can tear
            # a half-written message and wedge the host's reader.
            results.close()
            results.join_thread()

        server = AttemptServer(
            spec, process_faults=True,
            before_process_fault=_flush_results,
        )
    except Exception:
        results.put(("crash", worker_id, traceback.format_exc()))
        return
    while not stop.is_set():
        try:
            task = tasks.get(timeout=_POLL_SECONDS)
        except queue.Empty:
            continue
        try:
            verdict = server.serve(*task)
        except Exception:
            results.put((
                "err", worker_id, task[0], traceback.format_exc()
            ))
            continue
        results.put((verdict[0], worker_id, task[0]) + verdict[1:])
    results.put(("fin", worker_id, server.engine))


class PoolScheduler:
    """Shards a window stream across N worker-owned platform instances.

    The drop-in parallel sibling of :class:`~repro.serve.StreamScheduler`
    for CPU-bound serving: same report, ``workers``-way process
    parallelism. The pipeline must be picklable — the default MBioTracker
    :class:`~repro.app.mbiotracker.WindowPipeline` is; custom pipelines
    should be module-level classes, not closures. ``runner_factory``
    builds each worker's platform (engine choice lives there);
    ``warm=True`` has every worker pre-run the stream's first window once
    to take cold-cache costs off its first served window; ``prefetch``
    bounds the feeder queue (windows buffered per worker);
    ``start_method`` picks the :mod:`multiprocessing` context (default
    ``"fork"`` where available — workers then inherit the parent's warm
    structure table — else ``"spawn"``).

    The resilience knobs (all off by default; docs/robustness.md):
    ``fault_plan``, ``max_retries`` and ``reference_fallback`` as on
    :class:`~repro.serve.StreamScheduler`; ``respawn_limit`` bounds how
    many dead/hung workers are replaced before the pool gives up;
    ``heartbeat_timeout`` (seconds) declares a worker hung when it holds
    in-flight windows without delivering anything for that long —
    required whenever the plan schedules ``worker_hang`` faults.
    """

    def __init__(self, config: str = "cpu_vwr2a", workers: int = 2,
                 params=None, pipeline=None, energy_model=None,
                 double_buffer: bool = True, runner_factory=None,
                 warm: bool = False, prefetch: int = 4,
                 start_method: str = None, fault_plan=None,
                 max_retries: int = 0, reference_fallback: bool = True,
                 respawn_limit: int = 0,
                 heartbeat_timeout: float = None) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"a pool needs at least one worker, got {workers}"
            )
        if prefetch < 1:
            raise ConfigurationError(
                f"prefetch must be at least 1 window, got {prefetch}"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if respawn_limit < 0:
            raise ConfigurationError(
                f"respawn_limit must be >= 0, got {respawn_limit}"
            )
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ConfigurationError(
                "heartbeat_timeout must be positive seconds (or None "
                f"to disable hang detection), got {heartbeat_timeout}"
            )
        if fault_plan is not None and heartbeat_timeout is None and any(
            spec.kind == "worker_hang" for spec in fault_plan.specs
        ):
            raise ConfigurationError(
                "the fault plan schedules worker_hang faults; pass "
                "heartbeat_timeout so the pool can detect and kill the "
                "hung workers (otherwise the stream never finishes)"
            )
        self.config = (
            getattr(pipeline, "config", config)
            if pipeline is not None else config
        )
        self.workers = workers
        self.pipeline = (
            pipeline if pipeline is not None
            else window_pipeline(config, params)
        )
        self.energy_model = energy_model
        self.double_buffer = double_buffer
        self.runner_factory = (
            runner_factory if runner_factory is not None else RunnerFactory()
        )
        self.warm = warm
        self.prefetch = prefetch
        self.start_method = (
            start_method if start_method is not None
            else _default_start_method()
        )
        self.fault_plan = fault_plan
        self.max_retries = max_retries
        self.reference_fallback = reference_fallback
        self.respawn_limit = respawn_limit
        self.heartbeat_timeout = heartbeat_timeout
        self._probed_engine = None

    @property
    def engine(self) -> str:
        """Engine of the worker platforms (for reports/fingerprints).

        Factories following the :class:`~repro.kernels.runner.RunnerFactory`
        convention declare it through an ``engine`` attribute; when that
        is absent or ``None`` (platform default), the factory is probed
        once by building a throwaway runner — fingerprints and reports
        record what workers actually run, never a guessed constant.
        """
        engine = getattr(self.runner_factory, "engine", None)
        if engine is not None:
            return engine
        if self._probed_engine is None:
            if isinstance(self.runner_factory, RunnerFactory):
                # A stock factory with engine=None defers to the SoC
                # default: read the platform's own constant rather than
                # building a throwaway platform.
                from repro.soc.platform import DEFAULT_ENGINE

                self._probed_engine = DEFAULT_ENGINE
            else:
                self._probed_engine = \
                    self.runner_factory().soc.vwr2a.engine
        return self._probed_engine

    def run(self, stream, checkpoint=None) -> StreamReport:
        """Serve ``stream`` across the pool; returns the merged report.

        With ``checkpoint`` (a :class:`~repro.serve.StreamCheckpoint` or
        path), previously completed windows are skipped and progress is
        persisted as results arrive — including on worker failure, right
        before :class:`PoolWorkerError` is raised.
        """
        session = Session(stream, checkpoint, self)
        engine = None  # a fully-checkpointed resume serves nothing
        if not session.state.complete:
            with session:
                engine = self._serve_remaining(stream, session)
        return session.finalize(engine)

    # -- the pool proper ----------------------------------------------------

    def _spec(self, stream) -> _WorkerSpec:
        warm_samples = None
        if self.warm and len(stream):
            warm_samples = stream[0].samples
        spec = _WorkerSpec(
            config=self.config,
            pipeline=self.pipeline,
            double_buffer=self.double_buffer,
            energy_model=self.energy_model,
            runner_factory=self.runner_factory,
            warm_samples=warm_samples,
            fault_plan=self.fault_plan,
        )
        try:
            pickle.dumps(spec)
        except Exception as exc:
            raise ConfigurationError(
                "pool workers receive the pipeline/energy model/runner "
                f"factory by value, and this one does not pickle: {exc} "
                "(use a module-level pipeline class instead of a closure)"
            ) from exc
        return spec

    def _serve_remaining(self, stream, session) -> str:
        """Serve every unaccounted window over worker processes.

        The ledger owns every window; :class:`_PoolTransport` owns the
        processes. Returns the workers' engine.
        """
        state = session.state
        spec = self._spec(stream)
        n_workers = max(1, min(self.workers, stream.n_windows - state.n_done))
        feeder = Feeder(
            stream, state.results.__contains__,
            maxsize=n_workers * self.prefetch,
        )
        ledger = WindowLedger(
            session, feeder,
            max_retries=self.max_retries,
            reference_fallback=self.reference_fallback,
            # A duplicate result is only legitimate once supervision
            # may requeue a window whose first result is still coming.
            resilient=(
                self.fault_plan is not None or self.respawn_limit > 0
                or self.heartbeat_timeout is not None
            ),
        )
        transport = _PoolTransport(self, ledger, spec, n_workers)
        try:
            transport.supervise()
        finally:
            transport.shutdown()
            feeder.close()
        return ledger.finish("pool", self.engine)


class _PoolTransport:
    """The pool's half of supervision: processes, queues, the hang scan.

    Windows are the ledger's business; this class moves tasks to worker
    processes and turns what happens to those processes into ledger
    events. A lost worker charges one rung of the retry ladder to the
    head of its queue — the attempt that died with it — and requeues
    the rest for free.
    """

    def __init__(self, pool: PoolScheduler, ledger, spec,
                 n_workers: int) -> None:
        self.pool = pool
        self.ledger = ledger
        self.spec = spec
        self.context = multiprocessing.get_context(pool.start_method)
        self.results = self.context.Queue()
        self.stop = self.context.Event()
        self.procs = {}
        self.task_queues = {}
        self.last_progress = {}  # wid -> monotonic time of last message
        self.finished = set()    # wids that reported "fin"/"crash"
        self.next_wid = 0
        self.respawns = 0
        for _ in range(n_workers):
            self.spawn()

    def spawn(self) -> None:
        wid = self.next_wid
        self.next_wid += 1
        tasks = self.context.Queue(maxsize=self.pool.prefetch)
        proc = self.context.Process(
            target=_worker_main,
            args=(wid, self.spec, tasks, self.results, self.stop),
            daemon=True,
        )
        proc.start()
        self.procs[wid] = proc
        self.task_queues[wid] = tasks
        self.last_progress[wid] = time.monotonic()

    def live(self) -> list:
        return [
            wid for wid, proc in self.procs.items()
            if proc.is_alive() and wid not in self.finished
        ]

    def handle(self, message) -> None:
        kind, wid = message[0], message[1]
        ledger = self.ledger
        if wid in self.last_progress:
            self.last_progress[wid] = time.monotonic()
        if kind == "ok":
            _, _, index, result, stats_delta, forced = message
            ledger.result(index, result, stats_delta, wid, forced)
        elif kind == "retry":
            ledger.spoiled(message[2], message[3])
        elif kind == "err":
            ledger.fail(wid, message[2], message[3])
        elif kind == "crash":
            self.finished.add(wid)
            ledger.fail(wid, None, message[2])
        elif kind == "fin":
            self.finished.add(wid)
            ledger.engines.add(message[2])

    def reap(self, wid: int, kind: str, details: str) -> None:
        """Retire one dead or hung worker; respawn it within budget.

        Past the respawn budget the pool fails with the exit diagnosis.
        """
        ledger = self.ledger
        tasks = ledger.release(wid)
        tq = self.task_queues.pop(wid)
        self.procs.pop(wid).join(timeout=5.0)  # reap the corpse
        self.last_progress.pop(wid, None)
        bus = get_bus()
        if bus is not None:
            record_worker_retired(bus, wid)
        _discard(tq)
        if self.respawns >= self.pool.respawn_limit:
            ledger.fail(
                wid, tasks[0].index if tasks else None,
                f"{details} (respawn budget {self.pool.respawn_limit} "
                "exhausted)",
            )
            return
        self.respawns += 1
        ledger.tally({"respawns": 1})
        self.spawn()
        if tasks:
            ledger.spoil(tasks[0], (kind,), details)
            for task in tasks[1:]:
                ledger.requeue(task)

    def scan(self) -> None:
        """Reap dead workers, and hung ones past ``heartbeat_timeout``."""
        now = time.monotonic()
        timeout = self.pool.heartbeat_timeout
        load = self.ledger.load
        for wid in list(self.procs):
            proc = self.procs[wid]
            if not proc.is_alive():
                if wid in self.finished:
                    continue
                self.ledger.tally({"worker_deaths": 1})
                self.reap(
                    wid, "worker_death",
                    f"worker {wid} {describe_exit(proc.exitcode)}",
                )
            elif timeout is not None and load[wid] \
                    and now - self.last_progress[wid] > timeout:
                self.ledger.tally({"worker_hangs": 1})
                hung = load[wid]
                _kill(proc)
                self.reap(
                    wid, "worker_hang",
                    f"worker {wid} hung: no progress for {timeout}s "
                    f"with {hung} windows in flight",
                )

    def dispatch(self) -> None:
        for task, wid in self.ledger.assign(self.live, self.pool.prefetch):
            self.task_queues[wid].put(task)

    def supervise(self) -> None:
        ledger = self.ledger
        while ledger.running:
            try:
                self.handle(self.results.get(timeout=_POLL_SECONDS))
                while True:
                    self.handle(self.results.get_nowait())
            except queue.Empty:
                pass
            # A completed stream still refreshes the gauges below once.
            if ledger.failure is not None or ledger.feeder.failure is not None:
                break
            self.scan()
            if ledger.failure is not None:
                break
            self.dispatch()
            bus = get_bus()
            if bus is not None:
                # One gauge refresh per supervision tick (~10 Hz).
                record_pool_state(bus, {
                    wid: ledger.load[wid] for wid in self.procs
                }, len(self.live()))
            ledger.check_stall("pool", -1)
        if ledger.failure is None and ledger.feeder.failure is None:
            # Clean completion: release the workers and collect their
            # engine reports (workers that died along the way simply
            # never report one).
            self.stop.set()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and self.live():
                try:
                    self.handle(self.results.get(timeout=_POLL_SECONDS))
                except queue.Empty:
                    continue

    def shutdown(self) -> None:
        self.stop.set()
        for tq in self.task_queues.values():
            _discard(tq)
        for proc in self.procs.values():
            proc.join(timeout=5.0)
            _kill(proc)
        _discard(self.results)


def _kill(proc) -> None:
    """Terminate ``proc`` if it still runs, then kill it if it must."""
    for stop in (proc.terminate, proc.kill):
        if proc.is_alive():
            stop()
            proc.join(timeout=2.0)


# -- parameter sweeps over the pool -----------------------------------------


@dataclass(frozen=True)
class _SweepCasePayload:
    """One sweep case shipped to a worker process — all picklable.

    The (possibly huge) trace deliberately does not ride along: it is
    installed once per worker by :func:`_sweep_worker_init`, not once
    per case.
    """

    name: str
    config: str
    params: object
    window: int
    hop: int
    tail: str
    energy_model: object
    double_buffer: bool
    runner_factory: object
    #: Picklable (runner, samples) -> result callable; wins over
    #: config/params when set (see SweepCase.pipeline).
    pipeline: object = None


#: The sweep trace, installed worker-side by the pool initializer.
_SWEEP_TRACE = None


def _sweep_worker_init(trace) -> None:
    global _SWEEP_TRACE
    _SWEEP_TRACE = trace


def _sweep_case_main(payload: _SweepCasePayload):
    """Serve one sweep case on a fresh worker-side platform."""
    scheduler = StreamScheduler(
        config=payload.config,
        params=payload.params,
        pipeline=payload.pipeline,
        runner=payload.runner_factory(),
        double_buffer=payload.double_buffer,
        energy_model=payload.energy_model,
    )
    stream = WindowStream(
        _SWEEP_TRACE, window=payload.window, hop=payload.hop,
        tail=payload.tail,
    )
    return payload.name, scheduler.run(stream)


def run_sweep_cases(payloads, trace, workers: int,
                    start_method: str = None):
    """Run sweep cases across a process pool; yields ``(name, report)``.

    Case order is preserved. Used by
    :class:`~repro.serve.ParameterSweep` when constructed with
    ``workers > 1``; each case gets a fresh platform, so per-window
    results match the shared-runner sweep bit-for-bit (history
    independence again) while ``store_stats`` reflect each case's own
    cold stores. ``trace`` is shipped once per worker (free under
    ``fork``), not once per case.
    """
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(
        start_method if start_method is not None
        else _default_start_method()
    )
    payloads = list(payloads)
    max_workers = max(1, min(workers, len(payloads)))
    with ProcessPoolExecutor(
        max_workers=max_workers, mp_context=context,
        initializer=_sweep_worker_init, initargs=(trace,),
    ) as pool:
        yield from pool.map(_sweep_case_main, payloads)
