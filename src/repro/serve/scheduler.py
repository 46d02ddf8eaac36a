"""The batched window-stream scheduler.

One :class:`StreamScheduler` owns a :class:`~repro.kernels.KernelRunner`
and feeds it a :class:`~repro.serve.WindowStream`, amortizing every
per-launch cost the single-shot flow pays repeatedly:

* **store once** — kernels regenerated per window dedupe in the
  configuration memory and reuse their SPM-conflict verdicts and the
  compiled programs of the structure table; the per-stream cache delta
  is reported on :attr:`StreamReport.store_stats`;
* **SRAM recycling** — the staging bump allocator is rewound between
  windows (:meth:`KernelRunner.reset_sram`) instead of growing without
  bound;
* **double-buffered staging** — staging alternates between two half-SRAM
  regions, so window *k*'s staged data (including staged-out results)
  survives while window *k+1* stages in. DMA cost is length-based, so the
  alternation changes no cycle or event accounting — per-window results
  are bit-identical to a sequential ``run_application`` loop, and the
  hidden-latency estimate is reported separately
  (:attr:`StreamReport.overlap_saved_cycles`);
* **per-window deltas** — events, cycles, kernel launches (with their
  engine/fallback decisions off :class:`~repro.core.RunResult`) and
  optionally energy are captured per window into a
  :class:`~repro.serve.StreamReport`.
"""

from __future__ import annotations

import math

from repro.app.mbiotracker import window_pipeline
from repro.core.errors import ConfigurationError
from repro.kernels.runner import KernelRunner
from repro.serve.checkpoint import Session
from repro.serve.ledger import Feeder, WindowLedger
from repro.serve.report import StreamReport, WindowResult, app_energy_uj
from repro.serve.stream import Window


class StreamScheduler:
    """Runs a window stream through one runner with amortized staging.

    ``pipeline`` is any ``(runner, samples) -> result`` callable; when
    omitted it is built from ``config``/``params`` via
    :func:`repro.app.mbiotracker.window_pipeline` (the MBioTracker
    application). ``energy_model`` may be ``None`` (skip energy), ``True``
    (use :func:`repro.energy.default_model`) or an
    :class:`~repro.energy.EnergyModel` instance; energy is only computed
    for results that carry application steps.

    ``double_buffer`` alternates staging between two half-SRAM regions
    (see the module docstring); ``reset_sram`` controls the plain rewind
    used when double buffering is off — pass ``False`` only if you manage
    SRAM-resident buffers through the runner yourself.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) turns on the
    retry ladder of docs/robustness.md (``max_retries``,
    ``reference_fallback``, then quarantine into
    :attr:`StreamReport.failed_windows`). Process faults (worker
    kill/hang) are counted but never executed here — only pool workers
    are expendable.
    """

    def __init__(self, config: str = "cpu_vwr2a",
                 runner: KernelRunner = None, params=None,
                 pipeline=None, reset_sram: bool = True,
                 double_buffer: bool = True, energy_model=None,
                 fault_plan=None, max_retries: int = 2,
                 reference_fallback: bool = True) -> None:
        # A pipeline that declares its configuration (window_pipeline
        # does) wins over the default, so energy attribution and the
        # report label follow what actually runs.
        self.config = (
            getattr(pipeline, "config", config)
            if pipeline is not None else config
        )
        self.runner = runner if runner is not None else KernelRunner()
        self.pipeline = (
            pipeline if pipeline is not None
            else window_pipeline(config, params)
        )
        self.reset_sram = reset_sram
        self.double_buffer = double_buffer
        if energy_model is True:
            from repro.energy import default_model

            energy_model = default_model()
        self.energy_model = energy_model
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.max_retries = max_retries
        self.reference_fallback = reference_fallback
        self.fault_plan = fault_plan
        self._injector = None
        if fault_plan is not None:
            from repro.faults.injector import FaultInjector

            self._injector = FaultInjector(fault_plan, process_faults=False)
        self._attempts = None  # the in-process AttemptServer, lazily

    def run(self, stream, checkpoint=None) -> StreamReport:
        """Serve every window of ``stream``; returns the stream report.

        ``checkpoint`` (a :class:`~repro.serve.StreamCheckpoint` or a
        path) enables mid-stream resume for very long traces: completed
        windows recorded in the checkpoint are skipped, progress is
        flushed every ``checkpoint.every`` windows, and the final report
        — per-window results are history-independent, so skipping served
        windows changes nothing — is bit-identical to an uninterrupted
        run (wall time and store-cache stats reflect the work each
        session actually did).
        """
        runner = self.runner
        session = Session(stream, checkpoint, self)
        owns_log = runner.launch_log is None
        if owns_log:
            runner.launch_log = []
        if self._attempts is None:
            self._attempts = AttemptServer.in_process(self)
        try:
            with session:
                ledger = WindowLedger(
                    session, Feeder(stream, session.state.results.__contains__),
                    max_retries=self.max_retries,
                    reference_fallback=self.reference_fallback,
                )
                serve_in_process(ledger, self._attempts)
                ledger.finish("sequential", self.engine)
        finally:
            if owns_log:
                runner.launch_log = None
            if self.double_buffer:
                # Leave the runner with its full staging area again.
                runner.set_sram_region(0, runner.soc.sram.n_words)
        return session.finalize(self.engine)

    @property
    def engine(self) -> str:
        """Engine of this scheduler's platform."""
        return self.runner.soc.vwr2a.engine

    # -- one window ---------------------------------------------------------

    def serve_window(self, window, log) -> WindowResult:
        """Serve one :class:`~repro.serve.Window` on this scheduler's runner.

        The pool workers' unit of work: stages the window under the
        scheduler's SRAM policy, runs the pipeline, and captures the
        per-window cycle/event/staging/energy deltas. ``log`` must be the
        runner's active launch log.
        """
        runner = self.runner
        soc = runner.soc
        if self.double_buffer:
            half = soc.sram.n_words // 2
            runner.set_sram_region((window.index % 2) * half, half)
        elif self.reset_sram:
            runner.reset_sram()
        events_before = soc.events.snapshot()
        cpu_before = soc.cpu.active_cycles + soc.cpu.sleep_cycles
        staging_before = dict(runner.staging_cycles)
        log_start = len(log)

        app = self.pipeline(runner, window.samples)

        cycles = (
            soc.cpu.active_cycles + soc.cpu.sleep_cycles - cpu_before
        )
        energy_uj = None
        kernel_energy = None
        if self.energy_model is not None:
            if getattr(app, "steps", None) is not None:
                energy_uj = app_energy_uj(
                    self.energy_model, self.config, app
                )
            # Per-kernel attribution: fold each launch's event delta,
            # whichever engine ran it.
            kernel_energy = {}
            for result in log[log_start:]:
                pj = self.energy_model.fold_histogram(result.events).total_pj
                kernel_energy[result.name] = \
                    kernel_energy.get(result.name, 0.0) + pj
        return WindowResult(
            index=window.index,
            start=window.start,
            app=app,
            cycles=cycles,
            events=soc.events.diff(events_before),
            launches=tuple(log[log_start:]),
            staging_in_cycles=(
                runner.staging_cycles["in"] - staging_before["in"]
            ),
            staging_out_cycles=(
                runner.staging_cycles["out"] - staging_before["out"]
            ),
            energy_uj=energy_uj,
            kernel_energy_pj=kernel_energy,
        )


class AttemptServer:
    """The attempt core: one platform, one serving *attempt* per task.

    Shared by every executor — pool worker processes, fleet workers and
    the in-process :class:`StreamScheduler`. It arms the fault injector
    when the job ships a plan and lazily builds a reference-engine twin
    for fallback attempts. Built from a picklable
    :class:`~repro.serve.pool._WorkerSpec` it owns its platform;
    ``process_faults`` arms the suicidal kinds (``worker_kill`` /
    ``worker_hang``) — pass ``False`` where killing the worker would
    kill the host — and ``before_process_fault`` runs right before one
    strikes (pool workers flush their result queue there, so SIGKILL
    cannot tear a half-written message).
    """

    def __init__(self, spec, process_faults: bool = True,
                 before_process_fault=None) -> None:
        runner = spec.runner_factory()
        scheduler = StreamScheduler(
            config=spec.config,
            runner=runner,
            pipeline=spec.pipeline,
            double_buffer=spec.double_buffer,
            energy_model=spec.energy_model,
            fault_plan=spec.fault_plan,
        )
        runner.launch_log = []
        if spec.warm_samples is not None:
            runner.warm(scheduler.pipeline, spec.warm_samples)
        if scheduler._injector is not None:
            scheduler._injector.process_faults = process_faults
            scheduler._injector.before_process_fault = before_process_fault
        self._bind(scheduler, owns_log=True)

    @classmethod
    def in_process(cls, scheduler: StreamScheduler) -> "AttemptServer":
        """The attempt core of a sequential ``scheduler``: its platform,
        its injector, and a launch log clean attempts leave entries on."""
        server = cls.__new__(cls)
        server._bind(scheduler, owns_log=False)
        return server

    def _bind(self, scheduler, owns_log: bool) -> None:
        self._scheduler = scheduler
        self._injector = scheduler._injector
        self._owns_log = owns_log
        self.engine = scheduler.runner.soc.vwr2a.engine
        self._ref = None  # the lazy reference-engine twin scheduler

    def _reference(self) -> StreamScheduler:
        if self._ref is None:
            primary = self._scheduler
            # Same design point as the primary runner, golden engine:
            # the replay must simulate the machine the primary failed
            # on. Its launches land in a private log — the primary's
            # history must not interleave with recovery attempts.
            runner = KernelRunner(engine="reference", spec=primary.runner.spec)
            runner.launch_log = []
            self._ref = StreamScheduler(
                config=primary.config,
                runner=runner,
                pipeline=primary.pipeline,
                reset_sram=primary.reset_sram,
                double_buffer=primary.double_buffer,
                energy_model=primary.energy_model,
            )
        return self._ref

    def serve(self, index: int, start: int, samples,
              attempt: int, force_reference: bool):
        """Serve one ``(index, start, samples, attempt, force_reference)``
        attempt.

        Returns ``("ok", result, stats_delta, force_reference)``, or
        ``("retry", kinds)`` when injected faults spoiled the attempt —
        after the platform healed and the attempt's launches rolled off
        the log, so the next attempt starts from the exact pre-fault
        state. Genuine (non-fault) failures propagate.
        """
        window = Window(index=index, start=start, samples=samples)
        if force_reference:
            scheduler, engine, owned = self._reference(), "reference", True
        else:
            scheduler, engine, owned = (
                self._scheduler, self.engine, self._owns_log
            )
        runner = scheduler.runner
        log = runner.launch_log
        stats = runner.soc.vwr2a.config_mem.stats
        base = len(log)
        before = stats.snapshot()
        injector = self._injector
        if injector is not None:
            # worker_kill / worker_hang faults strike in here and never
            # return — host/server supervision takes over.
            window = injector.begin_attempt(
                runner, window, attempt, engine=engine
            )
        try:
            result = scheduler.serve_window(window, log)
            exc = None
        except Exception as err:
            result = None
            exc = err
        fired = injector.end_attempt() if injector is not None else ()
        if exc is None and not fired:
            if owned:
                # The result carries the window's launches; an owned log
                # must not grow for the worker's whole lifetime.
                del log[base:]
            return ("ok", result, stats.since(before), force_reference)
        del log[base:]
        if exc is not None:
            if injector is None:
                raise exc
            from repro.faults.injector import is_fault_failure

            if not is_fault_failure(exc, fired):
                raise exc
        return ("retry", tuple(fired) or (type(exc).__name__,))


def serve_in_process(ledger, attempts: AttemptServer, worker=None) -> None:
    """Drive ``ledger`` to the end of its stream with in-process calls.

    The sequential transport: every task the ledger hands out is served
    right here through ``attempts``, so a spoiled attempt's retry is
    served — without backoff, nothing is in transit — before the next
    fresh window. Genuine pipeline exceptions propagate to the caller.
    """
    while ledger.running:
        task = ledger.next_task(now=math.inf)
        if task is None:
            return
        ledger.dispatched(task, worker)
        verdict = attempts.serve(*task)
        if verdict[0] == "ok":
            _, result, stats_delta, forced = verdict
            ledger.result(task.index, result, stats_delta, worker, forced)
        else:
            ledger.spoiled(task.index, verdict[1])
