"""The benchmark's three workloads: inputs, measured runs and checks.

Every workload is a closed loop with a single client: the next window
is served only after the previous one returned. Inputs come from the
seed alone; the program under test only ever sees the generated
samples.

* ``app_stream`` — the paper's application (Table 5) on a warm runner:
  every simulator layer works, and the configuration store runs on its
  dedup-hit path.
* ``fft2048`` — Table 2's largest kernel behind ``StreamScheduler``:
  few, large configurations with long closed-form loops, no app code.
* ``fleet`` — loopback ``FleetServer`` sessions with one worker process
  each: the only workload for framing, sockets and the fleet
  supervision loop.

The module stays import-light (the standard library and the tracer,
itself stdlib-only, at top level) because spawned child processes
re-import it.
"""

from __future__ import annotations

import multiprocessing
import random
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from time import perf_counter

from perfbench.hostclock import HostClock
from perfbench.tracer import Patcher

#: Application window (samples); equals ``repro.app.WINDOW``.
WINDOW = 512
#: Fresh-interpreter set-up probes per run (median reported).
SETUP_PROBES = 3
#: p90 is reported from this many windows on (ten samples beyond it).
MIN_P90_WINDOWS = 100
#: Warm sequential workloads read their peak memory once this many
#: measured windows were served: every run serves that many, and a
#: reused runner grows with the windows it serves (its synchronizer
#: keeps every kernel completion), so a reading at the end of a timed
#: run would follow the host's speed.
RSS_WINDOWS = MIN_P90_WINDOWS
#: Paper cycle counts the model is compared with (informational).
PAPER_TABLE5 = {"cpu_vwr2a": 15113, "cpu_fft_accel": 150283}
PAPER_TABLE2_CFFT2048 = 30217
#: Warm sequential workloads: a seeded base trace served in short
#: passes over its consecutive chunks, so the reported median of pass
#: rates rides out short host stalls.
APP_BASE_WINDOWS = 100
APP_PASS_WINDOWS = 20
FFT_BASE_FRAMES = 20
FFT_PASS_FRAMES = 4
#: A fleet run serves fresh one-worker fleet sessions in turn until
#: their serving time reaches the run length. Each session streams a
#: 100-window base trace ten times; a fixed session length keeps the
#: server's report, and so its peak memory, the same on any host.
FLEET_BASE_WINDOWS = 100
FLEET_SESSION_WINDOWS = 1000
#: Fleet throughput is the median rate over blocks of this many results.
FLEET_BLOCK = 100
#: Seconds any child process may take before the run is abandoned.
CHILD_TIMEOUT = 150.0


# -- shared measurement helpers ---------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def respiration_trace(seed: int, windows: int) -> list:
    from repro.app.signals import RespirationConfig, respiration_signal

    return respiration_signal(WINDOW * windows, RespirationConfig(seed=seed))


class WindowTimer(Patcher):
    """Stamps every ``StreamScheduler.serve_window`` call while active."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps = []

    def install(self) -> "WindowTimer":
        from repro.serve.scheduler import StreamScheduler

        stamps = self.stamps

        def timer(original):
            def timed(scheduler, window, log):
                start = perf_counter()
                result = original(scheduler, window, log)
                stamps.append((start, perf_counter()))
                return result

            return timed

        self.patch_method(StreamScheduler, "serve_window", timer)
        return self

    def latencies(self) -> list:
        """Wall time of each window."""
        return [end - start for start, end in self.stamps]

    def rescaled(self, clock: HostClock) -> list:
        """Each window's time rescaled to the reference host speed."""
        return [clock.span(start, end) for start, end in self.stamps]


@dataclass
class Measurement:
    """What one measured (untraced) run produced.

    ``pass_rates``, ``latencies`` and ``setup`` are rescaled to the
    reference host speed (see :mod:`perfbench.hostclock`) and give the
    metrics; the ``wall_*`` lists are the same figures in plain wall
    time, and ``speed`` the host-speed factor of every probe, printed
    beside them.
    """

    pass_rates: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    wall_rates: list = field(default_factory=list)
    wall_latencies: list = field(default_factory=list)
    wall_setup: list = field(default_factory=list)
    speed: list = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    sim_cycles: float = 0.0
    sim_energy_uj: float = 0.0
    notes: list = field(default_factory=list)
    #: fft2048: simulated figures per base frame, from served windows.
    frames: dict = field(default_factory=dict)

    def metrics(self) -> dict:
        # Every workload serves at least MIN_P90_WINDOWS windows.
        p50 = statistics.median(self.latencies)
        p90 = statistics.quantiles(self.latencies, n=10)[8]
        return {
            "windows_per_s": (statistics.median(self.pass_rates), "1/s"),
            "window_latency_p50_ms": (p50 * 1e3, "ms"),
            "window_latency_p90_ms": (p90 * 1e3, "ms"),
            "setup_s": (statistics.median(self.setup), "s"),
            "peak_rss_mb": (self.rss_mb, "MB"),
            "sim_cycles_per_window": (self.sim_cycles, "cycles"),
            "sim_energy_uj_per_window": (self.sim_energy_uj, "uJ"),
        }

    def add_pass(self, windows: int, wall: float, rescaled: float) -> None:
        self.wall_rates.append(windows / wall)
        self.pass_rates.append(windows / rescaled)

    def wall_note(self) -> str:
        """The end-to-end timings in plain wall time, and the host's
        speed over the run (informational)."""
        p50 = statistics.median(self.wall_latencies)
        p90 = statistics.quantiles(self.wall_latencies, n=10)[8]
        speed = statistics.quantiles(self.speed, n=10)
        return (
            f"wall clock (not rescaled): windows_per_s "
            f"{statistics.median(self.wall_rates):.4g}, p50 "
            f"{p50 * 1e3:.4g} ms, p90 {p90 * 1e3:.4g} ms, setup "
            f"{statistics.median(self.wall_setup):.4g} s; host speed "
            f"factor p10/p50/p90 {speed[0]:.2f}/{speed[4]:.2f}/"
            f"{speed[8]:.2f} over {len(self.speed)} probes"
        )


@dataclass
class TraceGroup:
    """Spans and counters of one traced process.

    ``table_roots`` bound the self-time table (its rows sum to their
    wall time); ``metric_roots`` bound what the per-window layer metrics
    count — the fleet worker leaves its platform warm-up out of them.
    """

    title: str
    spans: list
    marks: list
    table_roots: tuple = ("bench.pass",)
    metric_roots: tuple = ("bench.pass",)


@dataclass
class Traced:
    """What one traced run produced (per-layer metrics come from it)."""

    plain_rate: float       #: untraced windows/s in the same run
    traced_rate: float      #: traced windows/s
    windows: int            #: windows served while traced
    groups: list            #: TraceGroup per simulating process
    reports: list           #: traced StreamReports (counter source)
    check: Measurement      #: attempted/failed of every report served
    net: TraceGroup = None  #: the fleet server's spans
    server_cpu_s: float = 0.0


def single(window):
    """A one-window report, so ``identical_to`` can judge one window."""
    from repro.serve import StreamReport

    return StreamReport(config="", engine="", window=0, hop=0,
                        windows=[window])


def coverage_failures(report, size: int) -> int:
    """Windows of a ``size``-window stream that ``report`` does not hold
    exactly once, served or quarantined: missing, duplicated or out of
    range."""
    indices = [w.index for w in report.windows]
    indices += [f.index for f in report.failed_windows]
    covered = len(set(indices) & set(range(size)))
    return (size - covered) + (len(indices) - covered)


def count_mismatches(report, reference, base_of=None, notes=None) -> int:
    """Windows of ``report`` not ``identical_to`` their reference window.

    ``base_of(window)`` maps a served window to its reference window's
    index (the fleet repeats a base trace); quarantined windows and
    windows without a reference count as failures too.
    """
    by_index = {w.index: w for w in reference.windows}
    failed = len(report.failed_windows)
    for window in report.windows:
        key = window.index if base_of is None else base_of(window)
        ref = by_index.get(key)
        if ref is None:
            failed += 1
            continue
        mine = replace(window, index=ref.index, start=ref.start)
        why = single(mine).identical_to(single(ref))
        if why is not None:
            failed += 1
            if notes is not None and len(notes) < 5:
                notes.append(f"mismatch: {why}")
    return failed


def run_child(target, args, timeout: float = CHILD_TIMEOUT):
    """Run ``target(*args, conn)`` in a fresh interpreter.

    Returns ``(start, messages)``: the ``perf_counter`` time (the
    system-wide monotonic clock) just before the spawn and every object
    the child sent before closing its end.
    The child is joined (killed if it overstays ``timeout``).
    """
    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(*args, sender))
    start = perf_counter()
    proc.start()
    sender.close()
    messages = []
    deadline = start + timeout
    try:
        while True:
            left = deadline - perf_counter()
            if left <= 0 or not receiver.poll(left):
                raise RuntimeError(f"child {target.__name__} timed out")
            try:
                messages.append(receiver.recv())
            except EOFError:
                break
    finally:
        receiver.close()
        stop_process(proc)
    if proc.exitcode != 0:
        raise RuntimeError(
            f"child {target.__name__} exited with {proc.exitcode}"
        )
    return start, messages


def stop_process(proc, timeout: float = 30.0) -> None:
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join(5.0)
    if proc.is_alive():
        proc.kill()
        proc.join()


def measure_setup(m: Measurement, name: str, seed: int) -> None:
    """Fresh interpreter to first served window, ``SETUP_PROBES`` times,
    in wall time and rescaled by the probes the child took."""
    for _ in range(SETUP_PROBES):
        start, [(end, probes)] = run_child(setup_probe, (name, seed))
        clock = HostClock(probes)
        m.setup.append(clock.span(start, end))
        m.wall_setup.append(end - start)
        m.speed += clock.speed_factors()


def setup_probe(name: str, seed: int, conn) -> None:
    """Child body: import, build and serve one window; send the time
    and the host-speed probes taken on the way (a fleet adds its
    worker's)."""
    clock = HostClock()
    with clock.sampling():
        worker_probes = WORKLOADS[name].first_window(seed)
        end = perf_counter()
    clock.extend(worker_probes)
    conn.send((end, clock.probes))
    conn.close()


def remote_reference(name: str, seed: int):
    """The workload's reference for its base trace, computed in a fresh
    interpreter so that the reference run stays out of this process's
    peak memory."""
    _, [reference] = run_child(reference_probe, (name, seed))
    return reference


def reference_probe(name: str, seed: int, conn) -> None:
    """Child body: compute and send the reference of the base trace."""
    workload = WORKLOADS[name]
    conn.send(workload.reference(workload.inputs(seed)[1]))
    conn.close()


def timed_passes(serve_chunk, chunks: int, seconds: float,
                 min_windows: int, clock: HostClock, record) -> None:
    """Serve chunks in turn until ``seconds`` passed and ``min_windows``
    were served.

    ``serve_chunk(chunk)`` returns the chunk's report, which is handed
    to ``record(report, wall_seconds, rescaled_seconds, chunk)`` and
    then dropped, so the process does not grow with the number of
    passes. ``clock`` must be sampling.
    """
    served = 0
    passes = 0
    begin = perf_counter()
    while True:
        chunk = passes % chunks
        start = perf_counter()
        report = serve_chunk(chunk)
        end = perf_counter()
        record(report, end - start, clock.span(start, end), chunk)
        passes += 1
        served += report.n_windows
        if perf_counter() - begin >= seconds and served >= min_windows:
            return


def measure_passes(m: Measurement, serve_chunk, chunks: int,
                   seconds: float, check) -> None:
    """Timed passes of a warm sequential workload, recorded into ``m``;
    ``check(report, chunk)`` judges each pass's windows."""
    clock = HostClock()

    def record(report, wall, rescaled, chunk):
        m.add_pass(report.n_windows, wall, rescaled)
        check(report, chunk)

    with clock.sampling(), WindowTimer() as timer:
        timed_passes(serve_chunk, chunks, seconds, MIN_P90_WINDOWS, clock,
                     record)
    m.latencies = timer.rescaled(clock)
    m.wall_latencies = timer.latencies()
    m.speed += clock.speed_factors()


def alternating_passes(serve_chunk, chunks: int, seconds: float, tracer):
    """Untraced and traced passes in turn, for at least ``seconds``.

    Alternating lets both sides see the same host, so their rate ratio
    is the tracing overhead. Returns ``(plain, traced)`` lists of
    ``(report, wall_seconds, chunk)``; the tracer is installed only
    around the traced passes.
    """
    plain, traced = [], []
    traced_chunk = tracer.wrap("bench.pass", serve_chunk)
    begin = perf_counter()
    while not traced or perf_counter() - begin < seconds:
        for runs, serve in ((plain, serve_chunk), (traced, traced_chunk)):
            chunk = len(runs) % chunks
            if serve is traced_chunk:
                tracer.install()
            try:
                start = perf_counter()
                report = serve(chunk)
                runs.append((report, perf_counter() - start, chunk))
            finally:
                tracer.restore()
    return plain, traced


def median_rate(passes) -> float:
    """Median windows/s over ``(report, wall, ...)`` passes."""
    return statistics.median(p[0].n_windows / p[1] for p in passes)


def paper_error(model: float, paper: float, what: str) -> str:
    return (
        f"paper check: {what} model {model:.0f} cycles/window vs paper "
        f"{paper} ({100 * (model / paper - 1):+.1f}%)"
    )


# -- app_stream ---------------------------------------------------------------


class AppStream:
    """The MBioTracker application on one warm runner."""

    name = "app_stream"
    config = "cpu_vwr2a"

    chunks = APP_BASE_WINDOWS // APP_PASS_WINDOWS

    def inputs(self, seed: int):
        trace = respiration_trace(seed, APP_BASE_WINDOWS + 1)
        return trace[:WINDOW], trace[WINDOW:]

    def first_window(self, seed: int) -> list:
        self.warm_runner(self.inputs(seed)[0])
        return []

    def serve(self, base, runner, chunk: int):
        from repro.serve import serve_trace

        size = APP_PASS_WINDOWS * WINDOW
        return serve_trace(
            base[chunk * size:(chunk + 1) * size], self.config,
            runner=runner,
        )

    def warm_runner(self, warm):
        from repro.kernels.runner import KernelRunner
        from repro.serve import serve_trace

        runner = KernelRunner()
        serve_trace(warm, self.config, runner=runner)
        return runner

    def reference(self, base):
        from repro.kernels.runner import KernelRunner
        from repro.serve import StreamScheduler, WindowStream

        return StreamScheduler(
            config=self.config, runner=KernelRunner(), energy_model=True,
        ).run(WindowStream(base, window=WINDOW))

    def measure(self, seed: int, seconds: float) -> Measurement:
        m = Measurement()
        measure_setup(m, self.name, seed)
        warm, base = self.inputs(seed)
        reference = remote_reference(self.name, seed)
        runner = self.warm_runner(warm)
        measure_passes(
            m, lambda chunk: self.serve(base, runner, chunk), self.chunks,
            seconds,
            lambda report, chunk: self.check_pass(m, reference, report,
                                                  chunk),
        )
        self.simulated(m, reference)
        return m

    def check_pass(self, m, reference, report, chunk) -> None:
        m.attempted += APP_PASS_WINDOWS
        if not m.rss_mb and m.attempted >= RSS_WINDOWS:
            m.rss_mb = peak_rss_mb()
        m.failed += coverage_failures(report, APP_PASS_WINDOWS)
        m.failed += count_mismatches(
            report, reference,
            base_of=lambda w: chunk * APP_PASS_WINDOWS + w.index,
            notes=m.notes,
        )

    def simulated(self, m, reference) -> None:
        windows = reference.windows
        m.sim_cycles = sum(w.cycles for w in windows) / len(windows)
        m.sim_energy_uj = sum(w.energy_uj for w in windows) / len(windows)
        table5 = sum(w.app.total_cycles for w in windows) / len(windows)
        m.notes.append(paper_error(
            table5, PAPER_TABLE5[self.config],
            f"Table 5 {self.config} (sum of step cycles)",
        ))

    def traced(self, seed: int, seconds: float, tracer) -> Traced:
        warm, base = self.inputs(seed)
        runner = self.warm_runner(warm)
        plain, traced = alternating_passes(
            lambda chunk: self.serve(base, runner, chunk), self.chunks,
            seconds, tracer,
        )
        check = Measurement()
        reference = self.reference(base)
        for report, _, chunk in plain + traced:
            self.check_pass(check, reference, report, chunk)
        return sequential_trace(self.name, plain, traced, tracer, check)


def sequential_trace(name, plain, traced, tracer, check) -> Traced:
    return Traced(
        plain_rate=median_rate(plain),
        traced_rate=median_rate(traced),
        windows=sum(p[0].n_windows for p in traced),
        groups=[TraceGroup(name, tracer.finished(), tracer.marks)],
        reports=[p[0] for p in traced],
        check=check,
    )


# -- fft2048 ------------------------------------------------------------------


@dataclass(frozen=True)
class SplitFftPipeline:
    """One 2048-point complex FFT per window of interleaved re/im words.

    A fresh :class:`~repro.kernels.fft2048.SplitFftEngine` is built per
    frame on the shared runner (the application does the same with
    ``RfftEngine``). The scheduler rewinds the SRAM allocator between
    windows, which is only safe because no engine outlives its frame:
    an engine keeps its twiddle table in SRAM.
    """

    n: int = 2048

    def __call__(self, runner, samples):
        from repro.kernels.fft2048 import SplitFftEngine

        return SplitFftEngine(runner, self.n).run(
            list(samples[0::2]), list(samples[1::2])
        )


class Fft2048:
    """Seeded 2048-point complex frames through ``StreamScheduler``."""

    name = "fft2048"
    n = 2048
    chunks = FFT_BASE_FRAMES // FFT_PASS_FRAMES

    def inputs(self, seed: int):
        rng = random.Random(seed)
        frames = [
            [rng.randint(-8192, 8191) for _ in range(2 * self.n)]
            for _ in range(FFT_BASE_FRAMES + 1)
        ]
        return frames[0], [word for frame in frames[1:] for word in frame]

    def scheduler(self):
        from repro.serve import StreamScheduler

        return StreamScheduler(
            pipeline=SplitFftPipeline(self.n), energy_model=True,
        )

    def stream(self, trace):
        from repro.serve import WindowStream

        return WindowStream(trace, window=2 * self.n)

    def first_window(self, seed: int) -> list:
        warm, _ = self.inputs(seed)
        self.scheduler().run(self.stream(warm))
        return []

    def measure(self, seed: int, seconds: float) -> Measurement:
        m = Measurement()
        measure_setup(m, self.name, seed)
        warm, base = self.inputs(seed)
        reference = remote_reference(self.name, seed)
        scheduler = self.scheduler()
        scheduler.run(self.stream(warm))
        measure_passes(
            m, lambda chunk: self.serve(scheduler, base, chunk),
            self.chunks, seconds,
            lambda report, chunk: self.check_pass(m, reference, report,
                                                  chunk),
        )
        self.simulated(m)
        return m

    def serve(self, scheduler, base, chunk: int):
        size = FFT_PASS_FRAMES * 2 * self.n
        return scheduler.run(
            self.stream(base[chunk * size:(chunk + 1) * size])
        )

    def reference(self, base):
        from repro.kernels.fft2048 import split_fft_reference_int

        step = 2 * self.n
        return [
            split_fft_reference_int(base[i:i + step:2], base[i + 1:i + step:2])
            for i in range(0, len(base), step)
        ]

    def check_pass(self, m, reference, report, chunk) -> None:
        m.attempted += FFT_PASS_FRAMES
        if not m.rss_mb and m.attempted >= RSS_WINDOWS:
            m.rss_mb = peak_rss_mb()
        m.failed += coverage_failures(report, FFT_PASS_FRAMES)
        m.failed += report.n_failed
        for window in report.windows:
            frame = chunk * FFT_PASS_FRAMES + window.index
            re, im = reference[frame]
            if window.app.re != re or window.app.im != im:
                m.failed += 1
                if len(m.notes) < 5:
                    m.notes.append(
                        f"frame {frame}: spectrum differs from "
                        "split_fft_reference_int"
                    )
            # Simulated figures per base frame (they repeat exactly).
            m.frames.setdefault(frame, (
                window.cycles,
                sum(window.kernel_energy_pj.values()) * 1e-6,
                window.app.run.total_cycles,
            ))

    def simulated(self, m) -> None:
        frames = list(m.frames.values())
        m.sim_cycles = sum(f[0] for f in frames) / len(frames)
        m.sim_energy_uj = sum(f[1] for f in frames) / len(frames)
        table2 = sum(f[2] for f in frames) / len(frames)
        m.notes.append(paper_error(
            table2, PAPER_TABLE2_CFFT2048,
            "Table 2 complex 2048 on VWR2A (staged kernel run)",
        ))

    def traced(self, seed: int, seconds: float, tracer) -> Traced:
        warm, base = self.inputs(seed)
        scheduler = self.scheduler()
        scheduler.run(self.stream(warm))
        tracer.extra.append((
            "method", SplitFftPipeline, "__call__",
            lambda fn: tracer.wrap("app.pipeline", fn),
        ))
        plain, traced = alternating_passes(
            lambda chunk: self.serve(scheduler, base, chunk), self.chunks,
            seconds, tracer,
        )
        check = Measurement()
        reference = self.reference(base)
        for report, _, chunk in plain + traced:
            self.check_pass(check, reference, report, chunk)
        return sequential_trace(self.name, plain, traced, tracer, check)


# -- fleet --------------------------------------------------------------------


class FleetClock(Patcher):
    """Stamps the fleet server's first task dispatch and every result
    frame it decodes, while active."""

    def __init__(self) -> None:
        super().__init__()
        self.dispatched = None
        self.results = []

    def install(self) -> "FleetClock":
        import repro.serve.net.server as server
        from repro.serve.net.framing import FrameBuffer

        def stamp_send(send):
            def stamped_send(sock, msg, payload=None):
                if self.dispatched is None and msg.get("type") == "task":
                    self.dispatched = perf_counter()
                return send(sock, msg, payload)

            return stamped_send

        def stamp_pop(pop):
            def stamped_pop(buffer):
                item = pop(buffer)
                if item is not None and item[0] == "frame" \
                        and item[1].get("type") == "result":
                    self.results.append(perf_counter())
                return item

            return stamped_pop

        self.patch_method(server, "send_frame", stamp_send)
        self.patch_method(FrameBuffer, "pop", stamp_pop)
        return self

    def serving_s(self) -> float:
        """First task dispatch to the last result."""
        return self.results[-1] - self.dispatched

    def block_rates(self, host: HostClock = None) -> list:
        """Windows/s over consecutive blocks of ``FLEET_BLOCK`` results,
        the first block timed from the first dispatch; in wall time, or
        rescaled by the worker's ``host`` probes (the worker's speed
        sets the pace: it does most of a window's work)."""
        stamps = [self.dispatched] + self.results
        span = host.span if host is not None else (lambda a, b: b - a)
        return [
            FLEET_BLOCK / span(stamps[i], stamps[i + FLEET_BLOCK])
            for i in range(0, len(self.results) - FLEET_BLOCK + 1,
                           FLEET_BLOCK)
        ]


class Fleet:
    """A loopback ``FleetServer`` with one spawned worker process."""

    name = "fleet"
    config = "cpu_fft_accel"

    def inputs(self, seed: int):
        base = respiration_trace(seed, FLEET_BASE_WINDOWS)
        return base[:WINDOW], base

    def first_window(self, seed: int) -> list:
        from repro.serve import WindowStream

        warm, _ = self.inputs(seed)
        _, _, worker, _ = self.session(
            WindowStream(warm, window=WINDOW), probe=True
        )
        return worker["probes"]

    def session(self, stream, tracer=None, probe: bool = False):
        """Serve ``stream`` over a fresh one-worker fleet, traced if a
        ``tracer`` is given; with ``probe`` the worker samples the
        host's speed.

        Returns ``(report, clock, worker_message, cpu_s)``; see
        :class:`FleetClock`.
        """
        from repro.serve.net import FleetServer

        server = FleetServer(
            config=self.config, energy_model=True, warm=True,
            local_fallback=False,
        )
        host, port = server.bind()
        ctx = multiprocessing.get_context("spawn")
        receiver, sender = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=fleet_worker,
            args=(host, port, tracer is not None, probe, sender),
        )
        try:
            with FleetClock() as clock:
                proc.start()
                sender.close()
                cpu = time.process_time()
                if tracer is not None:
                    report = tracer.wrap("bench.pass", server.run)(stream)
                else:
                    report = server.run(stream)
                cpu = time.process_time() - cpu
            if not receiver.poll(CHILD_TIMEOUT):
                raise RuntimeError("fleet worker sent no summary")
            message = receiver.recv()
        finally:
            server.close()
            receiver.close()
            stop_process(proc)
        return report, clock, message, cpu

    def stream(self, base):
        from repro.serve import WindowStream

        copies = FLEET_SESSION_WINDOWS // FLEET_BASE_WINDOWS
        return WindowStream(base * copies, window=WINDOW)

    def reference(self, base):
        from repro.kernels.runner import KernelRunner
        from repro.serve import StreamScheduler, WindowStream

        return StreamScheduler(
            config=self.config, runner=KernelRunner(), energy_model=True,
        ).run(WindowStream(base, window=WINDOW))

    def measure(self, seed: int, seconds: float) -> Measurement:
        m = Measurement()
        measure_setup(m, self.name, seed)
        _, base = self.inputs(seed)
        reference = remote_reference(self.name, seed)
        stream = self.stream(base)
        worker_rss = 0.0
        serving = 0.0
        while serving < seconds:
            report, clock, worker, _ = self.session(stream, probe=True)
            serving += clock.serving_s()
            host = HostClock(worker["probes"])
            m.pass_rates += clock.block_rates(host)
            m.wall_rates += clock.block_rates()
            m.latencies += worker["latencies"]
            m.wall_latencies += worker["wall_latencies"]
            m.speed += host.speed_factors()
            worker_rss = max(worker_rss, worker["rss_mb"])
            self.check_session(m, report, len(stream), reference)
        m.rss_mb = peak_rss_mb() + worker_rss
        self.simulated(m, reference)
        return m

    def check_session(self, m, report, size, reference) -> None:
        n_base = len(reference.windows)
        m.attempted += size
        m.failed += coverage_failures(report, size)
        m.failed += count_mismatches(
            report, reference, base_of=lambda w: w.index % n_base,
            notes=m.notes,
        )

    def simulated(self, m, reference) -> None:
        windows = reference.windows
        m.sim_cycles = sum(w.cycles for w in windows) / len(windows)
        m.sim_energy_uj = sum(w.energy_uj for w in windows) / len(windows)
        table5 = sum(w.app.total_cycles for w in windows) / len(windows)
        m.notes.append(paper_error(
            table5, PAPER_TABLE5[self.config],
            f"Table 5 {self.config} (sum of step cycles)",
        ))

    def traced(self, seed: int, seconds: float, tracer) -> Traced:
        _, base = self.inputs(seed)
        stream = self.stream(base)
        reference = self.reference(base)
        check = Measurement()
        # Untraced and traced sessions in turn, so both sides see the
        # same host.
        plain, traced = [], []
        begin = perf_counter()
        while not traced or perf_counter() - begin < seconds:
            plain.append(self.session(stream))
            with tracer:
                traced.append(self.session(stream, tracer=tracer))
            for report, _, _, _ in plain[-1:] + traced[-1:]:
                self.check_session(check, report, len(stream), reference)
        return Traced(
            plain_rate=statistics.median(
                rate for _, clock, _, _ in plain
                for rate in clock.block_rates()),
            traced_rate=statistics.median(
                rate for _, clock, _, _ in traced
                for rate in clock.block_rates()),
            windows=sum(report.n_windows for report, _, _, _ in traced),
            groups=[
                TraceGroup(
                    "fleet worker", worker["spans"], worker["marks"],
                    table_roots=("bench.worker",),
                    metric_roots=("serve.attempt",),
                )
                for _, _, worker, _ in traced
            ],
            reports=[report for report, _, _, _ in traced],
            check=check,
            net=TraceGroup(
                "fleet server", tracer.finished(), tracer.marks
            ),
            server_cpu_s=sum(cpu for _, _, _, cpu in traced),
        )


def fleet_worker(host: str, port: int, trace: bool, probe: bool,
                 conn) -> None:
    """Child body: one fleet worker; sends latencies, memory, and the
    host-speed probes (``probe``) or the spans (``trace``)."""
    from contextlib import nullcontext

    from repro.serve.net.worker import run_worker

    tracer = None
    clock = HostClock()
    if trace:
        from perfbench.tracer import Tracer

        tracer = Tracer().install()
        serve = tracer.wrap("bench.worker", run_worker)
    else:
        serve = run_worker
    sampling = clock.sampling() if probe else nullcontext()
    with sampling, WindowTimer() as timer:
        reason = serve(host, port, name="bench-worker",
                       reconnect_timeout=5.0, process_faults=False)
    message = {
        "reason": reason,
        "wall_latencies": timer.latencies(),
        "rss_mb": peak_rss_mb(),
    }
    if probe:
        message["latencies"] = timer.rescaled(clock)
        message["probes"] = clock.probes
    if tracer is not None:
        tracer.restore()
        message["spans"] = tracer.finished()
        message["marks"] = tracer.marks
    conn.send(message)
    conn.close()


WORKLOADS = {
    workload.name: workload
    for workload in (AppStream(), Fft2048(), Fleet())
}

