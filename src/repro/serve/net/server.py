"""The fleet host: shard one window stream over TCP workers.

:class:`FleetServer` is the distributed sibling of
:class:`~repro.serve.PoolScheduler`: same picklable worker spec, same
task protocol, same supervision core
(:class:`~repro.serve.ledger.WindowLedger`) — so a stream served by a
fleet is bit-identical to the sequential scheduler, whatever the worker
count, and a :class:`~repro.serve.StreamCheckpoint` written by any
executor resumes under any other. Remote
:class:`~repro.serve.net.FleetWorker` processes dial in, register with
``hello``, receive the worker spec over the wire, and serve attempts
over a single-threaded :mod:`selectors` event loop.

Robustness is layered, and every knob defaults off — with no fault
plan, no deadlines and no heartbeat the fleet is exactly a remote pool
that fails fast on the first worker error:

* **Per-task deadlines** (``task_deadline``) bound how long a
  dispatched window may stay unresolved; an expired task spends one
  rung of the retry ladder and is re-dispatched with exponential
  backoff (``retry_backoff`` doubling up to ``backoff_cap``). Delivery
  is thus at-least-once; the ledger deduplicates results by window
  index.
* **Heartbeats** (``heartbeat_timeout``) retire workers that go silent
  — the read side of the workers' ``heartbeat_interval`` beats.
* **Reconnection** — a worker that lost its connection re-registers
  under the same name; its platform survives, the spec is only
  re-shipped when the digest changed (e.g. a different job), and the
  reconnect is tallied per worker in the checkpoint's namespaces.
* **Circuit breaker** (``breaker_threshold``) — strikes accumulate per
  worker (deadline misses, checksum failures, desyncs, disconnects);
  past the threshold the worker is benched for the session and told so.
* **Degradation ladder** (``local_fallback``) — no registration within
  ``register_timeout`` falls back to the in-process
  :class:`~repro.serve.PoolScheduler`; losing every worker mid-run
  serves the remaining windows on a local
  :class:`~repro.serve.StreamScheduler`. Both rungs produce the same
  bit-identical report, just slower.

Chaos for all of the above comes from the ``net_*`` family of
:mod:`repro.faults`, injected at the framing layer by
:class:`~repro.serve.net.framing.NetGate` — task-side kinds on the
server's own sends, result-side kinds shipped to the workers.
"""

from __future__ import annotations

import hashlib
import multiprocessing.util
import pickle
import selectors
import socket
import time

from repro.core.errors import ConfigurationError
from repro.obs.bus import get_bus
from repro.obs.instruments import (
    record_net_event,
    record_net_frames,
    record_net_state,
    record_resilience,
)
from repro.serve.checkpoint import Session
from repro.serve.ledger import Feeder, WindowLedger
from repro.serve.net.framing import (
    FrameBuffer,
    FrameError,
    NetGate,
    send_frame,
)
from repro.serve.pool import PoolScheduler
from repro.serve.report import StreamReport, merge_counts
from repro.serve.scheduler import (
    AttemptServer,
    StreamScheduler,
    serve_in_process,
)

#: Event-loop tick (select timeout): liveness scans and dispatch pacing.
_TICK_SECONDS = 0.05
#: How long an accepted connection may stay silent before ``hello``.
_HELLO_TIMEOUT = 5.0
#: Blocking-send timeout on accepted sockets (results are read
#: non-blocking via the selector; only outbound frames can block).
_CONN_TIMEOUT = 5.0


class _Conn:
    """One accepted connection."""

    __slots__ = (
        "sock", "addr", "buffer", "name", "ready", "last_seen",
        "connected_at",
    )

    def __init__(self, sock, addr) -> None:
        self.sock = sock
        self.addr = addr
        self.buffer = FrameBuffer()
        self.name = None
        self.ready = False
        self.last_seen = time.monotonic()
        self.connected_at = self.last_seen


class FleetServer:
    """Serve window streams over registered remote fleet workers.

    Platform/job parameters (``config``/``params``/``pipeline``/
    ``energy_model``/``double_buffer``/``runner_factory``/``warm``) mean
    exactly what they mean on :class:`~repro.serve.PoolScheduler`; the
    robustness knobs are documented in the module docstring and
    docs/distributed.md. ``port=0`` binds an OS-assigned port —
    :meth:`bind` returns the actual address so workers (and tests) can
    be pointed at it before :meth:`run`. ``stop_after`` ends the
    session early after that many windows were accepted — the hook the
    restart smoke test uses to model a server crash at a deterministic
    point; rerunning with the same checkpoint finishes the stream.
    """

    def __init__(self, config: str = "cpu_vwr2a",
                 host: str = "127.0.0.1", port: int = 0,
                 params=None, pipeline=None, energy_model=None,
                 double_buffer: bool = True, runner_factory=None,
                 warm: bool = False, prefetch: int = 2,
                 fault_plan=None, max_retries: int = 0,
                 reference_fallback: bool = True,
                 task_deadline: float = None,
                 retry_backoff: float = 0.05,
                 backoff_cap: float = 2.0,
                 heartbeat_timeout: float = None,
                 register_timeout: float = 10.0,
                 breaker_threshold: int = None,
                 local_fallback: bool = True,
                 local_workers: int = 2,
                 respawn_limit: int = 0,
                 stop_after: int = None) -> None:
        if prefetch < 1:
            raise ConfigurationError(
                f"prefetch must be at least 1 window, got {prefetch}"
            )
        if task_deadline is not None and task_deadline <= 0:
            raise ConfigurationError(
                "task_deadline must be positive seconds (or None to "
                f"disable), got {task_deadline}"
            )
        if retry_backoff < 0 or backoff_cap < retry_backoff:
            raise ConfigurationError(
                "retry backoff must satisfy 0 <= retry_backoff <= "
                f"backoff_cap, got {retry_backoff}/{backoff_cap}"
            )
        if register_timeout <= 0:
            raise ConfigurationError(
                "register_timeout must be positive seconds, got "
                f"{register_timeout}"
            )
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ConfigurationError(
                "breaker_threshold must be >= 1 strike (or None to "
                f"disable the circuit breaker), got {breaker_threshold}"
            )
        if stop_after is not None and stop_after < 1:
            raise ConfigurationError(
                f"stop_after must be >= 1 window, got {stop_after}"
            )
        if fault_plan is not None and task_deadline is None and any(
            spec.kind in ("net_drop", "net_corrupt")
            for spec in fault_plan.specs
        ):
            raise ConfigurationError(
                "the fault plan schedules frame-loss faults (net_drop/"
                "net_corrupt); pass task_deadline so lost windows are "
                "detected and re-served (otherwise the stream never "
                "finishes)"
            )
        self.fault_plan = fault_plan
        platform_plan = (
            fault_plan.without_net() if fault_plan is not None else None
        )
        if platform_plan is not None and not platform_plan.specs:
            platform_plan = None
        # The local pool doubles as parameter resolution (config/
        # pipeline defaults, spec validation) and as the first rung of
        # the degradation ladder.
        self._local = PoolScheduler(
            config=config, workers=local_workers, params=params,
            pipeline=pipeline, energy_model=energy_model,
            double_buffer=double_buffer, runner_factory=runner_factory,
            warm=warm, prefetch=prefetch, fault_plan=platform_plan,
            max_retries=max_retries,
            reference_fallback=reference_fallback,
            respawn_limit=respawn_limit,
            heartbeat_timeout=heartbeat_timeout,
        )
        self._platform_plan = platform_plan
        self.config = self._local.config
        self.pipeline = self._local.pipeline
        self.energy_model = self._local.energy_model
        self.double_buffer = double_buffer
        self.host = host
        self.port = port
        self.prefetch = prefetch
        self.max_retries = max_retries
        self.reference_fallback = reference_fallback
        self.task_deadline = task_deadline
        self.retry_backoff = retry_backoff
        self.backoff_cap = backoff_cap
        self.heartbeat_timeout = heartbeat_timeout
        self.register_timeout = register_timeout
        self.breaker_threshold = breaker_threshold
        self.local_fallback = local_fallback
        self.stop_after = stop_after
        self._listener = None
        self._resilient = (
            fault_plan is not None or task_deadline is not None
            or heartbeat_timeout is not None
            or breaker_threshold is not None
        )

    @property
    def engine(self) -> str:
        return self._local.engine

    # -- listener lifecycle --------------------------------------------------

    def bind(self):
        """Bind and listen; returns ``(host, port)``. Idempotent."""
        if self._listener is None:
            listener = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM
            )
            listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            listener.bind((self.host, self.port))
            listener.listen(64)
            listener.setblocking(False)
            self.port = listener.getsockname()[1]
            self._listener = listener
            # Fork-spawned worker processes inherit this fd; without
            # closing it there, the port stays bound after our close()
            # for as long as any worker lives — and a restarted server
            # cannot rebind it.
            multiprocessing.util.register_after_fork(
                self, FleetServer.close
            )
        return (self.host, self.port)

    def close(self) -> None:
        """Close the listener (accepted connections die with the run)."""
        if self._listener is not None:
            try:
                self._listener.close()
            finally:
                self._listener = None

    # -- serving -------------------------------------------------------------

    def run(self, stream, checkpoint=None) -> StreamReport:
        """Serve ``stream`` over the fleet; returns the merged report.

        Same contract as :meth:`PoolScheduler.run` — checkpoint resume,
        bit-identical merge, :class:`PoolWorkerError` on a genuine
        worker failure — plus the degradation ladder when no workers
        are available.
        """
        self.bind()
        try:
            session = Session(stream, checkpoint, self)
            engine = None  # a fully-checkpointed resume serves nothing
            if not session.state.complete:
                with session:
                    engine = self._serve_remaining(stream, session)
                if engine is None:
                    # Nothing registered at all: the whole session is
                    # the local pool's. It re-reads the checkpoint
                    # itself, so the in-memory state is simply dropped.
                    self.close()
                    report = self._local.run(stream, checkpoint)
                    merge_counts(
                        report.resilience, {"local_degradations": 1}
                    )
                    bus = get_bus()
                    if bus is not None:
                        record_resilience(bus, {"local_degradations": 1})
                    return report
            return session.finalize(engine)
        finally:
            self.close()

    def _spec_frame(self, stream):
        """The spec payload and its digest (pinned in ``hello``)."""
        payload = (
            self._local._spec(stream),
            self.fault_plan.net_specs("result")
            if self.fault_plan is not None else (),
        )
        digest = hashlib.sha256(pickle.dumps(payload)).hexdigest()[:16]
        return payload, digest

    def _serve_remaining(self, stream, session):
        """Serve every unaccounted window; returns the workers' engine.

        Returns ``None`` when no worker ever registered (the caller runs
        the local pool instead). Worker errors raise
        :class:`PoolWorkerError` exactly like the pool; the session
        flushes the checkpoint first.
        """
        feeder = Feeder(
            stream, session.state.results.__contains__, maxsize=32
        )
        ledger = WindowLedger(
            session, feeder,
            max_retries=self.max_retries,
            reference_fallback=self.reference_fallback,
            resilient=self._resilient,
            backoff=self._backoff,
        )
        loop = _EventLoop(self, ledger, *self._spec_frame(stream))
        try:
            verdict = loop.serve(stream)
        finally:
            loop.close()
            ledger.feeder.close()
        if verdict == "degrade":
            return None
        return ledger.finish(
            "fleet", self.engine, stopped=verdict == "stopped"
        )

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_cap, self.retry_backoff * (2 ** attempt))


class _EventLoop:
    """The fleet's half of supervision: sockets, registration, liveness.

    Windows are the ledger's business; this :mod:`selectors` loop moves
    tasks over connections and turns what happens to those connections
    into ledger events — hello/spec registration, heartbeats, the
    circuit breaker and the degradation rungs. A lost connection charges
    one rung of the retry ladder to *every* task in flight on it: over a
    lossy transport the server cannot know which of them the worker
    half-served, and free requeues would let a flapping link retry
    forever.
    """

    def __init__(self, server: FleetServer, ledger, spec_payload,
                 spec_digest: str) -> None:
        self.server = server
        self.ledger = ledger
        self.state = ledger.state
        self.spec_payload = spec_payload
        self.spec_digest = spec_digest
        plan = server.fault_plan
        self.task_gate = NetGate(
            plan.specs if plan is not None else (), side="task"
        )
        self.sel = selectors.DefaultSelector()
        self.sel.register(server._listener, selectors.EVENT_READ, "listen")
        self.conns = {}      # fileno -> _Conn (every accepted connection)
        self.workers = {}    # name -> _Conn (registered)
        # Names ever registered — seeded from the checkpoint namespaces
        # so a worker re-registering after a *server* restart counts as
        # the reconnect it is from the worker's point of view.
        self.known = set(self.state.namespaces)
        self.strikes = {}    # name -> circuit-breaker strikes
        self.benched = set()  # names quarantined by the breaker

    def namespace(self, name: str) -> dict:
        return self.state.namespaces.setdefault(name, {})

    def count(self, name: str, key: str) -> None:
        space = self.namespace(name)
        space[key] = space.get(key, 0) + 1

    # -- connections ---------------------------------------------------------

    def send(self, conn, msg, payload=None, gated=False) -> str:
        try:
            if gated and self.task_gate.specs:
                action = self.task_gate.send(conn.sock, msg, payload)
            else:
                send_frame(conn.sock, msg, payload)
                action = "sent"
        except (OSError, socket.timeout):
            return "peer_gone"
        bus = get_bus()
        if bus is not None and action != "dropped":
            record_net_frames(bus, "out")
        return action

    def accept(self) -> None:
        try:
            sock, addr = self.server._listener.accept()
        except OSError:
            return
        sock.settimeout(_CONN_TIMEOUT)
        conn = _Conn(sock, addr)
        self.conns[sock.fileno()] = conn
        self.sel.register(sock, selectors.EVENT_READ, conn)

    def close_conn(self, conn) -> None:
        self.conns.pop(conn.sock.fileno(), None)
        try:
            self.sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def retire(self, conn, reason: str) -> None:
        """Drop one connection; spend a rung per window in flight on it."""
        if conn.name is not None and self.workers.get(conn.name) is conn:
            del self.workers[conn.name]
            for task in self.ledger.release(conn.name):
                self.ledger.spoil(
                    task, (f"net_{reason}",),
                    f"connection to worker {conn.name!r} lost ({reason}) "
                    "with the window in flight",
                    reason=reason,
                )
        self.close_conn(conn)

    def strike(self, conn) -> None:
        threshold = self.server.breaker_threshold
        if conn.name is None or threshold is None:
            return
        self.strikes[conn.name] = self.strikes.get(conn.name, 0) + 1
        if self.strikes[conn.name] >= threshold \
                and conn.name not in self.benched:
            self.benched.add(conn.name)
            self.ledger.tally({"worker_quarantines": 1})
            bus = get_bus()
            if bus is not None:
                record_net_event(bus, "worker_quarantine")
            self.send(conn, {"type": "quarantine"})
            self.retire(conn, "quarantine")

    # -- inbound frames ------------------------------------------------------

    def merge_net_fired(self, name: str, fired) -> None:
        """Fold a worker's cumulative gate counters into resilience.

        Deltas are taken against the per-worker cumulative stored in
        the checkpoint namespaces, so reconnects and server restarts
        never double-count an injection.
        """
        if not fired:
            return
        stored = self.namespace(name).setdefault("net_fired", {})
        delta = {}
        for kind, count in fired.items():
            seen = stored.get(kind, 0)
            if count < seen:
                seen = 0  # the worker itself restarted
            if count > seen:
                delta[f"fault:{kind}"] = count - seen
            stored[kind] = count
        if delta:
            self.ledger.tally(delta)

    def hello(self, conn, msg) -> None:
        name = msg.get("name") or f"anon-{conn.sock.fileno()}"
        if name in self.benched:
            self.send(conn, {"type": "quarantine"})
            self.close_conn(conn)
            return
        stale = self.workers.get(name)
        if stale is not None and stale is not conn:
            # The worker reconnected before its old connection was
            # detected dead: retire the half-open husk.
            self.retire(stale, "disconnect")
        conn.name = name
        self.workers[name] = conn
        if name in self.known:
            self.ledger.tally({"net_reconnects": 1})
            self.count(name, "reconnects")
            bus = get_bus()
            if bus is not None:
                record_net_event(bus, "reconnect")
        self.known.add(name)
        self.namespace(name)  # registration is durable bookkeeping
        if msg.get("spec_digest") == self.spec_digest:
            self.ready(conn, msg.get("engine"))  # warm reconnect
        else:
            self.send(conn, {
                "type": "spec", "digest": self.spec_digest,
            }, payload=self.spec_payload)

    def ready(self, conn, engine) -> None:
        conn.ready = True
        if engine:
            self.ledger.engines.add(engine)

    def ready_workers(self) -> list:
        return [name for name, conn in self.workers.items() if conn.ready]

    def on_frame(self, conn, msg, payload) -> None:
        conn.last_seen = time.monotonic()
        kind = msg.get("type")
        if kind != "hello" and conn.name is None:
            # Data frames from a peer that never registered: a protocol
            # violation, not a scheduling event.
            self.strike(conn)
            return
        ledger = self.ledger
        if kind == "hello":
            self.hello(conn, msg)
        elif kind == "ready":
            self.ready(conn, msg.get("engine"))
        elif kind == "result":
            self.merge_net_fired(conn.name, msg.get("net_fired"))
            result, stats_delta = payload
            verdict = ledger.result(
                msg["index"], result, stats_delta, conn.name,
                bool(msg.get("force_reference")),
            )
            if verdict == "accepted":
                self.count(conn.name, "served")
            elif verdict == "invalid":
                self.strike(conn)
        elif kind == "retry":
            self.merge_net_fired(conn.name, msg.get("net_fired"))
            ledger.spoiled(
                msg["index"], tuple(msg.get("kinds") or ("unknown",)),
                reason="fault",
            )
        elif kind == "err":
            ledger.fail(conn.name, msg.get("index"), payload)
        elif kind == "hb":
            self.merge_net_fired(conn.name, msg.get("net_fired"))
        # Unknown frame types are ignored: wire compatibility.

    def read_conn(self, conn) -> None:
        ledger = self.ledger
        try:
            data = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            ledger.tally({"net_disconnects": 1})
            self.retire(conn, "disconnect")
            return
        if not data:
            if conn.name is not None:
                ledger.tally({"net_disconnects": 1})
            self.retire(conn, "disconnect")
            return
        conn.buffer.feed(data)
        bus = get_bus()
        while True:
            try:
                item = conn.buffer.pop()
            except FrameError:
                # Desynced or hostile byte stream: the connection is
                # unusable. In-flight windows ride the ladder; a real
                # worker will reconnect.
                ledger.tally({"net_desyncs": 1})
                self.strike(conn)
                self.retire(conn, "desync")
                return
            if item is None:
                return
            if item[0] == "bad":
                ledger.tally({"net_checksum_failures": 1})
                if bus is not None:
                    record_net_event(bus, "checksum_failure")
                self.strike(conn)
                continue
            if bus is not None:
                record_net_frames(bus, "in")
            try:
                self.on_frame(conn, item[1], item[2])
            except (KeyError, TypeError, ValueError, IndexError):
                # A structurally valid frame whose fields violate the
                # protocol (hostile or byte-lucky corruption): never the
                # server's problem to crash over.
                ledger.tally({"net_protocol_errors": 1})
                self.strike(conn)
            if conn.sock.fileno() < 0:
                return  # the frame handler closed the connection

    # -- scheduling ----------------------------------------------------------

    def dispatch(self) -> None:
        server = self.server
        for task, name in self.ledger.assign(
            self.ready_workers, server.prefetch, server.task_deadline
        ):
            conn = self.workers[name]
            action = self.send(conn, {
                "type": "task",
                "index": task.index,
                "attempt": task.attempt,
                "force_reference": task.force_reference,
            }, payload=(task.start, task.samples), gated=True)
            if action in ("disconnect", "peer_gone"):
                self.ledger.tally({"net_disconnects": 1})
                self.retire(conn, "disconnect")
            # "dropped" frames wait for their deadline; "sent" and
            # duplicated/delayed frames need nothing more.

    def scan(self, now: float) -> None:
        ledger = self.ledger
        server = self.server
        for conn in list(self.conns.values()):
            if conn.name is None and now - conn.connected_at > _HELLO_TIMEOUT:
                self.close_conn(conn)  # silent stranger
        if server.heartbeat_timeout is not None:
            for conn in list(self.workers.values()):
                if now - conn.last_seen > server.heartbeat_timeout:
                    ledger.tally({"net_heartbeat_misses": 1})
                    bus = get_bus()
                    if bus is not None:
                        record_net_event(bus, "heartbeat_miss")
                    self.strike(conn)
                    self.retire(conn, "heartbeat")
        for task, name in ledger.expired(now):
            ledger.tally({"net_deadline_misses": 1})
            if name in self.workers:
                self.strike(self.workers[name])
            ledger.spoil(
                task, ("net_deadline",),
                f"window {task.index} blew its {server.task_deadline}s "
                f"deadline on worker {name!r}",
                reason="deadline",
            )

    def serve(self, stream) -> str:
        """Run the loop; returns ``"served"``, ``"stopped"``
        (``stop_after`` ended the session early) or ``"degrade"`` (no
        worker ever registered)."""
        ledger = self.ledger
        server = self.server
        now = time.monotonic()
        reg_deadline = now + server.register_timeout
        last_alive = now
        ever_ready = False
        while ledger.running:
            if server.stop_after is not None \
                    and ledger.accepted >= server.stop_after:
                return "stopped"
            for key, _events in self.sel.select(timeout=_TICK_SECONDS):
                if key.data == "listen":
                    self.accept()
                else:
                    self.read_conn(key.data)
            # A completed stream still refreshes the gauges below once.
            if ledger.failure is not None or ledger.feeder.failure is not None:
                break
            now = time.monotonic()
            self.scan(now)
            alive = self.ready_workers()
            if alive:
                ever_ready = True
                last_alive = now
            elif not ever_ready and now > reg_deadline:
                if server.local_fallback:
                    return "degrade"
                raise ConfigurationError(
                    "no fleet workers registered within "
                    f"{server.register_timeout}s and local_fallback is off"
                )
            elif ever_ready and now - last_alive > max(
                server.register_timeout, server.heartbeat_timeout or 0.0,
            ):
                # Lost the whole fleet mid-run: last ladder rung.
                if server.local_fallback:
                    ledger.tally({"local_degradations": 1})
                    self.serve_locally(stream)
                    break
                ledger.fail(
                    "fleet", None,
                    "every fleet worker was lost mid-stream and "
                    "local_fallback is off",
                )
                break
            self.dispatch()
            bus = get_bus()
            if bus is not None:
                record_net_state(bus, len(alive), len(ledger.in_flight))
            if alive:
                ledger.check_stall("fleet", "fleet")
        if ledger.failure is None and ledger.feeder.failure is None \
                and self.state.complete:
            for conn in list(self.workers.values()):
                self.send(conn, {"type": "fin"})
        return "served"

    def serve_locally(self, stream) -> None:
        """The last degradation rung: finish the stream in-process.

        The same ledger carries on over a fresh local platform — windows
        served remotely stay exactly as accepted, and history
        independence makes the merge bit-identical either way.
        """
        ledger = self.ledger
        server = self.server
        ledger.feeder.close()
        ledger.feeder = Feeder(stream, self.state.results.__contains__)
        scheduler = StreamScheduler(
            config=server.config,
            runner=server._local.runner_factory(),
            pipeline=server.pipeline,
            double_buffer=server.double_buffer,
            energy_model=server.energy_model,
            fault_plan=server._platform_plan,
        )
        scheduler.runner.launch_log = []
        serve_in_process(
            ledger, AttemptServer.in_process(scheduler), worker="local"
        )

    def close(self) -> None:
        for conn in list(self.conns.values()):
            self.close_conn(conn)
        self.sel.close()
