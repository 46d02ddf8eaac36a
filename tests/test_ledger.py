"""The one supervision core (``repro.serve.ledger``).

Three angles on the same :class:`WindowLedger`:

* a hypothesis state machine drives it with a fake clock through
  arbitrary interleavings of dispatches, results, duplicates, spoiled
  attempts, deadline expiries, lost workers (both charging rules) and
  amnestied resumes, checking the supervision invariants after every
  step;
* a rogue fleet peer sends a CRC-valid result for a window that does
  not exist — refused, tallied, never counted toward completion;
* the same fault plan through the sequential scheduler, the process
  pool and a loopback fleet settles into identical resilience counters
  and quarantine records.
"""

from __future__ import annotations

import os
import shutil
import socket
import tempfile
import threading
from types import SimpleNamespace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.faults import FaultPlan, FaultSpec, served_identical
from repro.serve import (
    PoolScheduler,
    StreamCheckpoint,
    StreamScheduler,
    WindowStream,
)
from repro.serve.checkpoint import Session
from repro.serve.ledger import Feeder, WindowLedger
from repro.serve.net import FleetServer, FleetWorker, read_frame, send_frame
from repro.serve.pool import AttemptServer
from test_faults import CHAOS_WINDOW, VaddPipeline

WORKERS = ("a", "b", "c")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class LedgerMachine(RuleBasedStateMachine):
    """Arbitrary supervision event orders over one small stream."""

    def __init__(self) -> None:
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="ledger-")

    def teardown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    @initialize(n=st.integers(1, 4), max_retries=st.integers(0, 2),
                fallback=st.booleans())
    def start(self, n, max_retries, fallback):
        self.n = n
        self.max_retries = max_retries
        self.fallback = fallback
        self.clock = FakeClock()
        self.stream = WindowStream(list(range(4 * n)), window=4)
        self.checkpoint = StreamCheckpoint(
            os.path.join(self.tmp, "s.ckpt"), every=10 ** 9
        )
        self.accepts = {}      # index -> accepted verdicts, all sessions
        self.ghosts = []       # tasks a lost worker may still deliver
        self.released = None   # windows the last resume released
        self.reserved = set()  # windows dispatched since that resume
        self.open_session()

    def open_session(self) -> None:
        session = Session(self.stream, self.checkpoint, SimpleNamespace(
            config="ledger", engine="none", double_buffer=False,
            pipeline=None, energy_model=None,
        ))
        self.state = session.state
        self.ledger = WindowLedger(
            session,
            Feeder(self.stream, self.state.results.__contains__),
            max_retries=self.max_retries,
            reference_fallback=self.fallback,
            resilient=True,
            backoff=lambda attempt: 0.5 * (attempt + 1),
            clock=self.clock,
        )

    def flights(self):
        return list(self.ledger.in_flight.values())

    # -- events --------------------------------------------------------------

    @rule(worker=st.sampled_from(WORKERS), deadline=st.booleans())
    def dispatched(self, worker, deadline):
        task = self.ledger.next_task()
        if task is None:
            return
        assert task.attempt <= self.max_retries + 1
        self.reserved.add(task.index)
        self.ledger.dispatched(
            task, worker, self.clock() + 1.0 if deadline else None
        )

    @rule(outcome=st.sampled_from(["ok", "spoiled", "spoiled", "lost"]))
    def attempt(self, outcome):
        # One whole attempt at once, once any backoff has passed: walks
        # windows down the retry ladder in few steps.
        self.clock.now += 5.0
        task = self.ledger.next_task()
        if task is None:
            return
        assert task.attempt <= self.max_retries + 1
        self.reserved.add(task.index)
        self.ledger.dispatched(task, "x")
        if outcome == "ok":
            assert self.deliver(task, "x") == "accepted"
        elif outcome == "spoiled":
            self.ledger.spoiled(task.index, ("brownout",))
        else:
            self.worker_lost("x", charge_all=False)

    def deliver(self, task, worker) -> str:
        verdict = self.ledger.result(
            task.index, SimpleNamespace(index=task.index), {},
            worker, task.force_reference,
        )
        if verdict == "accepted":
            self.accepts[task.index] = self.accepts.get(task.index, 0) + 1
        return verdict

    @rule(data=st.data())
    @precondition(lambda self: self.ledger.in_flight)
    def result(self, data):
        task, worker, _ = data.draw(st.sampled_from(self.flights()))
        assert self.deliver(task, worker) == "accepted"

    @rule(data=st.data())
    @precondition(lambda self: self.ghosts)
    def late_result(self, data):
        task = data.draw(st.sampled_from(self.ghosts))
        self.ghosts.remove(task)
        settled = task.index in self.state.results
        verdict = self.deliver(task, "ghost")
        assert verdict == ("late" if settled else "accepted")

    @rule(data=st.data())
    @precondition(lambda self: self.state.results)
    def duplicate_result(self, data):
        index = data.draw(st.sampled_from(sorted(self.state.results)))
        task = SimpleNamespace(index=index, force_reference=False)
        assert self.deliver(task, "dup") == "late"

    @rule(index=st.integers(-3, 12), lie=st.booleans())
    def bogus_result(self, index, lie):
        # A result for a window outside the stream, or one whose own
        # index disagrees with the index it is delivered under.
        if 0 <= index < self.n and not lie:
            return
        before = self.ledger.settled
        verdict = self.ledger.result(
            index, SimpleNamespace(index=index + 1 if lie else index), {},
        )
        assert verdict == "invalid"
        assert self.ledger.settled == before

    @rule(data=st.data())
    @precondition(lambda self: self.ledger.in_flight)
    def spoiled(self, data):
        task, _, _ = data.draw(st.sampled_from(self.flights()))
        self.ledger.spoiled(task.index, ("spm_bitflip",))

    @rule(dt=st.floats(0.1, 3.0))
    def time_passes(self, dt):
        self.clock.now += dt
        for task, _worker in self.ledger.expired():
            self.ghosts.append(task)
            self.ledger.spoil(task, ("net_deadline",), "deadline")

    @rule(worker=st.sampled_from(WORKERS), charge_all=st.booleans())
    def worker_lost(self, worker, charge_all):
        tasks = self.ledger.release(worker)
        assert self.ledger.load[worker] == 0
        self.ghosts.extend(tasks)
        for i, task in enumerate(tasks):
            if charge_all or i == 0:
                self.ledger.spoil(task, ("worker_death",), "lost")
            else:
                self.ledger.requeue(task)

    @rule()
    def feeder_restarts(self):
        # The fleet's last rung re-reads the stream from the top while
        # retries are still queued.
        self.ledger.feeder = Feeder(
            self.stream, self.state.results.__contains__
        )

    @rule()
    def drain(self):
        # Every worker turns honest: the session must settle every
        # window — accepted or quarantined, never both.
        for task, worker, _ in self.flights():
            self.deliver(task, worker)
        while True:
            self.clock.now += 10.0
            task = self.ledger.next_task()
            if task is None:
                break
            self.reserved.add(task.index)
            self.ledger.dispatched(task, "honest")
            assert self.deliver(task, "honest") == "accepted"
        assert not self.ledger.in_flight and not self.ledger.retries
        assert self.state.complete
        assert set(self.state.results) | set(self.state.failed) \
            == set(range(self.n))

    @rule()
    @precondition(lambda self: self.state.complete)
    def resume_with_amnesty(self):
        quarantined = set(self.state.failed)
        self.checkpoint.save(self.state)
        self.open_session()
        assert set(self.state.failed) == set()
        self.released = quarantined
        self.reserved = set()
        self.ghosts = []  # the previous session's workers are gone

    # -- invariants ----------------------------------------------------------

    @invariant()
    def accepted_once_or_quarantined(self):
        assert not set(self.state.results) & set(self.state.failed)
        assert all(count == 1 for count in self.accepts.values())
        assert set(self.accepts) == set(self.state.results)
        assert self.state.n_done + self.state.n_failed <= self.n

    @invariant()
    def one_place_per_window(self):
        ledger = self.ledger
        assert not set(ledger.in_flight) & set(ledger.retries)
        assert sum(ledger.load.values()) == len(ledger.in_flight)

    @invariant()
    def attempts_bounded(self):
        limit = self.max_retries + 2
        assert all(w.attempts <= limit for w in self.state.failed.values())
        for _, task in self.ledger.retries.values():
            assert task.attempt + 1 <= limit

    @invariant()
    def amnesty_reserves_exactly_the_released(self):
        if self.released is None:
            return
        assert self.reserved <= self.released
        if self.state.complete:
            assert self.reserved == self.released
            self.released = None


TestLedgerStateMachine = LedgerMachine.TestCase
TestLedgerStateMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None,
)


# -- the rogue peer ------------------------------------------------------------


def rogue_worker(host, port, bogus_index=None, quit_after=None):
    """A fleet peer that serves honestly, but sends one extra CRC-valid
    ``result`` frame under ``bogus_index(index)`` after its first one,
    or hangs up for good after ``quit_after`` results."""
    with socket.create_connection((host, port), timeout=30.0) as sock:
        send_frame(sock, {"type": "hello", "name": "rogue",
                          "spec_digest": "", "engine": ""})
        attempts = None
        lied = bogus_index is None
        served = 0
        while True:
            msg, payload = read_frame(sock)
            kind = msg.get("type")
            if kind == "spec":
                attempts = AttemptServer(payload[0], process_faults=False)
                send_frame(sock, {"type": "ready", "name": "rogue",
                                  "engine": attempts.engine})
            elif kind == "task":
                index = msg["index"]
                _, result, stats, forced = attempts.serve(
                    index, *payload, msg["attempt"], msg["force_reference"]
                )
                frame = {"type": "result", "attempt": msg["attempt"],
                         "force_reference": forced}
                send_frame(sock, {**frame, "index": index},
                           payload=(result, stats))
                if not lied:
                    lied = True
                    send_frame(sock, {**frame, "index": bogus_index(index)},
                               payload=(result, stats))
                served += 1
                if served == quit_after:
                    return
            elif kind in ("fin", "quarantine"):
                return


@pytest.fixture(scope="module")
def chaos_stream():
    return WindowStream(
        [(i * 37) % 251 - 125 for i in range(6 * CHAOS_WINDOW)],
        window=CHAOS_WINDOW,
    )


@pytest.fixture(scope="module")
def chaos_baseline(chaos_stream):
    return StreamScheduler(pipeline=VaddPipeline()).run(chaos_stream)


@pytest.mark.parametrize("bogus_index", [
    lambda index: 1000,                 # no such window
    lambda index: (index + 1) % 6,      # a real window, the wrong result
], ids=["out_of_range", "mismatched"])
def test_fleet_refuses_a_result_for_a_window_that_does_not_exist(
        chaos_stream, chaos_baseline, bogus_index):
    server = FleetServer(
        pipeline=VaddPipeline(), register_timeout=60.0,
        local_fallback=False,
    )
    host, port = server.bind()
    peer = threading.Thread(
        target=rogue_worker, args=(host, port, bogus_index), daemon=True,
    )
    peer.start()
    try:
        report = server.run(chaos_stream)
    finally:
        server.close()
        peer.join(timeout=15.0)
    assert [w.index for w in report.windows] == list(range(6))
    assert report.identical_to(chaos_baseline) is None
    assert report.resilience == {"net_protocol_errors": 1}


def test_fleet_lost_mid_run_finishes_in_process(chaos_stream, chaos_baseline):
    # The last degradation rung: the only worker hangs up for good, and
    # the same ledger finishes the stream on a local platform.
    server = FleetServer(
        pipeline=VaddPipeline(), register_timeout=2.0, local_fallback=True,
    )
    host, port = server.bind()
    peer = threading.Thread(
        target=rogue_worker, args=(host, port),
        kwargs={"quit_after": 2}, daemon=True,
    )
    peer.start()
    try:
        report = server.run(chaos_stream)
    finally:
        server.close()
        peer.join(timeout=15.0)
    # A window in flight at the hang-up may recover on the reference
    # rung, which changes only its recorded engine decisions.
    assert report.identical_to(chaos_baseline, engines=False) is None
    assert report.resilience["local_degradations"] == 1
    assert report.resilience["net_disconnects"] == 1
    assert report.n_failed == 0


# -- executor parity -----------------------------------------------------------

PARITY_PLAN = FaultPlan(specs=(
    # Compiled path damaged for good: recovers on the reference engine.
    FaultSpec(kind="spm_bitflip", window=0, addr=2, bit=1, persist=99,
              compiled_only=True),
    # Stuck on every engine: exhausts the ladder and quarantines.
    FaultSpec(kind="spm_stuck", window=1, addr=4, value=0, persist=99),
    # Transient: the first retry is clean.
    FaultSpec(kind="brownout", window=2, after_cycles=50),
))


def serve_parity(executor, stream):
    kwargs = dict(pipeline=VaddPipeline(), fault_plan=PARITY_PLAN,
                  max_retries=1)
    if executor == "sequential":
        return StreamScheduler(**kwargs).run(stream)
    if executor == "pool":
        return PoolScheduler(workers=2, **kwargs).run(stream)
    server = FleetServer(register_timeout=60.0, local_fallback=False,
                         **kwargs)
    host, port = server.bind()
    threads = [
        threading.Thread(target=FleetWorker(
            host, port, name=f"w{i}", heartbeat_interval=0.2,
            reconnect_timeout=15.0,
        ).run, daemon=True)
        for i in range(2)
    ]
    for thread in threads:
        thread.start()
    try:
        return server.run(stream)
    finally:
        server.close()
        for thread in threads:
            thread.join(timeout=15.0)


@pytest.mark.parametrize("executor", ["sequential", "pool", "fleet"])
def test_executors_settle_a_fault_plan_identically(
        executor, chaos_stream, chaos_baseline):
    report = serve_parity(executor, chaos_stream)
    assert report.resilience == {
        "fault:spm_bitflip": 2, "fault:spm_stuck": 3, "fault:brownout": 1,
        "retries": 5, "reference_recoveries": 1, "quarantined": 1,
    }
    assert [
        (w.index, w.start, w.attempts, w.kinds)
        for w in report.failed_windows
    ] == [(1, CHAOS_WINDOW, 3, ("spm_stuck",))]
    assert report.failed_windows[0].detail == (
        "exhausted 3 attempts; faults fired: spm_stuck, spm_stuck, spm_stuck"
    )
    assert served_identical(report, chaos_baseline) is None
