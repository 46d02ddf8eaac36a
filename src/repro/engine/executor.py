"""Execution engines: the compiled dispatcher and the reference loop.

Two engines drive kernel execution for :class:`repro.core.cgra.Vwr2a`:

* :class:`ReferenceEngine` (``engine="reference"``) — the original
  cycle-by-cycle interpreter (``Column.step`` per column per cycle). It
  is the golden model.
* :class:`CompiledEngine` (``engine="auto"``, the default) — routes each
  launch on its compile-time cross-column SPM analysis
  (:mod:`repro.engine.conflicts`). Kernels whose columns communicate
  through the SPM mid-kernel run on the reference interpreter; all
  others run compiled: each column's
  :class:`~repro.engine.compiler.CompiledProgram` is bound to the
  column's storage and dispatched whole superblocks at a time (fused
  straight-line chains and self-loops; closed-form loops complete a full
  counted run in one dispatch, see :mod:`repro.engine.superblocks`).
  Event counting happens as per-superblock execution counts folded into
  the shared :class:`~repro.core.events.EventCounters` once at kernel end
  (:meth:`BoundColumn.finish`, memoized on the execution-count vector) —
  bit-identical to per-cycle logging because every bundle's event delta
  is static (see :mod:`repro.engine.deltas`).

A compiled launch runs each active column once, in column order, from
PC 0 to EXIT. Columns share only the SPM and the additive event counters;
the conflict analysis proves per launch that no column writes an address
another column touches, so running the columns one after another is
unobservable against the per-cycle lock-step of the reference.

Aborted launches (``AddressError`` / ``ProgramError``) are rewound to the
pre-launch snapshot and replayed cycle-by-cycle on the reference
interpreter, so events and column state after a fault are bit-identical to
per-cycle execution — not just block-aligned.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, namedtuple
from functools import partial

from repro.core.alu import _simd16
from repro.core.errors import AddressError, ProgramError
from repro.core.shuffle import shuffle
from repro.engine.compiler import compile_program
from repro.isa.fields import ShuffleMode, Vwr
from repro.isa.rc import RCOp

#: One launch as an engine ran it, surfaced on ``RunResult`` by
#: ``Vwr2a.run``: the cycle count, the engine that executed
#: (``"compiled"`` or ``"reference"``), why a conflicting launch fell back
#: and the conflicts behind it, and the accelerated-loop counter dict
#: (None on the reference path).
RunInfo = namedtuple(
    "RunInfo",
    ["cycles", "engine", "fallback_reason", "conflicts", "superblocks"],
    defaults=(None, (), None),
)


def _budget_error(name: str, max_cycles: int) -> ProgramError:
    return ProgramError(
        f"kernel {name!r} exceeded {max_cycles} cycles; "
        "missing EXIT or diverging loop?"
    )


def _past_end_error(column_index: int, pc: int) -> ProgramError:
    return ProgramError(
        f"column {column_index}: PC {pc} ran past the program "
        "without an EXIT"
    )


def _raise_srf(entry: int, n_entries: int):
    raise AddressError(f"SRF entry {entry} out of range [0, {n_entries})")


def interpret(name, active, max_cycles) -> int:
    """The golden per-cycle interpreter: ``Column.step`` in lock-step."""
    cycles = 0
    while any(not col.done for col in active):
        if cycles >= max_cycles:
            raise _budget_error(name, max_cycles)
        for col in active:
            col.step()
        cycles += 1
    return cycles


class ReferenceEngine:
    """Every launch on the golden per-cycle interpreter."""

    name = "reference"

    def __init__(self) -> None:
        #: Lifetime launch tally by executing engine (``Vwr2a.engine_decisions``).
        self.decisions = Counter()

    def run_kernel(self, vwr2a, name, active, max_cycles,
                   report=None) -> RunInfo:
        # ``report`` (the conflict analysis) is accepted for interface
        # uniformity; the per-cycle interpreter never needs it.
        self.decisions["reference"] += 1
        return RunInfo(interpret(name, active, max_cycles), "reference")


class BoundColumn:
    """A compiled program bound to one column's storage.

    Binding executes the generated module once, capturing the column's SRF
    / VWR / SPM backing lists and register files as default arguments of
    the block functions; re-running the same kernel afterwards only resets
    the execution counts.
    """

    def __init__(self, column, compiled) -> None:
        self.column = column
        self.compiled = compiled
        namespace = self._namespace(column)
        exec(compiled.code, namespace)
        table = {}
        for blk in compiled.blocks:
            table[blk.leader] = (
                namespace[blk.fn_name],
                blk.n_cycles,
                blk.index,
                blk.exit_next,
                blk.is_loop,
                blk.closed_form,
            )
        self.table = table
        self.counts = [0] * len(compiled.blocks)
        self.steps = 0
        self.pc = 0
        self.loops_accelerated = 0
        self.trips_accelerated = 0
        # Execution counts of deterministic kernels repeat launch after
        # launch: the event fold is memoized on the count vector
        # (bounded; cleared wholesale).
        self._fold_memo = {}

    @staticmethod
    def _namespace(column) -> dict:
        g = {
            "col": column,
            "S": column.srf._data,
            "M": column.spm._data,
            "VA": column.vwrs[Vwr.A]._data,
            "VB": column.vwrs[Vwr.B]._data,
            "VC": column.vwrs[Vwr.C]._data,
            "O": column.rc_out,
            "L": column.lcu_regs,
            "AddressError": AddressError,
            "_raise_srf": _raise_srf,
            "_s16a": partial(_simd16, RCOp.SADD16),
            "_s16s": partial(_simd16, RCOp.SSUB16),
            "_s16m": partial(_simd16, RCOp.FXPMUL16),
        }
        for i, regs in enumerate(column.rc_regs):
            g[f"R{i}"] = regs
        slice_words = column.params.slice_words
        for mode in ShuffleMode:
            g[f"_shuf{int(mode)}"] = partial(
                _mode_shuffle, mode, slice_words
            )
        return g

    def begin(self) -> None:
        self.counts = [0] * len(self.compiled.blocks)
        self.steps = 0
        self.pc = 0
        self.loops_accelerated = 0
        self.trips_accelerated = 0

    def run(self, kernel_name: str, max_cycles: int) -> None:
        """Execute whole superblocks from the current PC to EXIT.

        Fused self-loops run up to the remaining cycle budget per
        dispatch; a closed-form loop completes its counted run in one.
        """
        table = self.table
        counts = self.counts
        steps = self.steps
        pc = self.pc
        try:
            while True:
                entry = table.get(pc)
                if entry is None:
                    raise _past_end_error(self.column.index, pc)
                fn, n_cycles, index, exit_next, is_loop, closed = entry
                if is_loop:
                    limit = (max_cycles - steps) // n_cycles
                    if limit <= 0:
                        raise _budget_error(kernel_name, max_cycles)
                    pc, trips = fn(limit)
                    counts[index] += trips
                    steps += trips * n_cycles
                    if closed:
                        self.loops_accelerated += 1
                        self.trips_accelerated += trips
                else:
                    if steps + n_cycles > max_cycles:
                        raise _budget_error(kernel_name, max_cycles)
                    counts[index] += 1
                    steps += n_cycles
                    pc = fn()
                    if pc < 0:
                        pc = exit_next
                        return
        finally:
            # Persist progress even when aborting (budget / address
            # errors), so the error-path event fold sees it.
            self.steps = steps
            self.pc = pc

    def flush(self, events) -> None:
        """Fold the execution counts into the shared event tally and
        sync the column's architectural bookkeeping (also on aborts).

        ``count x delta`` per executed superblock, summed per event; the
        totals are keyed in sorted event order so the shared tally's key
        order does not depend on block order.
        """
        key = tuple(self.counts)
        totals = self._fold_memo.get(key)
        if totals is None:
            totals = Counter()
            for blk in self.compiled.blocks:
                count = key[blk.index]
                if count:
                    for name, n in blk.delta:
                        totals[name] += n * count
            totals = dict(sorted(totals.items()))
            if len(self._fold_memo) > 64:
                self._fold_memo.clear()
            self._fold_memo[key] = totals
        events.add_many(totals)
        self.column.steps = self.steps
        self.column.pc = self.pc

    def finish(self, events) -> None:
        """Successful-completion fold: flush, then mark the column done."""
        self.flush(events)
        self.column.done = True

    def pc_histogram(self) -> list:
        """Per-PC executed-bundle counts (diagnostics / tests)."""
        histogram = [0] * self.compiled.n_bundles
        for blk in self.compiled.blocks:
            count = self.counts[blk.index]
            if count:
                for leader, n_cycles in blk.members:
                    for pc in range(leader, leader + n_cycles):
                        histogram[pc] += count
        return histogram

    def superblock_stats(self) -> dict:
        """Closed-form loop accounting of the last run."""
        return {
            "accelerated_loops": self.loops_accelerated,
            "accelerated_trips": self.trips_accelerated,
        }


def _mode_shuffle(mode, slice_words, a, b):
    return shuffle(a, b, mode, slice_words=slice_words)


def _snapshot_launch(vwr2a, active) -> tuple:
    """Pre-launch state of the SPM and the active columns (no events)."""
    return (
        vwr2a.spm.snapshot(),
        [(col, col.state_snapshot()) for col in active],
    )


def _restore_launch(vwr2a, snapshot) -> None:
    spm_state, column_states = snapshot
    vwr2a.spm.restore(spm_state)
    for col, state in column_states:
        col.state_restore(state)


class CompiledEngine:
    """Conflict-routing compile-once / execute-many engine (the default).

    Acts on the compile-time cross-column SPM analysis of each launch,
    which ``Vwr2a.run`` hands down from its per-config stamp
    (``config_mem.stats.analysis_hits``), so warm launches skip the
    analysis entirely. Launches proven conflict-free execute on the
    compiled fast path; launches whose columns communicate through the SPM
    mid-kernel run on the reference interpreter, bit-identically to
    ``engine="reference"``. The decision is surfaced on
    ``RunResult.engine`` / ``RunResult.fallback_reason`` /
    ``RunResult.spm_conflicts``. Aborted compiled launches replay on the
    reference interpreter from the pre-launch snapshot, so fault-path
    events and state are exact.
    """

    name = "auto"

    #: Bound programs kept per column (identity-keyed, FIFO-evicted).
    CACHE_CAP = 128

    def __init__(self) -> None:
        self._bound = {}
        #: Lifetime launch tally by the engine that actually executed,
        #: ticked on every routed launch, including launches that later
        #: abort (``Vwr2a.engine_decisions``).
        self.decisions = Counter()

    def _bind(self, column) -> BoundColumn:
        compiled = compile_program(column.program, column.params)
        per_column = self._bound.setdefault(column.index, OrderedDict())
        entry = per_column.get(id(compiled))
        if entry is not None and entry[0] is compiled:
            per_column.move_to_end(id(compiled))
            return entry[1]
        bound = BoundColumn(column, compiled)
        per_column[id(compiled)] = (compiled, bound)
        if len(per_column) > self.CACHE_CAP:
            per_column.popitem(last=False)
        return bound

    def run_kernel(self, vwr2a, name, active, max_cycles, report) -> RunInfo:
        if report.conflicts:
            self.decisions["reference"] += 1
            return RunInfo(
                interpret(name, active, max_cycles), "reference",
                report.reason(), report.conflicts,
            )
        self.decisions["compiled"] += 1
        snapshot = _snapshot_launch(vwr2a, active)
        bounds = [self._bind(col) for col in active]
        for bound in bounds:
            bound.begin()
        try:
            for bound in bounds:
                bound.run(name, max_cycles)
        except (AddressError, ProgramError) as fault:
            # Aborted kernel: rewind to the pre-launch state and replay on
            # the per-cycle interpreter. Earlier columns may already have
            # run to EXIT; the replay reaches the fault the reference
            # reaches, in whichever column that is first — with events
            # and column state accounted cycle by cycle, including the
            # final partial bundle (docs/engine.md).
            _restore_launch(vwr2a, snapshot)
            interpret(name, active, max_cycles)
            # A completed replay means the two engines disagree on whether
            # the kernel faults at all — an engine bug, never silently
            # reported as the stale compiled-path exception.
            raise ProgramError(
                f"engine divergence on kernel {name!r}: the compiled "
                f"engine aborted ({fault}) but the reference replay "
                "completed; please report"
            ) from fault
        except BaseException:
            # Non-simulation aborts (e.g. KeyboardInterrupt) still account
            # the blocks executed so far, at block granularity.
            for bound in bounds:
                bound.flush(vwr2a.events)
            raise
        cycles = max(bound.steps for bound in bounds)
        superblocks = {"accelerated_loops": 0, "accelerated_trips": 0}
        for bound in bounds:
            bound.finish(vwr2a.events)
            for stat, value in bound.superblock_stats().items():
                superblocks[stat] += value
        return RunInfo(cycles, "compiled", superblocks=superblocks)
