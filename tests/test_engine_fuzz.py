"""Differential fuzzing of the default engine against the reference.

Hypothesis draws hazard-free kernels of one to four columns with
deliberately unequal lengths: random RC ops (SIMD16 included), MXCU
indexing, LSU line/word loads and stores with post-increment, shuffles,
counted self-loops (closed form, and ``BNE`` loops that are not), loops
bounded by an ``LD_SRF`` result (not closed form), data-dependent
addresses, and programs that abort on an out-of-range SPM address or on
the cycle budget. Every kernel runs on the default ``engine="auto"`` and
on ``engine="reference"`` from the same SPM image; cycles, the launch's
event delta, the SPM and the state of every column must agree exactly,
also after an abort. Launches the conflict analysis admits must have run
compiled, so the fast path is what is being fuzzed.

The second property is the premise of that fast path: each column's
:func:`~repro.engine.conflicts.column_footprint` contains every SPM word
the reference interpreter touches when the column runs alone.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import DEFAULT_PARAMS, DEFAULT_SPEC
from repro.asm.builder import ProgramBuilder
from repro.core.cgra import Vwr2a
from repro.core.errors import AddressError, ProgramError
from repro.engine.conflicts import analyze_columns, column_footprint
from repro.isa.fields import (
    DST_NONE,
    DST_R0,
    DST_R1,
    R0,
    R1,
    RCB,
    RCT,
    VWR_DESTS,
    VWR_OPERANDS,
    ZERO,
    ShuffleMode,
    Vwr,
    dst_srf,
    imm,
    srf,
)
from repro.isa.lcu import LCU_NOP, addi, bge, blt, bne, exit_, ldsrf, seti
from repro.isa.lsu import LSU_NOP, ld_srf, ld_vwr, set_srf, shuf, st_srf, st_vwr
from repro.isa.mxcu import MXCU_NOP, MXCUInstr, MXCUOp, inck, setk
from repro.isa.program import KernelConfig
from repro.isa.rc import RCOp, rc

#: The stock geometry and one off-default design point (four narrow
#: columns), built the way ``repro.explore`` grids are.
GEOMETRIES = [
    DEFAULT_PARAMS,
    DEFAULT_SPEC.vary("fuzz4col", n_columns=4, vwr_words=64).arch,
]
GEOMETRY_IDS = ["default", "4col-narrow"]

#: SRF roles. Address entries only change by post-increment (or on
#: purpose, in the data-dependent-address segment); the loop-bound entry
#: is never written; random SRF writes land in the data entries.
LINE_A, WORD, LINE_B, BOUND = 0, 1, 2, 3
DATA = (4, 5, 6, 7)

#: Cycle budget of a launch that is not meant to run out of it.
BUDGET = 2000

#: Segment kinds, repeated to weight the draw.
SEGMENTS = (
    "straight", "straight", "straight",
    "counted", "counted", "counted",
    "data_loop", "data_loop",
    "pointer",
)


def _spm_image(params, seed: int) -> list:
    """Deterministic SPM contents of small values (loop bounds stay short)."""
    return [
        ((i + seed) * 2654435761 >> 13) % 29
        for i in range(params.spm_words)
    ]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
#
# The helpers below draw through one ``draw`` handle instead of building a
# composite strategy per bundle: strategy construction, not execution,
# would otherwise dominate the run time. Field strategies are built once.

_SRF_ENTRY = st.integers(0, 7)
_DATA_ENTRY = st.sampled_from(DATA)
_VWR = st.sampled_from(Vwr)
_SHUFFLE = st.sampled_from(ShuffleMode).map(shuf)
_RC_OP = st.sampled_from(RCOp)
_PLAIN_SOURCES = st.one_of(
    st.sampled_from([ZERO, R0, R1, RCT, RCB]),
    st.integers(-40_000, 40_000).map(imm),
)
_LSU_KINDS = st.sampled_from(
    ("nop", "ld_vwr", "st_vwr", "ld_srf", "st_srf", "set_srf", "shuf")
)
_LINE_INC = st.sampled_from((0, 1, 3))
_WORD_INC = st.integers(0, 2)
_MXCU_INC = st.integers(-3, 3)
_MASK = st.integers(0, 31)
_BOOL = st.booleans()
_DATA_PAIR = st.permutations(DATA)
_SEGMENT_TAIL = st.lists(st.sampled_from(SEGMENTS), max_size=3)
_ABORT = st.sampled_from(("none", "none", "address", "budget"))


@functools.lru_cache(maxsize=None)
def _operands(free_vwrs: tuple, srf_entry):
    sources = [_PLAIN_SOURCES]
    if free_vwrs:
        sources.append(st.sampled_from([VWR_OPERANDS[v] for v in free_vwrs]))
    if srf_entry is not None:
        sources.append(st.just(srf(srf_entry)))
    return st.one_of(*sources)


@functools.lru_cache(maxsize=None)
def _dests(free_vwrs: tuple):
    return st.sampled_from(
        [DST_NONE, DST_R0, DST_R1] + [VWR_DESTS[v] for v in free_vwrs]
    )


@functools.lru_cache(maxsize=None)
def _choice(options: tuple):
    return st.sampled_from(options)


@functools.lru_cache(maxsize=None)
def _ints(lo: int, hi: int):
    return st.integers(lo, hi)


@functools.lru_cache(maxsize=None)
def _orders(n: int):
    return st.permutations(range(n))


def _draw_lsu(draw, srf_free: bool):
    kind = draw(_LSU_KINDS if srf_free else _choice(("nop", "shuf")))
    if kind == "nop":
        return LSU_NOP
    if kind in ("ld_vwr", "st_vwr"):
        op = ld_vwr if kind == "ld_vwr" else st_vwr
        return op(
            draw(_VWR), draw(_choice((LINE_A, LINE_B))),
            inc=draw(_LINE_INC),
        )
    if kind == "ld_srf":
        return ld_srf(draw(_DATA_ENTRY), WORD, inc=draw(_WORD_INC))
    if kind == "st_srf":
        return st_srf(draw(_SRF_ENTRY), WORD, inc=draw(_WORD_INC))
    if kind == "set_srf":
        return set_srf(draw(_DATA_ENTRY), draw(_ints(-100, 100)))
    return draw(_SHUFFLE)


def _draw_mxcu(draw, srf_free: bool):
    kinds = ("nop", "setk", "upd", "upd_srf") if srf_free \
        else ("nop", "setk", "upd")
    kind = draw(_choice(kinds))
    if kind == "nop":
        return MXCU_NOP
    if kind == "setk":
        return setk(draw(_MASK))
    if kind == "upd":
        return inck(
            draw(_MXCU_INC), and_mask=draw(_MASK), xor_mask=draw(_MASK),
        )
    return MXCUInstr(
        op=MXCUOp.UPD, inc=draw(_MXCU_INC), srf_and=draw(_SRF_ENTRY),
    )


def _draw_rc_group(draw, n_rcs: int, srf_free: bool, wide: tuple) -> list:
    """One RC instruction per slot, hazard-free against the LSU's wide
    VWR access and the SRF port's other users."""
    free_vwrs = tuple(v for v in Vwr if v not in wide)
    mode = draw(_choice(("none", "read", "write"))) if srf_free else "none"
    operand = _operands(
        free_vwrs, draw(_SRF_ENTRY) if mode == "read" else None
    )
    dest = _dests(free_vwrs)
    writer = draw(_ints(0, n_rcs - 1)) if mode == "write" else None
    group = []
    for i in range(n_rcs):
        op = draw(_RC_OP)
        dst = dst_srf(draw(_DATA_ENTRY)) if i == writer else draw(dest)
        group.append(rc(op, dst, draw(operand), draw(operand)))
    return group


def _draw_bundle(draw, params, lcu=LCU_NOP, lsu=None) -> dict:
    """``ProgramBuilder.emit`` arguments around a fixed LCU (and LSU)."""
    if lsu is None:
        lsu = _draw_lsu(draw, srf_free=not lcu.uses_srf)
    busy = lcu.uses_srf or lsu.uses_srf
    mxcu = _draw_mxcu(draw, srf_free=not busy)
    busy = busy or mxcu.uses_srf
    rcs = _draw_rc_group(
        draw, params.rcs_per_column, not busy, lsu.vwrs_touched()
    )
    return dict(lcu=lcu, lsu=lsu, mxcu=mxcu, rcs=rcs)


def _draw_lcu(draw, params):
    reg = draw(_ints(0, params.lcu_registers - 1))
    kind = draw(_choice(("nop", "seti", "addi", "ldsrf")))
    if kind == "seti":
        return seti(reg, draw(_ints(-50, 50)))
    if kind == "addi":
        return addi(reg, draw(_ints(-5, 5)))
    if kind == "ldsrf":
        return ldsrf(reg, draw(_SRF_ENTRY))
    return LCU_NOP


def _emit_counted_loop(draw, b, params, col, label, bound_value):
    """A counted self-loop of a column-dependent trip count."""
    n_lcu = params.lcu_registers
    reg = draw(_ints(0, n_lcu - 1))
    branch = draw(_choice((blt, bge, bne)))
    trips = draw(_ints(1, 6)) + 4 * col
    step = draw(_ints(1, 3))
    if branch is bge or (branch is bne and draw(_BOOL)):
        step = -step
    cmp_kind = draw(_choice(("imm", "reg", "srf")))
    if cmp_kind == "srf":
        bound, cmp = bound_value, ("srf", BOUND)
    else:
        bound = draw(_ints(-20, 20))
        cmp = bound
    if cmp_kind == "reg":
        other = (reg + 1) % n_lcu
        b.emit(**_draw_bundle(draw, params, lcu=seti(other, bound)))
        cmp = ("reg", other)
    if branch is bge:
        start = bound - (trips - 1) * step
    else:
        start = bound - trips * step
    b.emit(**_draw_bundle(draw, params, lcu=seti(reg, start)))
    b.label(label)
    body = draw(_ints(2, 3))
    step_at = draw(_ints(0, body - 2))
    for j in range(body - 1):
        lcu = addi(reg, step) if j == step_at else LCU_NOP
        b.emit(**_draw_bundle(draw, params, lcu=lcu))
    b.emit(**_draw_bundle(draw, params, lcu=branch(reg, cmp, label)))


def _emit_data_loop(draw, b, params, label):
    """A self-loop whose counter and bound are loaded from the SPM with
    ``LD_SRF``: its trip count is data, so it is not closed form."""
    reg = draw(_ints(0, params.lcu_registers - 1))
    start, bound = draw(_DATA_PAIR)[:2]
    b.emit(**_draw_bundle(draw, params, lsu=ld_srf(start, WORD, inc=1)))
    b.emit(**_draw_bundle(draw, params, lcu=ldsrf(reg, start)))
    b.label(label)
    b.emit(**_draw_bundle(
        draw, params, lcu=addi(reg, 1), lsu=ld_srf(bound, WORD),
    ))
    b.emit(**_draw_bundle(draw, params, lcu=blt(reg, ("srf", bound), label)))


def _emit_fault(draw, b, params):
    """An SPM access at an out-of-range address."""
    entry = draw(_DATA_ENTRY)
    op = draw(_choice((ld_vwr, st_vwr, ld_srf, st_srf)))
    if op in (ld_vwr, st_vwr):
        limit = params.spm_lines
        access = op(draw(_VWR), entry)
    else:
        limit = params.spm_words
        access = op(draw(_DATA_ENTRY), entry)
    bad = draw(_choice((-1, limit, limit + 5)))
    b.emit(**_draw_bundle(draw, params, lsu=set_srf(entry, bad)))
    b.emit(**_draw_bundle(draw, params, lsu=access))


def _draw_column(draw, params, col: int, fault: bool):
    b = ProgramBuilder(n_rcs=params.rcs_per_column)
    lines = params.spm_lines // params.n_columns
    base = col * lines
    bound_value = draw(_ints(-8, 8))
    b.srf(LINE_A, base + draw(_ints(0, 3)))
    b.srf(LINE_B, base + draw(_ints(0, lines // 2)))
    b.srf(WORD, base * params.line_words + draw(_ints(0, 64)))
    b.srf(BOUND, bound_value)
    # Every column opens with a counted loop whose trip count grows with
    # the column index, so the columns' lengths differ on purpose.
    segments = ["counted"] + draw(_SEGMENT_TAIL)
    if fault:
        segments.insert(draw(_ints(0, len(segments))), "fault")
    for index, kind in enumerate(segments):
        label = f"loop{index}"
        if kind == "straight":
            for _ in range(draw(_ints(1, 4))):
                b.emit(**_draw_bundle(draw, params, lcu=_draw_lcu(draw, params)))
        elif kind == "counted":
            _emit_counted_loop(draw, b, params, col, label, bound_value)
        elif kind == "data_loop":
            _emit_data_loop(draw, b, params, label)
        elif kind == "pointer":
            # Data-dependent word address: the footprint goes unbounded.
            b.emit(**_draw_bundle(draw, params, lsu=ld_srf(WORD, WORD)))
        else:
            _emit_fault(draw, b, params)
    b.emit(**_draw_bundle(draw, params, lcu=exit_()))
    return b.build()


@st.composite
def _launch_case(draw, params):
    """(config, SPM image, max_cycles) of one fuzzed launch."""
    n_active = draw(_choice(tuple(range(1, min(4, params.n_columns) + 1))))
    active = sorted(draw(_orders(params.n_columns))[:n_active])
    abort = draw(_ABORT)
    faulty = draw(_choice(tuple(active))) if abort == "address" else None
    columns = {
        col: _draw_column(draw, params, col, fault=col == faulty)
        for col in active
    }
    max_cycles = draw(_ints(1, 120)) if abort == "budget" else BUDGET
    image = _spm_image(params, draw(_ints(0, 1 << 20)))
    return KernelConfig(name="fuzz", columns=columns), image, max_cycles


def _fuzz_settings(max_examples: int):
    return settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.data_too_large,
        ],
    )


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def _launch(engine: str, params, config, image, max_cycles):
    """Run one launch; returns (sim, RunResult or None, fault or None)."""
    sim = Vwr2a(params, engine=engine)
    sim.spm.poke_words(0, image)
    try:
        result = sim.execute(config, max_cycles=max_cycles)
    except (AddressError, ProgramError) as fault:
        return sim, None, (type(fault), str(fault))
    return sim, result, None


def _machine_state(sim) -> dict:
    return {
        "events": sim.events.snapshot(),
        "spm": sim.spm.peek_words(0, sim.params.spm_words),
        "columns": [col.state_snapshot() for col in sim.columns],
    }


def _assert_engines_agree(params, config, image, max_cycles) -> None:
    ref_sim, ref, ref_fault = _launch(
        "reference", params, config, image, max_cycles
    )
    sim, result, fault = _launch("auto", params, config, image, max_cycles)
    assert fault == ref_fault
    if fault is None:
        assert result.cycles == ref.cycles
        assert result.column_steps == ref.column_steps
        assert result.events == ref.events
    assert _machine_state(sim) == _machine_state(ref_sim)
    report = analyze_columns(config.columns, params)
    expected = "compiled" if report.conflict_free else "reference"
    assert sim.engine_decisions == {expected: 1}


def _recording(spm) -> tuple:
    """Record the word addresses of every successful SPM access."""
    reads, writes = set(), set()
    line_words = spm.line_words

    def line(index, *_):
        return range(index * line_words, (index + 1) * line_words)

    accesses = {
        "read_line": (reads, line),
        "write_line": (writes, line),
        "read_word": (reads, lambda addr, *_: (addr,)),
        "write_word": (writes, lambda addr, *_: (addr,)),
        "read_words": (reads, lambda addrs: addrs),
        "write_words": (
            writes, lambda addr, values: range(addr, addr + len(values)),
        ),
    }
    for name, (into, words) in accesses.items():
        def wrapped(*args, method=getattr(spm, name), into=into,
                    words=words):
            out = method(*args)
            into.update(words(*args))
            return out
        setattr(spm, name, wrapped)
    return reads, writes


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", GEOMETRIES, ids=GEOMETRY_IDS)
class TestEngineFuzz:
    @_fuzz_settings(80)
    @given(data=st.data())
    def test_default_engine_matches_reference(self, params, data):
        config, image, max_cycles = data.draw(_launch_case(params))
        _assert_engines_agree(params, config, image, max_cycles)

    @_fuzz_settings(50)
    @given(data=st.data())
    def test_footprint_contains_every_reference_access(self, params, data):
        config, image, max_cycles = data.draw(_launch_case(params))
        for col, program in config.columns.items():
            sim = Vwr2a(params, engine="reference")
            sim.spm.poke_words(0, image)
            reads, writes = _recording(sim.spm)
            try:
                sim.execute(
                    KernelConfig(name="alone", columns={col: program}),
                    max_cycles=max_cycles,
                )
            except (AddressError, ProgramError):
                pass
            footprint = column_footprint(program, params)
            if not footprint.unbounded_reads:
                assert reads <= footprint.reads
            if not footprint.unbounded_writes:
                assert writes <= footprint.writes
