"""Cycle-level column semantics: units, hazards, loops, neighbours."""

import pytest

from repro.core import StructuralHazardError, Vwr2a
from repro.core.hazards import check_bundle
from repro.asm.builder import ProgramBuilder
from repro.isa import KernelConfig, Vwr, make_bundle
from repro.isa.program import _STRUCTURES
from repro.isa.fields import (
    DST_R0,
    DST_VWR_A,
    DST_VWR_C,
    RCB,
    RCT,
    VWR_A,
    VWR_B,
    dst_srf,
    imm,
    srf,
)
from repro.isa.lcu import addi, blt, ldsrf, seti
from repro.isa.lsu import ld_srf, ld_vwr, set_srf, shuf, st_srf, st_vwr
from repro.isa.mxcu import inck, setk
from repro.isa.rc import RCOp, rc
from repro.isa.fields import ShuffleMode


def run_single(builder_fn, spm_setup=None):
    sim = Vwr2a()
    if spm_setup:
        spm_setup(sim.spm)
    b = ProgramBuilder()
    builder_fn(b)
    cfg = KernelConfig(name="t", columns={0: b.build()})
    result = sim.execute(cfg)
    return sim, result


def test_mxcu_same_cycle_index():
    """The MXCU's index applies combinationally to the same bundle."""
    def build(b):
        b.srf(0, 0)
        b.emit(lsu=ld_vwr(Vwr.A, 0))
        b.emit(mxcu=setk(5),
               rcs=[rc(RCOp.MOV, DST_VWR_C, VWR_A)] * 4)
        b.emit(lsu=st_vwr(Vwr.C, 0))
        b.exit()

    sim, _ = run_single(
        build, lambda spm: spm.poke_words(0, list(range(128)))
    )
    out = sim.spm.peek_words(0, 128)
    # Each RC copied its slice word 5.
    for s in range(4):
        assert out[32 * s + 5] == 32 * s + 5


def test_mxcu_upd_xor_mirror():
    """k = ((k + inc) & and) ^ xor implements within-slice mirroring."""
    sim = Vwr2a()
    col = sim.columns[0]
    col.k = 31
    col._exec_mxcu(inck(1, xor_mask=31))   # (31+1)&31=0 ^31 = 31
    assert col.k == 31
    col._exec_mxcu(inck(0, xor_mask=31))   # 31^31 = 0
    assert col.k == 0


def test_rc_neighbour_previous_cycle():
    """RCT/RCB read the neighbouring RC's previous-cycle result."""
    def build(b):
        # Cycle 1: every RC computes its own id into the latch.
        b.emit(rcs=[rc(RCOp.MOV, DST_R0, imm(10 + i)) for i in range(4)])
        # Cycle 2: every RC copies its top neighbour's latch to VWR C.
        b.emit(mxcu=setk(0),
               rcs=[rc(RCOp.MOV, DST_VWR_C, RCT)] * 4)
        b.srf(0, 0)
        b.emit(lsu=st_vwr(Vwr.C, 0))
        b.exit()

    sim, _ = run_single(build)
    out = sim.spm.peek_words(0, 128)
    # RC i sees RC (i-1) % 4: RC0 <- RC3 (wrap), RC1 <- RC0, ...
    assert [out[0], out[32], out[64], out[96]] == [13, 10, 11, 12]


def test_rcb_wraps_down():
    def build(b):
        b.emit(rcs=[rc(RCOp.MOV, DST_R0, imm(20 + i)) for i in range(4)])
        b.emit(mxcu=setk(0), rcs=[rc(RCOp.MOV, DST_VWR_C, RCB)] * 4)
        b.srf(0, 0)
        b.emit(lsu=st_vwr(Vwr.C, 0))
        b.exit()

    sim, _ = run_single(build)
    out = sim.spm.peek_words(0, 128)
    assert [out[0], out[32], out[64], out[96]] == [21, 22, 23, 20]


def test_lcu_counted_loop_cycles():
    """Table-1 style loop: 2-bundle body, one element per cycle."""
    def build(b):
        b.srf(0, 0)
        b.srf(1, 1)
        b.emit(lsu=ld_vwr(Vwr.A, 0), lcu=seti(0, 0), mxcu=setk(31))
        b.label("l")
        body = [rc(RCOp.SADD, DST_VWR_C, VWR_A, imm(1))] * 4
        b.emit(rcs=body, mxcu=inck(1), lcu=addi(0, 1))
        b.emit(rcs=body, mxcu=inck(1), lcu=blt(0, 16, "l"))
        b.emit(lsu=st_vwr(Vwr.C, 1))
        b.exit()

    sim, result = run_single(
        build, lambda spm: spm.poke_words(0, list(range(128)))
    )
    assert sim.spm.peek_words(128, 128) == [v + 1 for v in range(128)]
    # 1 setup + 32 body + 1 store + 1 exit = 35 cycles.
    assert result.cycles == 35


def test_lsu_scalar_copy_and_post_increment():
    def build(b):
        b.srf(0, 3)     # src word address
        b.srf(1, 200)   # dst word address
        b.emit(lsu=ld_srf(2, 0, inc=1))
        b.emit(lsu=st_srf(2, 1, inc=1))
        b.emit(lsu=ld_srf(2, 0))
        b.emit(lsu=st_srf(2, 1))
        b.exit()

    sim, _ = run_single(
        build, lambda spm: spm.poke_words(0, [10, 11, 12, 13, 14])
    )
    assert sim.spm.peek_words(200, 2) == [13, 14]


def test_lsu_shuffle_op():
    def build(b):
        b.srf(0, 0)
        b.srf(1, 1)
        b.srf(2, 2)
        b.emit(lsu=ld_vwr(Vwr.A, 0))
        b.emit(lsu=ld_vwr(Vwr.B, 1))
        b.emit(lsu=shuf(ShuffleMode.INTERLEAVE_LO))
        b.emit(lsu=st_vwr(Vwr.C, 2))
        b.exit()

    sim, _ = run_single(
        build,
        lambda spm: (spm.poke_words(0, list(range(128))),
                     spm.poke_words(128, list(range(1000, 1128)))),
    )
    out = sim.spm.peek_words(256, 128)
    assert out[0::2] == list(range(64))
    assert out[1::2] == list(range(1000, 1064))


def test_missing_exit_raises():
    sim = Vwr2a()
    b = ProgramBuilder()
    b.emit()
    with pytest.raises(Exception):
        b.build()


def test_runaway_guard():
    def build(b):
        b.label("l")
        b.emit(lcu=addi(0, 1))
        b.emit(lcu=blt(0, 60000, "l"))
        b.exit()

    sim = Vwr2a()
    b = ProgramBuilder()
    build(b)
    cfg = KernelConfig(name="t", columns={0: b.build()})
    sim.store_kernel(cfg)
    with pytest.raises(Exception, match="exceeded"):
        sim.run("t", max_cycles=1000)


class TestHazards:
    def test_srf_two_units_conflict(self):
        bundle = make_bundle(
            lcu=ldsrf(0, 1),
            lsu=set_srf(2, 5),
        )
        with pytest.raises(StructuralHazardError, match="SRF"):
            check_bundle(bundle, 0)

    def test_rc_broadcast_same_entry_ok(self):
        bundle = make_bundle(
            rcs=[rc(RCOp.SADD, DST_R0, srf(3), imm(1))] * 4
        )
        check_bundle(bundle, 0)

    def test_rc_different_entries_conflict(self):
        bundle = make_bundle(rcs=[
            rc(RCOp.SADD, DST_R0, srf(1), imm(0)),
            rc(RCOp.SADD, DST_R0, srf(2), imm(0)),
        ])
        with pytest.raises(StructuralHazardError, match="different entries"):
            check_bundle(bundle, 0)

    def test_rc_read_write_mix_conflict(self):
        bundle = make_bundle(rcs=[
            rc(RCOp.MOV, dst_srf(0), imm(1)),
            rc(RCOp.MOV, DST_R0, srf(1)),
        ])
        with pytest.raises(StructuralHazardError, match="mixes"):
            check_bundle(bundle, 0)

    def test_vwr_wide_vs_datapath_conflict(self):
        bundle = make_bundle(
            lsu=ld_vwr(Vwr.A, 0),
            rcs=[rc(RCOp.MOV, DST_R0, VWR_A)] * 4,
        )
        with pytest.raises(StructuralHazardError, match="VWR"):
            check_bundle(bundle, 0)

    def test_vwr_datapath_read_write_same_register_ok(self):
        # Table 1 of the paper: VWRA = VWRA - VWRB (latch timing).
        bundle = make_bundle(
            rcs=[rc(RCOp.SSUB, DST_VWR_A, VWR_A, VWR_B)] * 4
        )
        check_bundle(bundle, 0)

    def test_shuffle_excludes_all_datapath_vwr_use(self):
        bundle = make_bundle(
            lsu=shuf(ShuffleMode.EVEN_PRUNE),
            rcs=[rc(RCOp.MOV, DST_R0, VWR_B)] * 4,
        )
        with pytest.raises(StructuralHazardError):
            check_bundle(bundle, 0)

    def test_store_rejects_hazardous_kernel(self):
        sim = Vwr2a()
        b = ProgramBuilder()
        b.emit(lcu=ldsrf(0, 0), lsu=set_srf(1, 2))
        b.exit()
        # Hazard failures are never cached: storing twice raises twice,
        # and the structure table never gives the code its words.
        programs = [b.build(), b.build()]
        for program in programs:
            with pytest.raises(StructuralHazardError):
                sim.store_kernel(KernelConfig(name="bad", columns={0: program}))
        entry = programs[0].structure
        assert entry is programs[1].structure
        assert _STRUCTURES[entry.bundles] is entry
        assert entry.words is None
        assert "bad" not in sim.config_mem
