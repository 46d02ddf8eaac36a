"""The structure table is the simulator's one structural cache.

Every fact derived from a bundle sequence — configuration words (set only
once the hazard check passes), compiled programs, SPM footprints — lives
on its entry in ``repro.isa.program``'s FIFO-capped table. These tests pin
eviction behaviour and that no second module-level cache creeps back.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import OrderedDict

import repro
from repro.arch import DEFAULT_PARAMS
from repro.asm.builder import ProgramBuilder
from repro.core.cgra import Vwr2a
from repro.isa import program as program_mod
from repro.isa.lcu import seti
from repro.isa.rc import RCOp
from repro.kernels.vector import elementwise_kernel

LINE_WORDS = DEFAULT_PARAMS.line_words


def _survivor(name: str):
    return elementwise_kernel(DEFAULT_PARAMS, RCOp.SADD, 128, 0, 2, 4,
                              name=name)


def _launch_state(sim: Vwr2a, result) -> tuple:
    return (
        result.cycles,
        result.config_cycles,
        sim.events.snapshot(),
        sim.spm.peek_words(0, 6 * LINE_WORDS),
    )


def _poke_operands(sim: Vwr2a) -> None:
    sim.spm.poke_words(0, [(7 * i) % 1000 - 500 for i in range(LINE_WORDS)])
    sim.spm.poke_words(2 * LINE_WORDS,
                       [(13 * i) % 900 - 450 for i in range(LINE_WORDS)])


def test_eviction_keeps_stored_kernels_and_recounts_evicted_code():
    sim = Vwr2a()
    reference = Vwr2a(engine="reference")
    _poke_operands(sim)
    _poke_operands(reference)
    survivor = _survivor("survivor")
    assert survivor.n_columns == 1
    sim.store_kernel(survivor)
    expected = _launch_state(reference, reference.execute(_survivor("s")))

    # Flood the table past its cap with distinct programs.
    cap = program_mod.STRUCTURE_CAP
    for i in range(cap + 8):
        builder = ProgramBuilder(n_rcs=4)
        builder.emit(lcu=seti(3, 1_000_000 + i))
        builder.exit()
        assert builder.build().structure.words is None
    assert len(program_mod._STRUCTURES) == cap
    entry = survivor.columns[0].structure
    assert entry.bundles not in program_mod._STRUCTURES

    # The kernel stored before the flood keeps its (evicted) entry.
    result = sim.run("survivor")
    assert result.engine == "compiled"
    assert _launch_state(sim, result) == expected

    # Evicted code is new to the table again: one hazard check, one encode.
    before = sim.config_mem.stats.snapshot()
    again = _survivor("survivor_again")
    sim.store_kernel(again)
    delta = sim.config_mem.stats.since(before)
    assert delta["encode_misses"] == 1
    assert delta["hazard_misses"] == 1
    assert again.columns[0].structure is not entry


def test_structure_table_is_the_only_module_level_ordered_dict():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for attr, value in vars(module).items():
            if isinstance(value, OrderedDict):
                found.setdefault(id(value), f"{info.name}.{attr}")
    assert list(found) == [id(program_mod._STRUCTURES)], sorted(
        found.values()
    )
