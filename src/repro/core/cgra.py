"""The VWR2A top level (Fig. 1).

Glues together the two columns, the shared SPM, the configuration memory,
the synchronizer and the DMA. The host-facing API is the one the SoC uses
over the slave port: store kernel configurations, launch kernels, trigger
DMA transfers, and receive completion interrupts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch import DEFAULT_PARAMS, ArchParams, ArchSpec
from repro.core.column import Column
from repro.core.config_mem import ConfigurationMemory
from repro.core.dma import Dma
from repro.core.errors import ConfigurationError
from repro.core.events import Ev, EventCounters
from repro.core.spm import Scratchpad
from repro.core.synchronizer import Synchronizer
from repro.isa.program import KernelConfig


@dataclass(frozen=True)
class RunResult:
    """Outcome of one kernel execution on the array."""

    name: str
    cycles: int            #: execution cycles (excludes configuration load)
    config_cycles: int     #: cycles spent loading the configuration words
    column_steps: dict     #: per-column executed-bundle counts
    engine: str = ""       #: engine that actually executed the kernel
    fallback_reason: str = None   #: why ``auto`` chose the reference path
    spm_conflicts: tuple = ()     #: SpmConflict records behind the fallback
    superblocks: dict = None      #: closed-form loop counters (compiled runs)
    #: Event-count delta of the execution (configuration load excluded),
    #: equal whichever engine ran it; ``EnergyModel.fold_histogram`` folds
    #: it into the launch's datapath energy.
    events: dict = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return self.cycles + self.config_cycles


class Vwr2a:
    """A VWR2A instance: reconfigurable array + memories + DMA.

    ``engine`` selects how kernels execute: ``"auto"`` (the default) runs
    the compile-time cross-column SPM analysis at ``load_kernel`` and
    executes conflict-free kernels on the compiled fast path, falling back
    to the per-cycle reference interpreter when columns communicate
    through the SPM mid-kernel (docs/engine.md); ``"reference"`` is the
    original cycle-by-cycle interpreter (``Column.step``), kept as the
    golden model. Both produce identical cycle counts and event snapshots;
    ``RunResult`` records which engine ran and why.
    """

    #: Runaway guard for kernel execution.
    DEFAULT_MAX_CYCLES = 10_000_000

    def __init__(
        self,
        params: ArchParams = DEFAULT_PARAMS,
        events: EventCounters = None,
        bus=None,
        dma_setup_cycles: int = 24,
        engine: str = "auto",
        spec: ArchSpec = None,
    ) -> None:
        from repro.engine import CompiledEngine, ReferenceEngine

        if spec is not None:
            if params is not DEFAULT_PARAMS and params != spec.arch:
                raise ConfigurationError(
                    "Vwr2a params disagree with spec.arch: pass one source "
                    "of geometry"
                )
            params = spec.arch
        else:
            spec = ArchSpec(arch=params)
        #: The full design point this instance was built from. ``params``
        #: stays the geometry projection the structure table's compiled
        #: programs and footprints are keyed on.
        self.spec = spec
        self.params = params
        if engine == "auto":
            self._engine = CompiledEngine()
        elif engine == "reference":
            self._engine = ReferenceEngine()
        else:
            raise ConfigurationError(
                f"unknown engine {engine!r} (choose from 'auto', "
                "'reference')"
            )
        self.events = events if events is not None else EventCounters()
        self.spm = Scratchpad(
            params.spm_lines, params.line_words, self.events
        )
        self.columns = [
            Column(i, params, self.spm, self.events)
            for i in range(params.n_columns)
        ]
        self.config_mem = ConfigurationMemory(params)
        self.synchronizer = Synchronizer()
        self.dma = None
        if bus is not None:
            self.attach_bus(bus, dma_setup_cycles)

    def attach_bus(self, bus, dma_setup_cycles: int = 24) -> None:
        """Connect the AHB master port: enables DMA transfers."""
        self.dma = Dma(
            self.spm, bus, self.events, setup_cycles=dma_setup_cycles
        )

    # -- configuration ------------------------------------------------------

    def store_kernel(self, config: KernelConfig) -> None:
        """Validate (including hazards) and store a kernel configuration.

        Cheap for regenerated kernels: see
        :meth:`~repro.core.config_mem.ConfigurationMemory.store`.
        """
        self.config_mem.store(config)

    def load_kernel(self, name: str) -> int:
        """Copy a stored configuration into the program memories.

        Returns the cycle cost (one cycle per configuration word plus one
        per initial SRF entry, per column). Under the ``auto`` engine this
        is also where the cross-column SPM analysis runs — its verdict is
        stamped on the stored configuration object
        (``config_mem.stats.analysis_hits``), so warm launches of
        regenerated kernels, which dedup onto that object, skip
        re-analysis entirely.
        """
        config = self.config_mem.get(name)
        if self._engine.name != "reference":
            self._conflict_report(config)
        return self._install(config)

    def _install(self, config: KernelConfig) -> int:
        config_words = 0
        srf_writes = 0
        for col, program in config.columns.items():
            self.columns[col].load(program)
            config_words += len(program.bundles)
            srf_writes += len(program.srf_init)
        self.events.add_many({
            Ev.CONFIG_WORD: config_words, Ev.SRF_WRITE: srf_writes,
        })
        self.synchronizer.kernel_started(config.name, config.columns.keys())
        return config_words + srf_writes

    def _conflict_report(self, config: KernelConfig):
        """SPM-conflict verdict of ``config``, stamped on the config object.

        The configuration memory dedupes regenerated kernels onto one
        stored :class:`KernelConfig`, so the stamp makes every warm launch
        a plain attribute read; a cold miss intersects the footprints
        cached on the structure table. ``config_mem.stats.analysis_hits``
        and ``analysis_misses`` count the two paths.
        """
        stats = self.config_mem.stats
        cached = config.__dict__.get("_analysis")
        if cached is not None and cached[0] is self.params:
            stats.analysis_hits += 1
            return cached[1]
        stats.analysis_misses += 1
        from repro.engine.conflicts import analyze_columns

        report = analyze_columns(config.columns, self.params)
        config._analysis = (self.params, report)
        return report

    # -- execution -----------------------------------------------------------

    @property
    def engine(self) -> str:
        """Name of the active execution engine."""
        return self._engine.name

    @property
    def engine_decisions(self) -> dict:
        """Lifetime launch tally by the engine that actually executed.

        ``{"compiled": n, "reference": m}`` — under ``engine="auto"`` the
        split shows how many launches the SPM-conflict analysis kept on
        the fast path; ``repro.serve`` reports the same split per stream
        from its launch log.
        """
        return dict(self._engine.decisions)

    def run(self, name: str, max_cycles: int = None) -> RunResult:
        """Load and execute a stored kernel to completion."""
        if max_cycles is None:
            max_cycles = self.DEFAULT_MAX_CYCLES
        # Single configuration fetch: _install reuses it for the load,
        # and the conflict verdict rides on the stored config object.
        config = self.config_mem.get(name)
        report = self._conflict_report(config) \
            if self._engine.name != "reference" else None
        config_cycles = self._install(config)
        active = [self.columns[col] for col in config.columns]
        events_before = self.events.snapshot()
        info = self._engine.run_kernel(
            self, name, active, max_cycles, report=report
        )
        self.synchronizer.kernel_finished(
            name, info.cycles, config.columns.keys()
        )
        return RunResult(
            name=name,
            cycles=info.cycles,
            config_cycles=config_cycles,
            column_steps={col.index: col.steps for col in active},
            engine=info.engine,
            fallback_reason=info.fallback_reason,
            spm_conflicts=tuple(info.conflicts),
            superblocks=info.superblocks,
            events=self.events.diff(events_before),
        )

    def execute(self, config: KernelConfig, max_cycles: int = None) -> RunResult:
        """Store + run in one call (convenience for tests and examples)."""
        self.store_kernel(config)
        return self.run(config.name, max_cycles=max_cycles)

    # -- DMA convenience ------------------------------------------------------

    def dma_to_spm(self, sram, src_word: int, dst_word: int, n: int) -> int:
        self._need_dma()
        cycles = self.dma.to_spm(sram, src_word, dst_word, n)
        self.synchronizer.dma_finished()
        return cycles

    def dma_from_spm(self, sram, src_word: int, dst_word: int, n: int) -> int:
        self._need_dma()
        cycles = self.dma.from_spm(sram, src_word, dst_word, n)
        self.synchronizer.dma_finished()
        return cycles

    def _need_dma(self) -> None:
        if self.dma is None:
            raise ConfigurationError(
                "no bus attached: construct Vwr2a(bus=...) or call "
                "attach_bus() before using the DMA"
            )
