"""The configuration memory (Fig. 1, Sec. 3.1).

"The configuration words are stored in the configuration memory and loaded
to the RCs' local program memory when a kernel execution starts." We store
kernels both as structured :class:`KernelConfig` objects and as their exact
binary encodings (``repro.isa.encoding``), so the capacity accounting and
the load-cycle cost are real.

Because the FFT engines regenerate structurally identical kernels on every
launch (fresh objects, same code, different ``srf_init``), ``store`` reads
the configuration words off the program's entry in the structure table
(:attr:`repro.isa.program.ColumnProgram.structure`): a bundle sequence is
hazard-checked and encoded once per process, and the entry gets its words
only once the check passes, so a hazardous program raises every time.

A store whose name, code *and* ``srf_init`` all match the kernel already
in the memory is deduplicated outright (``stats.dedup_hits``), which makes
the historical double-store flow (``KernelRunner.store`` followed by
``Vwr2a.execute``) free. ``stats`` exposes the hit/miss counters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.errors import ConfigurationError
from repro.core.hazards import check_program
from repro.isa.encoding import bundle_bits, encode_bundle
from repro.isa.program import KernelConfig


@dataclass
class StoreStats:
    """Observable cache behaviour of :meth:`ConfigurationMemory.store`."""

    stores: int = 0         #: store() calls
    dedup_hits: int = 0     #: identical name+code+srf_init: store skipped
    encode_hits: int = 0    #: per-column encodes already in the table
    encode_misses: int = 0  #: per-column encodes actually performed
    hazard_hits: int = 0    #: per-column hazard re-checks skipped
    hazard_misses: int = 0  #: per-column hazard checks actually run
    analysis_hits: int = 0    #: SPM-conflict verdicts reused off the config
    analysis_misses: int = 0  #: SPM-conflict verdicts actually computed

    def as_dict(self) -> dict:
        """The counters as a plain ``name -> count`` dict.

        The public read API for consumers that want all counters at once
        — benchmarks, the metrics bus
        (:func:`repro.obs.instruments.record_store_stats`) — instead of
        reaching into the attributes field by field.
        """
        return asdict(self)

    def snapshot(self) -> dict:
        """An immutable copy of the counters (pairs with :meth:`since`)."""
        return self.as_dict()

    def since(self, snapshot: dict) -> dict:
        """Counter deltas accumulated since a :meth:`snapshot`.

        The stream scheduler (``repro.serve``) reports this per served
        stream: a warm stream shows ``dedup_hits`` growing with zero new
        ``encode_misses``/``hazard_misses``.
        """
        return {
            name: count - snapshot.get(name, 0)
            for name, count in self.as_dict().items()
        }


class ConfigurationMemory:
    """Holds the configurations of every kernel known to the array."""

    def __init__(self, params) -> None:
        self.params = params
        self._kernels = {}
        self.stats = StoreStats()

    def store(self, config: KernelConfig) -> None:
        """Validate, hazard-check, encode and store a kernel configuration.

        The hazard check and the encoding run once per bundle sequence per
        process (see the module docstring).
        """
        stats = self.stats
        stats.stores += 1
        existing = self._kernels.get(config.name)
        if existing is not None and (
            existing is config or existing.columns == config.columns
        ):
            stats.dedup_hits += 1
            return
        config.validate(self.params)
        for program in config.columns.values():
            entry = program.structure
            if entry.words is None:
                check_program(entry.bundles)
                entry.words = tuple(encode_bundle(b) for b in entry.bundles)
                stats.hazard_misses += 1
                stats.encode_misses += 1
            else:
                stats.hazard_hits += 1
                stats.encode_hits += 1
        self._kernels[config.name] = config

    def get(self, name: str) -> KernelConfig:
        if name not in self._kernels:
            raise ConfigurationError(
                f"kernel {name!r} is not in the configuration memory "
                f"(known: {sorted(self._kernels)})"
            )
        return self._kernels[name]

    def encoded(self, name: str) -> dict:
        """Binary configuration words of a stored kernel, per column."""
        return {
            col: program.structure.words
            for col, program in self.get(name).columns.items()
        }

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def kernels(self) -> list:
        return sorted(self._kernels)

    def total_bits(self) -> int:
        """Total configuration storage currently used, in bits."""
        word_bits = bundle_bits(self.params.rcs_per_column)
        return sum(
            word_bits * len(program)
            for config in self._kernels.values()
            for program in config.columns.values()
        )
