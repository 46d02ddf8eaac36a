"""Architectural parameters of VWR2A and its host SoC.

The defaults reproduce the configuration evaluated in the DAC'22 paper:
a 4x2 reconfigurable array (two columns of four RCs), three 4096-bit VWRs
per column, a shared 32 KiB SPM whose accelerator-side port matches the VWR
width, an 8-entry scalar register file per column, and 64-entry program
memories. Tests instantiate smaller variants to exercise the simulator's
scaling logic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

from repro.utils.bits import is_power_of_two


@dataclass(frozen=True)
class ArchParams:
    """Static configuration of a VWR2A instance.

    Attributes mirror Sec. 3 of the paper. ``vwr_words`` is the VWR width in
    32-bit words (4096 bits = 128 words); each RC owns a contiguous
    ``slice_words``-word slice (one quarter of the VWR). The SPM wide port
    transfers one full VWR per cycle, so the SPM line size equals the VWR
    width.
    """

    n_columns: int = 2
    rcs_per_column: int = 4
    n_vwrs: int = 3
    vwr_words: int = 128
    srf_entries: int = 8
    spm_bytes: int = 32 * 1024
    program_words: int = 64
    rc_registers: int = 2
    lcu_registers: int = 4
    word_bytes: int = 4
    clock_hz: float = 80e6

    def __post_init__(self) -> None:
        if self.n_columns < 1:
            raise ValueError("need at least one column")
        if self.rcs_per_column < 1:
            raise ValueError("need at least one RC per column")
        if self.n_vwrs < 1:
            raise ValueError("need at least one VWR")
        if self.vwr_words % self.rcs_per_column != 0:
            raise ValueError(
                f"VWR width ({self.vwr_words} words) must divide evenly "
                f"across {self.rcs_per_column} RCs"
            )
        if not is_power_of_two(self.slice_words):
            raise ValueError("RC slice width must be a power of two")
        if self.slice_words > 32:
            raise ValueError(
                f"RC slice of {self.slice_words} words cannot be indexed "
                f"by the MXCU's 5-bit k field (max 32); scale vwr_words "
                f"and rcs_per_column together"
            )
        if self.spm_bytes % self.line_bytes != 0:
            raise ValueError("SPM size must be a whole number of lines")

    @property
    def slice_words(self) -> int:
        """Words of a VWR visible to one RC (one quarter by default)."""
        return self.vwr_words // self.rcs_per_column

    @property
    def line_words(self) -> int:
        """SPM line width in words: matches the VWR width (Sec. 3.2)."""
        return self.vwr_words

    @property
    def line_bytes(self) -> int:
        return self.line_words * self.word_bytes

    @property
    def spm_lines(self) -> int:
        return self.spm_bytes // self.line_bytes

    @property
    def spm_words(self) -> int:
        return self.spm_bytes // self.word_bytes

    @property
    def vwr_bits(self) -> int:
        return self.vwr_words * self.word_bytes * 8

    @property
    def cycle_s(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.clock_hz


#: The configuration synthesized and evaluated in the paper.
DEFAULT_PARAMS = ArchParams()


@dataclass(frozen=True)
class SocParams:
    """Host SoC parameters (Sec. 4.1): the MUSEIC-like biosignal platform."""

    sram_bytes: int = 192 * 1024
    sram_banks: int = 6
    bus_word_bytes: int = 4
    bus_burst_len: int = 8
    bus_setup_cycles: int = 4
    dma_setup_cycles: int = 24
    clock_hz: float = 80e6

    def __post_init__(self) -> None:
        if self.sram_banks < 1:
            raise ValueError("need at least one SRAM bank")
        if self.sram_bytes % self.sram_banks != 0:
            raise ValueError(
                f"SRAM size ({self.sram_bytes} B) must divide evenly "
                f"across {self.sram_banks} banks"
            )
        if self.bus_burst_len < 1:
            raise ValueError("bus burst length must be at least one beat")

    @property
    def sram_bank_bytes(self) -> int:
        return self.sram_bytes // self.sram_banks

    @property
    def cycle_s(self) -> float:
        return 1.0 / self.clock_hz


DEFAULT_SOC_PARAMS = SocParams()


@dataclass(frozen=True)
class EnergyScaling:
    """How per-component calibration power scales off the paper's geometry.

    The paper's Table 3 measures one synthesized design point; scaling a
    component's anchor power by capacity/width ratios raised to these
    exponents is a documented modeling assumption (CACTI-flavored: storage
    arrays grow sublinearly with capacity, port energy linearly with port
    width), not a measurement. At the default geometry every ratio is
    exactly ``1.0``, so the default :class:`ArchSpec` reproduces the
    calibrated tables bit-identically.
    """

    spm_capacity_exp: float = 0.55   #: SPM power ~ (capacity ratio)^exp
    spm_port_exp: float = 0.45       #: ... x (line-width ratio)^exp
    vwr_bits_exp: float = 1.0        #: VWR power ~ total latch bits (linear)
    control_column_exp: float = 0.7  #: control ~ column count ...
    control_srf_exp: float = 0.3    #: ... x total SRF entries
    datapath_rc_exp: float = 1.0     #: datapath ~ total RC count
    dma_port_exp: float = 0.5        #: DMA ~ SPM wide-port width

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)) or not (0.0 <= value <= 4.0):
                raise ValueError(
                    f"energy-scaling exponent {f.name} must be a float in "
                    f"[0, 4], got {value!r}"
                )


DEFAULT_ENERGY_SCALING = EnergyScaling()


@dataclass(frozen=True)
class ArchSpec:
    """One complete design point: the only way geometry enters the system.

    A frozen, picklable bundle of the array geometry (:class:`ArchParams`),
    the host platform (:class:`SocParams`) and the energy-calibration
    scaling knobs (:class:`EnergyScaling`). Everything that consumes
    geometry — ``Vwr2a``/``BiosignalSoC``/``KernelRunner`` construction,
    the structure table's per-``params`` slots (compiled programs, SPM
    footprints), ``repro.energy`` table calibration, and the
    ``repro.explore`` design-space sweeps — takes a spec (or the
    ``ArchParams`` projection it carries) so two specs can never share
    state they do not agree on.

    ``name`` is a report label only: it is excluded from equality and the
    :attr:`fingerprint`, so renaming a point cannot split caches.
    """

    arch: ArchParams = DEFAULT_PARAMS
    soc: SocParams = DEFAULT_SOC_PARAMS
    energy: EnergyScaling = DEFAULT_ENERGY_SCALING
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.arch, ArchParams):
            raise ValueError(
                f"ArchSpec.arch must be ArchParams, got "
                f"{type(self.arch).__name__}"
            )
        if not isinstance(self.soc, SocParams):
            raise ValueError(
                f"ArchSpec.soc must be SocParams, got "
                f"{type(self.soc).__name__}"
            )
        if not isinstance(self.energy, EnergyScaling):
            raise ValueError(
                f"ArchSpec.energy must be EnergyScaling, got "
                f"{type(self.energy).__name__}"
            )
        if self.arch.clock_hz != self.soc.clock_hz:
            raise ValueError(
                f"array clock ({self.arch.clock_hz:g} Hz) and SoC clock "
                f"({self.soc.clock_hz:g} Hz) must agree: the shared-bus "
                f"cycle accounting assumes one clock domain"
            )

    @cached_property
    def fingerprint(self) -> str:
        """Stable 12-hex-digit digest of every geometry-relevant field.

        Computed over the dataclass field values (not object identities),
        so equal specs built in different processes — or re-built from a
        pickle — fingerprint identically. ``name`` is excluded.
        """
        parts = []
        for bundle in (self.arch, self.soc, self.energy):
            for f in fields(bundle):
                parts.append(f"{f.name}={getattr(bundle, f.name)!r}")
        payload = ";".join(parts).encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    def vary(self, name: str = None, **arch_fields) -> "ArchSpec":
        """A derived spec with some :class:`ArchParams` fields replaced.

        The ``repro.explore`` grids are built from this: geometry
        variations keep the SoC and energy knobs of the base spec.
        Validation reruns, so an inconsistent variation raises here.
        """
        return ArchSpec(
            arch=replace(self.arch, **arch_fields),
            soc=self.soc,
            energy=self.energy,
            name=name if name is not None else self.name,
        )

    def describe(self) -> str:
        """One-line human label for reports: geometry plus fingerprint."""
        a = self.arch
        label = self.name or "spec"
        return (
            f"{label}[{a.n_columns}x{a.rcs_per_column}rc "
            f"{a.n_vwrs}x{a.vwr_bits}b spm{a.spm_bytes // 1024}K "
            f"srf{a.srf_entries} @{a.clock_hz / 1e6:g}MHz "
            f"#{self.fingerprint}]"
        )


#: The design point synthesized and evaluated in the paper.
DEFAULT_SPEC = ArchSpec(name="paper")
