"""Precompiled micro-op execution engine for the VWR2A simulator.

``compile once at load_kernel, execute many`` — see docs/engine.md for the
design. Select per instance via ``Vwr2a(engine="auto"|"reference")``.
``auto`` (the default) runs the compile-time cross-column SPM analysis
(:mod:`repro.engine.conflicts`) and routes each launch to the compiled
fast path when proven conflict-free, or to the reference interpreter when
columns communicate through the SPM mid-kernel.
"""

from repro.engine.compiler import CompiledProgram, compile_program
from repro.engine.conflicts import (
    ColumnFootprint,
    ConflictReport,
    SpmConflict,
    analyze_columns,
    column_footprint,
)
from repro.engine.deltas import bundle_event_delta
from repro.engine.executor import (
    BoundColumn,
    CompiledEngine,
    ReferenceEngine,
)

__all__ = [
    "BoundColumn",
    "ColumnFootprint",
    "CompiledEngine",
    "CompiledProgram",
    "ConflictReport",
    "ReferenceEngine",
    "SpmConflict",
    "analyze_columns",
    "bundle_event_delta",
    "column_footprint",
    "compile_program",
]
