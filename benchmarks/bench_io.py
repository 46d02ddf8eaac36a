"""Deterministic maintenance of the ``BENCH_sim_speed.json`` snapshot.

All speed benchmarks merge their entries into one regenerated JSON file,
``.bench_out/BENCH_sim_speed.json`` (untracked), through
:func:`update_bench`. The committed baseline ``BENCH_sim_speed.json`` at
the repo root is never written by a test run: it moves only by a
deliberate copy of the regenerated file over it, and
``benchmarks/bench_trend.py`` compares the two. The output is
canonicalized — keys sorted, floats clamped to :data:`FLOAT_DIGITS`
significant digits — so snapshots and CI build artifacts diff stably: a
re-run changes only the measurements that actually moved, never the
formatting.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Regenerated snapshot every benchmark run merges into.
BENCH_PATH = (
    Path(__file__).resolve().parent.parent / ".bench_out"
    / "BENCH_sim_speed.json"
)

#: Significant digits kept for floats — far more than timing noise
#: resolves, few enough that the JSON stays readable and diffable.
FLOAT_DIGITS = 6


def canonical(value):
    """Recursively normalize a payload for deterministic serialization."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def update_bench(update: dict) -> None:
    """Merge ``update`` into the regenerated snapshot (test-order
    agnostic)."""
    payload = {}
    if BENCH_PATH.exists():
        try:
            payload = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            payload = {}
    payload.update(update)
    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(
        json.dumps(canonical(payload), indent=2, sort_keys=True) + "\n"
    )
