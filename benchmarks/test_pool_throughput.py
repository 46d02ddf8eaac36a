"""Parallel serving throughput: process pool vs one stream scheduler.

Serves the same long respiration trace through the full MBioTracker
``cpu_vwr2a`` pipeline twice:

* **single** — one :class:`~repro.serve.StreamScheduler` on one runner
  (the PR-3 batched flow, already store-once amortized);
* **pooled** — a :class:`~repro.serve.PoolScheduler` with
  :data:`POOL_WORKERS` worker processes, each owning its own simulated
  platform instance, fed by the async feeder thread.

Writes the ``pool_windows_per_s`` entry into ``BENCH_sim_speed.json``
and guards that the pool beats single-process serving by
:data:`MIN_POOL_SPEEDUP` on hosts with at least :data:`POOL_WORKERS`
usable CPUs (the simulation is pure-Python CPU-bound; with fewer cores
the pool cannot win by construction, so the guard skips — the CI bench
job runs on multi-core runners where it is enforced). Bit-identity of
the pooled report is asserted unconditionally, on every host.

Kept tier-1-bounded: ~2x :data:`N_WINDOWS` application windows (~4 s
single-core, less on multi-core).
"""

from __future__ import annotations

import os
import time

import pytest

from bench_io import update_bench
from repro.app import WINDOW, respiration_signal
from repro.serve import PoolScheduler, StreamScheduler, WindowStream

#: Windows in the measured stream — long enough to amortize worker
#: start-up (fork + per-worker cold stores) across several windows each
#: (6 per worker at 4 workers).
N_WINDOWS = 24

#: Worker processes in the measured pool.
POOL_WORKERS = 4

#: Acceptance floor: the pool must beat one scheduler by this much when
#: the host actually has POOL_WORKERS CPUs to run it on.
MIN_POOL_SPEEDUP = 1.5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux hosts
        return os.cpu_count() or 1


def _skip_reason() -> str:
    """Why the speedup guard is not enforced on this host (or None).

    Recorded verbatim in ``BENCH_sim_speed.json`` so a committed
    ``speedup`` below the floor with ``guard_enforced: false`` reads as
    what it is — a host without enough CPUs to run the pool — and not as
    a performance regression.
    """
    cpus = _usable_cpus()
    if cpus >= POOL_WORKERS:
        return None
    return (
        f"host exposes {cpus} usable CPU(s); a {POOL_WORKERS}-worker "
        "pool cannot beat single-process serving of a CPU-bound "
        "simulation by construction (guard enforced on >= "
        f"{POOL_WORKERS}-CPU hosts, e.g. the CI bench job)"
    )


@pytest.fixture(scope="module")
def measurements():
    trace = respiration_signal(N_WINDOWS * WINDOW)
    stream = WindowStream(trace, window=WINDOW)

    # Warm the process-wide structural caches (compile memo, conflict
    # verdicts); forked workers inherit them, so both flows start warm.
    StreamScheduler(config="cpu_vwr2a", energy_model=None).run(
        WindowStream(trace[:WINDOW], window=WINDOW)
    )

    start = time.perf_counter()
    single = StreamScheduler(config="cpu_vwr2a", energy_model=None) \
        .run(stream)
    single_wall = time.perf_counter() - start

    start = time.perf_counter()
    pooled = PoolScheduler(
        config="cpu_vwr2a", workers=POOL_WORKERS, energy_model=None,
    ).run(stream)
    pooled_wall = time.perf_counter() - start

    return {
        "single": single, "single_wall": single_wall,
        "pooled": pooled, "pooled_wall": pooled_wall,
    }


def test_pool_throughput_vs_single_scheduler(measurements):
    single = measurements["single"]
    pooled = measurements["pooled"]

    # Same served inference, window for window, however sharded.
    assert pooled.n_windows == single.n_windows == N_WINDOWS
    assert pooled.labels == single.labels
    assert [w.cycles for w in pooled.windows] \
        == [w.cycles for w in single.windows]
    assert [w.events for w in pooled.windows] \
        == [w.events for w in single.windows]
    assert pooled.engine_counts == single.engine_counts

    single_wall = measurements["single_wall"]
    pooled_wall = measurements["pooled_wall"]
    speedup = single_wall / pooled_wall
    skip_reason = _skip_reason()
    if skip_reason is not None:
        print(f"\npool speedup guard not enforced: {skip_reason}")
    update_bench({
        "pool_windows_per_s": {
            "benchmark": "mbiotracker cpu_vwr2a window stream, "
                         f"{POOL_WORKERS}-worker process pool",
            "metric": "application windows served per wall-clock second",
            "n_windows": N_WINDOWS,
            "workers": POOL_WORKERS,
            "usable_cpus": _usable_cpus(),
            "single_windows_per_s": N_WINDOWS / single_wall,
            "pool_windows_per_s": N_WINDOWS / pooled_wall,
            "single_wall_seconds": single_wall,
            "pool_wall_seconds": pooled_wall,
            "speedup": speedup,
            "min_speedup_required": MIN_POOL_SPEEDUP,
            "guard_enforced": skip_reason is None,
            "skip_reason": skip_reason,
            "simulated_cycles_per_window":
                single.total_cycles // N_WINDOWS,
        },
    })


def test_pool_speedup_guard(measurements):
    """Hard floor: the 4-worker pool must serve >= 1.5x faster."""
    skip_reason = _skip_reason()
    if skip_reason is not None:
        pytest.skip(skip_reason)
    speedup = measurements["single_wall"] / measurements["pooled_wall"]
    assert speedup >= MIN_POOL_SPEEDUP, (
        f"{POOL_WORKERS}-worker pool only {speedup:.2f}x faster than one "
        f"scheduler (need >= {MIN_POOL_SPEEDUP}x); see .bench_out/BENCH_sim_speed.json"
    )
