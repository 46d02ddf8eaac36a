"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each ``repro`` layer by
patching class or module attributes for the duration of a run and
restoring them afterwards; nothing under ``src/`` changes. A function
imported by name into several modules (``run_fir`` into the app,
``compile_program`` into the executor, ...) is patched everywhere the
same object is bound, so every call site records.

Spans live in memory as ``(name, start, end, parent, window)`` tuples
(``perf_counter`` seconds, parent span index or -1, window index or
``None``) and are written out once the run ends: as a Chrome
trace-event file and as a per-layer self-time table whose rows sum to
the traced wall time. A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

#: Span names grouped into the per-layer metrics (prefix -> layer).
#: ``engine.launch`` self time is the execute time: launch minus the
#: compile and analysis spans nested in it.
LAYER_OF = {
    "kernels": "kernels.build",
    "core.store": "core.store",
    "engine.launch": "engine.execute",
    "engine.compile": "engine.compile",
    "engine.analysis": "engine.analysis",
    "soc.stage": "soc.stage",
    "energy.fold": "energy.fold",
    "app.pipeline": "app.host",
    "serve": "serve.scheduler",
    "net.send": "net.codec",
    "net.encode": "net.codec",
    "net.decode": "net.codec",
}


def layer_of(name: str) -> str:
    """The per-layer bucket a span name's self time belongs to."""
    if name in LAYER_OF:
        return LAYER_OF[name]
    head = name.split(".", 1)[0]
    if head in LAYER_OF:
        return LAYER_OF[head]
    return name


class Patcher:
    """Patches class and module attributes and puts them back.

    Subclasses patch in ``install()``; ``restore()`` undoes every patch
    in reverse order. As a context manager it installs on entry and
    restores on exit.
    """

    def __init__(self) -> None:
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self):
        return self

    def patch_method(self, owner, attr, wrapper_of) -> None:
        """Patch ``owner.attr`` (a class or a module) only."""
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper_of(original))
        self._patches.append((owner, attr, original))

    def patch_function(self, module_name, attr, wrapper_of) -> None:
        """Patch ``module.attr`` and every ``repro`` module binding it."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapped = wrapper_of(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if mod is not None and mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapped)
                self._patches.append((mod, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Tracer(Patcher):
    """In-memory span recorder with attribute patching.

    ``install()`` patches every entry point of :func:`entry_points`;
    ``restore()`` puts the originals back.
    """

    def __init__(self) -> None:
        super().__init__()
        self.spans = []
        #: ``(span index, counter, amount)``: counts recorded at a span
        #: boundary, so they can be scoped like the span's time.
        self.marks = []
        self.stack = []
        self.window = None
        #: Entry points of the benchmark's own code to trace as well.
        self.extra = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, count=None, window=None):
        """``fn`` recording a ``name`` span per call.

        ``count(args, kwargs, result)`` returns ``(counter, amount)``
        pairs to record against the span; ``window(args)`` returns the
        window index the call serves (spans nested in it carry that
        index).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            outer_window = tracer.window
            if window is not None:
                tracer.window = window(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.window)
                tracer.window = outer_window
            if count is not None:
                for key, amount in count(args, kwargs, result):
                    tracer.marks.append((index, key, amount))
            return result

        return traced

    def count_calls(self, key, fn):
        """``fn`` counting its calls under ``key`` against the open span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = tracer.stack
            tracer.marks.append((stack[-1] if stack else -1, key, 1))
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        for kind, where, attr, build in entry_points(self) + self.extra:
            if kind == "method":
                self.patch_method(where, attr, build)
            else:
                self.patch_function(where, attr, build)
        return self

    # -- export ------------------------------------------------------------

    def finished(self) -> list:
        """The recorded spans, once every traced call has returned."""
        if self.stack:
            raise RuntimeError("spans read while a traced call is open")
        return list(self.spans)


def entry_points(tracer: Tracer):
    """``(kind, owner, attr, wrapper_of)`` for every traced entry point."""
    from repro.energy.model import EnergyModel
    from repro.isa.program import KernelConfig
    from repro.kernels.fft import FftEngine
    from repro.kernels.fft2048 import SplitFftEngine
    from repro.kernels.rfft import RfftEngine
    from repro.kernels.runner import KernelRunner
    from repro.serve.net.framing import FrameBuffer
    from repro.serve.net.server import FleetServer
    from repro.serve.pool import AttemptServer
    from repro.serve.scheduler import StreamScheduler
    from repro.app.mbiotracker import WindowPipeline

    wrap = tracer.wrap

    def span(name, **hooks):
        return lambda fn: wrap(name, fn, **hooks)

    def staged_in(args, kwargs, result):
        return (("staged_words", len(args[1])),)

    def staged_out(args, kwargs, result):
        return (("staged_words", len(result[0])),)

    def frame_out(args, kwargs, result):
        return (("frames_out", 1), ("bytes_out", len(result)))

    def frame_in(args, kwargs, result):
        return (("frames_in", 1),) if result is not None else ()

    def bytes_in(args, kwargs, result):
        return (("bytes_in", len(args[1])),)

    def fold(args, kwargs, result):
        return (("folds", 1),)

    points = [
        ("method", StreamScheduler, "run", span("serve.run")),
        ("method", StreamScheduler, "serve_window", span(
            "serve.window", window=lambda args: args[1].index)),
        ("method", AttemptServer, "__init__", span("serve.worker_setup")),
        ("method", AttemptServer, "serve", span("serve.attempt")),
        ("method", FleetServer, "run", span("net.serve")),
        ("method", WindowPipeline, "__call__", span("app.pipeline")),
        ("method", KernelRunner, "__init__", span("soc.build")),
        ("method", KernelRunner, "store", span("core.store")),
        ("method", KernelRunner, "launch", span("engine.launch")),
        ("method", KernelRunner, "stage_in", span(
            "soc.stage", count=staged_in)),
        ("method", KernelRunner, "stage_out", span(
            "soc.stage", count=staged_out)),
        ("method", EnergyModel, "fold_histogram", span(
            "energy.fold", count=fold)),
        ("function", "repro.serve.report", "app_energy_uj", span(
            "energy.fold", count=fold)),
        ("function", "repro.energy.tables", "table_for",
         span("energy.calibrate")),
        ("function", "repro.engine.compiler", "compile_program",
         span("engine.compile")),
        ("function", "repro.engine.conflicts", "analyze_columns",
         span("engine.analysis")),
        ("function", "repro.serve.net.framing", "send_frame",
         span("net.send")),
        ("function", "repro.serve.net.framing", "encode_frame",
         span("net.encode", count=frame_out)),
        ("function", "repro.serve.net.framing", "read_frame",
         span("net.recv")),
        ("method", FrameBuffer, "pop", span("net.decode", count=frame_in)),
        ("method", FrameBuffer, "feed", span(
            "net.decode", count=bytes_in)),
        ("method", KernelConfig, "__init__",
         lambda fn: tracer.count_calls("configs", fn)),
    ]
    for module, attr in (
        ("repro.kernels.fir", "run_fir"),
        ("repro.kernels.delineation", "run_delineation"),
        ("repro.kernels.features", "run_intervals"),
        ("repro.kernels.features", "run_accumulate"),
        ("repro.kernels.vector", "scalar_kernel"),
        ("repro.kernels.vector", "elementwise_kernel"),
    ):
        points.append(("function", module, attr, span(f"kernels.{attr}")))
    for cls in (RfftEngine, FftEngine, SplitFftEngine):
        for attr in ("__init__", "prepare", "run"):
            points.append(("method", cls, attr, span(
                f"kernels.{cls.__name__}.{attr.strip('_')}")))
    return points


def self_times(spans) -> list:
    """Per-span self time: duration minus the union of child spans.

    Children of one parent never overlap (the tracer records a call
    stack), so the union is a plain sum.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [
        (end - start) - child[i]
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def inside_roots(spans, roots) -> list:
    """Per span: ``None`` outside the ``roots`` spans, else ``True`` for
    an outermost root and ``False`` for a span nested under one."""
    inside = [None] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0 and inside[parent] is not None:
            inside[i] = False
        elif name in roots:
            inside[i] = True
    return inside


def layer_table(spans, roots=("bench.pass",)):
    """Self and inclusive time per span name under the ``roots`` spans.

    Returns ``(rows, wall)``: ``rows`` maps span name to ``(self_s,
    inclusive_s, calls)`` and ``wall`` is the summed duration of the
    outermost root spans. The self times of all spans under a root add
    up to the root's duration, so the self column sums to ``wall``.
    """
    selfs = self_times(spans)
    inside = inside_roots(spans, roots)
    wall = 0.0
    rows = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        if inside[i] is None:
            continue
        if inside[i]:
            wall += end - start
        self_s, inclusive, calls = rows.get(name, (0.0, 0.0, 0))
        rows[name] = (self_s + selfs[i], inclusive + end - start, calls + 1)
    return rows, wall


def count_marks(spans, marks, roots=("bench.pass",)) -> Counter:
    """Counters recorded inside the ``roots`` spans."""
    inside = inside_roots(spans, roots)
    counts = Counter()
    for index, key, amount in marks:
        if index >= 0 and inside[index] is not None:
            counts[key] += amount
    return counts


def format_table(title: str, rows: dict, wall: float, windows: int) -> str:
    """The self-time table of :func:`layer_table`, largest share first."""
    lines = [
        f"{title}: traced wall {wall * 1e3:.1f} ms over {windows} windows",
        f"  {'span':<34} {'calls':>8} {'self ms':>10} "
        f"{'ms/window':>10} {'share':>7}",
    ]
    total = 0.0
    for name, (self_s, _, calls) in sorted(
            rows.items(), key=lambda item: -item[1][0]):
        total += self_s
        lines.append(
            f"  {name:<34} {calls:>8} {self_s * 1e3:>10.2f} "
            f"{self_s * 1e3 / max(windows, 1):>10.3f} "
            f"{100 * self_s / wall if wall else 0.0:>6.2f}%"
        )
    lines.append(
        f"  {'sum of self times':<34} {'':>8} {total * 1e3:>10.2f} "
        f"{total * 1e3 / max(windows, 1):>10.3f} "
        f"{100 * total / wall if wall else 0.0:>6.2f}%"
    )
    return "\n".join(lines)


def chrome_events(spans, pid: int, label: str) -> list:
    """Chrome trace-event ``X`` events (microseconds) for ``spans``."""
    events = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
        "args": {"name": label},
    }]
    for i, (name, start, end, parent, window) in enumerate(spans):
        events.append({
            "name": name,
            "cat": layer_of(name),
            "ph": "X",
            "ts": round(start * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": pid,
            "tid": 1,
            "args": {"span": i, "parent": parent, "window": window},
        })
    return events


def write_chrome_trace(path, events) -> None:
    """Write ``events`` as a Chrome trace-event JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
