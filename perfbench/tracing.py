"""Span tracing from outside the program.

The benchmark wraps the public functions of regg at the module names the
program calls them by (``regg.cli.*``, ``regg.law.*``, ...) and at
``numpy.linalg.eigh``/``eigvalsh``.  Each call becomes a span with a name,
start, end and parent and, in operations traced for memory, the spans
with a peak metric get their ``tracemalloc`` peak.  Spans stay in memory until the worker writes them
out.  No file of the program is modified: the wrappers are installed for
one traced operation and removed after it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import tracemalloc
from dataclasses import dataclass, field

MB = 1e6


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    memory: bool
    end: float = 0.0
    peak_bytes: int = 0
    attrs: dict = field(default_factory=dict)
    count_error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    """A span being recorded: its tracemalloc baseline and highest peak,
    and whether it started tracemalloc."""

    def __init__(self, index: int, base: int, owns_tracing: bool):
        self.index, self.base, self.peak = index, base, base
        self.owns_tracing = owns_tracing


def _traced_memory() -> tuple[int, int]:
    return tracemalloc.get_traced_memory() if tracemalloc.is_tracing() else (0, 0)


class Recorder:
    """Records spans of the operation in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[_Frame] = []
        self._op = -1
        self._memory = False

    @contextlib.contextmanager
    def operation(self, op: int, memory: bool):
        """Trace one operation.  With `memory`, tracemalloc runs inside the
        spans that report a peak.  It slows allocation-heavy Python several
        times over, so span times come from operations without it."""
        self._op, self._memory = op, memory
        try:
            yield
        finally:
            self._stack.clear()
            tracemalloc.stop()

    def _open(self, name: str, peak: bool) -> _Frame:
        owns = self._memory and peak and not tracemalloc.is_tracing()
        if owns:
            tracemalloc.start()
        current, high = _traced_memory()
        if self._stack:
            top = self._stack[-1]
            top.peak = max(top.peak, high)
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        parent = self._stack[-1].index if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._op,
                               memory=self._memory))
        frame = _Frame(len(self.spans) - 1, current, owns)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> Span:
        span = self.spans[frame.index]
        span.end = time.perf_counter()
        frame.peak = max(frame.peak, _traced_memory()[1])
        span.peak_bytes = frame.peak - frame.base
        if frame.owns_tracing:
            tracemalloc.stop()
        self._stack.pop()
        if self._stack:
            self._stack[-1].peak = max(self._stack[-1].peak, frame.peak)
        return span

    def wrap(self, fn, name, attrs=None, peak=False):
        """`fn` recording a span per call.  `name` may be a function of the
        call's arguments; `attrs(args, kwargs, result)` adds counts; `peak`
        marks a span whose tracemalloc peak is reported."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name(args, kwargs) if callable(name) else name, peak)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(frame)
            if attrs is not None:
                try:
                    span.attrs.update(attrs(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, OSError, TypeError) as exc:
                    # The program changed what this count reads; the span
                    # stays, the count reads as missing.
                    span.count_error = repr(exc)
            return result

        return traced


# ---------------------------------------------------------------------------
# What is wrapped, and the counts taken at each boundary.

def _edgelist_bytes(args, kwargs, text):
    return {"bytes": len(text.encode())}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _grid_bytes(args, kwargs, result):
    """Bytes of the dense arrays the grid evaluation materialises, computed
    from shapes: eigenvector squares (N x N, real), weights (nz x N,
    complex), gathered pair rows and their product (3 x P x N, real) and
    the diagonal and off-diagonal outputs ((N + P) x nz, complex)."""
    view, plan = args[0], args[6]
    n = view.n
    p = len(view._pair_sample[0])
    nz = len(plan.e_grid) * len(plan.eta_grid)
    return {"bytes_computed": 8 * n * n + 16 * nz * n + 24 * p * n
            + 16 * (n + p) * nz}


def _switched(args, kwargs, outcome):
    return {"switched": sum(outcome.switched), "pivot_edges": len(outcome.switched)}


def _total_inputs(args, kwargs, report):
    return {"inputs": report.total_inputs}


def _uniform_method(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "auto")
    return f"graphs.sample_uniform.{'chain' if method == 'switching-chain' else method}"


def targets(regg):
    """(owner, attribute, span name, counts) for every traced boundary."""
    import numpy

    cli, law = regg.cli, regg.law
    return [
        (cli, "main", "cli.main", None),
        (cli, "sample_model", "graphs.sample_model", None),
        (cli, "to_edgelist", "graphs.to_edgelist", _edgelist_bytes),
        (cli, "build_H", "spectral.build_H", None),
        (cli, "density_mass", "observables.density_mass", None),
        (cli, "line_plot", "svg.line_plot", None),
        (getattr(cli, "RunManifest", None), "save", "manifest.save", None),
        (law, "law_sweep", "law.law_sweep", None),
        (law, "sample_model", "graphs.sample_model", None),
        (law, "build_H", "spectral.build_H", None),
        (law, "records_for_view", "law.records_for_view", _grid_bytes),
        (law, "fit_envelope_constant", "law.fit_envelope_constant", None),
        (law, "write_table", "law.write_table", _file_bytes),
        (numpy.linalg, "eigh", "spectral.eigh", None),
        (numpy.linalg, "eigvalsh", "spectral.eigvalsh", None),
        (regg.graphs, "sample_uniform", _uniform_method, None),
        (regg.switchings, "um_resample", "switchings.um_resample", _switched),
        (regg.invariance, "mm_exact_invariance", "invariance.exact", _total_inputs),
        (regg.invariance, "um_exact_invariance", "invariance.exact", _total_inputs),
        (regg.invariance, "pm_exact_uniformity", "invariance.exact", _total_inputs),
    ]


@contextlib.contextmanager
def installed(recorder: Recorder, regg):
    """Replace each target by its traced wrapper; restore on exit.  A target
    the program no longer has is skipped, and its layer reads as absent."""
    with_peak = {span for span, stat, _ in LAYER_METRICS.values() if stat == "peak_mb"}
    saved = []
    try:
        for owner, attr, name, attrs in targets(regg):
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, recorder.wrap(fn, name, attrs, name in with_peak))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics: name -> (span name, statistic, unit)

LAYER_METRICS = {
    "graphs.sample_model.s": ("graphs.sample_model", "self_s", "s"),
    "graphs.sample_model.peak_mb": ("graphs.sample_model", "peak_mb", "MB"),
    "graphs.to_edgelist.s": ("graphs.to_edgelist", "self_s", "s"),
    "graphs.to_edgelist.bytes": ("graphs.to_edgelist", "bytes", "bytes"),
    "graphs.sample_uniform.chain.s": ("graphs.sample_uniform.chain", "self_s", "s"),
    "graphs.sample_uniform.rejection.s":
        ("graphs.sample_uniform.rejection", "self_s", "s"),
    "graphs.sample_uniform.rejection.calls":
        ("graphs.sample_uniform.rejection", "calls", "count"),
    "switchings.um_resample.s": ("switchings.um_resample", "self_s", "s"),
    "switchings.um_resample.peak_mb": ("switchings.um_resample", "peak_mb", "MB"),
    "switchings.um_resample.switched_frac":
        ("switchings.um_resample", "switched_frac", "ratio"),
    "invariance.exact.s": ("invariance.exact", "self_s", "s"),
    "invariance.exact.inputs": ("invariance.exact", "inputs", "count"),
    "spectral.build_H.s": ("spectral.build_H", "self_s", "s"),
    "spectral.build_H.peak_mb": ("spectral.build_H", "peak_mb", "MB"),
    "spectral.eigh.s": ("spectral.eigh", "self_s", "s"),
    "spectral.eigvalsh.s": ("spectral.eigvalsh", "self_s", "s"),
    "law.records_for_view.s": ("law.records_for_view", "self_s", "s"),
    "law.records_for_view.peak_mb": ("law.records_for_view", "peak_mb", "MB"),
    "law.records_for_view.bytes_computed":
        ("law.records_for_view", "bytes_computed", "bytes"),
    "law.fit_envelope_constant.s": ("law.fit_envelope_constant", "self_s", "s"),
    "law.write_table.s": ("law.write_table", "self_s", "s"),
    "law.write_table.bytes": ("law.write_table", "bytes", "bytes"),
    "observables.density_mass.s": ("observables.density_mass", "self_s", "s"),
    "observables.density_mass.calls": ("observables.density_mass", "calls", "count"),
    "manifest.save.s": ("manifest.save", "self_s", "s"),
    "svg.line_plot.s": ("svg.line_plot", "self_s", "s"),
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children;
    `parent` indexes the same list."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def op_layers(spans: list[Span], own: list[float], op: int) -> dict:
    """Per span name within operation `op`: calls, self seconds, highest
    peak and summed counts."""
    out: dict[str, dict] = {}
    for span, t in zip(spans, own):
        if span.op != op:
            continue
        rec = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "peak_mb": 0.0})
        rec["calls"] += 1
        rec["self_s"] += t
        rec["peak_mb"] = max(rec["peak_mb"], span.peak_bytes / MB)
        for key, value in span.attrs.items():
            rec[key] = rec.get(key, 0) + value
    return out
