"""Per-layer counts, spans and host self time, recorded from outside the program.

:class:`LayerTracer` replaces selected public entry points of the
simulator's modules with wrappers for the length of one phase and
restores them afterwards; nothing under ``src/`` changes.  A wrapper
counts the call (and the bytes it moves), and records one span per call
(target, host start, host end, parent span).  Generator entry points
(almost every simulator call) are re-driven by a generator that keeps
a stack of the spans being resumed; the kernel resumes a process
through its whole ``yield from`` chain, so the top of that stack is the
parent of any span opened inside, even though processes interleave.

:class:`LayerSampler` measures where host time goes.  Timing every
resume in the wrappers would charge the wrappers' own cost (counting,
span bookkeeping, the extra generator hop per level, ``StopIteration``
on every return) to the layers, most of all to the deep remote page
path.  The sampler instead interrupts the process at a fixed period of
CPU time and charges the sample to the layer of the module whose code
is running: a layer's self time is its share of samples times the
stretch's host seconds.  Samples in the tracer's own code (this file
and the hooks ``run.py`` passes to it) are the ``trace`` bucket;
samples in ``sim.kernel`` or in no layer's module (the benchmark's
drivers, helpers, the standard library) are ``kernel``.

Neither schedules events nor reads a virtual clock, so a traced phase
must reproduce the untraced one bit for bit; ``run.py`` checks that it
does.
"""

from __future__ import annotations

import contextlib
import dis
import functools
import inspect
import os
import signal
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["LayerSampler", "LayerTracer", "Target", "MAX_SPANS", "SAMPLE_PERIOD_S"]

#: Spans kept in memory per phase; later calls are still counted
#: (``spans_total``) but not recorded.
MAX_SPANS = 1_000_000

#: CPU seconds between two samples.
SAMPLE_PERIOD_S = 0.001


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``owner.attr`` charged to ``layer``.

    ``owner`` is a class or a module.  ``size(args, kwargs)`` returns
    the bytes a call moves; ``on_return(args, kwargs, result)`` returns
    a number to accumulate from the call's result.
    """

    layer: str
    owner: Any
    attr: str
    size: Optional[Callable[[tuple, dict], int]] = None
    on_return: Optional[Callable[[tuple, dict, Any], float]] = None

    @property
    def label(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attr}"


class LayerTracer:
    """Wraps :class:`Target` entry points; counts calls, records spans."""

    def __init__(self, targets: list[Target]):
        self.targets = list(targets)
        self._originals: list[tuple[Any, str, Any]] = []
        #: Spans being resumed, innermost last.
        self._stack: list[int] = []
        self.reset()

    # -- accumulators ------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter and drop recorded spans.

        Lists are cleared in place: generators resumed across a reset
        keep references to them.
        """
        n = len(self.targets)
        if not hasattr(self, "calls"):
            self.calls: list[int] = []
            self.bytes: list[int] = []
            self.returned: list[float] = []
            self.span_target = array("i")
            self.span_parent = array("i")
            self.span_start = array("d")
            self.span_end = array("d")
        self.calls[:] = [0] * n
        self.bytes[:] = [0] * n
        self.returned[:] = [0.0] * n
        for spans in (self.span_target, self.span_parent, self.span_start, self.span_end):
            del spans[:]
        self.spans_total = 0

    @contextlib.contextmanager
    def suspended(self):
        """Leave the counters as they were before the block
        (spans recorded inside it are kept)."""
        saved = (list(self.calls), list(self.bytes), list(self.returned), self.spans_total)
        try:
            yield
        finally:
            self.calls[:], self.bytes[:], self.returned[:] = saved[:3]
            self.spans_total = saved[3]

    def count(self, label: str) -> int:
        """Calls of the target named ``Owner.attr``."""
        return sum(c for t, c in zip(self.targets, self.calls) if t.label == label)

    def layer_calls(self, layer: str) -> int:
        return sum(c for t, c in zip(self.targets, self.calls) if t.layer == layer)

    def bytes_of(self, label: str) -> int:
        return sum(b for t, b in zip(self.targets, self.bytes) if t.label == label)

    def returned_of(self, label: str) -> float:
        return sum(r for t, r in zip(self.targets, self.returned) if t.label == label)

    def write_spans(self, path) -> None:
        """Write recorded spans as a compressed NumPy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            target=np.frombuffer(self.span_target, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            labels=np.array([f"{t.layer}:{t.label}" for t in self.targets]),
        )

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for index, target in enumerate(self.targets):
            original = target.owner.__dict__[target.attr]
            # Operators' ``run`` is a plain function returning the
            # generator (see ``repro.engine.operators._traced_run``).
            if inspect.isgeneratorfunction(inspect.unwrap(original)):
                wrapped = self._wrap_generator(original, index, target)
            else:
                wrapped = self._wrap_plain(original, index, target)
            self._originals.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ------------------------------------------------------------

    def _count(self, index: int, target: Target, args, kwargs) -> None:
        self.calls[index] += 1
        if target.size is not None:
            self.bytes[index] += target.size(args, kwargs)

    def _open(self, index: int) -> int:
        """Open a span under the innermost resumed one; its index, or -1
        once ``MAX_SPANS`` are recorded."""
        self.spans_total += 1
        if len(self.span_start) >= MAX_SPANS:
            return -1
        stack = self._stack
        self.span_target.append(index)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(-1.0)
        return len(self.span_start) - 1

    def _close(self, span: int) -> None:
        if span >= 0:
            self.span_end[span] = time.perf_counter()

    def _wrap_plain(self, fn, index: int, target: Target):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count(index, target, args, kwargs)
            span = tracer._open(index)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer._close(span)
            if target.on_return is not None:
                tracer.returned[index] += target.on_return(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, index: int, target: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count(index, target, args, kwargs)
            inner = fn(*args, **kwargs)
            outer = tracer._drive(inner, index, target, args, kwargs)
            outer.__name__ = inner.__name__  # keeps kernel process names
            return outer

        return wrapper

    def _drive(self, gen, index: int, target: Target, args, kwargs):
        """Re-yield ``gen`` (PEP 380 semantics) with its span on the stack
        while it runs."""
        stack = self._stack
        span = self._open(index)
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            stack.append(span)
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    out = gen.throw(error)
            except StopIteration as stop:
                self._close(span)
                if target.on_return is not None:
                    self.returned[index] += target.on_return(args, kwargs, stop.value)
                return stop.value
            except BaseException:
                self._close(span)
                raise
            finally:
                stack.pop()
            error = None
            value = None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered to the inner generator
                error = exc


class LayerSampler:
    """Statistical host self time by layer, from the running module.

    ``modules`` maps a layer to the module or package it owns
    (``"repro.net.rdma"``, ``"repro.tiers"``); ``trace_files`` are the
    source files of the tracer's hooks besides this one.  While the
    sampler is active (``with sampler:``, once per measured stretch), a
    ``SIGPROF`` timer interrupts every ``SAMPLE_PERIOD_S`` of CPU time
    (or the kernel's tick, if longer) and counts the source file of the
    interrupted frame.  A file belongs to the layer owning its module;
    the tracer's files belong to ``trace``, any other file to
    ``kernel``.
    """

    def __init__(self, modules: dict[str, str], trace_files: tuple[str, ...] = ()):
        self._paths = [(module.replace(".", "/"), layer) for layer, module in modules.items()]
        #: Samples per source file.
        self.files: dict[str, int] = {}
        #: Code object -> offsets of its RESUME instructions.
        self._resumes: dict[Any, frozenset] = {}
        self._trace_files = {os.path.realpath(f) for f in (__file__, *trace_files)}
        self._previous = None

    def layer_of(self, filename: str) -> str:
        if os.path.realpath(filename) in self._trace_files:
            return "trace"
        path = filename.replace("\\", "/")
        for module, layer in self._paths:
            if f"/{module}/" in path or path.endswith(f"/{module}.py"):
                return layer
        return "kernel"

    def _on_sample(self, signum, frame) -> None:
        if frame is None:
            return
        # The interpreter runs the handler at its next check point, and
        # entering or resuming a frame is one: a frame stopped at its
        # ``RESUME`` has not run yet, the time went to its caller.
        code = frame.f_code
        resumes = self._resumes.get(code)
        if resumes is None:
            resumes = self._resumes[code] = frozenset(
                i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"
            )
        if frame.f_lasti in resumes and frame.f_back is not None:
            code = frame.f_back.f_code
        self.files[code.co_filename] = self.files.get(code.co_filename, 0) + 1

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def reset(self) -> None:
        self.files.clear()

    @property
    def total(self) -> int:
        return sum(self.files.values())

    def layer_samples(self) -> dict[str, int]:
        samples: dict[str, int] = {}
        for filename, k in self.files.items():
            layer = self.layer_of(filename)
            samples[layer] = samples.get(layer, 0) + k
        return samples

    def self_s(self, total_s: float) -> dict[str, float]:
        """Each layer's share of the samples, times ``total_s``."""
        n = self.total
        return {
            layer: total_s * k / n for layer, k in self.layer_samples().items()
        } if n else {}
