"""Span recorder for traced runs of the end-to-end benchmark.

``run.py --trace`` puts this directory on ``PYTHONPATH`` together with
``E2E_TRACE_DIR``; an untraced run does neither, so nothing here is
loaded.  Campaign workers inherit both through the supervisor's
``worker_environment()``.

At interpreter start this module opens a ``process`` span and installs
an import hook.  When a module named in :data:`TARGETS` is first
imported, the hook wraps the listed functions, so each call records a
span: name, start, end, parent, thread, and a count (references or
timeline rows) where one applies.  A traced process
therefore imports nothing an untraced one would not.  Spans stay in
memory and are written to ``E2E_TRACE_DIR/spans-<pid>.json`` at exit.
Only the standard library is used, and no file under ``src/`` changes.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import json
import os
import sys
import threading
import time

TRACE_DIR_ENV = "E2E_TRACE_DIR"


class Recorder:
    """In-memory spans of one process.

    A span is ``[name, start, end, parent, thread, count, ok]``; times
    are ``time.perf_counter()`` seconds (CLOCK_MONOTONIC, comparable
    across processes), ``parent`` indexes this process's list (-1 for a
    thread's outermost span).
    """

    def __init__(self) -> None:
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append(
            [name, time.perf_counter(), None, parent, threading.get_ident(), None, None]
        )
        stack.append(index)
        return index

    def close(self, index: int, count=None, ok=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = count
        span[6] = ok
        self._stack().pop()

    def dump(self, directory: str, span_cost_s: float, exit_s: float) -> None:
        payload = {
            "pid": os.getpid(),
            "ppid": os.getppid(),
            "span_cost_s": span_cost_s,
            "exit_s": exit_s,
            "spans": self.spans,
        }
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)


# -- what each span counts --------------------------------------------------


def _trace_arg(args, kwargs, result):
    """References in the ``trace`` argument of a simulator method."""
    return len(kwargs["trace"] if "trace" in kwargs else args[1])


def _traces_arg(args, kwargs, result):
    return sum(len(t) for t in (kwargs["traces"] if "traces" in kwargs else args[1]))


def _interleaved_arg(args, kwargs, result):
    stream = kwargs["interleaved"] if "interleaved" in kwargs else args[1]
    # A lazy stream (the usual case, via run_traces) is counted there.
    return len(stream) if hasattr(stream, "__len__") else None


def _result_len(args, kwargs, result):
    return len(result)


def _guard_trace(args, kwargs, result):
    return len(kwargs["trace"] if "trace" in kwargs else args[2])


def _kernel_blocks(args, kwargs, result):
    return len(args[1])


def _row_written(args, kwargs, result):
    return 0 if result is None else 1


#: module -> [(attribute path, span name, count function)].  The
#: experiments (every ``repro.experiments.<x>.run``) are added by
#: :func:`_targets_for`.
TARGETS = {
    "repro.apps.lu.trace": [
        ("LUTraceGenerator.trace_for_processor", "apps.generate", _result_len),
    ],
    "repro.apps.lu.cholesky_trace": [
        ("CholeskyTraceGenerator.trace_for_processor", "apps.generate", _result_len),
    ],
    "repro.apps.cg.trace": [
        ("CGTraceGenerator.trace_for_processor", "apps.generate", _result_len),
    ],
    "repro.apps.fft.trace": [
        ("FFTTraceGenerator.trace_for_processor", "apps.generate", _result_len),
    ],
    "repro.apps.volrend.trace": [
        ("VolrendTraceGenerator.trace_for_processor", "apps.generate", _result_len),
    ],
    "repro.apps.barnes_hut.trace": [
        ("BarnesHutTraceGenerator.trace_for_processor", "apps.generate", _result_len),
        ("BarnesHutTraceGenerator.build_trace_for_processor", "apps.generate", _result_len),
        ("BarnesHutTraceGenerator.moments_trace_for_processor", "apps.generate", _result_len),
    ],
    "repro.mem.stack_distance": [
        ("StackDistanceProfiler.profile", "mem.stackdist", _trace_arg),
        ("StackDistanceRun.feed", "mem.stackdist", _trace_arg),
    ],
    "repro.mem.cache": [
        ("FullyAssociativeCache.run", "mem.fullassoc", _trace_arg),
    ],
    "repro.mem.setassoc": [
        ("SetAssociativeCache.run", "mem.setassoc", _trace_arg),
    ],
    "repro.mem.hierarchy": [
        ("CacheHierarchy.run", "mem.hierarchy", _trace_arg),
    ],
    "repro.mem.multiproc": [
        ("MultiprocessorMemory.run", "mem.multiproc", _interleaved_arg),
        ("MultiprocessorMemory.run_traces", "mem.multiproc", _traces_arg),
    ],
    "repro.mem.kernels": [
        ("guard_run", "mem.kernels.guard", _guard_trace),
        ("KERNELS", "mem.kernels.math", _kernel_blocks),
    ],
    "repro.core.curves": [
        ("MissRateCurve.from_profile", "core.curves", None),
        ("MissRateCurve.from_model", "core.curves", None),
        ("MissRateCurve.knees", "core.curves", None),
    ],
    "repro.runtime.workers": [
        ("WorkerSupervisor.run_attempt", "runtime.attempt", None),
    ],
    "repro.runtime.journal": [
        ("Journal.append", "runtime.journal", None),
    ],
    "repro.runtime.checkpoint": [
        ("CheckpointStore.save_outcome", "runtime.checkpoint", None),
        ("CheckpointStore.save_failure", "runtime.checkpoint", None),
        ("CheckpointStore.write_manifest", "runtime.checkpoint", None),
        ("CheckpointStore.write_summary", "runtime.checkpoint", None),
    ],
    "repro.runtime.events": [
        ("EventLog.emit", "runtime.events", None),
    ],
    "repro.obs.timeline": [
        ("TimelineRecorder.record", "obs.timeline", _row_written),
    ],
}

#: ``repro.experiments`` modules that are not experiments.
_NOT_EXPERIMENTS = {"__main__", "runner"}


def _targets_for(name: str):
    if name in TARGETS:
        return TARGETS[name]
    package, _, leaf = name.rpartition(".")
    if package == "repro.experiments" and leaf not in _NOT_EXPERIMENTS:
        return [("run", "experiments." + leaf, None)]
    return None


# -- wrapping ---------------------------------------------------------------


def _wrap(recorder: Recorder, fn, name: str, count):
    experiment = name.startswith("experiments.")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        result = None
        ok = None
        try:
            result = fn(*args, **kwargs)
            ok = result is True
            return result
        finally:
            n = None
            if count is not None:
                try:
                    n = count(args, kwargs, result)
                except (TypeError, IndexError, KeyError):
                    n = None
            if experiment and result is not None:
                # Name the span by the result's id ("fig2"), not the
                # module ("fig2_lu"), so it matches the campaign's ids.
                recorder.spans[index][0] = "experiments." + str(
                    getattr(result, "experiment_id", name[len("experiments."):])
                )
            recorder.close(index, count=n, ok=ok)

    return wrapper


def _patch(recorder: Recorder, module, targets) -> None:
    for path, name, count in targets:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if path == "KERNELS":
            table = module.KERNELS
            for key, fn in list(table.items()):
                table[key] = _wrap(recorder, fn, name, count)
            continue
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(recorder, raw.__func__, name, count)))
        else:
            fn = getattr(owner, attr, None)
            if callable(fn):
                setattr(owner, attr, _wrap(recorder, fn, name, count))


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Wraps a target module's functions right after it first executes."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def find_spec(self, fullname, path, target=None):
        targets = _targets_for(fullname)
        if targets is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        exec_module = loader.exec_module
        recorder = self.recorder

        def exec_and_patch(module):
            exec_module(module)
            _patch(recorder, module, targets)

        loader.exec_module = exec_and_patch
        return spec


def span_cost(calls: int = 2000) -> float:
    """Seconds one wrapped call adds over a bare call, measured here.

    Spans times this cost is the tracer's own share of the traced wall
    time; a traced-minus-untraced pass difference cannot resolve it,
    because run-to-run noise is far larger.
    """

    def noop():
        return None

    wrapped = _wrap(Recorder(), noop, "calibration", None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter()
    for _ in range(calls):
        wrapped()
    end = time.perf_counter()
    return max(0.0, ((end - bare) - (bare - start)) / calls)


def install(directory: str) -> Recorder:
    """Start recording in this process; spans land in ``directory``."""
    recorder = Recorder()
    process = recorder.open("process")
    sys.meta_path.insert(0, _PatchingFinder(recorder))

    def finish() -> None:
        recorder.close(process)
        start = time.perf_counter()
        cost = span_cost()
        try:
            recorder.dump(directory, cost, time.perf_counter() - start)
        except OSError as exc:
            print(f"[e2e trace] cannot write spans: {exc}", file=sys.stderr)

    atexit.register(finish)
    return recorder


if os.environ.get(TRACE_DIR_ENV):
    install(os.environ[TRACE_DIR_ENV])
