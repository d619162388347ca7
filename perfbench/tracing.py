"""Span tracing of ivrls from outside the package.

Spans are recorded by wrapping the names each caller module looks up
(``ivrls.lti.rls_step``, ``ivrls.ltv.rls_step``, ``ivrls.pe.rls_step``,
...), never by editing the package.  A span holds its name, an optional
tag (the radius mode of an estimator step, the path of a CSV file), its
start and end in nanoseconds, the index of the span that was open when it
started, and a trace id shared by every span of one Monte Carlo run or
one stream sample.  Spans stay in memory until ``write_csv`` at the end.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and nested, so the children never
overlap one another.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
from array import array
from time import perf_counter_ns

import numpy as np


def _mode_tag(args):
    m = args[0].config.m
    return "exact" if m is None else f"m{m}"


def _path_tag(args):
    return os.fspath(args[0])


def _classmethod_path_tag(args):
    return os.fspath(args[1])


# (owner, attribute, span name, tag function, opens a new trace id).
# The owner is a module or a class; each entry is a name that some caller
# looks up at call time, so replacing it reroutes exactly those calls.
HOOKS = (
    ("ivrls.cli", "main", "cli.main", None, False),
    ("ivrls.cli", "run_experiment", "experiment.run_experiment", None, False),
    ("ivrls.cli", "write_experiment", "experiment.write_experiment", None, False),
    ("ivrls.experiment", "run_dataset", "experiment.run_dataset", None, True),
    ("ivrls.experiment", "generate_lti", "simulate.generate", None, False),
    ("ivrls.experiment", "generate_ltv", "simulate.generate", None, False),
    ("ivrls.simulate", "generate_lti", "simulate.generate", None, False),
    ("ivrls.experiment", "DriftBounds", "ltv.drift_box", None, False),
    ("ivrls.experiment", "from_center_radius", "intervals.box", None, False),
    ("ivrls.experiment", "write_estimates_csv", "data.write", _path_tag, False),
    ("ivrls.data", "write_estimates_csv", "data.write", _path_tag, False),
    ("ivrls.data:Dataset", "from_csv", "data.read", _classmethod_path_tag, False),
    ("ivrls.lti:LtiIntervalEstimator", "step", "lti.step", _mode_tag, False),
    ("ivrls.ltv:LtvIntervalEstimator", "step", "ltv.step", _mode_tag, False),
    ("ivrls.lti", "IntervalVector", "intervals.box", None, False),
    ("ivrls.ltv", "IntervalVector", "intervals.box", None, False),
    ("ivrls.lti", "rls_step", "rls.step", None, False),
    ("ivrls.ltv", "rls_step", "rls.step", None, False),
    ("ivrls.pe", "rls_step", "rls.step", None, False),
    ("ivrls.pe", "analyze", "pe.analyze", None, False),
    ("ivrls.pe", "pe_levels", "pe.levels", None, False),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.tags: list = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace_id = array("q")
        self._stack: list[int] = []
        self._next_id = 1
        self._saved: list = []

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name, tag, new_trace) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if new_trace:
            tid = self._next_id
            self._next_id += 1
        else:
            tid = self.trace_id[parent] if parent >= 0 else 0
        idx = len(self.names)
        self.names.append(name)
        self.tags.append(tag)
        self.parent.append(parent)
        self.trace_id.append(tid)
        self.end.append(0)
        stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def span(self, name, tag=None, new_trace=False):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, tag, new_trace)

    def wrap(self, fn, name, tag_fn=None, new_trace=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, tag_fn(args) if tag_fn else None, new_trace)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        """Replace every hooked name that exists by a traced wrapper.

        A name the package no longer has is skipped, so its layer's
        metrics are simply absent.
        """
        for owner_name, attr, name, tag_fn, new_trace in HOOKS:
            try:
                owner = _resolve(owner_name)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, name, tag_fn, new_trace))
            else:
                wrapped = self.wrap(original, name, tag_fn, new_trace)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put back every name `install` replaced, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def durations(self, name: str) -> np.ndarray:
        """Durations in ns of the spans called `name`, in start order."""
        return np.array([self.end[i] - self.start[i]
                         for i, span in enumerate(self.names) if span == name], dtype=float)

    def self_times(self) -> list[int]:
        """Duration minus direct children's durations, per span, in ns."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "tag", "start_ns", "end_ns", "parent", "trace_id"])
            for idx, name in enumerate(self.names):
                tag = self.tags[idx]
                out.writerow([
                    idx, name, "" if tag is None else tag, self.start[idx],
                    self.end[idx], self.parent[idx], self.trace_id[idx],
                ])


class _Span:
    def __init__(self, tracer, name, tag, new_trace):
        self.args = (name, tag, new_trace)
        self.tracer = tracer

    def __enter__(self):
        self.idx = self.tracer._open(*self.args)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
