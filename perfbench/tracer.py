"""In-memory span tracer for adradar's layers.

The tracer replaces each layer function with a timing wrapper at the name its
caller looks up (``adradar.harness.synthesize_frame``, not
``adradar.echo.synthesize_frame``, because ``harness`` imported the function
into its own namespace).  A span records its name, its parent span, start
and end times, the trace it belongs to (the outermost open span, one per
sweep point) and, where the layer has one, a count of work done.  Spans stay
in memory until ``write_jsonl``.  The program's code is not modified; the
wrappers are removed again when the ``with`` block ends.
"""

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter


def _macs(args, result):
    # Multiply-accumulates of one profile: lags x segment length.
    return len(result) * len(args[0])


def _samples(args, result):
    return len(result.samples)


def _cells(args, result):
    # Delay lags x slow-time DFT bins.
    return result.values.size


# (module whose global the caller looks up, attribute, span name, work count).
# A function imported into several modules is wrapped in each of them.
TARGETS = (
    ("adradar.harness", "run_experiment", "harness.run_experiment", None),
    ("adradar.harness", "nmse", "harness.nmse", None),
    ("adradar.harness", "bootstrap_ci", "harness.bootstrap_ci", None),
    ("adradar.harness", "build_scene", "scene.build_scene", None),
    ("adradar.harness", "scene_backscatter", "scene.scene_backscatter", None),
    ("adradar.scene", "scene_backscatter", "scene.scene_backscatter", None),
    ("adradar.harness", "frame_truth", "scene.frame_truth", None),
    ("adradar.scene", "design_wide_beam", "phasedarray.design_wide_beam", None),
    ("adradar.harness", "build_preamble", "sequences.build_preamble", None),
    ("adradar.harness", "correlation_profile", "sequences.correlation_profile", _macs),
    ("adradar.estimator", "correlation_profile", "sequences.correlation_profile", _macs),
    ("adradar.baseline", "correlation_profile", "sequences.correlation_profile", _macs),
    ("adradar.harness", "synthesize_frame", "echo.synthesize_frame", _samples),
    ("adradar.harness", "run_pipeline", "estimator.run_pipeline", None),
    ("adradar.estimator", "estimate_delays", "estimator.estimate_delays", None),
    ("adradar.estimator", "build_shift_matrix", "estimator.build_shift_matrix", None),
    ("adradar.estimator", "lse_coefficients", "estimator.lse_coefficients", None),
    ("adradar.harness", "delay_doppler_map", "baseline.delay_doppler_map", _cells),
    ("adradar.harness", "baseline_velocities", "baseline.baseline_velocities", None),
)

# Span fields, stored as lists to keep the per-call cost low.
NAME, PARENT, START, END, TRACE, ERROR, WORK = range(7)


class Tracer:
    """Collects nested spans; use as ``with Tracer() as t:`` to wrap the layers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module, attr, name, work in TARGETS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, work))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        return False

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        trace = self._stack[0] if self._stack else index
        span = [name, parent, 0.0, 0.0, trace, None, 0]
        self.spans.append(span)
        self._stack.append(index)
        span[START] = perf_counter()
        return span

    def _close(self, span, error=None):
        span[END] = perf_counter()
        span[ERROR] = error
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own, e.g. one sweep point."""
        return self._run(name, None, fn, args, kwargs)

    def _wrap(self, fn, name, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, work, fn, args, kwargs)
        return traced

    def _run(self, name, work, fn, args, kwargs):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(span, type(exc).__name__)
            raise
        self._close(span)
        if work is not None:
            span[WORK] = work(args, result)
        return result

    def write_jsonl(self, path):
        keys = ("name", "parent", "start", "end", "trace", "error", "work")
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children.

    Spans nest strictly in single-threaded code, so the children of a span
    cover disjoint parts of its interval.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans):
    """Per span name: calls, self seconds, total seconds, work, error classes."""
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                               "work": 0, "errors": Counter()})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span[END] - span[START]
        entry["work"] += span[WORK]
        if span[ERROR] is not None:
            entry["errors"][span[ERROR]] += 1
    return out
