"""Outside-in tracing of qclone's layers for the benchmark's traced run.

Wrappers are installed, from the benchmark's own files, on the names where
qclone looks its layers up (for example `b92.clone` as well as
`machines.clone`, because b92 imported the function by name). Each call
records a span (id, parent, name, start, end) in memory; counts are taken
at the same boundaries. Nothing is installed when the benchmark measures
end to end.
"""

from __future__ import annotations

import argparse
import time
from collections import defaultdict


def _count_write(tracer, args, result):
    text = args[0]
    tracer.counts["io.write.bytes"] += len(text) if text.isascii() else len(text.encode("utf-8"))


def _count_validation(tracer, args, result):
    tracer.specs[id(args[0])] = args[0]


def _count_variates(tracer, args, result):
    tracer.counts["rng.variates"] += result.size
    tracer.counts["rng.bytes_computed"] += result.nbytes


def _count_scan(tracer, args, result):
    tracer.counts["optimizer.scan.points"] += result.shape[0]


def _count_cells(tracer, args, result):
    header, rows = args[0], args[1]
    tracer.counts["textio.cells"] += len(header) * (len(rows) + 1)


def _count_record_cells(tracer, args, result):
    tracer.counts["textio.cells"] += 2 * len(args[0])


# (module, attribute, span name, counter): the names where qclone looks up
# each layer. "argparse" stands for argparse.ArgumentParser, the parser
# class cli.run calls parse_args on.
TARGETS = (
    ("cli", "run", "cli.run", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("argparse", "parse_args", "cli.parse_args", None),
    ("cli", "_dispatch", "cli.dispatch", None),
    ("cli", "_write_output", "io.write", _count_write),
    ("machines", "clone", "machines.clone", None),
    ("b92", "clone", "machines.clone", None),
    ("machines", "validate_unitarity", "machines.validate_unitarity", _count_validation),
    ("machines", "load_spec", "machines.load_spec", None),
    ("DensityMatrix", "__post_init__", "qcore.DensityMatrix", None),
    ("machines", "partial_trace", "qcore.partial_trace", None),
    ("machines", "to_density", "qcore.to_density", None),
    ("cli", "fidelity", "qcore.fidelity", None),
    ("b92", "fidelity", "qcore.fidelity", None),
    ("b92", "attack_analysis", "b92.attack_analysis", None),
    ("b92", "info_curve", "b92.info_curve", None),
    ("b92", "simulate_protocol", "b92.simulate_protocol", None),
    ("rng", "trial_uniforms", "rng.trial_uniforms", _count_variates),
    ("optimizer", "optimize_average", "optimizer.optimize_average", None),
    ("optimizer", "optimize_equal_fidelity", "optimizer.optimize_equal_fidelity", None),
    ("optimizer", "scan_feasible_region", "optimizer.scan_feasible_region", _count_scan),
    ("cli", "render_table", "textio.render_table", _count_cells),
    ("cli", "render_records_text", "textio.render_records_text", _count_record_cells),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _m, _a, name, _c in TARGETS))


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit."""

    def __init__(self, modules: dict):
        """`modules` maps the module names in TARGETS to the imported objects."""
        self._modules = dict(modules, argparse=argparse.ArgumentParser,
                             DensityMatrix=modules["qcore"].DensityMatrix)
        self._saved = []
        self.reset()

    def reset(self):
        """Forget recorded spans and counts."""
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self.specs = {}  # id -> every spec passed to validate_unitarity

    def __enter__(self):
        for module, attr, name, counter in TARGETS:
            owner = self._modules[module]
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, counter):
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return traced


def layer_times(spans) -> dict:
    """Per span name: calls, total seconds and self seconds (duration minus
    the part covered by child spans)."""
    child = [0] * len(spans)
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: [0, 0, 0])
    for sid, _parent, name, start, end in spans:
        agg = out[name]
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - child[sid]
    return {name: (calls, total / 1e9, self_ns / 1e9) for name, (calls, total, self_ns) in out.items()}


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,start_ns,end_ns\n")
        for sid, parent, name, start, end in spans:
            fh.write(f"{sid},{parent},{name},{start},{end}\n")
