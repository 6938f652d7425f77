"""The traced pass: supermin commands run in-process under wrappers.

Wrappers are installed from the benchmark's own files on module
attributes, where the callers look them up, and removed afterwards; the
program itself is not changed.  Three kinds of wrapper:

* span:  module-level functions.  Each call keeps a span (id, parent id,
         operation id, name, start, end, thread) in memory and adds to the
         function's calls, total seconds and self seconds.  Self time is
         the span's duration minus the part its child calls cover.
* leaf:  hot functions called per point (projection, polynomial
         evaluation, float formatting).  Calls and seconds, no spans;
         their time still counts as child time of the enclosing span.
* count: field and polynomial arithmetic.  Counts only; timing each of
         millions of calls would swamp what it measures.

Verify runs its checks on a thread pool, so every record is kept per
thread and the per-thread records are summed when the pass ends.  A
wrapped call on a worker thread with no enclosing wrapped call takes the
operation's root span as its parent.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

from oracle import check_output

# (module, attribute path, record name, layer group, kind).  A group's
# seconds count only its outermost call on each thread, so a function
# that calls another of the same group is not counted twice.
TARGETS = (
    ("supermin.cli", "_load_curve", "cli._load_curve", "serialize.load", "span"),
    ("supermin.cli", "_write_text", "cli._write_text", "serialize.dump", "span"),
    ("supermin.cli", "dumps_canonical", "cli.dumps_canonical", "serialize.dump", "span"),
    ("supermin.cli", "jsonable", "cli.jsonable", "serialize.dump", "span"),
    ("supermin.cli", "_obj_mesh", "cli._obj_mesh", "serialize.dump", "span"),
    ("supermin.cli", "format_float", "cli.format_float", "serialize.dump", "leaf"),
    ("supermin.twistor", "is_quadric_curve", "twistor.is_quadric_curve", None, "span"),
    ("supermin.twistor", "is_superhorizontal", "twistor.is_superhorizontal", None, "span"),
    ("supermin.twistor", "project", "twistor.project", None, "leaf"),
    ("supermin.harmonic", "HarmonicSequence.__init__", "harmonic.build_sequence", None, "span"),
    ("supermin.harmonic", "HarmonicSequence.reversed_sequence",
     "harmonic.reversed_sequence", None, "span"),
    ("supermin.harmonic", "wedge_table", "harmonic.wedge_table", None, "span"),
    ("supermin.plucker", "wedge_table", "harmonic.wedge_table", None, "span"),
    ("supermin.harmonic", "check_recursion", "harmonic.check_recursion", None, "span"),
    ("supermin.harmonic", "check_reality", "harmonic.check_reality", None, "span"),
    ("supermin.harmonic", "check_norm_products", "harmonic.check_norm_products", None, "span"),
    ("supermin.harmonic", "check_cross_table", "harmonic.check_cross_table", None, "span"),
    ("supermin.harmonic", "wedge_pair", "g2.wedge_pair", None, "span"),
    ("supermin.catalog", "normal_form_of", "catalog.normal_form_of", None, "span"),
    ("supermin.catalog", "reality_check", "catalog.reality_check", None, "span"),
    ("supermin.plucker", "full_report", "plucker.full_report", None, "span"),
    ("supermin.plucker", "wedge_curves", "plucker.wedge_curves", None, "span"),
    ("supermin.plucker", "degrees_exact", "plucker.degrees_exact", None, "span"),
    ("supermin.plucker", "degrees_numeric", "plucker.degrees_numeric", None, "span"),
    ("supermin.poly", "Poly.__call__", "poly.Poly.__call__", "poly.eval", "leaf"),
    ("supermin.poly", "RationalFn.__call__", "poly.RationalFn.__call__", "poly.eval", "leaf"),
    ("supermin.harmonic", "cross", "g2.cross", None, "count"),
    ("supermin.twistor", "cross", "g2.cross", None, "count"),
    ("supermin.g2", "cross", "g2.cross", None, "count"),
    ("supermin.field", "AlgScalar.__mul__", "field.mul", None, "count"),
    ("supermin.field", "AlgScalar.__rmul__", "field.mul", None, "count"),
    ("supermin.field", "AlgScalar.__add__", "field.add", None, "count"),
    ("supermin.field", "AlgScalar.__radd__", "field.add", None, "count"),
    ("supermin.field", "AlgScalar.inverse", "field.inverse", None, "count"),
    ("supermin.poly", "BiPoly.__mul__", "poly.bipoly_mul", None, "bipoly_mul"),
)

# Per-layer metrics the traced run prints: (name, unit, better).  Times
# and counts are per operation of the run.  BENCHMARK.json lists the same.
LAYER_METRICS = (
    ("cli.import_s", "s", "lower"),
    ("cli.verify_threads1_s", "s", "lower"),
    ("serialize.load_s", "s", "lower"),
    ("serialize.dump_s", "s", "lower"),
    ("serialize.bytes_out", "bytes", "lower"),
    ("serialize.bad_input_clean_exits", "count", "higher"),
    ("twistor.is_quadric_curve_s", "s", "lower"),
    ("twistor.is_superhorizontal_s", "s", "lower"),
    ("twistor.project_s", "s", "lower"),
    ("twistor.project_calls", "count", "lower"),
    ("harmonic.build_sequence_s", "s", "lower"),
    ("harmonic.chain_builds", "count", "lower"),
    ("harmonic.wedge_table_calls", "count", "lower"),
    ("harmonic.check_recursion_s", "s", "lower"),
    ("harmonic.check_reality_s", "s", "lower"),
    ("harmonic.check_norm_products_s", "s", "lower"),
    ("harmonic.check_cross_table_s", "s", "lower"),
    ("g2.wedge_pair_s", "s", "lower"),
    ("g2.wedge_pair_calls", "count", "lower"),
    ("g2.cross_calls", "count", "lower"),
    ("catalog.normal_form_of_s", "s", "lower"),
    ("catalog.reality_check_s", "s", "lower"),
    ("plucker.full_report_s", "s", "lower"),
    ("plucker.wedge_curves_s", "s", "lower"),
    ("plucker.wedge_curves_calls", "count", "lower"),
    ("plucker.degrees_exact_s", "s", "lower"),
    ("plucker.degrees_numeric_s", "s", "lower"),
    ("field.mul_calls", "count", "lower"),
    ("field.add_calls", "count", "lower"),
    ("field.inverse_calls", "count", "lower"),
    ("field.mul_us", "us", "lower"),
    ("field.add_us", "us", "lower"),
    ("field.to_complex_us", "us", "lower"),
    ("poly.bipoly_mul_calls", "count", "lower"),
    ("poly.bipoly_mul_coeff_products", "count", "lower"),
    ("poly.bipoly_mul_ms", "ms", "lower"),
    ("poly.eval_points", "count", "lower"),
    ("poly.eval_s", "s", "lower"),
    ("harmonic.dp_terms_max", "count", "lower"),
    ("harmonic.ep_terms_max", "count", "lower"),
    ("harmonic.coeff_bits_max", "bits", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Metric -> group whose outermost seconds it reports (_TIMES), or record
# whose calls it reports (_CALLS).  Both are divided by the operation count.
_TIMES = {
    "serialize.load_s": "serialize.load",
    "serialize.dump_s": "serialize.dump",
    "twistor.is_quadric_curve_s": "twistor.is_quadric_curve",
    "twistor.is_superhorizontal_s": "twistor.is_superhorizontal",
    "twistor.project_s": "twistor.project",
    "harmonic.build_sequence_s": "harmonic.build_sequence",
    "harmonic.check_recursion_s": "harmonic.check_recursion",
    "harmonic.check_reality_s": "harmonic.check_reality",
    "harmonic.check_norm_products_s": "harmonic.check_norm_products",
    "harmonic.check_cross_table_s": "harmonic.check_cross_table",
    "g2.wedge_pair_s": "g2.wedge_pair",
    "catalog.normal_form_of_s": "catalog.normal_form_of",
    "catalog.reality_check_s": "catalog.reality_check",
    "plucker.full_report_s": "plucker.full_report",
    "plucker.wedge_curves_s": "plucker.wedge_curves",
    "plucker.degrees_exact_s": "plucker.degrees_exact",
    "plucker.degrees_numeric_s": "plucker.degrees_numeric",
    "poly.eval_s": "poly.eval",
}
_CALLS = {
    "twistor.project_calls": "twistor.project",
    "harmonic.chain_builds": "harmonic.build_sequence",
    "harmonic.wedge_table_calls": "harmonic.wedge_table",
    "g2.wedge_pair_calls": "g2.wedge_pair",
    "g2.cross_calls": "g2.cross",
    "plucker.wedge_curves_calls": "plucker.wedge_curves",
    "field.mul_calls": "field.mul",
    "field.add_calls": "field.add",
    "field.inverse_calls": "field.inverse",
    "poly.bipoly_mul_calls": "poly.bipoly_mul",
}


def _new_stat() -> list:
    return [0, 0.0, 0.0]  # calls, total s, self s


class _ThreadRecord:
    __slots__ = ("stack", "active", "stats", "groups", "counts", "spans")

    def __init__(self):
        self.stack: list[list] = []  # open span frames: [span id, child seconds]
        self.active = collections.defaultdict(int)  # name or group -> open calls
        self.stats = collections.defaultdict(_new_stat)
        self.groups = collections.defaultdict(float)  # group -> outermost seconds
        self.counts = collections.defaultdict(int)
        self.spans: list[tuple] = []


class Recorder:
    """Spans, times and counts of one traced pass, kept per thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self.op_id = 0
        self.op_span = 0
        self.sequences: list = []  # HarmonicSequence objects built while tracing

    def mine(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = _ThreadRecord()
            with self._lock:
                self._records.append(rec)
            self._local.rec = rec
        return rec

    def new_id(self) -> int:
        return next(self._ids)

    def add_span(self, span: tuple) -> None:
        self.mine().spans.append(span)

    # ---------------------------------------------------------- wrappers

    def timed(self, fn, name: str, group: str | None):
        """Span wrapper: a span per call, plus calls, total and self seconds."""
        rec_of = self.mine
        clock = time.perf_counter
        recorder = self
        group = group or name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = rec_of()
            stack = rec.stack
            parent = stack[-1] if stack else None
            frame = [recorder.new_id(), 0.0]
            outer_name = not rec.active[name]
            outer_group = not rec.active[group]
            rec.active[name] += 1
            if group != name:
                rec.active[group] += 1
            stack.append(frame)
            start = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                rec.active[name] -= 1
                if group != name:
                    rec.active[group] -= 1
                dur = end - start
                st = rec.stats[name]
                st[0] += 1
                if outer_name:
                    st[1] += dur
                st[2] += dur - frame[1]
                if outer_group:
                    rec.groups[group] += dur
                if parent is not None:
                    parent[1] += dur
                rec.spans.append(
                    (frame[0], parent[0] if parent is not None else recorder.op_span,
                     recorder.op_id, name, start, end, threading.get_ident())
                )
                if name == "cli._write_text":
                    rec.counts["serialize.bytes_out"] += len(args[1].encode())
                elif name == "harmonic.build_sequence" and done:
                    recorder.sequences.append(args[0])

        return wrapper

    def leaf(self, fn, name: str, group: str | None):
        """Hot-function wrapper: calls and seconds, no span of its own."""
        rec_of = self.mine
        clock = time.perf_counter
        group = group or name
        counts_points = group == "poly.eval"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                rec = rec_of()
                st = rec.stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur
                if not rec.active[group]:
                    rec.groups[group] += dur
                if rec.stack:
                    rec.stack[-1][1] += dur
                if counts_points:
                    z = args[1]
                    rec.counts["poly.eval_points"] += (
                        1 if type(z) is complex else getattr(z, "size", 1)
                    )

        return wrapper

    def counted(self, fn, name: str):
        rec_of = self.mine

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec_of().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_bipoly_mul(self, fn, name: str):
        rec_of = self.mine
        bipoly = importlib.import_module("supermin.poly").BiPoly

        @functools.wraps(fn)
        def wrapper(self_, other):
            if isinstance(other, bipoly):
                counts = rec_of().counts
                counts[name] += 1
                counts["poly.bipoly_mul_coeff_products"] += len(self_.terms) * len(other.terms)
            return fn(self_, other)

        return wrapper

    # ---------------------------------------------------------- results

    def merged(self):
        stats: dict[str, list] = {}
        groups: collections.Counter = collections.Counter()
        counts: collections.Counter = collections.Counter()
        spans: list[tuple] = []
        with self._lock:
            records = list(self._records)
        for rec in records:
            for name, (calls, total, self_s) in rec.stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
            groups.update(rec.groups)
            counts.update(rec.counts)
            spans.extend(rec.spans)
        spans.sort(key=lambda s: s[4])
        return stats, groups, counts, spans


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    undo = []
    for module_name, path, name, group, kind in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        if kind == "count":
            wrapped = recorder.counted(original, name)
        elif kind == "bipoly_mul":
            wrapped = recorder.counted_bipoly_mul(original, name)
        elif kind == "leaf":
            wrapped = recorder.leaf(original, name, group)
        else:
            wrapped = recorder.timed(original, name, group)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ------------------------------------------------------------------ the pass


def run_in_process(ops, inputs: Path, outdir: Path, reference: dict, recorder=None):
    """Run operations in-process through supermin.cli.main.

    With a recorder, its wrappers are installed for the duration.  Returns
    one record per operation with its wall time and oracle verdict.
    """
    cli = importlib.import_module("supermin.cli")
    tag = "traced_" if recorder is not None else "inproc_"
    undo = install(recorder) if recorder is not None else []
    records = []
    try:
        for index, op in enumerate(ops):
            out = outdir / (tag + op.out_name(index))
            argv = op.argv(str(inputs / op.curve.file_name), str(out))
            if recorder is not None:
                recorder.op_id = index + 1
                recorder.op_span = recorder.new_id()
            start = time.perf_counter()
            try:
                code = cli.main(argv)
                error = None
            except Exception as exc:  # an escaping exception fails this operation only
                code, error = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if recorder is not None:
                recorder.add_span(
                    (recorder.op_span, 0, recorder.op_id, f"cli.{op.command}", start, end,
                     threading.get_ident())
                )
            if error is not None:
                problems = [f"raised {error}"]
            else:
                problems = check_output(op, code, out, reference)
            records.append({"op": op.label(), "wall_s": end - start, "problems": problems})
    finally:
        uninstall(undo)
    return records


def write_spans(spans: list[tuple], path: Path) -> None:
    keys = ("id", "parent", "op", "name", "start", "end", "thread")
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ------------------------------------------------------------ layer metrics


def _median_per_call(fn, items: list, reps: int = 7) -> float:
    """Median over ``reps`` passes of the seconds per call of fn on items."""
    per_call = []
    for _ in range(reps):
        start = time.perf_counter()
        for item in items:
            fn(item)
        per_call.append((time.perf_counter() - start) / len(items))
    return statistics.median(per_call)


def field_and_poly_rates(seq) -> dict[str, float]:
    """Per-call times on operands harvested from a chain's D_p coefficients."""
    from operator import add, mul

    coeffs = [c for p in range(7) for c in seq.gram_det(p).terms.values()]
    pairs = [(coeffs[i], coeffs[(7 * i + 3) % len(coeffs)]) for i in range(len(coeffs))]
    d3 = seq.gram_det(3)
    bipoly = []
    for _ in range(5):
        start = time.perf_counter()
        d3 * d3
        bipoly.append(time.perf_counter() - start)
    return {
        "field.mul_us": 1e6 * _median_per_call(lambda ab: mul(*ab), pairs),
        "field.add_us": 1e6 * _median_per_call(lambda ab: add(*ab), pairs),
        "field.to_complex_us": 1e6 * _median_per_call(complex, coeffs),
        "poly.bipoly_mul_ms": 1e3 * statistics.median(bipoly),
    }


def chain_sizes(sequences) -> dict[str, int]:
    """Largest D_p and E_p term counts and coefficient bit size."""
    from supermin.field import MASK_ORDER

    dp_terms = ep_terms = bits = 0
    for seq in sequences:
        polys = [seq.gram_det(p) for p in range(8)]
        dp_terms = max([dp_terms] + [len(d.terms) for d in polys])
        sections = [c for stage in seq.raw_sections for c in stage]
        ep_terms = max([ep_terms] + [len(e.terms) for e in sections])
        for poly in polys + sections:
            for c in poly.terms.values():
                for m in MASK_ORDER:
                    for part in c.coeff(m):
                        bits = max(bits, part.numerator.bit_length(),
                                   part.denominator.bit_length())
    return {
        "harmonic.dp_terms_max": dp_terms,
        "harmonic.ep_terms_max": ep_terms,
        "harmonic.coeff_bits_max": bits,
    }


def layer_metrics(recorder: Recorder, n_ops: int) -> tuple[dict[str, float], dict]:
    """Per-operation layer metrics from a finished pass, and the full table."""
    stats, groups, counts, _spans = recorder.merged()
    out: dict[str, float] = {}
    for metric, key in _TIMES.items():
        out[metric] = groups.get(key, 0.0) / n_ops
    for metric, key in _CALLS.items():
        calls = counts.get(key)
        if calls is None:
            calls = stats.get(key, [0])[0]
        out[metric] = calls / n_ops
    for key in ("poly.bipoly_mul_coeff_products", "poly.eval_points", "serialize.bytes_out"):
        out[key] = counts.get(key, 0) / n_ops
    table = {
        name: {"calls": calls, "total_s": total, "self_s": self_s}
        for name, (calls, total, self_s) in sorted(stats.items())
    }
    table.update({name: {"count": c} for name, c in sorted(counts.items()) if name not in table})
    return out, table
