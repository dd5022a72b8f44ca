"""Per-layer tracing applied from outside the pairmds package.

The tracer replaces public and module-level functions of the loaded pairmds
modules with wrappers; no source file changes.  Three kinds of wrapper:

* span: records (name, start, end, parent, op) for each call.  Spans stay in
  memory until the run ends.  A layer's self time is its span's duration
  minus the part of that interval covered by its child spans.
* count: only counts calls.  Used where a span would cost more than the call
  itself (field operations, pair weight, the group law).
* generator: for codeword enumeration.  Each word's `next()` is timed and the
  total emitted as one compacted span starting at the first `next()`, so the
  consumer's self time excludes it without storing one span per word.

Where a module imported a function by name (`rank_of_vectors` inside
`pairmetric`, `check_theorem_conditions` inside `cli`, ...), every module
binding of the same object is replaced, so calls through either name are seen.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# (module, attribute path) of each wrapped callable
SPAN_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("cli", "_load_code_file"),
    ("cli", "_dump"),
    ("cli", "_reverify_ec"),
    ("pairmetric", "check_theorem_conditions"),
    ("pairmetric", "check_mds_conditions"),
    ("pairmetric", "_first_dependent_small_subset"),
    ("pairmetric", "_first_dependent_subset"),
    ("pairmetric", "min_pair_distance_bruteforce"),
    ("linalg", "rank_of_vectors"),
    ("linalg", "rank"),
    ("linalg", "null_space"),
    ("d5", "build_h"),
    ("d5", "_small_n_variant"),
    ("d6", "elliptic_quadric"),
    ("d6", "order_points"),
    ("d6", "_try_schedule"),
    ("ecmds", "find_maximal_curve"),
    ("ecmds", "arrange"),
    ("ecmds", "window_check"),
    ("ecmds", "subset_sum_count"),
    ("ecmds", "generator_matrix"),
    ("ecmds", "_switch_pass"),
    ("ecmds", "_local_rearrange"),
)
# counted only; the third entry is the layer name the metrics use
COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("gf", "FieldSpec.add", "gf.add"),
    ("gf", "FieldSpec.mul", "gf.mul"),
    ("gf", "FieldSpec.inv", "gf.inv"),
    ("pairmetric", "pair_weight", "pairmetric.pair_weight"),
    ("ecmds", "ec_add", "ecmds.ec_add"),
    ("ecmds", "EllipticCurve.is_on_curve", "ecmds.is_on_curve"),
    ("d6", "_Budget.spend", "d6._Budget.spend"),
)
GENERATOR_TARGETS: Tuple[Tuple[str, str], ...] = (("linalg", "enumerate_codewords"),)

PACKAGE = "pairmds"

Span = Tuple[str, float, float, int, object]  # name, start, end, parent index, op id


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = [-1]
        self.op: object = None
        self.counts: Dict[str, List[int]] = {}
        self.words = [0]
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return wrapped

    def _count(self, name: str, fn: Callable) -> Callable:
        cell = self.counts.setdefault(name, [0])

        def wrapped(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _generator(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock, words = self.spans, self.stack, time.perf_counter, self.words

        def wrapped(*args, **kwargs):
            it = fn(*args, **kwargs)
            parent = stack[-1]
            idx = -1
            first = 0.0
            inside = 0.0
            try:
                while True:
                    t0 = clock()
                    if idx < 0:
                        idx = len(spans)
                        spans.append(None)
                        first = t0
                    stack.append(idx)
                    try:
                        word = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        inside += clock() - t0
                    words[0] += 1
                    yield word
            finally:
                it.close()
                if idx >= 0:
                    spans[idx] = (name, first, first + inside, parent, self.op)

        return wrapped

    # -- patching -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the currently imported pairmds modules."""
        modules = {
            name[len(PACKAGE) + 1:]: mod
            for name, mod in sys.modules.items()
            if name.startswith(PACKAGE + ".") and mod is not None
        }
        named = [(m, a, f"{m}.{a}", self._span) for m, a in SPAN_TARGETS]
        named += [(m, a, name, self._count) for m, a, name in COUNT_TARGETS]
        named += [(m, a, f"{m}.{a}", self._generator) for m, a in GENERATOR_TARGETS]
        for mod_name, attr, name, make in named:
            mod = modules.get(mod_name)
            owner, leaf = mod, attr
            if mod is not None and "." in attr:
                cls_name, leaf = attr.split(".", 1)
                owner = getattr(mod, cls_name, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = make(name, original)
            if owner is mod:
                # rebind the name in every module that imported it
                for other in list(modules.values()) + [sys.modules[PACKAGE]]:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._undo.append((other, key, value))
                            setattr(other, key, wrapper)
            else:
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def reset(self) -> None:
        """Drop spans and zero the counters, keeping the wrappers in place."""
        self.spans.clear()
        for cell in self.counts.values():
            cell[0] = 0
        self.words[0] = 0

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]


# -- span arithmetic ----------------------------------------------------


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[float, float, int]]:
    """Per span name: (self seconds, total seconds, number of spans)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out: Dict[str, Tuple[float, float, int]] = {}
    for idx, (name, start, end, _parent, _op) in enumerate(spans):
        dur = end - start
        own = dur - _covered(start, end, children.get(idx, ()))
        s_self, s_total, n = out.get(name, (0.0, 0.0, 0))
        out[name] = (s_self + own, s_total + dur, n + 1)
    return out


# -- field microbenchmark -----------------------------------------------

GF_FIELDS = (("prime", 13), ("bin", 16), ("oddext", 25))


def gf_microbench(field_of_order: Callable, calls: int = 16_384, repeats: int = 31) -> Dict[str, float]:
    """ns per add/mul/inv call on fixed nonzero element pairs, per field kind.

    The cost of the bare loop over the pairs is subtracted.  The loops take
    turns, so a slow spell of the machine hits all of them, and the fastest
    of `repeats` timings of each is kept, as other load only ever adds time.
    """
    clock = time.perf_counter_ns
    reps = range(max(1, calls // 64))
    loops: Dict[str, Callable[[], None]] = {}
    pairs_of: Dict[str, List[Tuple[int, int]]] = {}

    def bare(pairs):
        def loop():
            for _ in reps:
                for x, y in pairs:
                    pass
        return loop

    def binary(fn, pairs):
        def loop():
            for _ in reps:
                for x, y in pairs:
                    fn(x, y)
        return loop

    def unary(fn, pairs):
        def loop():
            for _ in reps:
                for x, y in pairs:
                    fn(x)
        return loop

    for kind, q in GF_FIELDS:
        f = field_of_order(q)
        pairs = [((7 * i + 3) % (q - 1) + 1, (11 * i + 5) % (q - 1) + 1) for i in range(64)]
        pairs_of[kind] = pairs
        loops[f"base.{kind}"] = bare(pairs)
        loops[f"gf.add_ns.{kind}"] = binary(f.add, pairs)
        loops[f"gf.mul_ns.{kind}"] = binary(f.mul, pairs)
        loops[f"gf.inv_ns.{kind}"] = unary(f.inv, pairs)
    best = {name: float("inf") for name in loops}
    for _ in range(repeats):
        for name, loop in loops.items():
            t0 = clock()
            loop()
            best[name] = min(best[name], clock() - t0)
    out: Dict[str, float] = {}
    for kind, _q in GF_FIELDS:
        n_calls = len(reps) * len(pairs_of[kind])
        for op in ("add", "mul", "inv"):
            name = f"gf.{op}_ns.{kind}"
            out[name] = max(0.0, (best[name] - best[f"base.{kind}"]) / n_calls)
    return out


# -- per-layer metrics ------------------------------------------------------

# name -> unit.  ".self_s" is a span's self time summed over the traced ops,
# ".calls" a span or counter total, ".s" a span's total time including set-up.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("cli._load_code_file.self_s", "s"),
    ("cli._dump.self_s", "s"),
    ("cli._reverify_ec.self_s", "s"),
    ("cli.code_file_bytes", "bytes"),
    ("pairmetric._first_dependent_small_subset.self_s", "s"),
    ("pairmetric._first_dependent_subset.self_s", "s"),
    ("pairmetric._first_dependent_subset.calls", "count"),
    ("pairmetric.check_theorem_conditions.self_s", "s"),
    ("pairmetric.check_mds_conditions.self_s", "s"),
    ("pairmetric.min_pair_distance_bruteforce.self_s", "s"),
    ("pairmetric.pair_weight.calls", "count"),
    ("linalg.rank_of_vectors.calls", "count"),
    ("linalg.rank_of_vectors.self_s", "s"),
    ("linalg.rank.self_s", "s"),
    ("linalg.null_space.self_s", "s"),
    ("linalg.enumerate_codewords.words", "count"),
    ("linalg.enumerate_codewords.words_per_s", "words/s"),
    ("d5.build_h.self_s", "s"),
    ("d5._small_n_variant.calls", "count"),
    ("d6.elliptic_quadric.self_s", "s"),
    ("d6.order_points.self_s", "s"),
    ("d6._Budget.spend.calls", "count"),
    ("d6._try_schedule.calls", "count"),
    ("ecmds.find_maximal_curve.s", "s"),
    ("ecmds.arrange.self_s", "s"),
    ("ecmds.window_check.self_s", "s"),
    ("ecmds.subset_sum_count.self_s", "s"),
    ("ecmds.generator_matrix.self_s", "s"),
    ("ecmds.ec_add.calls", "count"),
    ("ecmds.is_on_curve.calls", "count"),
    ("ecmds._switch_pass.calls", "count"),
    ("ecmds._local_rearrange.calls", "count"),
    ("gf.add.calls", "count"),
    ("gf.mul.calls", "count"),
    ("gf.inv.calls", "count"),
) + tuple(
    (f"gf.{op}_ns.{kind}", "ns") for op in ("add", "mul", "inv") for kind, _q in GF_FIELDS
) + (
    ("trace.overhead", "ratio"),
)

# counters that depend only on the ops replayed, so one seed repeats them exactly
EXACT_COUNTERS: Tuple[str, ...] = (
    "d6._Budget.spend.calls",
    "d6._try_schedule.calls",
    "ecmds._switch_pass.calls",
    "ecmds._local_rearrange.calls",
    "d5._small_n_variant.calls",
    "gf.add.calls",
    "gf.mul.calls",
    "gf.inv.calls",
    "linalg.rank_of_vectors.calls",
    "pairmetric._first_dependent_subset.calls",
    "pairmetric.pair_weight.calls",
    "ecmds.ec_add.calls",
    "ecmds.is_on_curve.calls",
    "linalg.enumerate_codewords.words",
)

def layer_metrics(
    spans: Sequence[Span],
    setup_spans: Sequence[Span],
    counts: Dict[str, int],
    words: int,
    gf_ns: Dict[str, float],
    file_bytes: int,
    overhead: float,
    missing: Sequence[str],
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Values of every PER_LAYER metric, and a reason for each one that has
    no samples (reported as 0) on this workload."""
    selfs = self_times(spans)
    setup = self_times(setup_spans)
    values: Dict[str, float] = {}
    absent: Dict[str, str] = {}
    for name, _unit in PER_LAYER:
        if name in gf_ns:
            values[name] = gf_ns[name]
            continue
        if name == "cli.code_file_bytes":
            values[name] = float(file_bytes)
            continue
        if name == "trace.overhead":
            values[name] = overhead
            continue
        layer, _, field = name.rpartition(".")
        if name.startswith("linalg.enumerate_codewords."):
            layer = "linalg.enumerate_codewords"
            secs = selfs.get(layer, (0.0, 0.0, 0))[0]
            values[name] = float(words) if field == "words" else (words / secs if secs > 0 else 0.0)
            samples = words
        elif field == "calls" and layer in counts:
            samples = counts[layer]
            values[name] = float(samples)
        elif field == "calls":
            samples = selfs.get(layer, (0.0, 0.0, 0))[2]
            values[name] = float(samples)
        elif field == "s":
            a, b = selfs.get(layer, (0.0, 0.0, 0)), setup.get(layer, (0.0, 0.0, 0))
            values[name] = a[1] + b[1]
            samples = a[2] + b[2]
        else:
            s_self, _total, samples = selfs.get(layer, (0.0, 0.0, 0))
            values[name] = s_self
        if layer in missing:
            absent[name] = "not found in the package; reported as 0"
        elif not samples:
            absent[name] = "no calls on this workload; reported as 0"
    return values, absent
