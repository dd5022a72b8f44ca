#!/usr/bin/env python3
"""pairmds benchmark: seeded workloads through `pairmds.cli.main`.

    python3 perfbench/run.py --workload geometric --seed 1 --seconds 25 --trace 0

Runs in one process and one thread, as a closed loop of one client: the next
CLI call starts when the previous one returns.  Every call is checked by
`gate.py`.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`:

* `--trace 0`: the end-to-end metrics, measured with no tracing.  Set-up is
  repeated (SETUP_MIN to SETUP_MAX times) from a fresh import of the package
  and its median reported; then whole rounds of ops run until `--seconds`
  have passed.  Times are scaled to a reference machine speed by SpeedProbe.
* `--trace 1`: the per-layer metrics.  Set-up runs once with the tracer
  installed, the first `trace_rounds` rounds of the workload are replayed
  traced, then replayed again untraced to measure the tracing overhead.

Each run also writes a record with every result and the machine it ran on to
`perfbench/results/`, which `compare.py` reads.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Point, Workload  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# set-up runs at least SETUP_MIN times and then until SETUP_UNTIL_S seconds
# have passed or SETUP_MAX runs are done; cheap set-ups get more samples
SETUP_MIN, SETUP_MAX, SETUP_UNTIL_S = 3, 9, 3.0

# name -> (unit, better, bound); bound is the share of the parent's median by
# which a metric may get worse, about three times the run-to-run spread seen
# over ten seeds on a shared 2-CPU host.  GATED are the ones every workload
# reports and BENCHMARK.json lists; the others exist on some workloads only.
METRICS: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "verify_p50_ms": ("ms", "lower", 0.25),
    "verify_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "construct_p50_ms": ("ms", "lower", 0.25),
    "construct_p90_ms": ("ms", "lower", 0.25),
    "oracle_words_per_s": ("words/s", "higher", 0.2),
    "failed_frac": ("ratio", "lower", 0.0),
}
GATED = ("setup_s", "ops_per_s", "verify_p50_ms", "verify_p90_ms", "peak_rss_mb")


class Op:
    __slots__ = ("kind", "key", "seconds", "end", "words")

    def __init__(self, kind: str, key: str, seconds: float, end: float, words: int) -> None:
        self.kind, self.key, self.seconds, self.end, self.words = kind, key, seconds, end, words


class Tally:
    """Attempted and failed CLI calls, timed ops and byte counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.ops: List[Op] = []
        self.file_bytes = 0
        self.round_s: List[float] = []

    def add(self, op: Optional[Op], problems: List[str]) -> None:
        """Count one checked CLI call; `op` is None for untimed set-up calls."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if op is not None:
            self.ops.append(op)


def calibration_kernel() -> int:
    """Fixed interpreted work in the style of the package's inner loops:
    row reduction of small matrices mod 13 with list and dict traffic."""
    p = 13
    inv = [0] + [pow(x, p - 2, p) for x in range(1, p)]
    acc = 0
    for seed in range(24):
        rows = [[(i * 7 + j * 3 + i * j * seed + seed) % p for j in range(14)] for i in range(10)]
        seen = {}
        r = 0
        for c in range(14):
            piv = next((i for i in range(r, 10) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            f = inv[rows[r][c]]
            rows[r] = [(f * x) % p for x in rows[r]]
            for i in range(10):
                if i != r and rows[i][c]:
                    g = rows[i][c]
                    rows[i] = [(a - g * b) % p for a, b in zip(rows[i], rows[r])]
            seen[tuple(rows[r])] = c
            r += 1
        acc += r + len(seen)
    return acc


class SpeedProbe:
    """Times `calibration_kernel` at most every INTERVAL seconds of the run.

    The machine's speed drifts with other load by tens of percent within
    seconds.  Each op's time is multiplied by REFERENCE_S over the median
    kernel time around it, which cancels that drift; changes to pairmds leave
    the kernel untouched.
    """

    INTERVAL = 0.1
    WINDOW = 0.5  # seconds on each side of an op whose samples scale it
    # median kernel time on an unloaded 2.0 GHz Xeon (KVM guest), Python 3.11
    REFERENCE_S = 0.0025

    def __init__(self) -> None:
        self.at: List[float] = []  # end time of each sample
        self.samples: List[float] = []
        self._last = -1.0

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last < self.INTERVAL:
            return
        calibration_kernel()
        end = time.perf_counter()
        self.at.append(end)
        self.samples.append(end - now)
        self._last = end

    def burst(self, k: int = 3) -> List[float]:
        """Take k samples now and return them."""
        for _ in range(k):
            self.sample(force=True)
        return self.samples[-k:]

    def scale(self, samples: Optional[List[float]] = None) -> float:
        return self.REFERENCE_S / statistics.median(self.samples if samples is None else samples)

    def local_scale(self, start: float, end: float) -> float:
        """Scale from the samples within WINDOW of [start, end], or the three
        nearest ones when fewer lie there."""
        lo = bisect.bisect_left(self.at, start - self.WINDOW)
        hi = bisect.bisect_right(self.at, end + self.WINDOW)
        if hi - lo < 3:
            mid = (start + end) / 2
            near = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - mid))[:3]
            return self.scale([self.samples[i] for i in near])
        return self.scale(self.samples[lo:hi])


def call(cli, argv: Sequence[str]) -> Tuple[Optional[int], str, float, float]:
    """Run `pairmds.cli.main(argv)`; returns (exit code, stdout, seconds, end).

    An exception escaping the CLI is a failed call with exit code None.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # the benchmark must outlive a crashing op
            rc = None
            out.write(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
    return rc, out.getvalue(), end - t0, end


def construct(cli, p: Point, out: Path, digests, tally: Tally, timed: bool) -> None:
    if out.exists():
        out.unlink()
    rc, _stdout, seconds, end = call(cli, p.construct_argv(str(out)))
    op = Op("construct", p.key, seconds, end, 0) if timed else None
    tally.add(op, gate.check_construct(p, rc, out, digests))
    if out.exists():
        tally.file_bytes += out.stat().st_size


def verify(cli, p: Point, path: Path, oracle: bool, tally: Tally) -> None:
    argv = ["verify", str(path)] + (["--oracle"] if oracle else [])
    rc, stdout, seconds, end = call(cli, argv)
    tally.add(Op("verify", p.key, seconds, end, p.words if oracle else 0),
              gate.check_verify(p, rc, stdout, oracle))
    if path.exists():
        tally.file_bytes += path.stat().st_size


def run_op(cli, w: Workload, p: Point, files: Dict[Point, Path], tmp: Path, digests, tally: Tally) -> None:
    if w.oracle:
        verify(cli, p, files[p], True, tally)
    else:
        out = tmp / "op.json"
        construct(cli, p, out, digests, tally, timed=True)
        verify(cli, p, out, False, tally)


# -- set-up --------------------------------------------------------------


def fresh_cli():
    """Import pairmds.cli from this checkout's src/, dropping earlier imports,
    so each set-up pays imports and rebuilds every per-field cache."""
    for name in [m for m in sys.modules if m == "pairmds" or m.startswith("pairmds.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("pairmds.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"imported pairmds from {cli.__file__}, not from {SRC}")
    return cli


def set_up(w: Workload, tmp: Path, digests, tally: Tally, after_import=None):
    """Import, find curves, warm per-field tables and build oracle files.

    Returns (cli module, {point: code file}, seconds).
    """
    t0 = time.perf_counter()
    cli = fresh_cli()
    if after_import is not None:
        after_import()
    for q in w.curve_fields:
        rc, _stdout, _s, _end = call(cli, ["ec-search", "--q", str(q)])
        tally.add(None, [] if rc == 0 else [f"ec-search --q {q}: exit {rc}"])
    for p in w.warmup:
        construct(cli, p, tmp / "warmup.json", digests, tally, timed=False)
    files: Dict[Point, Path] = {}
    if w.oracle:
        for p in sorted({p for s in w.strata for p in s.candidates}):
            files[p] = tmp / f"oracle-{p.q}-{p.n}-{p.d_pair}.json"
            construct(cli, p, files[p], digests, tally, timed=False)
    return cli, files, time.perf_counter() - t0


# -- passes ----------------------------------------------------------------


def timed_pass(cli, w, seed, files, tmp, digests, tally, seconds: float, probe: SpeedProbe) -> None:
    """Run whole rounds of ops, sampling the probe between them, until
    `seconds` have passed.

    Stopping only between rounds keeps every stratum's share of the ops
    fixed.  The seconds each round took are kept in tally.round_s.
    """
    start = time.perf_counter()
    for batch in workloads.rounds(w, seed):
        round_start = time.perf_counter()
        for p in batch:
            run_op(cli, w, p, files, tmp, digests, tally)
            probe.sample()
        now = time.perf_counter()
        tally.round_s.append(now - round_start)
        if now - start >= seconds:
            return


def replay_ops(w: Workload, seed: int, n_rounds: int) -> List[Point]:
    return [p for batch in itertools.islice(workloads.rounds(w, seed), n_rounds) for p in batch]


def replay(cli, w, ops, files, tmp, digests, tally, tr: Optional[tracer.Tracer] = None) -> float:
    start = time.perf_counter()
    for i, p in enumerate(ops):
        if tr is not None:
            tr.op = i
        run_op(cli, w, p, files, tmp, digests, tally)
    return time.perf_counter() - start


# -- metrics ----------------------------------------------------------------


def _percentile(samples: List[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(tally: Tally, setup_times: List[Tuple[float, float]], probe: SpeedProbe) -> Dict[str, dict]:
    """All end-to-end metrics; one with no samples has value None and a reason.

    Each op's seconds are scaled by the probe samples around it, each set-up
    by the samples just before and after it; rates use the scaled seconds.
    The wall-clock value is kept as "raw".
    """
    out: Dict[str, dict] = {}

    def put(name, value, **extra):
        out[name] = {"value": value, "unit": METRICS[name][0], **extra}

    put("setup_s", statistics.median(t * k for t, k in setup_times),
        raw=statistics.median(t for t, _ in setup_times), samples=len(setup_times),
        all=[round(t, 6) for t, _ in setup_times])
    scaled = [op.seconds * probe.local_scale(op.end - op.seconds, op.end) for op in tally.ops]
    raw = [op.seconds for op in tally.ops]
    put("ops_per_s", len(raw) / sum(scaled), raw=len(raw) / sum(raw), ops=len(raw))
    for kind in ("construct", "verify"):
        mine = [i for i, op in enumerate(tally.ops) if op.kind == kind]
        for pct in (50, 90):
            name = f"{kind}_p{pct}_ms"
            if not mine:
                put(name, None, samples=0, absent="no samples on this workload")
                continue
            v = _percentile([scaled[i] for i in mine], pct)
            put(name, v * 1000.0, raw=_percentile([raw[i] for i in mine], pct) * 1000.0,
                samples=len(mine), beyond=sum(1 for i in mine if scaled[i] > v))
    oracle = [i for i, op in enumerate(tally.ops) if op.words]
    if oracle:
        words = sum(tally.ops[i].words for i in oracle)
        put("oracle_words_per_s", words / sum(scaled[i] for i in oracle),
            raw=words / sum(raw[i] for i in oracle), words=words)
    else:
        put("oracle_words_per_s", None, absent="no oracle ops on this workload")
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    put("failed_frac", tally.failed / tally.attempted if tally.attempted else None,
        failed=tally.failed, attempted=tally.attempted)
    return out


# -- run record -----------------------------------------------------------


def git_commit() -> Optional[str]:
    """HEAD of the checkout's .git, read without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="ascii").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pairmds").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def write_record(record: dict, spans=None) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}-trace{int(record['traced'])}"
            f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    path = RESULTS / f"{stem}.json"
    if spans is not None:
        spans_path = RESULTS / f"{stem}-spans.jsonl"
        with open(spans_path, "w", encoding="ascii") as fh:
            for s in spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
        record["spans_file"] = spans_path.name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return path


# -- main -----------------------------------------------------------------


def run_untraced(w: Workload, seed: int, seconds: float, tmp: Path, digests) -> dict:
    tally = Tally()
    probe = SpeedProbe()
    # each set-up is scaled by the probe samples taken just before and after it
    setup_times: List[Tuple[float, float]] = []  # (wall seconds, scale)
    before = probe.burst()
    while len(setup_times) < SETUP_MIN or (
        len(setup_times) < SETUP_MAX and sum(t for t, _ in setup_times) < SETUP_UNTIL_S
    ):
        # free the previous set-up's modules now, so peak memory does not
        # depend on how many set-ups ran or when the collector last did
        gc.collect()
        cli, files, s = set_up(w, tmp, digests, tally)
        after = probe.burst()
        setup_times.append((s, probe.scale(before + after)))
        before = after
    timed_pass(cli, w, seed, files, tmp, digests, tally, seconds, probe)
    metrics = end_to_end(tally, setup_times, probe)
    result_metrics = {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in GATED}
    return {
        "tally": tally,
        "metrics": metrics,
        "result_metrics": result_metrics,
        "spans": None,
        "speed_scale": probe.scale(),
        "probe": [(round(a, 6), round(b, 7)) for a, b in zip(probe.at, probe.samples)],
        "round_s": [round(r, 4) for r in tally.round_s],
    }


def run_traced(w: Workload, seed: int, tmp: Path, digests) -> dict:
    tally = Tally()
    tr = tracer.Tracer()
    cli, files, _s = set_up(w, tmp, digests, tally, after_import=tr.install)
    setup_spans = list(tr.spans)
    tr.reset()
    ops = replay_ops(w, seed, w.trace_rounds)
    bytes_before = tally.file_bytes
    traced_s = replay(cli, w, ops, files, tmp, digests, tally, tr)
    file_bytes = tally.file_bytes - bytes_before
    counts = {name: tr.count(name) for name in tr.counts}
    words = tr.words[0]
    spans = list(tr.spans)
    tr.uninstall()
    untraced_s = replay(cli, w, ops, files, tmp, digests, tally)
    gf_ns = tracer.gf_microbench(sys.modules["pairmds.gf"].field_of_order)
    layers, absent = tracer.layer_metrics(
        spans, setup_spans, counts, words, gf_ns, file_bytes, traced_s / untraced_s, tr.missing
    )
    metrics = {
        name: {"value": layers[name], "unit": unit, **({"absent": absent[name]} if name in absent else {})}
        for name, unit in tracer.PER_LAYER
    }
    return {
        "tally": tally,
        "metrics": metrics,
        "result_metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
        # one list for the spans file: pass spans follow set-up spans
        "spans": setup_spans + [
            (n, a, b, parent + len(setup_spans) if parent >= 0 else parent, op)
            for n, a, b, parent, op in spans
        ],
        "counters": {k: layers[k] for k in tracer.EXACT_COUNTERS},
        "ops_replayed": len(ops),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
    }


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "pairmds" / "cli.py").is_file():
        print(f"error: no pairmds sources under {SRC}", file=sys.stderr)
        return 2
    try:
        digests = gate.load_digests()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {gate.DIGESTS_PATH}: {exc}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=RESULTS) as tmp_name:
        tmp = Path(tmp_name)
        if args.trace:
            out = run_traced(w, args.seed, tmp, digests)
        else:
            out = run_untraced(w, args.seed, args.seconds, tmp, digests)
    tally: Tally = out["tally"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out["result_metrics"],
    }
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "machine": machine(),
        "metrics": out["metrics"],
        "problems": tally.problems[:50],
        "ops": [(op.kind, op.key, round(op.seconds, 6), round(op.end, 6)) for op in tally.ops],
        "result": result,
    }
    for key in ("speed_scale", "probe", "round_s", "counters", "ops_replayed", "traced_s", "untraced_s"):
        if key in out:
            record[key] = out[key]
    path = write_record(record, out["spans"])
    print(f"# workload={w.name} seed={args.seed} traced={bool(args.trace)} record={path.relative_to(ROOT)}")
    for name, m in out["metrics"].items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit", "all")}
        print(f"{name:50s} {_fmt(m['value']):>14s} {m['unit']:8s} {json.dumps(extra) if extra else ''}")
    for problem in tally.problems[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
