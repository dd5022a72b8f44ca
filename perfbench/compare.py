#!/usr/bin/env python3
"""Compare two result sets of the pairmds benchmark.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds run records written by `run.py` (untraced ones are
used).  For every workload x end-to-end metric the table shows both medians
with their quartiles and a verdict under the metric's bound:

* worse: the change's median is worse than the base's by more than the bound;
* unresolved: either side's quartile spread, as a share of its median, is
  wider than the bound, and not every change run beats every base run;
* better: the change's median is better by more than the base's own spread
  (a hint only: claiming a gain also needs paired, alternating runs);
* same: otherwise.

Exit status 1 when any verdict is `worse`, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import run


def load(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values over the untraced records in directory."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        try:
            rec = json.loads(path.read_text(encoding="ascii"))
        except (OSError, ValueError):
            continue
        if not isinstance(rec, dict) or rec.get("traced") is not False:
            continue
        per = out.setdefault(rec["workload"], {})
        for name, m in rec.get("metrics", {}).items():
            if m.get("value") is not None:
                per.setdefault(name, []).append(float(m["value"]))
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """(verdict, relative change of the median, positive meaning worse)."""
    b_med, c_med = statistics.median(base), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    if b_med:
        worse_by = sign * (c_med - b_med) / abs(b_med)
    else:  # a zero base (failed_frac): any increase is worse
        worse_by = float("inf") if sign * (c_med - b_med) > 0 else 0.0
    if worse_by > bound:
        return "worse", worse_by
    all_better = (max(change) < min(base)) if better == "lower" else (min(change) > max(base))
    if (spread(base) > bound or spread(change) > bound) and not all_better:
        return "unresolved", worse_by
    if -worse_by > spread(base):
        return "better", worse_by
    return "same", worse_by


def compare(base_dir: Path, change_dir: Path, out=sys.stdout) -> int:
    base, change = load(base_dir), load(change_dir)
    worst = 0
    header = f"{'workload':10s} {'metric':20s} {'base median [q1, q3] n':>34s} {'change median [q1, q3] n':>34s} {'worse by':>9s} {'bound':>6s}  verdict"
    print(header, file=out)
    for workload in sorted(set(base) | set(change)):
        for name, (_unit, better, bound) in run.METRICS.items():
            b, c = base.get(workload, {}).get(name), change.get(workload, {}).get(name)
            if not b or not c:
                if b or c:
                    print(f"{workload:10s} {name:20s} {'(missing on one side)':>34s}", file=out)
                continue
            v, rel = verdict(b, c, better, bound)
            if v == "worse":
                worst = 1

            def cell(vals):
                q1, med, q3 = quartiles(vals)
                return f"{med:.4g} [{q1:.4g}, {q3:.4g}] {len(vals)}"

            print(f"{workload:10s} {name:20s} {cell(b):>34s} {cell(c):>34s} {rel:+9.1%} {bound:6.2f}  {v}", file=out)
    return worst


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(Path(args[0]), Path(args[1]))


if __name__ == "__main__":
    sys.exit(main())
