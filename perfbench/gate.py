"""Correctness gate: every CLI call the benchmark times is checked here.

A construct passes when it exits 0, its code file declares the requested
route, d_pair and dimension, and the file's sha256 equals the digest recorded
for that (q, n, d_pair) in `digests.json` (code files must stay
byte-identical).  A verify passes when it exits 0 and reports the expected
route; with `--oracle` the brute-force pair distance must equal d_pair.
Each check returns the list of problems found; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Optional

from workloads import Point

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

_ORACLE_RE = re.compile(r"oracle agrees: pair distance (\d+)")


def load_digests(path: Path = DIGESTS_PATH) -> Dict[str, str]:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)["digests"]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_construct(p: Point, rc: Optional[int], out: Path, digests: Dict[str, str]) -> List[str]:
    if rc != 0:
        return [f"construct {p.key}: exit {rc}"]
    try:
        doc = json.loads(out.read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        return [f"construct {p.key}: unreadable code file: {exc}"]
    problems = []
    declared = {
        "q": doc.get("q"),
        "n": doc.get("n"),
        "d_pair": doc.get("d_pair"),
        "dimension": doc.get("dimension"),
        "route": (doc.get("certificate") or {}).get("route"),
    }
    expected = {"q": p.q, "n": p.n, "d_pair": p.d_pair, "dimension": p.dimension, "route": p.route}
    for key, want in expected.items():
        if declared[key] != want:
            problems.append(f"construct {p.key}: {key} is {declared[key]!r}, expected {want!r}")
    want_digest = digests.get(p.key)
    if want_digest is None:
        problems.append(f"construct {p.key}: no recorded digest")
    elif sha256_file(out) != want_digest:
        problems.append(f"construct {p.key}: code file sha256 differs from the recorded digest")
    return problems


def check_verify(p: Point, rc: Optional[int], stdout: str, oracle: bool) -> List[str]:
    if rc != 0:
        return [f"verify {p.key}: exit {rc}: {stdout.strip()[:200]}"]
    if not stdout.startswith(f"verified ({p.route})"):
        return [f"verify {p.key}: unexpected report {stdout.strip()[:200]!r}"]
    if oracle:
        m = _ORACLE_RE.search(stdout)
        if m is None:
            return [f"verify {p.key}: oracle did not run: {stdout.strip()[:200]!r}"]
        if int(m.group(1)) != p.d_pair:
            return [f"verify {p.key}: oracle pair distance {m.group(1)} != {p.d_pair}"]
    return []
