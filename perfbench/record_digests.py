#!/usr/bin/env python3
"""Record the sha256 of every code file the benchmark's workloads can request.

    python3 perfbench/record_digests.py

Constructs every point of `workloads.universe()` through `pairmds.cli.main`
and writes `perfbench/digests.json`.  Run it only at a commit whose code
files are known good: the correctness gate treats these digests as the truth.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import gate
import run
import workloads


def main() -> int:
    cli = run.fresh_cli()
    digests = {}
    started = time.perf_counter()
    pts = workloads.universe()
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=run.HERE) as tmp:
        out = Path(tmp) / "code.json"
        for i, p in enumerate(pts):
            rc, _stdout, _s, _end = run.call(cli, p.construct_argv(str(out)))
            if rc != 0:
                print(f"error: construct {p.key} exited {rc}", file=sys.stderr)
                return 1
            digests[p.key] = gate.sha256_file(out)
            if i % 200 == 0:
                print(f"{i}/{len(pts)} {time.perf_counter() - started:.0f}s", file=sys.stderr)
    doc = {"source_sha256": run.source_digest(), "digests": digests}
    gate.DIGESTS_PATH.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="ascii")
    print(f"recorded {len(digests)} digests in {time.perf_counter() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
