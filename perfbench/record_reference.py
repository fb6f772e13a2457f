#!/usr/bin/env python3
"""Record the reference tables that the benchmark compares with at the
default seed, one repetition per workload:

    python3 perfbench/record_reference.py

Only re-record at a commit whose outputs are trusted: the references are how
the benchmark notices that a change altered a result.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import run
from check import META_IGNORED, REFERENCE_DIR
from workloads import DEFAULT_SEED, WORKLOADS, config_text


def main() -> int:
    mods = run.import_package()
    REFERENCE_DIR.mkdir(exist_ok=True)
    os.environ[run.THREADS_ENV] = str(run.THREADS)
    for wl in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
            runner = run.Runner(mods, wl, config_text(wl.name, DEFAULT_SEED), Path(tmp), None)
            runner.rep()
            if runner.failed:
                print(f"{wl.name}: table fails its invariants; not recorded", file=sys.stderr)
                return 1
            table = runner.last_table
            # uncompared metadata echoes the scratch output path
            table["meta"] = {k: v for k, v in table["meta"].items() if k not in META_IGNORED}
            with open(REFERENCE_DIR / f"{wl.name}.json", "w", encoding="utf-8") as fh:
                json.dump(table, fh, sort_keys=True)
        print(f"{wl.name}: {len(table['rows'])} rows recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
