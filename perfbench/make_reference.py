"""Record reference.json: the expected outputs of every request in the pool.

    python3 perfbench/make_reference.py

Run it only on the commit whose outputs are the reference (the commit that
introduced this benchmark); later commits are checked against that file.  It
runs every pool request through the same child process the benchmark uses
and refuses to record a request that fails or reports a false check.
"""

from __future__ import annotations

import json
import sys

import check
import run
import workloads

CHUNK = 16  # requests per fresh interpreter


def main() -> int:
    pool = workloads.pool()
    skeletons: dict = {}
    requests: dict = {}
    for i in range(0, len(pool), CHUNK):
        chunk = pool[i : i + CHUNK]
        result = run.run_group(chunk, trace=False, reference=None)
        for argv, summary in zip(chunk, result["outcomes"], strict=True):
            key = check.request_key(argv)
            if summary["failure"] is not None:
                print(f"{key}: {summary['failure']}", file=sys.stderr)
                return 1
            requests[key] = check.reference_entry(summary, skeletons)
        print(f"{min(i + CHUNK, len(pool))}/{len(pool)} requests recorded", file=sys.stderr)
    with open(run.REFERENCE, "w", encoding="ascii") as fh:
        json.dump({"skeletons": skeletons, "requests": requests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
