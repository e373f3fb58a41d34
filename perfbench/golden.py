"""Regenerate ``golden.json``, the exact digests every run compares against.

    python3 perfbench/golden.py

The digests cover the even-at-last tables, the reference-seed samples, the
``verify-lemmas`` rows of hierarchy instances and the join-independent parts
of the ``run`` and ``degreecut`` reports.  Regenerate only for a change that
is meant to alter those exact values, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, ROOT, run_workload


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from checks import GOLDEN_PATH
    from workloads import WORKLOADS

    digests: dict[str, str] = {}
    for tiny in (True, False):
        for name in WORKLOADS:
            record = run_workload(name, DEFAULT_SEED, 0, False, tiny, record=True)
            if record["failed"]:
                sys.stderr.write(f"{name} (tiny={tiny}) failed its checks:\n")
                sys.stderr.write("\n".join(record["failures"]) + "\n")
                return 1
            digests.update(record["recorded_digests"])
            print(f"{name} tiny={tiny}: {len(record['recorded_digests'])} digests", flush=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
