"""Tell whether two sets of benchmark runs can be compared at all.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py`` appends to ``perfbench/out/runs.jsonl``.
Two sets are comparable when all their runs share one host fingerprint
and their median calibration times differ by at most :data:`DRIFT`;
otherwise their timings would measure the hosts, not the code.  Exit 0
when comparable, 2 when not.  The metrics themselves are compared
against the bounds in ``BENCHMARK.json``, not here.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

#: Largest accepted change of the median calibration time between sets.
DRIFT = 0.10


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = (load(Path(a)) for a in argv)
    if not base or not new:
        print("compare: a set holds no runs", file=sys.stderr)
        return 2
    hosts = [{r["host"]["fingerprint"] for r in s} for s in (base, new)]
    calib = [statistics.median(r["calib_ms"] for r in s) for s in (base, new)]
    drift = calib[1] / calib[0] - 1.0
    print(f"hosts: base {sorted(hosts[0])}, new {sorted(hosts[1])}")
    print(f"calibration: base {calib[0]:.2f} ms, new {calib[1]:.2f} ms "
          f"({drift:+.1%}, limit {DRIFT:.0%})")
    if len(hosts[0] | hosts[1]) != 1 or abs(drift) > DRIFT:
        print("compare: not comparable: different hosts or a drifted host")
        return 2
    print("compare: comparable")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
