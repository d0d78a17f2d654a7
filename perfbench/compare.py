"""Compare two sets of benchmark results, metric by metric.

Each side is a directory of ``result-*.json`` records written by
``run.py`` (copy ``.perfbench_out`` aside after each set of runs)::

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

For every workload and metric it prints each side's median and
quartiles and the change of the medians. Results from different scalar
backends are not comparable, so the comparison is refused when the two
sides do not all name the same backend.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    """{(workload, metric): (values, unit)} and the backends seen."""
    values = defaultdict(list)
    units, backends = {}, set()
    for path in sorted(Path(directory).glob("result-*.json")):
        record = json.loads(path.read_text())
        backends.add(record["backend"])
        for metric, entry in record["metrics"].items():
            key = (record["workload"], metric)
            values[key].append(entry["value"])
            units[key] = entry["unit"]
    return values, units, backends


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, units, backends_a = load(argv[0])
    after, _, backends_b = load(argv[1])
    if not before or not after:
        print("error: no result-*.json records on one side", file=sys.stderr)
        return 2
    if len(backends_a | backends_b) != 1:
        print(f"error: refusing to compare backends {sorted(backends_a)} "
              f"with {sorted(backends_b)}", file=sys.stderr)
        return 3
    print("workload  metric  unit  n  before q1/median/q3  after q1/median/q3"
          "  change")
    for key in sorted(before.keys() & after.keys()):
        a, b = quartiles(before[key]), quartiles(after[key])
        change = (b[1] - a[1]) / a[1] if a[1] else float("nan")
        print(f"{key[0]}  {key[1]}  {units[key]}  "
              f"{len(before[key])}/{len(after[key])}  "
              f"{a[0]:.6g}/{a[1]:.6g}/{a[2]:.6g}  "
              f"{b[0]:.6g}/{b[1]:.6g}/{b[2]:.6g}  {change:+.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
