"""Record the output digests that ``run.py`` compares against.

For each workload and seeds 0-9, analyses the first cycle of fresh
cases, checks every result, and writes the digest of each result's
canonical text to ``digests.json``. Run it from the root of a source
checkout only when an output change is intended, naming the workloads
to record (all when none is named)::

    python3 perfbench/record_digests.py [workload ...]
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import BENCH_DIR, OUT, load_package

SEEDS = range(10)


def main(names):
    load_package()
    from workloads import WORKLOADS, digest, fresh_cases

    path = BENCH_DIR / "digests.json"
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        for name in names or WORKLOADS:
            workload = WORKLOADS[name]
            recorded[name] = {}
            for seed in SEEDS:
                cases = fresh_cases(workload, seed, workdir, set())
                digests = []
                for _ in range(workload.cycle):
                    case = next(cases)
                    digests.append(digest(
                        workload.check(case, workload.analyse(case))))
                recorded[name][str(seed)] = digests
                print(f"{name} seed {seed}: {len(digests)} digests",
                      file=sys.stderr)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
