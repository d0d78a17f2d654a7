"""Outputs stay bit-identical to the benchmark's recorded digests.

For seeds 0–9 of the ``corpus``, ``ladder`` and ``cli_wide`` workloads,
the first cycle of fresh cases is analysed and checked through
``perfbench/workloads.py`` exactly as ``perfbench/record_digests.py``
does it, and the digest of each result's canonical text must equal the
one in ``perfbench/digests.json``. The benchmark files are imported and
read, never written; the CLI workload's input files go to a temporary
directory.
"""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = range(10)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
RECORDED = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["corpus", "ladder", "cli_wide"])
def test_first_cycle_matches_recorded_digests(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name]
    cases = workloads.fresh_cases(workload, seed, str(tmp_path), set())
    digests = [workloads.digest(workload.check(case, workload.analyse(case)))
               for case in itertools.islice(cases, workload.cycle)]
    assert digests == RECORDED[name][str(seed)]
