"""Tests of the benchmark itself; run from the checkout root with
``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys

import pytest

from run import BENCH_DIR, ROOT, load_package

load_package()
sys.path.insert(0, str(ROOT / "tests"))

import exacteig as ee  # noqa: E402
from conftest import build_corpus_entry  # noqa: E402
from tracer import ArithCounter, Tracer, installed_wrappers  # noqa: E402
from workloads import WORKLOADS, corpus_entry, digest, fresh_cases  # noqa: E402


def test_corpus_generator_matches_the_test_suite_recipe():
    for seed in range(500):
        entry = build_corpus_entry(seed)
        matrix, spectrum, blocks = corpus_entry(seed)
        assert matrix == entry.matrix, seed
        assert spectrum == entry.spectrum, seed
        assert (blocks is not None) == entry.planned_defective, seed


def test_traced_calls_nest_and_wrappers_are_removed():
    a, _, _ = corpus_entry(3)
    s = ee.find_spectrum(ee.charpoly(a))
    tracer = Tracer()
    with tracer.bound(7):
        assert installed_wrappers(ee.GaussianRational)
        ee.jordan_form(a, s)
    assert installed_wrappers(ee.GaussianRational) == []
    self_ns, calls, _ = tracer.summary()
    assert calls["jordan.jordan_form"] == 1
    assert calls["spectra.charpoly"] >= 2
    assert calls["matrices.rank"] >= 1
    spans = tracer.spans
    rows = [spans[k:k + 6] for k in range(0, len(spans), 6)]
    root = [r for r in rows if tracer.names[r[2]] == "jordan.jordan_form"]
    assert len(root) == 1 and root[0][1] == -1
    assert all(r[5] == 7 for r in rows)
    assert all(r[1] >= 0 for r in rows if r is not root[0])
    assert sum(self_ns.values()) == root[0][4] - root[0][3]


def test_arith_counter_counts_only_while_bound():
    counter = ArithCounter(ee.GaussianRational)
    assert counter.countable
    x, y = ee.GaussianRational(1, 2), ee.GaussianRational(3)
    with counter.bound():
        _ = (x + y) * y - x / y
        _ = 2 - x
    _ = x * y
    assert counter.count == 5
    assert installed_wrappers(ee.GaussianRational) == []


def test_fresh_cases_never_repeat_a_matrix_and_keep_the_mix():
    seen = set()
    cases = [c for c, _ in zip(fresh_cases(WORKLOADS["corpus"], 0, None,
                                           seen), range(300))]
    assert len({c.matrix for c in cases}) == 300
    assert [c.matrix.rows for c in cases] == [
        corpus_entry(i)[0].rows for i in range(300)]
    again = next(fresh_cases(WORKLOADS["corpus"], 0, None, seen))
    assert again.matrix not in {c.matrix for c in cases}


@pytest.mark.parametrize("name", ["corpus", "cli_wide"])
def test_first_cycle_matches_recorded_digests(name, tmp_path):
    workload = WORKLOADS[name]
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())[name]["0"]
    cases = fresh_cases(workload, 0, str(tmp_path), set())
    got = []
    for _ in range(workload.cycle):
        case = next(cases)
        got.append(digest(workload.check(case, workload.analyse(case))))
    assert got == recorded
