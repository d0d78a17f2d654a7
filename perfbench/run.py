"""exacteig benchmark: end-to-end metrics, or per-layer metrics from a
separate traced run.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

One caller runs analyses in a closed loop on one thread, on the pure
scalar build, importing the package from ``src/``. Each analysis is
timed alone; its inputs are made from ``--seed`` beforehand and its
outputs are checked afterwards, outside the timed region.

The machine's speed drifts by tens of percent within seconds, and its
host at times takes most of the CPU away (steal time). So the gated
costs use the thread's CPU time, which excludes stolen time, and pair
every analysis with a fixed exact-arithmetic reference loop run right
before and right after it: an analysis costs its CPU time over the mean
CPU time of those two loops. ``cost_p50_ref`` and ``cost_mean_ref`` are
the median and mean cost; ``setup_s`` is the median CPU time a fresh
interpreter spends importing the package and its CLI. Wall-clock
latency and throughput are printed beside them but not gated.

Passes run whole cycles of a workload's input mix until ``--seconds``
have passed. ``--trace 0`` makes one pass (at least 200 analyses, or two
ladder cycles) and prints the end-to-end metrics. ``--trace 1`` makes
three passes on fresh inputs: untraced, traced (spans at every public
function, see ``tracer.py``) and one cycle counting scalar operations,
and prints the per-layer metrics with the end-to-end metric each one
should move.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record with the run
metadata is written to ``.perfbench_out/``; ``compare.py`` reads those.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
SETUP_CODE = ("import time; t = time.process_time(); import exacteig, "
              "exacteig.cli; print(time.process_time() - t)")

# Which end-to-end metric each per-layer metric should move, and where.
# cost_mean_ref, cost_p50_ref and cost_tail_ref are the drift-free forms
# of analyses_per_s, latency_p50_ms and latency_tail_ms; the tails and
# the wall-clock forms are printed but too unsteady to gate.
_KERNELS = "cost_mean_ref, cost_p50_ref on ladder, then corpus"
_FACTS = "cost_p50_ref on corpus; little change on ladder"
_CLI = "cost_* on cli_wide only"
_VERIFY = "cost_p50_ref on corpus (verification is measured, not removed)"
PREDICTIONS = {
    "matrices.matmul.self_s": _KERNELS,
    "matrices.matvec.self_s": _KERNELS,
    "matrices.rref.self_s": _KERNELS,
    "matrices.rank.calls": _KERNELS,
    "matrices.inverse.calls": _KERNELS,
    "scalars.arith_ops": _KERNELS,
    "spectra.charpoly.calls": _FACTS,
    "spectra.verify_spectrum.calls": _FACTS,
    "jordan.shifted_power_ranks.calls": _FACTS,
    "factorizations.power_cache_hit_share": _FACTS,
    "charmatrix.topup_share": _FACTS,
    "spectra.find_spectrum.self_s":
        "cost_tail_ref, cost_p50_ref on cli_wide; no change on corpus",
    "io_json.parse_matrix_json.self_s": _CLI,
    "io_json.matrix_to_json.self_s": _CLI,
    "scalars.parse_scalar.calls": _CLI,
    "scalars.format_scalar.self_s": _CLI,
    "cli.main.self_s": _CLI,
    "verification.oracle_eigenvectors.self_s": _VERIFY,
    "jordan.build_chains.self_s": _VERIFY,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "ladder", "cli_wide", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- measurements -----------------------------------------------------------

_REF = [[Fraction(((7 * i + 13 * j) ** 5) % 1000003 - 500000, (i + j) % 5 + 1)
         for j in range(9)] for i in range(9)]


def reference_loop():
    """CPU seconds taken by fixed Fraction work shaped like the
    package's: Gauss-Jordan elimination of a 9x9 matrix with 6-digit
    entries."""
    gc.disable()  # collections would time the heap, not the machine
    start = time.thread_time()
    m = [row[:] for row in _REF]
    for c in range(9):
        pivot = next((i for i in range(c, 9) if m[i][c]), None)
        if pivot is None:
            continue
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(9):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    elapsed = time.thread_time() - start
    gc.enable()
    return elapsed


def import_times(count):
    """CPU seconds each of ``count`` fresh interpreters spends importing
    the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC), EXACTEIG_BACKEND="pure")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return [float(subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
        text=True, timeout=60, check=True).stdout) for _ in range(count)]


def tail(sorted_times):
    """(value, level): p95, which has at least ten samples beyond it from
    200 samples on, or the maximum below that. A fixed level keeps the
    tail comparable between runs that finish different numbers of
    analyses."""
    n = len(sorted_times)
    if n < 200:
        return sorted_times[-1], 1.0
    return sorted_times[math.ceil(0.95 * n) - 1], 0.95


def source_lines():
    """Lines of src/exacteig, not counting the generated C kernel."""
    total = 0
    for path in sorted((SRC / "exacteig").rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            total += len(path.read_text(encoding="utf-8").splitlines())
    return total


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- passes -----------------------------------------------------------------


class Pass:
    """One closed-loop pass over fresh cases of a workload."""

    def __init__(self, label):
        self.label = label
        self.times = []
        self.costs = []
        self.refs = []
        self.digests = []
        self.attempted = 0
        self.failed = 0

    def run(self, workload, cases, seconds, min_samples, wrap, check_first):
        """Run whole cycles until ``seconds`` have passed and at least
        ``min_samples`` analyses are done. ``wrap(i)`` gives the context
        an analysis runs in; the first cycle's output digests are kept
        when ``check_first`` is set."""
        from workloads import CheckFailed, digest

        started = time.perf_counter()
        cycles = 0
        while (self.attempted < min_samples
               or time.perf_counter() - started < seconds):
            for _ in range(workload.cycle):
                case = next(cases)
                self.attempted += 1
                before = reference_loop()
                try:
                    with wrap(case.index):
                        t0, c0 = time.perf_counter(), time.thread_time()
                        result = workload.analyse(case)
                        cpu = time.thread_time() - c0
                        elapsed = time.perf_counter() - t0
                    after = reference_loop()
                    text = workload.check(case, result)
                except CheckFailed as exc:
                    text = self._fail(case, f"check failed: {exc}")
                except Exception:  # a crash is a failed analysis; keep going
                    text = self._fail(case, traceback.format_exc(limit=-3))
                else:
                    self.times.append(elapsed)
                    self.costs.append(2 * cpu / (before + after))
                    self.refs.extend((before, after))
                if check_first and cycles == 0:
                    self.digests.append(text and digest(text))
            cycles += 1

    def _fail(self, case, message):
        self.failed += 1
        print(f"# {self.label} case {case.index} {case.kind}: {message}",
              file=sys.stderr)
        return None


def digest_failures(name, seed, digests):
    """Analyses of the first cycle whose output digest differs from the
    recorded one for this workload and seed (0 when none is recorded)."""
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    expected = recorded.get(name, {}).get(str(seed))
    if expected is None:
        return 0, False
    bad = sum(1 for got, want in zip(digests, expected) if got != want)
    return bad + abs(len(expected) - len(digests)), True


def require_unwrapped(scalar_type):
    from tracer import installed_wrappers

    left = installed_wrappers(scalar_type)
    if left:
        raise RuntimeError(f"wrappers still installed: {left[:5]}")


def run_workload(name, seed, seconds, trace, seen, workdir):
    """Returns (metrics, info, attempted, failed) for one workload."""
    import exacteig as ee
    from tracer import ArithCounter, Tracer
    from workloads import WORKLOADS, fresh_cases

    workload = WORKLOADS[name]
    cases = fresh_cases(workload, seed, workdir, seen)
    untraced = Pass("untraced")
    budget = seconds if not trace else seconds / 3
    require_unwrapped(ee.GaussianRational)
    untraced.run(workload, cases, budget, 1 if trace else workload.min_samples,
                 lambda i: contextlib.nullcontext(), True)
    require_unwrapped(ee.GaussianRational)
    bad_digests, recorded = digest_failures(name, seed, untraced.digests)
    attempted = untraced.attempted
    failed = untraced.failed + bad_digests
    info = {"samples": len(untraced.times),
            "digests_recorded": recorded,
            "digest_mismatches": bad_digests,
            "ref_s": statistics.median(untraced.refs)}
    if not trace:
        times, costs = sorted(untraced.times), sorted(untraced.costs)
        tail_s, level = tail(times)
        info.update(tail_level=level, fail_share=failed / attempted, raw={
            "analyses_per_s": (len(times) / sum(times), "1/s"),
            "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "cost_tail_ref": (tail(costs)[0], "ref"),
        })
        metrics = {
            "cost_p50_ref": (statistics.median(costs), "ref"),
            "cost_mean_ref": (statistics.fmean(costs), "ref"),
            "ok_share": ((attempted - failed) / attempted, "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        return metrics, info, attempted, failed

    tracer = Tracer()
    traced = Pass("traced")
    traced.run(workload, cases, seconds / 3, 1, tracer.bound, False)
    require_unwrapped(ee.GaussianRational)
    counter = ArithCounter(ee.GaussianRational)
    counted = Pass("counted")  # one cycle, so the count repeats exactly
    counted.run(workload, cases, 0, 1, lambda i: counter.bound(), False)
    require_unwrapped(ee.GaussianRational)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.tsv.gz"
    tracer.write(spans_path)
    attempted += traced.attempted + counted.attempted
    failed += traced.failed + counted.failed
    metrics, hit_shares = layer_metrics(tracer, traced.attempted)
    if len(set(hit_shares)) > 1:
        print(f"# power cache hit share varies between analyses: "
              f"{sorted(set(hit_shares))}", file=sys.stderr)
        failed += 1
    metrics["scalars.arith_ops"] = (
        counter.count / counted.attempted, "count")
    # Mean analysis cost traced over untraced, both in reference-loop
    # units so that machine drift between the passes cancels.
    metrics["trace_overhead"] = (
        statistics.fmean(traced.costs) / statistics.fmean(untraced.costs),
        "ratio")
    info.update(spans_file=str(spans_path.relative_to(ROOT)),
                traced_samples=len(traced.times),
                counted_samples=len(counted.times),
                arith_countable=counter.countable,
                predictions=PREDICTIONS)
    return metrics, info, attempted, failed


def layer_metrics(tracer, analyses):
    """Per-analysis layer metrics from the traced pass, and the power
    cache hit share of each analysis that called matrix_power."""
    from tracer import LAYERS

    self_ns, calls, hits = tracer.summary()
    metrics = {}
    for layer in LAYERS:
        names = [n for n in calls if n.startswith(layer + ".")]
        metrics[f"{layer}.self_s"] = (
            sum(self_ns[n] for n in names) / 1e9 / analyses, "s")
        metrics[f"{layer}.calls"] = (sum(calls[n] for n in names) / analyses,
                                     "count")
    for name in ("matrices.matmul", "matrices.matvec", "matrices.rref",
                 "spectra.find_spectrum", "io_json.parse_matrix_json",
                 "io_json.matrix_to_json", "scalars.format_scalar",
                 "cli.main", "verification.oracle_eigenvectors",
                 "jordan.build_chains"):
        metrics[f"{name}.self_s"] = (self_ns[name] / 1e9 / analyses, "s")
    for name in ("matrices.rank", "matrices.inverse", "spectra.charpoly",
                 "spectra.verify_spectrum", "jordan.shifted_power_ranks",
                 "scalars.parse_scalar"):
        metrics[f"{name}.calls"] = (calls[name] / analyses, "count")
    power_calls = hits["power_calls"]
    total_power = sum(power_calls.values())
    total_diag = sum(hits["power_diagonalize"].values())
    metrics["factorizations.power_cache_hit_share"] = (
        1 - total_diag / total_power if total_power else 1.0, "share")
    product = calls["charmatrix.product_eigenvectors"]
    metrics["charmatrix.topup_share"] = (
        hits["topped_up"] / product if product else 0.0, "share")
    hit_shares = [1 - hits["power_diagonalize"][a] / c
                  for a, c in power_calls.items()]
    return metrics, hit_shares


# -- main -------------------------------------------------------------------


def load_package():
    """Import exacteig from ``src/`` on the pure scalar build and return
    the backend name."""
    if not (SRC / "exacteig" / "__init__.py").is_file():
        raise RuntimeError(f"no exacteig sources under {SRC}")
    os.environ["EXACTEIG_BACKEND"] = "pure"
    sys.path.insert(0, str(SRC))
    import exacteig as ee

    backend = ee.active_backend() if hasattr(ee, "active_backend") else "pure"
    if backend != "pure":
        raise RuntimeError(f"scalar backend is {backend!r}, not 'pure'")
    return backend


def main(argv=None):
    args = parse_args(argv)
    try:
        backend = load_package()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = (["corpus", "ladder", "cli_wide"] if args.workload == "all"
             else [args.workload])
    meta = {"backend": backend, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu_model(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "source_lines": source_lines()}
    # Set-up is timed half before and half after the workloads, so that it
    # samples the machine at two moments; the first import only fills the
    # bytecode cache.
    imports = [] if args.trace else import_times(1 + SETUP_REPEATS // 2)[1:]
    OUT.mkdir(exist_ok=True)
    seen = set()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        results = [(name, *run_workload(name, args.seed, args.seconds,
                                        args.trace, seen, workdir))
                   for name in names]
    if not args.trace:
        imports += import_times(SETUP_REPEATS - len(imports))
    all_metrics = {}
    attempted = failed = 0
    for name, metrics, info, a, f in results:
        if imports:
            metrics = {"setup_s": (statistics.median(imports), "s"), **metrics}
        raw = info.pop("raw", {})
        attempted += a
        failed += f
        record = {"workload": name, **meta, **info,
                  "attempted": a, "failed": f,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in {**metrics, **raw}.items()}}
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(record, indent=1))
        print(f"# {name}: {a} attempted, {f} failed (fail_share "
              f"{f / a:.4g}), {info['samples']} timed samples, "
              f"ref_s {info['ref_s']:.6f}")
        if "tail_level" in info:
            print(f"#   tails = p{100 * info['tail_level']:.1f} of "
                  f"{info['samples']} samples")
        for key, (value, unit) in metrics.items():
            note = PREDICTIONS.get(key)
            print(f"#   {key} = {value:.6g} {unit}"
                  + (f"   [should move: {note}]" if note else ""))
        for key, (value, unit) in raw.items():
            print(f"#   {key} = {value:.6g} {unit}   [too unsteady "
                  "between runs to gate; not in the result line]")
        prefix = f"{name}." if len(names) > 1 else ""
        all_metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()})
    print("# meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
