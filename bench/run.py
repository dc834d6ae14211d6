"""spherepref benchmark: one seeded workload, one closed-loop caller, checked outputs.

    python3 bench/run.py --workload tall|small|checkers --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``. With ``--trace 0`` the workload's ops are timed for S seconds and
the last stdout line holds the end-to-end metrics of BENCHMARK.json. With
``--trace 1`` a fixed prefix of the ops runs, each op once untraced and once
traced, and the last line holds the per-layer metrics. Lines before it are a
readable report; the full record (metadata, sample counts, spans) goes to
``.bench_out/``. See DESIGN.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from collections import deque
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

import layers
import recheck
import workloads
from tracer import Tracer
from workloads import EXACT, FLOAT, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW = 5

_rng = random.Random(1)
_REFERENCE_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(11)] for _ in range(10)]


def reference_kernel() -> None:
    """Fixed work that never touches spherepref: Gauss-Jordan elimination on a
    10 x 11 rational matrix, the Fraction arithmetic of an exact LP pivot.

    Timed every REFERENCE_EVERY_S between ops, it tracks the speed of the
    machine as the run goes. Each op's time is divided by the median of the
    last REFERENCE_WINDOW kernel timings, so the end-to-end rates and
    latencies are in units of this kernel's time: a shared machine can drift
    by 10-30% in speed between processes and within one.
    """
    m = [list(r) for r in _REFERENCE_MATRIX]
    for c in range(len(m)):
        p = next(r for r in range(c, len(m)) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(len(m)):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def fresh_api():
    """Import spherepref from scratch (dropping any earlier import) and bind its API."""
    for name in [m for m in sys.modules if m == "spherepref" or m.startswith("spherepref.")]:
        del sys.modules[name]
    return workloads.load_api()


def setup(name: str, seed: int) -> tuple:
    """Import plus input build, SETUP_REPEATS times; the last build is the one used."""
    build, count = workloads.BUILDERS[name]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        api = fresh_api()
        t1 = perf_counter()
        workload = build(api, seed, count)
        t2 = perf_counter()
        times.append((t1 - t0, t2 - t1))
    return api, workload, times


class Record(NamedTuple):
    op: Op
    seconds: float
    correct: bool
    verified: Optional[bool]  # float rationalize verdicts only: did the answer re-check exactly
    reference: Optional[float]  # reference kernel time around the op, in timed runs


class Run:
    """Executes ops one after another, timing each call and judging its result."""

    def __init__(self, api):
        self.api = api
        self.records: list = []
        self.recent_references = deque(maxlen=REFERENCE_WINDOW)
        self.reference: Optional[float] = None
        self.errors: list = []
        self.exact_outputs = hashlib.sha256()

    def one(self, op: Op) -> float:
        t0 = perf_counter()
        try:
            result = op.call(self.api)
        except Exception:  # the op boundary: record the failure and keep measuring
            dt = perf_counter() - t0
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())
            self.records.append(Record(op, dt, False, workloads.unverified(op), self.reference))
            return dt
        dt = perf_counter() - t0
        correct, verified = workloads.judge_op(self.api, op, result)
        self.records.append(Record(op, dt, correct, verified, self.reference))
        if op.kind == "rationalize" and op.mode == EXACT:
            self.exact_outputs.update(result.encode())
        return dt

    def timed(self, workload, seconds: float) -> None:
        """Cycle through each phase's ops for its share of the time, timing
        the reference kernel every REFERENCE_EVERY_S in between."""
        for share, ops in workload.phases:
            deadline = perf_counter() + share * seconds
            next_reference = 0.0
            i = 0
            while True:
                if perf_counter() >= next_reference:
                    t0 = perf_counter()
                    reference_kernel()
                    t1 = perf_counter()
                    self.recent_references.append(t1 - t0)
                    self.reference = statistics.median(self.recent_references)
                    next_reference = t1 + REFERENCE_EVERY_S
                self.one(ops[i % len(ops)])
                i += 1
                if perf_counter() >= deadline:
                    break

    def paired(self, ops: list, tracer: Tracer) -> tuple:
        """Each op untraced and traced, back to back in alternating order, so
        their difference is the tracing overhead and not drift of the machine."""
        untraced, traced = [], []
        for i, op in enumerate(ops):
            for with_trace in (False, True) if i % 2 == 0 else (True, False):
                if not with_trace:
                    untraced.append(self.one(op))
                    continue
                tracer.op = i
                layers.install(tracer, self.api)
                try:
                    traced.append(self.one(op))
                finally:
                    tracer.restore()
        return untraced, traced


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(run: Run, setup_s: float) -> tuple:
    """The BENCHMARK.json end-to-end metrics, and a wider report in seconds with sample counts."""
    metrics, report = {}, {}
    for mode in (EXACT, FLOAT):
        rec = [r for r in run.records if r.op.mode == mode]
        times = [r.seconds for r in rec]
        items = sum(r.op.items for r in rec)
        n = f"n={len(times)}"
        metrics[f"{mode}_items_per_ref"] = items / sum(r.seconds / r.reference for r in rec)
        metrics[f"{mode}_call_geomean_ref"] = statistics.geometric_mean(r.seconds / r.reference for r in rec)
        report[f"{mode}_items_per_s"] = (items / sum(times), f"1/s {n}")
        report[f"{mode}_call_geomean_ms"] = (statistics.geometric_mean(times) * 1e3, f"ms {n}")
        report[f"{mode}_call_p50_ms"] = (statistics.median(times) * 1e3, f"ms {n}")
        if len(times) >= 200:  # at least ten samples beyond the 95th percentile
            report[f"{mode}_call_p95_ms"] = (percentile(times, 0.95) * 1e3, f"ms {n}")
        report[f"{mode}_reference_ms"] = (statistics.median(r.reference for r in rec) * 1e3, f"ms {n}")
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def rate_of(kinds, mode):
        rec = [r for r in run.records if r.op.kind in kinds and r.op.mode == mode]
        busy = sum(r.seconds for r in rec)
        return (sum(r.op.items for r in rec) / busy if busy else 0.0), len(rec)

    if any(r.op.kind == "rationalize" for r in run.records):
        for mode in (EXACT, FLOAT):
            value, n = rate_of({"rationalize"}, mode)
            report[f"{mode}_obs_per_s"] = (value, f"1/s n={n}")
        floats = [r.verified for r in run.records if r.op.kind == "rationalize" and r.op.mode == FLOAT]
        report["float_verified_share"] = (sum(map(bool, floats)) / len(floats), f"share n={len(floats)}")
    else:
        checks = set(layers.CHECKERS) | {"check_status_quo_independence"}
        for mode in (FLOAT, EXACT):
            value, n = rate_of(checks, mode)
            report[f"check_trials_per_s_{mode}"] = (value, f"1/s n={n}")
        dec = [r.seconds for r in run.records if r.op.kind == "decompose"]
        report["decompose_per_s"] = (len(dec) / sum(dec), f"1/s n={len(dec)}")
    failed = sum(1 for r in run.records if not r.correct)
    report["failed_share"] = (failed / len(run.records), f"share n={len(run.records)}")
    return metrics, report


def metadata(args, times: list, run: Run) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "setup_import_s": [t[0] for t in times],
        "setup_build_s": [t[1] for t in times],
        "samples": {mode: sum(1 for r in run.records if r.op.mode == mode) for mode in (EXACT, FLOAT)},
        "exact_output_sha256": run.exact_outputs.hexdigest(),
        "errors": run.errors,
    }


def git_sha() -> Optional[str]:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spherepref" / "__init__.py").is_file():
        print(f"bench: no spherepref sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    api, workload, times = setup(args.workload, args.seed)
    if SRC.resolve() not in Path(sys.modules["spherepref"].__file__).resolve().parents:
        print("bench: spherepref was imported from outside this checkout", file=sys.stderr)
        return 2
    setup_s = statistics.median(t[0] + t[1] for t in times)
    selftest = recheck.selftest()
    for failure in selftest:
        print("bench: re-check self-test failed:", failure, file=sys.stderr)

    run = Run(api)
    if args.trace:
        ops = [op for _, phase in workload.phases for op in phase[: workload.trace_prefix]]
        tracer = Tracer()
        untraced, traced = run.paired(ops, tracer)
        floats = [r.verified for r in run.records if r.op.kind == "rationalize" and r.op.mode == FLOAT]
        metrics = layers.per_layer(tracer, ops, untraced, traced, (sum(map(bool, floats)), len(floats)))
        report = {}
    else:
        run.timed(workload, args.seconds)
        metrics, report = end_to_end(run, setup_s)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print("bench: emitted metrics do not match BENCHMARK.json", file=sys.stderr)
        return 2

    failed = sum(1 for r in run.records if not r.correct)
    meta = metadata(args, times, run)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(OUT / f"{stem}.spans.jsonl")
    record = {"meta": meta, "metrics": metrics, "report": report, "selftest_failures": selftest}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={meta['python']} nproc={meta['nproc']} "
          f"sha={meta['git_sha']} src_lines={meta['src_lines']} samples={meta['samples']}")
    for name, value in metrics.items():
        print(f"{name:52s} {value:>16.6g} {units[name]}")
    for name, (value, unit) in report.items():
        print(f"{name:52s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not selftest,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
