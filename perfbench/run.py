#!/usr/bin/env python3
"""dyndml benchmark: one seeded workload in a closed loop with one client.

    python3 perfbench/run.py --workload tab-contrast-1e6 --seed 1 --seconds 10 --trace 0

Set-up is timed first: a fresh interpreter importing dyndml and the input
generation, each repeated SETUP_REPS times (medians), plus one untimed
warm-up operation. Then operations run back to back, each starting after the
previous one returned, until --seconds have passed and at least MIN_OPS ran.

Every output is checked against the truth its generator knows, against the
warm-up (a rerun on the same inputs must be bit-identical) and, when
references.json holds this seed, against the recorded reference. An
operation fails if it raises or a check fails.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced operations, reports the per-layer metrics and
writes the spans to perfbench/_work/. The last line of stdout is the JSON
result; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import bootstrap

MIN_OPS = 3
SETUP_REPS = 3
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_import() -> float:
    """Wall time of a fresh interpreter from start through `import dyndml`."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import dyndml"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code, bootstrap.SRC], check=True, timeout=120)
    return perf_counter() - t0


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare(rec: dict, ref: dict, tol: float) -> list[str]:
    """Every number of the reference must be matched within `tol`."""
    problems = []
    for key, want in ref.items():
        got = rec.get(key)
        if got is None or not abs(got - want) <= tol:
            problems.append(f"{key}: {got!r} differs from the reference {want!r} (tol {tol:.3g})")
    return problems


class Runner:
    """Runs and checks operations of one workload on one set of inputs."""

    def __init__(self, work, inputs, reference: dict | None) -> None:
        self.work = work
        self.inputs = inputs
        self.reference = reference
        self.baseline: dict | None = None   # the warm-up's record
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, op) -> tuple[float, bool]:
        """Time op(inputs), then check its output; returns (seconds, ok)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = op(self.inputs)
        except Exception as exc:  # a raising operation is a failed attempt, not a crash
            elapsed = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            return elapsed, self._fail([f"{type(exc).__name__}: {exc}"])
        elapsed = perf_counter() - t0
        rec = self.work.summarize(out)
        problems = self.work.check(rec)
        if self.baseline is None:
            self.baseline = rec
        elif rec != self.baseline:
            problems.append("output differs from the warm-up run on the same inputs")
        if self.reference is not None:
            problems += compare(rec, self.reference, self.work.tolerance(self.reference))
        return elapsed, self._fail(problems) if problems else True

    def _fail(self, problems: list[str]) -> bool:
        self.failed += 1
        self.problems.extend(problems)
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)
        return False


def run(args: argparse.Namespace, spec: dict, scratch: str, import_s: float) -> tuple[dict, Runner, dict]:
    import tracing
    import workloads

    work = workloads.WORKLOADS[args.workload]
    generate_times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        inputs = work.generate(args.seed, scratch)
        generate_times.append(perf_counter() - t0)
    reference = load_json(os.path.join(HERE, "references.json")).get(work.name, {}).get(str(args.seed))
    runner = Runner(work, inputs, reference)
    warmup_s, _ = runner.attempt(work.operation)
    setup = {"import_s": import_s, "generate_s": statistics.median(generate_times), "warmup_s": warmup_s}

    tracer = tracing.Tracer()
    times: dict[bool, list[float]] = {False: [], True: []}
    ok_ops = 0
    start = perf_counter()
    i = 0
    while i < MIN_OPS or perf_counter() - start < args.seconds:
        traced = bool(args.trace) and i % 2 == 0
        if traced:
            tracer.install()
            elapsed, ok = runner.attempt(lambda inp, k=i: tracer.operation(k, work.operation, inp))
            tracer.uninstall()
        else:
            elapsed, ok = runner.attempt(work.operation)
        times[traced].append(elapsed)
        ok_ops += ok
        i += 1

    if args.trace:
        for name in tracer.missing:
            print(f"trace: layer function {name} not found; its metrics read 0", file=sys.stderr)
        tracer.write(os.path.join(bootstrap.WORK, f"trace-{work.name}.jsonl.gz"))
        values = {
            "trace.op_p50_s": statistics.median(times[True]),
            "trace.untraced_op_p50_s": statistics.median(times[False]),
        }
        values["trace.overhead_ratio"] = values["trace.op_p50_s"] / values["trace.untraced_op_p50_s"] - 1.0
        layers = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
        values.update(tracing.layer_metrics(tracer, layers, work.rows, work.units))
    else:
        values = {
            "rows_per_s": work.rows * ok_ops / sum(times[False]),
            "op_p50_s": statistics.median(times[False]),
            "setup_s": sum(setup.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    detail = {"setup": setup, "op_seconds": times[False] + times[True], "reference": reference is not None}
    return values, runner, detail


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bootstrap.pin_environment()
    try:
        spec = load_json(os.path.join(bootstrap.ROOT, "BENCHMARK.json"))
        bootstrap.add_source_path()
        import_s = statistics.median(time_import() for _ in range(SETUP_REPS))
        import workloads
    except (OSError, ImportError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(bootstrap.WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bootstrap.WORK)
    try:
        values, runner, detail = run(args, spec, scratch, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    env = bootstrap.environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
              "problems": runner.problems, **detail, **result}
    with open(os.path.join(bootstrap.WORK, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    print("# environment " + json.dumps(env))
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
