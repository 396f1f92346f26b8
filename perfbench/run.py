"""Benchmark for credal: seeded workloads, exact answer checks, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists):
  corpus  a stream of small random problems through the whole library
  scale   problems of one larger shape, bound by the simplex kernel
  cli     fresh `python -m credal.cli` processes over a fixed command mix

One process, one thread, closed loop: each unit (a problem, or a CLI
invocation) starts when the previous one has returned. Every answer is
checked outside the timed region; a wrong answer counts as a failed unit.
Every time is scaled to a nominal machine speed (see speed.py).
--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run (see tracer.py) and its overhead. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from speed import NOMINAL_S, Reference
from workloads import HERE, ROOT, SRC, child_env

OUT = HERE / "out"
SETUP_SAMPLES = 15  # fresh-interpreter pairs per run for setup_s
MIN_UNITS = 2  # a run times at least this many units, however short


def import_credal():
    """Import credal from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import credal
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import credal from {SRC}: {exc}")
    if Path(credal.__file__).resolve().parent != SRC / "credal":
        sys.exit(f"perfbench: credal was imported from {credal.__file__}, not {SRC}")
    return credal


def fresh_seconds(code: str) -> float:
    started = perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL,
    )
    return perf_counter() - started


def measure_setup() -> tuple[float, float]:
    """Median wall time of a bare interpreter and of one importing credal.

    Both are scaled by the reference chunks timed after each pair.
    """
    bare, imported, ref = [], [], Reference()
    for _ in range(SETUP_SAMPLES):
        bare.append(fresh_seconds("pass"))
        imported.append(fresh_seconds("import credal"))
        ref.sample()
    return statistics.median(bare) * ref.factor(), statistics.median(imported) * ref.factor()


class Tally:
    """Attempted and failed units; findings go to stderr."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0

    def unit(self, label: object, run, check) -> tuple[object, float]:
        self.attempted += 1
        started = perf_counter()
        try:
            output = run()
        except Exception as exc:  # a unit that raises is a failed unit
            elapsed = perf_counter() - started
            self.fail(label, [f"{type(exc).__name__}: {exc}"])
            return None, elapsed
        elapsed = perf_counter() - started
        findings = check(output) if check else []
        if findings:
            self.fail(label, findings)
        return output, elapsed

    def fail(self, label: object, findings: list[str]) -> None:
        self.failed += 1
        print(f"perfbench: unit {label} failed: {'; '.join(findings)}", file=sys.stderr)


def timed_loop(work, seconds: float, tally: Tally, ref: Reference) -> list[float]:
    """Run units until their summed time reaches seconds; checks are untimed.

    A reference chunk is timed after each unit, before its check.
    """
    samples = []
    for index, item in enumerate(work.items):
        if sum(samples) >= seconds and len(samples) >= MIN_UNITS:
            break
        output, elapsed = tally.unit(index, lambda: work.run(item), None)
        ref.sample()
        findings = work.check(index, item, output) if output is not None else []
        if findings:
            tally.fail(index, findings)
        samples.append(elapsed)
    return samples


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    q = int(100 * (1 - 10 / len(samples)))
    if q < 50:
        return "fewer than 20 samples, no tail percentile"
    value = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return f"p{q} {value * 1e3:.3f} ms"


def environment(args, samples: dict, ref: Reference) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "samples": samples,
        "reference_chunk_ms": statistics.fmean(ref.samples) * 1e3,
        "nominal_chunk_ms": NOMINAL_S * 1e3,
    }


def end_to_end(args, work, tally: Tally, setup: tuple[float, float],
               ref: Reference) -> tuple[dict, dict]:
    raw = timed_loop(work, args.seconds, tally, ref)
    samples = ref.scaled(raw)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    n = len(samples)
    p90, raw_p90 = (statistics.quantiles(t, n=10, method="inclusive")[8] for t in (samples, raw))
    metrics = {
        "setup_s": (setup[1] - setup[0], "s", f"median of {SETUP_SAMPLES} process pairs"),
        "problems_per_s": (n / sum(samples), "1/s", f"{n} problems, {n / sum(raw):.3f} unscaled"),
        "problem_ms_p50": (statistics.median(samples) * 1e3, "ms",
                           f"{n} problems, {statistics.median(raw) * 1e3:.3f} unscaled"),
        "problem_ms_p90": (p90 * 1e3, "ms",
                           f"{n} problems, {n - n * 9 // 10} beyond, {raw_p90 * 1e3:.3f} unscaled"),
        "peak_rss_mb": (peak_kib / 1024, "MB", "children" if who == resource.RUSAGE_CHILDREN else "this process"),
    }
    return metrics, {"problems": n, "tail": tail(samples)}


def layers(args, work, tally: Tally, setup: tuple[float, float], ref: Reference,
           credal) -> tuple[dict, dict]:
    """Every unit twice, untraced and traced, in alternating order.

    Pairing the two runs of a unit keeps drift in machine speed out of the
    overhead. The wrappers are installed only around each traced run.
    Layer times are scaled by the run's reference chunks, one per pair.
    """
    import tracer

    trace = tracer.Tracer()
    base, traced = [], []

    def run_traced(label, run, check) -> float:
        trace.install()
        try:
            with credal.count_solves() as counter, trace.tracing(label) as span:
                output, _ = tally.unit(label, run, None)
        finally:
            trace.uninstall()
        span.solves = counter.solves
        findings = check(output) if check and output is not None else []
        if findings:
            tally.fail(label, findings)
        return span.seconds

    items = []
    for index, item in enumerate(work.items):
        if sum(base) >= args.seconds / 2 and len(base) >= MIN_UNITS:
            break
        run = lambda: work.run(item)
        check = lambda out: work.check(index, item, out)
        if index % 2:
            traced.append(run_traced(index, run, check))
        base.append(tally.unit(index, run, check)[1])
        if not index % 2:
            traced.append(run_traced(index, run, check))
        ref.sample()
        items.append(item)
    for label, run, check in work.coverage(items):
        run_traced(label, run, check)

    found = tracer.layer_metrics(trace.spans, set(range(len(items))))
    factor = ref.factor()
    found = {
        name: (value * factor if unit in ("ms", "us") else value, unit)
        for name, (value, unit) in found.items()
    }
    found["cli.interpreter_ms"] = (setup[0] * 1e3, "ms")
    found["cli.import_ms"] = ((setup[1] - setup[0]) * 1e3, "ms")
    found["trace.overhead_frac"] = (sum(traced) / sum(base) - 1, "frac")
    found = {name: (value, unit, f"{len(items)} units") for name, (value, unit) in found.items()}
    OUT.mkdir(exist_ok=True)
    trace.write(
        OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz",
        {"workload": args.workload, "seed": args.seed,
         "metrics": {name: value for name, (value, _, _) in found.items()}},
    )
    return found, {"units": len(items), "spans": len(trace.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    credal = import_credal()
    import pipeline
    pins = json.loads((HERE / "answers.json").read_text(encoding="utf-8"))
    setup = measure_setup()
    if args.workload == "cli":
        work = (pipeline.CliInProcess if args.trace else pipeline.CliProcesses)(args.seed, pins)
    else:
        work = pipeline.Problems(args.workload, args.seed, pins)
    tally, ref = Tally(), Reference()
    if args.trace:
        metrics, counts = layers(args, work, tally, setup, ref, credal)
    else:
        metrics, counts = end_to_end(args, work, tally, setup, ref)

    print("environment: " + json.dumps(environment(args, counts, ref), sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:45} {value:14.6f} {unit:6} {samples}")
    print(f"{'failed_frac':45} {tally.failed / tally.attempted:14.6f} "
          f"(failed {tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
