#!/usr/bin/env python3
"""monogamy-lab benchmark.

    python3 perfbench/run.py --workload ns-lp --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workload's operations (see ``workloads.py``) are built
from the seed and run in passes, single-threaded in this one process, until
``--seconds`` have elapsed: the first pass always completes, and a later
operation starts only if its earlier time still fits.  Every result is
checked outside the timed interval; a failed check or a raised exception
counts as a failed operation and does not stop the run.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: launch to ready (interpreter start, ``import
  monogamy_lab.cli`` with numpy and scipy, input generation), the median of
  several fresh processes;
* ``wall_s``: one pass, each operation at its median time over the passes;
* ``peak_rss_mb``: peak resident memory of this process.

Both times are reference seconds: measured while ``hostspeed.SpeedSampler``
samples the host's speed, and converted to a fixed reference speed (raw
seconds are printed beside them).  Per-phase figures (for example the
adversary-model p50/p90 latency of ``ra-exact``) are printed on the
``# detail`` line.

``--trace 1`` runs one untraced and one traced pass of the same inputs and
prints the per-layer metrics listed in ``layers.json``, so its counts repeat
exactly for a seed.  Per-layer times are raw seconds (including the speed
probes, about 1 %); ``trace.overhead_s`` is the traced minus the untraced
pass in reference seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the run's metadata (versions, rational backend, a host-speed probe timed
at the start and end) and workload-specific details; ``perfbench/out/``
receives the same record and, for traced runs, every span.
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
import time
import traceback
from fractions import Fraction
from pathlib import Path

from hostspeed import REFERENCE_S, SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
WORKLOADS = ("ns-lp", "quantum", "ra-exact")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every workload for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def host_probe() -> float:
    """Seconds for a fixed pure-Python Fraction loop; compares host speed
    across runs independently of the package."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 12000):
        acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return time.perf_counter() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> dict:
    import numpy
    import scipy
    from monogamy_lab import polylp

    rational = getattr(polylp, "_rat", None)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rational_backend": (
            f"{rational.__module__}.{rational.__name__}" if rational is not None else "unknown"
        ),
    }


def setup_samples(args) -> list:
    """(raw, reference) launch-to-ready seconds of fresh processes doing this
    run's setup; each child samples its own host speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or not line.startswith("ready "):
                raise RuntimeError(f"setup probe failed: {line!r}")
        inside, factor = map(float, line.split()[1:])
        samples.append((ready, (ready - inside) * factor))
    return samples


class Runner:
    """Runs operations, times them, checks them and counts failures."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.samples = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run_op(self, i: int) -> None:
        op = self.ops[i]
        tracer = self.tracer
        self.attempted += 1
        if tracer is not None:
            tracer.op, tracer.enabled = i, True
        t0 = time.perf_counter()
        problems = None
        try:
            result = op.run()
        except Exception:
            problems = [traceback.format_exc()]
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
        if problems is None:
            try:
                problems = op.check(result)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems.append((op.label, problems))
            print(f"FAILED {op.label}: {problems}", file=sys.stderr)
        self.samples[i].append((t0, t1))

    def run_pass(self) -> None:
        for i in range(len(self.ops)):
            self.run_op(i)

    def run_for(self, seconds: float) -> None:
        """One full pass, then further operations in order while each one's
        median time so far still fits before the deadline."""
        deadline = time.perf_counter() + seconds
        self.run_pass()
        while True:
            for i in range(len(self.ops)):
                raw = statistics.median(t1 - t0 for t0, t1 in self.samples[i])
                if time.perf_counter() + raw > deadline:
                    return
                self.run_op(i)

    def slot_medians(self, seconds) -> list:
        """Per operation, the median of ``seconds(t0, t1)`` over its samples."""
        return [statistics.median(seconds(t0, t1) for t0, t1 in s) for s in self.samples]


def percentile_ms(values, q: int) -> float:
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def phase_details(ops, medians) -> dict:
    """Workload-specific figures: per phase, its operations' summed median
    time, its latency percentiles and its work rate."""
    phases: dict = {}
    for op, m in zip(ops, medians):
        phases.setdefault(op.phase, []).append((m, op.work))
    out = {}
    for phase, rows in phases.items():
        times = [m for m, _ in rows]
        total = sum(times)
        out[phase] = {
            "ops": len(rows),
            "s": total,
            "p50_ms": percentile_ms(times, 50),
            "p90_ms": percentile_ms(times, 90),
            "work_per_s": sum(w for _, w in rows) / total if total > 0 else None,
        }
    return out


def layer_metrics(tracer, layers, import_s, overhead_s) -> tuple:
    stats = tracer.stats()
    metrics, missing = {}, sorted(tracer.missing)
    for layer in layers["layers"]:
        row = stats.get(layer["name"], {})
        for stat in layer["stats"]:
            value = row.get(stat, 0)
            if stat in ("s", "self_s"):
                metrics[f"{layer['name']}.{stat}"] = {"value": float(value), "unit": "s"}
            else:
                metrics[f"{layer['name']}.{stat}"] = {"value": int(value), "unit": "count"}
    metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics, missing


def load_layers() -> dict:
    with open(HERE / "layers.json") as fh:
        return json.load(fh)


def run(args) -> dict:
    """Set up, measure, check; returns the full record of the run."""
    probe_start = host_probe()
    setup = setup_samples(args) if args.trace == 0 else []
    t0 = time.perf_counter()
    import monogamy_lab.cli  # noqa: F401  (the program's full import)
    import_s = time.perf_counter() - t0
    import workloads

    ops = workloads.build(args.workload, args.seed, args.size)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "meta": metadata()}
    if args.trace == 0:
        runner = Runner(ops)
        with SpeedSampler() as sampler:
            runner.run_for(args.seconds)
        medians = runner.slot_medians(sampler.reference_seconds)
        raw_medians = runner.slot_medians(lambda t0, t1: t1 - t0)
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "wall_s": sum(medians),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        record.update(
            raw={"setup_s": statistics.median(raw for raw, _ in setup),
                 "wall_s": sum(raw_medians)},
            host_speed={"probes": len(sampler.durations),
                        "probe_median_s": statistics.median(sampler.durations),
                        "reference_s": REFERENCE_S},
            setup_samples_s=setup,
            op_samples_s={f"{op.label}#{i}": [(t1 - t0, sampler.reference_seconds(t0, t1))
                                              for t0, t1 in s]
                          for i, (op, s) in enumerate(zip(ops, runner.samples))},
            detail=phase_details(ops, medians),
        )
        missing, spans = [], None
    else:
        import tracer as tracing

        layers = load_layers()
        runner = Runner(ops)
        tracer = tracing.Tracer(layer["name"] for layer in layers["layers"])
        with SpeedSampler() as sampler:
            runner.run_pass()
            tracer.install()
            try:
                runner.tracer = tracer
                runner.run_pass()
            finally:
                tracer.uninstall()
        untraced, traced = (
            sum(sampler.reference_seconds(*s[k]) for s in runner.samples) for k in (0, 1)
        )
        metrics, missing = layer_metrics(tracer, layers, import_s, traced - untraced)
        record.update(untraced_pass_s=untraced, traced_pass_s=traced)
        spans = tracer.spans
    record.update(
        host_probe_s={"start": probe_start, "end": host_probe()},
        attempted=runner.attempted,
        failed=runner.failed,
        fail_ratio=runner.failed / runner.attempted,
        problems=runner.problems,
        missing=missing,
        metrics=metrics,
    )
    if spans is not None:
        record["spans"] = spans
    return record


def write_record(record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, default=str)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "monogamy_lab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/monogamy_lab; run from a monogamy-lab "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        t0 = time.perf_counter()
        with SpeedSampler() as sampler:
            import monogamy_lab.cli  # noqa: F401
            import workloads

            workloads.build(args.workload, args.seed, args.size)
        inside, factor = sampler.window(t0, time.perf_counter())
        print(f"ready {inside!r} {factor!r}", flush=True)
        return 0

    record = run(args)
    path = write_record(record)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}; record {path}")
    print("# meta " + json.dumps(record["meta"]))
    print("# host_probe_s " + json.dumps(record["host_probe_s"]))
    if "detail" in record:
        print("# host_speed " + json.dumps(record["host_speed"]))
        print("# raw_seconds " + json.dumps(record["raw"]))
        print("# detail " + json.dumps(record["detail"]))
    if record["missing"]:
        print("# missing " + json.dumps(record["missing"]))
    print(f"# fail_ratio {record['failed']}/{record['attempted']} = {record['fail_ratio']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
