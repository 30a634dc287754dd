#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pack_unpack --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is used from ``src/`` as is
(pure Python, nothing to build).  With ``--trace 0`` the last line of
standard output is a JSON object carrying every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer metric.
The lines before it print the same figures by name and unit, the
workload's metrics under their earlier names, the machine and the run
inputs.  The exit code is non-zero when any output missed its error bound,
any operation failed, or the run leaked a process, a ``/dev/shm`` segment
or a temp dir.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pack_unpack", "scf_reuse")
#: Layers whose calls the workload loops can span from outside the program.
#: ``streamio`` runs inside the ``parallel`` calls and the store's spill
#: backend, and ``service``/``cluster`` only in the probe fleet, so none of
#: them gets a share; their per-layer probes measure them instead.
LAYERS = ("core", "parallel", "pipeline", "bench")


@dataclass
class Context:
    """Everything a workload needs; built once per run."""

    root: str
    workdir: str
    seed: int
    seconds: float
    trace: bool
    tally: object
    tracer: object
    null_tracer: object
    guard: object
    sampler: object


def machine_info() -> dict:
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for idx in os.listdir(cache):
            with open(os.path.join(cache, idx, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(cache, idx, "size")) as fh:
                levels.append((level, fh.read().strip()))
        llc = max(levels)[1]
    except (OSError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (os.path.join("src", "repro", "__init__.py"), ".repro_cache"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}; run from a full "
                  "checkout of the repository", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)

    from perfbench.common import LeakGuard, NullTracer, MemorySampler, Tally, Tracer

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{int(time.time())}"
    guard = LeakGuard()
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    guard.own_dir(workdir)
    # keep every temp file the program or its children make inside the checkout
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir

    module = importlib.import_module(f"perfbench.w_{args.workload}")
    tracer = Tracer(run_id) if args.trace else NullTracer()
    try:
        with MemorySampler() as sampler:
            ctx = Context(ROOT, workdir, args.seed, args.seconds, bool(args.trace),
                          Tally(), tracer, NullTracer(), guard, sampler)
            outcome = module.run(ctx)
            sampler.sample()
        leaks = guard.leaks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        tempfile.tempdir = None

    outcome.metrics["peak_rss_mb"] = sampler.peak_mb()
    tally = ctx.tally
    if args.trace:
        outcome.per_layer.update(
            {f"layer.{k}.self_share": v for k, v in tracer.shares(LAYERS).items()})
        trace_dir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{run_id}.jsonl"))
    spec = contract["per_layer"] if args.trace else contract["end_to_end"]
    values = outcome.per_layer if args.trace else outcome.metrics
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec}

    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {_fmt(args.seconds)} trace {args.trace}")
    print("# machine " + json.dumps(machine_info()))
    print("# inputs " + json.dumps({"seed": args.seed, **outcome.info}))
    for name, m in metrics.items():
        label = outcome.labels.get(name)
        note = f"  (p{label:g})" if label is not None and not args.trace else ""
        print(f"{name} {_fmt(m['value'])} {m['unit']}{note}")
    if not args.trace:
        for name, value, unit in outcome.aliases:
            print(f"{name} {_fmt(value)} {unit}  (earlier name)")
    print(f"failed_frac {_fmt(tally.failed_frac)} ratio  "
          f"({tally.failed} of {tally.attempted} operations)")
    for why, n in sorted(tally.errors.items()):
        print(f"# failure x{n}: {why}")
    for leak in leaks:
        print(f"# leak: {leak}")
    correct = tally.failed == 0 and tally.attempted > 0 and not leaks
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
