"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload http_b1_int8 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
half the time untraced and half with the layer wrappers installed, and
prints the per-layer tables and metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit, as listed in BENCHMARK.json).
Everything the run writes stays under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an error, so child processes are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "offline_paper":
        # one CPU, like the serving workloads' threads; set before NumPy
        # loads, so that OpenBLAS starts one thread and no BLAS call
        # waits on a second vCPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from common import machine_record, work_dir

    work = work_dir(ROOT)
    # the native kernel's build cache and every temp file stay in the
    # checkout
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    from workloads import CPU_SETS, WORKLOADS

    # BENCHMARK.json lists the gated workloads; the others run by hand
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    machine = machine_record()  # also builds the native kernel, untimed
    machine["cpus"] = CPU_SETS[args.workload]
    print("machine:", json.dumps(machine))
    ctx = argparse.Namespace(root=ROOT, bench=BENCH, work=work,
                             seed=args.seed, seconds=args.seconds,
                             trace=bool(args.trace))
    outcome = WORKLOADS[args.workload](ctx)

    attempted = sum(p.sent for p in outcome.phases)
    failed = sum(p.failed for p in outcome.phases)
    for phase in outcome.phases:
        print(f"phase {phase.name}: {json.dumps(phase.record())}")
    for table in outcome.tables:
        print(table)
    for name, ok in outcome.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    metrics = dict(outcome.metrics)
    if not args.trace:
        metrics["success_share"] = (attempted - failed) / attempted \
            if attempted else 0.0
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    for name, value in outcome.notes.items():
        print(f"note {name}: {value}")
    for name, source in outcome.aliases.items():
        print(f"alias {name} = {source}")
    correct = (all(outcome.checks.values()) and attempted > 0
               and failed < attempted
               and all(p.succeeded for p in outcome.phases))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, machine=machine,
                  phases={p.name: p.record() for p in outcome.phases},
                  checks=outcome.checks, all_metrics=metrics,
                  aliases=outcome.aliases)
    out = work / f"result_{args.workload}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
