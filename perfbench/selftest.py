"""Self-test of the benchmark: an injected delay must be seen.

A wrapper adds a fixed sleep to every call of one layer's public
function, ``SconnaErrorModel.apply_to_counts`` (the ADC noise draw).
On the ``offline_paper`` engine phase the test then requires that

* the traced per-layer table charges the added time to ``adc.apply``'s
  self time (at least 80 % of it), and
* the untraced ``offline_img_s`` drops by more than its bound in
  ``BENCHMARK.json``.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DELAY_S = 0.020
SECONDS = 6.0


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from common import build_registry, make_images, work_dir

    work = work_dir(ROOT)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    import tracing
    import workloads
    from repro.stochastic.error_models import SconnaErrorModel

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "offline_img_s")
    ctx = argparse.Namespace(root=ROOT, bench=BENCH, work=work, seed=7,
                             seconds=SECONDS, trace=True)
    registry = build_registry(work)
    images = make_images(ctx.seed)

    def measure(traced: bool) -> "tuple[float, dict]":
        rec = tracing.Recorder() if traced else None
        if traced:
            tracing.install(rec)
        try:
            run = workloads._offline_measure(ctx, registry, images,
                                             SECONDS, rec)
        finally:
            if traced:
                rec.uninstall()
        if not traced:
            return run["offline_img_s"], {}
        t0, t1 = run["window"]
        trace = tracing.window(
            tracing.load([{"spans": rec.spans, "owner": rec.owner}]), t0, t1)
        _, _, rows = tracing.layer_table(trace, "offline.batch")
        calls = sum(1 for s in trace["spans"] if s[1] == "adc.apply")
        batches = sum(1 for s in trace["spans"] if s[1] == "offline.batch")
        table = {name: ms for name, ms, _ in rows}
        table["_adc_calls_per_batch"] = calls / batches
        return run["offline_img_s"], table

    base_rate, _ = measure(False)
    _, base_table = measure(True)
    original = SconnaErrorModel.apply_to_counts

    def delayed(self, *args, **kwargs):
        time.sleep(DELAY_S)
        return original(self, *args, **kwargs)

    SconnaErrorModel.apply_to_counts = delayed
    try:
        slow_rate, _ = measure(False)
        _, slow_table = measure(True)
    finally:
        SconnaErrorModel.apply_to_counts = original

    injected_ms = 1e3 * DELAY_S * slow_table["_adc_calls_per_batch"]
    seen_ms = slow_table.get("adc.apply", 0.0) - base_table.get("adc.apply", 0.0)
    drop = 1.0 - slow_rate / base_rate
    checks = {
        f"adc.apply self time grew by >= 80% of the {injected_ms:.2f} ms "
        f"injected per batch (grew {seen_ms:.2f} ms)":
            seen_ms >= 0.8 * injected_ms,
        f"offline_img_s dropped by more than its bound {bound:.0%} "
        f"({base_rate:.1f} -> {slow_rate:.1f} img/s, {drop:.1%})":
            drop > bound,
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
