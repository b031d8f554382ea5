"""Fixtures and measurement helpers shared by the three workloads."""

from __future__ import annotations

import os
import platform
import statistics
import threading
import time
from pathlib import Path

import numpy as np

#: the four Table V proxies; each links to the zoo CNN it stands in for
PROXIES = ("gnet_proxy", "rnet_proxy", "mnet_proxy", "snet_proxy")
IMAGE_SHAPE = (3, 24, 24)
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: one scrape per second, the watchtower's default interval
SCRAPE_INTERVAL_S = 1.0

now = time.perf_counter


def work_dir(root: Path) -> Path:
    """Where a run writes its files, inside the checkout (git-ignored)."""
    path = root / ".perfbench_work"
    (path / "tmp").mkdir(parents=True, exist_ok=True)
    return path


def build_registry(work: Path):
    """Quantize the four proxies (fixed weights, independent of the
    workload seed) into a fresh on-disk registry."""
    from repro.cnn.inference import QuantizedModel
    from repro.cnn.train import PROXY_MODELS, build_proxy
    from repro.serve import ModelRegistry

    registry = ModelRegistry(work / "registry")
    calib = np.random.default_rng(0).random((32, *IMAGE_SHAPE))
    for name in PROXIES:
        qmodel = QuantizedModel.from_trained(build_proxy(name, seed=0), calib)
        registry.save(name, qmodel, arch_model=PROXY_MODELS[name])
    return registry


def make_images(seed: int, n: int = 128) -> np.ndarray:
    """The workload inputs: seeded float32 images in [0, 1]."""
    rng = np.random.default_rng([seed, 1])
    return rng.random((n, *IMAGE_SHAPE), dtype=np.float32)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a sample."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of a sample without its lowest and highest ``cut`` shares."""
    ordered = sorted(values)
    k = int(cut * len(ordered))
    return statistics.fmean(ordered[k:len(ordered) - k])


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def machine_record() -> dict:
    """What the figures depend on, so runs on different machines are
    never compared silently: cores, versions, native kernel, knobs, and
    a calibration pair (a fixed BLAS matmul, a fixed pure-Python loop)."""
    from repro.utils import native

    a = np.random.default_rng(0).random((256, 256))

    def blas():
        a @ a

    def loop():
        total = 0
        for i in range(100_000):
            total += i * i
        return total

    def median_ms(fn, repeats=7):
        fn()
        times = []
        for _ in range(repeats):
            t0 = now()
            fn()
            times.append(now() - t0)
        return 1e3 * statistics.median(times)

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_kernel": native.native_available(),
        "REPRO_NATIVE": os.environ.get("REPRO_NATIVE"),
        "REPRO_AUTOTUNE": os.environ.get("REPRO_AUTOTUNE"),
        "calib_blas_256_ms": round(median_ms(blas), 4),
        "calib_python_loop_ms": round(median_ms(loop), 4),
    }


class Phase:
    """Sent / succeeded / failed / shed accounting of one phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sent = self.succeeded = self.failed = self.shed = 0
        self.latencies: "list[float]" = []
        self.done_at: "list[float]" = []
        self.errors: "dict[str, int]" = {}
        self._lock = threading.Lock()

    def ok(self, latency_s: float) -> None:
        with self._lock:
            self.succeeded += 1
            self.latencies.append(latency_s)
            self.done_at.append(now())

    def fail(self, exc: BaseException, shed: bool = False) -> None:
        with self._lock:
            self.failed += 1
            self.shed += int(shed)
            key = type(exc).__name__
            self.errors[key] = self.errors.get(key, 0) + 1

    def attainment(self, limit_s: float) -> float:
        """Share of requests sent that completed within ``limit_s``; a
        failed request counts as a miss."""
        met = sum(1 for lat in self.latencies if lat <= limit_s)
        return met / self.sent if self.sent else 0.0

    def record(self) -> dict:
        out = {"sent": self.sent, "succeeded": self.succeeded,
               "failed": self.failed, "shed": self.shed,
               "errors": self.errors}
        if self.latencies:
            out["p90_ms"] = 1e3 * quantile(self.latencies, 0.90)
            out["p99_ms"] = 1e3 * quantile(self.latencies, 0.99)
            out["p999_ms"] = 1e3 * quantile(self.latencies, 0.999)
        return out


class Scraper:
    """A thread calling ``scrape()`` once per interval until stopped,
    recording each call's latency (failures count in its phase)."""

    def __init__(self, scrape, phase: Phase) -> None:
        self._scrape = scrape
        self.phase = phase
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="scraper")

    def _run(self) -> None:
        while not self._stop.wait(SCRAPE_INTERVAL_S):
            self.phase.sent += 1
            t0 = now()
            try:
                self._scrape()
            except Exception as exc:  # counted, reported, never hidden
                self.phase.fail(exc)
            else:
                self.phase.ok(now() - t0)

    def __enter__(self) -> "Scraper":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def engine_phase(models: dict, mode: str, images: np.ndarray,
                 seconds: float, seed: int, phase: Phase,
                 batch: int = 32) -> int:
    """Seeded batch-``batch`` forwards of every model in turn until
    ``seconds`` elapse; a sweep (one batch through each model) is one
    request of ``phase``.  Returns the number of images completed."""
    from repro.stochastic.error_models import SconnaErrorModel

    n_images = k = 0
    t_end = now() + seconds
    while now() < t_end or not phase.sent:
        phase.sent += 1
        t0 = now()
        try:
            for qmodel in models.values():
                start = (k * batch) % (len(images) - batch + 1)
                em = (SconnaErrorModel(seed=seed * 100_003 + k)
                      if mode == "sconna" else None)
                qmodel.forward(images[start:start + batch], mode,
                               error_model=em)
                k += 1
        except Exception as exc:  # counted as a failed request
            phase.fail(exc)
        else:
            phase.ok(now() - t0)
            n_images += batch * len(models)
    return n_images


def sim_phase(designs: dict, descriptors: list, seconds: float,
              phase: Phase) -> "tuple[int, dict]":
    """A fresh ``AcceleratorSimulator(design).simulate(model)`` for every
    design x descriptor (no ``SimulationCache``), repeated until
    ``seconds`` elapse; one grid is one request of ``phase``.  Returns
    the simulated layer count and the last grid's results keyed
    ``(model, design)``."""
    from repro.arch.simulator import AcceleratorSimulator

    layers = 0
    results: dict = {}
    t_end = now() + seconds
    while now() < t_end or not phase.sent:
        phase.sent += 1
        t0 = now()
        try:
            n = 0
            for desc in descriptors:
                for accel, design in designs.items():
                    res = AcceleratorSimulator(design).simulate(desc)
                    results[(desc.name, accel)] = res
                    n += len(res.layers)
        except Exception as exc:  # counted as a failed request
            phase.fail(exc)
        else:
            phase.ok(now() - t0)
            layers += n
    return layers, results
