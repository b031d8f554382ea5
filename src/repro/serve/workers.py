"""Thread worker pool executing coalesced inference batches.

This is the substrate of the in-process execution backend
(:class:`repro.serve.backends.ThreadBackend`).  Threads - not processes
- because the engine's hot path spends its time inside BLAS matmuls and
the native remainder kernel, both of which release the GIL; two workers
keep one core on compute while another fills im2col buffers.  When that
single runtime becomes the bottleneck, the process backend in
:mod:`repro.serve.backends` shards work across worker *processes*
instead.  Each worker thread owns warm scratch buffers automatically:
:class:`repro.cnn.engine.SconnaEngine` keeps its :class:`_BufferPool`
in thread-local storage, so a worker's first batch compiles the fused
plan and allocates the arena and engine workspaces, and every later
batch no larger than the largest seen reuses them.
:meth:`WorkerPool.warm` lets a service pre-pay that first-batch cost at
registration time.
"""

from __future__ import annotations

import queue
import threading

#: queue marker that terminates one worker
_SENTINEL = object()


class WorkerPool:
    """Fixed-size pool of daemon threads draining a task queue.

    Tasks are zero-argument callables that must not raise (the service
    layer routes per-request failures through futures); a task that does
    raise is swallowed after marking the pool's error counter, so one
    poisoned batch cannot kill a worker.
    """

    def __init__(self, n_workers: int = 2, name: str = "sconna-worker") -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self._tasks: "queue.Queue[object]" = queue.Queue()
        self._closed = False
        self._task_errors = 0
        self._error_lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._run, name=f"{name}-{i}", daemon=True)
            for i in range(n_workers)
        ]
        for t in self._threads:
            t.start()

    # -- client side -----------------------------------------------------
    def submit(self, task) -> None:
        """Enqueue a zero-argument task (``RuntimeError`` once closed)."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        self._tasks.put(task)

    def warm(self, fn, timeout: float = 30.0) -> None:
        """Run ``fn`` once in *every* worker thread (barrier-synchronised).

        Used to pre-warm per-thread engine buffers: each worker executes
        ``fn`` exactly once - a barrier keeps a fast worker from stealing
        a sibling's warm-up task.
        """
        barrier = threading.Barrier(self.n_workers + 1)

        def warmer() -> None:
            try:
                fn()
            finally:
                barrier.wait(timeout)

        for _ in range(self.n_workers):
            self.submit(warmer)
        barrier.wait(timeout)

    @property
    def task_errors(self) -> int:
        return self._task_errors

    @property
    def closed(self) -> bool:
        return self._closed

    def pending(self) -> int:
        """Tasks queued but not yet picked up (approximate, for metrics)."""
        return self._tasks.qsize()

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain queued tasks, then stop and join every worker."""
        if not self._closed:
            self._closed = True
            for _ in self._threads:
                self._tasks.put(_SENTINEL)
        for t in self._threads:
            t.join(timeout)
            if t.is_alive():
                raise RuntimeError(f"worker {t.name} did not stop in time")

    # -- worker side -----------------------------------------------------
    def _run(self) -> None:
        while True:
            task = self._tasks.get()
            if task is _SENTINEL:
                return
            try:
                task()
            except BaseException:
                with self._error_lock:
                    self._task_errors += 1
