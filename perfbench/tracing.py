"""Span recording around the program's public layer functions.

Nothing here edits the program: :func:`install` swaps a timing wrapper
onto each public function (class attribute or module attribute) that a
layer exposes, and :meth:`Recorder.uninstall` puts the originals back.

A span is ``[id, name, start, end, parent, rids, tags]``:

* ``start``/``end`` come from ``time.monotonic``, the clock the program
  itself stamps requests with, and which is system-wide on Linux, so
  spans from the client and the server process line up;
* ``parent`` is the enclosing span on the same thread (``0``: none);
* ``rids`` are the request ids the span serves (a batch span serves
  every request in the batch);
* ``tags`` carry the counts measured at that boundary (images, MACs,
  bytes, cache hit), so a time window filters counts and times alike.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

clock = time.monotonic


class Recorder:
    """In-memory spans, filled by the installed wrappers."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: "list[tuple[object, str, object]]" = []
        #: service request id -> the span that blocks on it (if any)
        self.owner: "dict[int, int]" = {}
        #: service request id -> its lane's max_batch_size
        self.lane_cap: "dict[int, int]" = {}
        #: (id(plan), mode, shape) keys whose program was built
        self.seen_programs: "set[tuple]" = set()

    # -- spans -----------------------------------------------------------
    def stack(self) -> "list[list]":
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, parent: "int | None" = None,
             rids: tuple = (), start: "float | None" = None,
             root: bool = False) -> list:
        """Open a span on this thread.  ``parent=0`` starts a detached
        span; ``root=True`` also gives it a request id of its own (for
        roots that carry no service request id)."""
        st = self.stack()
        if root:
            parent, rids = 0, (-next(self._ids),)
        if parent is None:
            parent = st[-1][0] if st else 0
            if st and not rids:
                rids = st[-1][5]
        span = [next(self._ids), name, clock() if start is None else start,
                None, parent, tuple(rids), {}]
        st.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = clock()
        st = self.stack()
        if st and st[-1] is span:
            st.pop()
        self.spans.append(span)

    def add(self, name: str, start: float, end: float, rids: tuple = (),
            **tags) -> list:
        """A detached span measured elsewhere (a wait between stamps)."""
        span = [next(self._ids), name, start, end, 0, tuple(rids), tags]
        self.spans.append(span)
        return span

    def tag_stack(self, rid: int) -> None:
        """Attach a request id to every open span on this thread."""
        for span in self.stack():
            if rid not in span[5]:
                span[5] = span[5] + (rid,)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "owner": self.owner}, fh)

    # -- wrapping --------------------------------------------------------
    def patch(self, owner: object, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def timed(self, owner: object, attr: str, name: str,
              tags=None, root: bool = False) -> None:
        """Wrap ``owner.attr`` in a span; ``tags(args, result)`` returns
        the counts to attach once the call returns."""
        def make(fn):
            def wrapper(*args, **kwargs):
                span = self.open(name, root=root)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(span)
                if tags is not None:
                    span[6].update(tags(args, result))
                return result
            return wrapper
        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def _out_bytes(args, result):
    return {"bytes": len(result)}


def _in_bytes(args, result):
    return {"bytes": len(args[0])}


def install_client(rec: Recorder) -> None:
    """Wrap the client side of the wire (the HTTP load generator)."""
    from repro.serve import wire
    from repro.serve.client import SconnaClient

    def make_predict(fn):
        def predict(self, *args, **kwargs):
            span = rec.open("client.predict", parent=0)
            try:
                result = fn(self, *args, **kwargs)
            finally:
                rec.close(span)
            span[5] = (result.request_id,)
            return result
        return predict

    rec.patch(SconnaClient, "predict", make_predict)
    rec.timed(wire, "encode_frame", "client.encode", _out_bytes)
    rec.timed(wire, "decode_frame", "client.decode", _in_bytes)


def install(rec: Recorder) -> None:
    """Wrap the serving, engine and simulator layers' entry points
    (README.md maps each to the metrics it should move)."""
    from repro.arch.events import EventKernel
    from repro.arch.simulator import AcceleratorSimulator, SimulationCache
    from repro.cnn.engine import SconnaEngine
    from repro.cnn.graph_plan import NetworkPlan
    from repro.cnn.inference import QuantizedModel
    from repro.serve import httpd, wire
    from repro.serve.admission import AdmissionController, AdmissionError
    from repro.serve.backends import ThreadBackend
    from repro.serve.batching import MicroBatcher
    from repro.serve.costs import CostAccountant
    from repro.serve.metrics import ServeMetrics
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import SconnaService
    from repro.serve.telemetry import prometheus
    from repro.serve.workers import WorkerPool
    from repro.stochastic.error_models import SconnaErrorModel

    # serve.httpd + serve.wire (server side); do_POST/do_GET are the
    # stdlib handler API the server dispatches every request through
    handler = httpd._ServeHandler
    rec.timed(handler, "do_POST", "httpd.request")
    rec.timed(handler, "do_GET", "httpd.get", root=True)
    rec.timed(wire, "decode_frame", "wire.decode", _in_bytes)
    rec.timed(wire, "encode_frame", "wire.encode", _out_bytes)

    # serve.service: predict() is the handler's predict_async -> result
    rec.timed(SconnaService, "predict", "service.predict")
    rec.timed(SconnaService, "predict_async", "service.predict_async")
    rec.timed(SconnaService, "metrics_snapshot", "metrics.snapshot")

    # serve.admission
    def make_admit(fn):
        def admit(self, *args, **kwargs):
            span = rec.open("admission.admit")
            try:
                fn(self, *args, **kwargs)
            except AdmissionError:
                span[6]["shed"] = 1
                raise
            finally:
                rec.close(span)
        return admit

    rec.patch(AdmissionController, "admit", make_admit)

    # serve.batching: submit() names the span blocking on each request
    def make_submit(fn):
        def submit(self, request):
            rid = request.request_id
            rec.tag_stack(rid)
            for span in reversed(rec.stack()):
                if span[1] == "service.predict":
                    rec.owner[rid] = span[0]
                    break
            rec.lane_cap[rid] = self.policy.max_batch_size
            span = rec.open("batching.submit")
            try:
                return fn(self, request)
            finally:
                rec.close(span)
        return submit

    rec.patch(MicroBatcher, "submit", make_submit)

    # serve.backends: ThreadBackend.submit runs the moment a batch is
    # dispatched, which ends each request's batching queue wait
    def make_dispatch(fn):
        def dispatch(self, name, batch, on_done):
            now = clock()
            rids = tuple(req.request_id for req in batch)
            for req in batch:
                rec.add("batching.queue_wait", req.enqueued_at, now,
                        rids=(req.request_id,))
            n_images = sum(req.n_images for req in batch)
            cap = rec.lane_cap.pop(rids[0], None)
            for rid in rids[1:]:
                rec.lane_cap.pop(rid, None)
            span = rec.open("backend.submit", parent=0, rids=rids)
            span[6].update(images=n_images, full=int(n_images == cap))
            try:
                return fn(self, name, batch, on_done)
            finally:
                rec.close(span)
        return dispatch

    rec.patch(ThreadBackend, "submit", make_dispatch)

    # serve.workers: a task's wait and run, under the dispatching batch
    def make_pool_submit(fn):
        def submit(self, task):
            st = rec.stack()
            rids = st[-1][5] if st else ()
            queued = clock()

            def timed_task():
                start = clock()
                rec.add("backend.queue_wait", queued, start, rids=rids)
                span = rec.open("backend.task", parent=0, rids=rids,
                                start=start)
                try:
                    task()
                finally:
                    rec.close(span)

            fn(self, timed_task)
            if st:
                st[-1][6]["pending"] = self.pending()
        return submit

    rec.patch(WorkerPool, "submit", make_pool_submit)

    # cnn.inference / cnn.graph_plan
    rec.timed(QuantizedModel, "forward", "forward",
              lambda a, r: {"images": int(a[1].shape[0])})
    rec.timed(NetworkPlan, "try_execute", "plan.try_execute",
              lambda a, r: {"fused": int(r is not None)})

    def make_program_for(fn):
        def program_for(self, mode, in_shape):
            key = (id(self), mode, tuple(int(d) for d in in_shape))
            if key in rec.seen_programs:
                return fn(self, mode, in_shape)
            rec.seen_programs.add(key)
            span = rec.open("plan.build")
            try:
                return fn(self, mode, in_shape)
            finally:
                rec.close(span)
        return program_for

    rec.patch(NetworkPlan, "program_for", make_program_for)

    # cnn.engine: MACs computed from the operand shapes
    def macs(a, r):
        b, q, p = a[2].shape
        return {"macs": b * q * p * a[1].n_out}

    rec.timed(SconnaEngine, "matmul", "engine.matmul", macs)
    rec.timed(SconnaEngine, "matmul_ideal", "engine.matmul", macs)

    # stochastic.error_models -> photonics.converters: the ADC draw
    rec.timed(SconnaErrorModel, "apply_to_counts", "adc.apply",
              lambda a, r: {"values": int(r.size)})

    # serve.costs / arch.simulator / arch.events
    rec.timed(CostAccountant, "annotate", "costs.annotate")

    def make_cache_result(fn):
        def result(self, design, model):
            misses = self.stats()["misses"]
            span = rec.open("simcache.result")
            try:
                return fn(self, design, model)
            finally:
                rec.close(span)
                span[6]["hit"] = int(self.stats()["misses"] == misses)
        return result

    rec.patch(SimulationCache, "result", make_cache_result)
    rec.timed(AcceleratorSimulator, "simulate", "sim.simulate",
              lambda a, r: {"layers": len(r.layers)})
    rec.timed(AcceleratorSimulator, "layer_timing", "sim.layer_timing")
    rec.timed(EventKernel, "run", "events.run")

    # serve.metrics + serve.telemetry.prometheus
    for attr in ("record_requests", "record_batch", "record_enqueue",
                 "record_cost"):
        rec.timed(ServeMetrics, attr, "metrics.record")
    rec.timed(ServeMetrics, "snapshot", "metrics.aggregate",
              lambda a, r: {"samples": r["latency"].get("count", 0)
                            + r["queue_wait"].get("count", 0)})
    for module in (prometheus, httpd):
        rec.timed(module, "render_exposition", "prometheus.render",
                  _out_bytes)

    # serve.registry / cnn.serialization
    rec.timed(ModelRegistry, "load", "registry.load")


# -- analysis -----------------------------------------------------------

#: hand-off spans: recorded on the batcher or a worker thread, they sit
#: under the span that blocks on the request (or the request root)
HANDOFFS = ("batching.queue_wait", "backend.submit", "backend.queue_wait",
            "backend.task")


def load(dumps: "list[dict]") -> dict:
    """Merge per-process dumps into one trace, renumbering span ids so
    two processes' ids cannot collide."""
    spans: "list[list]" = []
    owner: "dict[int, int]" = {}
    offset = 0
    for dump in dumps:
        top = 0
        for sid, name, start, end, parent, rids, tags in dump["spans"]:
            spans.append([sid + offset, name, start, end,
                          parent + offset if parent else 0,
                          tuple(rids), tags])
            top = max(top, sid)
        for rid, sid in dump["owner"].items():
            owner[int(rid)] = sid + offset
        offset += top + 1
    return {"spans": spans, "owner": owner}


def window(trace: dict, t0: float, t1: float) -> dict:
    """The spans that start inside ``[t0, t1)``."""
    return {"spans": [s for s in trace["spans"] if t0 <= s[2] < t1],
            "owner": trace["owner"]}


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of intervals."""
    total, cursor = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: "list[list]") -> "dict[int, float]":
    """Each span's duration minus the part its children cover."""
    children: "dict[int, list]" = {}
    for span in spans:
        if span[4]:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return {
        s[0]: (s[3] - s[2]) - _covered(s[2], s[3], children.get(s[0], ()))
        for s in spans
    }


def layer_table(trace: dict, root_name: str) -> "tuple[int, float, list]":
    """Per-request latency split for the roots named ``root_name``.

    For each root, the spans serving its request (by request id, plus
    their descendants) form a tree; every span's self time is charged
    to its name, and the root's own self time is the ``unattributed``
    residual.  Returns ``(n_roots, mean root ms, [(name, mean self ms
    per root, share)])``, largest first.
    """
    spans = trace["spans"]
    by_rid: "dict[int, list]" = {}
    kids: "dict[int, list]" = {}
    for span in spans:
        for rid in span[5]:
            by_rid.setdefault(rid, []).append(span)
        if span[4]:
            kids.setdefault(span[4], []).append(span)
    totals: "dict[str, float]" = {"unattributed": 0.0}
    n_roots, root_total = 0, 0.0
    for root in (s for s in spans if s[1] == root_name and s[5]):
        rid = root[5][0]
        members = {s[0]: s for s in by_rid.get(rid, ())}
        todo = list(members)
        while todo:  # descendants carry no request id of their own
            for child in kids.get(todo.pop(), ()):
                if child[0] not in members:
                    members[child[0]] = child
                    todo.append(child[0])
        owner = trace["owner"].get(rid)
        if owner not in members:
            owner = root[0]
        tree = []
        for s in members.values():
            parent = s[4]
            if s is not root and parent not in members:
                parent = owner if s[1] in HANDOFFS else root[0]
            tree.append([s[0], s[1], s[2], s[3], parent])
        own = self_times(tree)
        n_roots += 1
        root_total += root[3] - root[2]
        for s in tree:
            key = "unattributed" if s[0] == root[0] else s[1]
            totals[key] = totals.get(key, 0.0) + own[s[0]]
    if not n_roots:
        return 0, 0.0, []
    rows = sorted(
        ((name, 1e3 * t / n_roots, t / root_total if root_total else 0.0)
         for name, t in totals.items()),
        key=lambda row: -row[1],
    )
    return n_roots, 1e3 * root_total / n_roots, rows


def format_table(title: str, n_roots: int, mean_ms: float,
                 rows: list) -> str:
    lines = [f"{title}: {n_roots} roots, mean {mean_ms:.3f} ms per root",
             f"  {'span (layer)':26s} {'self ms/root':>12s} {'share':>7s}"]
    for name, ms, share in rows:
        lines.append(f"  {name:26s} {ms:12.4f} {100 * share:6.1f}%")
    return "\n".join(lines)


def layer_metrics(trace: dict) -> "dict[str, float]":
    """The per-layer metric set (README.md) from one traced window."""
    spans = trace["spans"]
    own = self_times(spans)
    by_name: "dict[str, list[list]]" = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def durations(name):
        return [s[3] - s[2] for s in by_name.get(name, ())]

    def mean_ms(name):
        values = durations(name)
        return 1e3 * sum(values) / len(values) if values else 0.0

    def total_ms(name):
        return 1e3 * sum(durations(name))

    def tag_sum(name, key):
        return sum(s[6].get(key, 0) for s in by_name.get(name, ()))

    def tag_mean(name, key):
        n = len(by_name.get(name, ()))
        return tag_sum(name, key) / n if n else 0.0

    # handler time minus its predict_async -> result span, per request
    inner = {s[4]: s[3] - s[2] for s in by_name.get("service.predict", ())}
    handlers = by_name.get("httpd.request", ())
    httpd_self = [h[3] - h[2] - inner.get(h[0], 0.0) for h in handlers]
    n_client = len(by_name.get("client.predict", ()))
    client_bytes = (tag_sum("client.encode", "bytes")
                    + tag_sum("client.decode", "bytes"))
    shed = tag_sum("admission.admit", "shed")
    pending = [s[6].get("pending", 0)
               for s in by_name.get("backend.submit", ())]
    samples = [s[6].get("samples", 0)
               for s in by_name.get("metrics.aggregate", ())]
    return {
        "client.encode_ms": mean_ms("client.encode"),
        "client.decode_ms": mean_ms("client.decode"),
        "wire.bytes_per_req": client_bytes / n_client if n_client else 0.0,
        "httpd.request_ms": mean_ms("httpd.request"),
        "httpd.self_ms": (1e3 * sum(httpd_self) / len(httpd_self)
                          if httpd_self else 0.0),
        "admission.admits": len(by_name.get("admission.admit", ())) - shed,
        "admission.shed": shed,
        "batching.queue_wait_ms": mean_ms("batching.queue_wait"),
        "batching.batches": len(by_name.get("backend.submit", ())),
        "batching.images_per_batch": tag_mean("backend.submit", "images"),
        "batching.full_batch_share": tag_mean("backend.submit", "full"),
        "backend.queue_wait_ms": mean_ms("backend.queue_wait"),
        "backend.busy_ms": total_ms("backend.task"),
        "backend.pending_max": max(pending, default=0),
        "forward.calls": len(by_name.get("forward", ())),
        "forward.busy_ms": total_ms("forward"),
        "forward.images": tag_sum("forward", "images"),
        "plan.fused_share": tag_mean("plan.try_execute", "fused"),
        "engine.matmul_ms": 1e3 * sum(own[s[0]] for s in
                                      by_name.get("engine.matmul", ())),
        "engine.macs": tag_sum("engine.matmul", "macs"),
        "adc.apply_ms": total_ms("adc.apply"),
        "adc.values_drawn": tag_sum("adc.apply", "values"),
        "costs.annotate_ms": total_ms("costs.annotate"),
        "simcache.hit_ratio": tag_mean("simcache.result", "hit"),
        "sim.simulate_ms": total_ms("sim.simulate"),
        "sim.layer_timing_ms": total_ms("sim.layer_timing"),
        "events.run_ms": total_ms("events.run"),
        "metrics.record_ms": total_ms("metrics.record"),
        "metrics.snapshot_ms": mean_ms("metrics.snapshot"),
        "prometheus.render_ms": mean_ms("prometheus.render"),
        "prometheus.bytes": tag_mean("prometheus.render", "bytes"),
        "metrics.samples_buffered": max(samples, default=0),
    }


def setup_metrics(trace: dict) -> "dict[str, float]":
    """Set-up layers, from the spans recorded before the timed window."""
    spans = trace["spans"]
    loads = [s[3] - s[2] for s in spans if s[1] == "registry.load"]
    builds = [s[3] - s[2] for s in spans if s[1] == "plan.build"]
    return {
        "registry.load_ms": 1e3 * sum(loads) / len(loads) if loads else 0.0,
        "plan.first_build_ms": 1e3 * sum(builds),
    }
