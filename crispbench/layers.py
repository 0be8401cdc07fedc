"""The traced run: which public calls are wrapped, and the per-layer metrics.

:func:`install` patches the program's public entry points of each layer
with :class:`~crispbench.tracer.Tracer` wrappers; nothing inside ``src/``
changes.  Work done inside process-shard children is out of reach of these
wrappers, so the process-shard workload also turns on the program's own
``repro.trace`` hops and reads the child-side ``shard`` / ``engine`` spans
they carry back.  :func:`derive` turns spans, hops and counters into the
per-layer metrics listed in ``BENCHMARK.json``.

Operation counts and bytes moved of the kernels are computed from operand
sizes (stored weight values, activation and output arrays), not measured.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import numpy as np

from repro.backend.engine import Engine
from repro.backend.fast import FastBackend
from repro.cluster import ClusterService
from repro.gateway import ClusterBackend, Gateway, GatewayClient
from repro.gateway.wire import ApiRequest, ApiResponse
from repro.nn.trainer import Trainer
from repro.pruning import crisp
from repro.serve import service as serve_service
from repro.serve.cache import EngineCache
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import BatchScheduler
from repro.sparsity.formats import CRISPFormat, CSRFormat

from .tracer import Tracer, ancestors, self_times

#: Engine-call buckets by fused images (``65up`` is 65 and more).
BUCKETS = (("b1", 1, 1), ("b2-8", 2, 8), ("b9-64", 9, 64), ("b65up", 65, None))

#: Per-layer metrics: name -> unit.  Every traced run reports all of them;
#: a layer a workload never reaches (or that runs in a process shard out of
#: the wrappers' sight) reads 0 with a call count of 0.
PER_LAYER = {
    "transport.self_ms": "ms",
    "wire.codec_ms": "ms",
    "wire.request_bytes": "bytes",
    "wire.response_bytes": "bytes",
    "gateway.handle_self_ms": "ms",
    "frontend.submit_ms": "ms",
    "shard.wait_ms": "ms",
    "shard.requests_per_dispatch": "count",
    "shard.images_per_dispatch": "count",
    "procworker.overhead_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.hits": "count",
    "cache.gets": "count",
    "cache.miss_ms": "ms",
    "registry.build_engine_ms": "ms",
    "format.encode_ms": "ms",
    "scheduler.dispatch_self_ms": "ms",
    "registry.register_ms": "ms",
    **{f"engine.predict_ms.{b}": "ms" for b, _, _ in BUCKETS},
    **{f"engine.calls.{b}": "count" for b, _, _ in BUCKETS},
    "engine.non_gemm_ms": "ms",
    "kernel.sparse_matmul_ms": "ms",
    "kernel.sparse_matmul_calls": "count",
    "kernel.sparse_matmul_mflop": "MFLOP",
    "kernel.sparse_matmul_mbytes": "MB",
    "kernel.im2col_ms": "ms",
    "kernel.im2col_calls": "count",
    "kernel.im2col_melems": "Melem",
    "kernel.im2col_mbytes": "MB",
    "personalize.universal_ms": "ms",
    "pruning.saliency_ms": "ms",
    "pruning.mask_ms": "ms",
    "trainer.fit_ms": "ms",
    "trainer.evaluate_ms": "ms",
    "process.cpu_s_per_request": "s",
    "gen.late_p50_ms": "ms",
    "gen.late_max_ms": "ms",
    "gen.peak_inflight": "count",
    "trace.overhead_p50_ms": "ms",
    "trace.spans": "count",
}

_CODEC = "wire.codec"


def _weight_values(fmt) -> int:
    if isinstance(fmt, CRISPFormat):
        return int(fmt.group_values.size)
    if isinstance(fmt, CSRFormat):
        return int(fmt.data.size)
    return int(getattr(fmt, "size", 0))


def _weight_bytes(fmt) -> int:
    if isinstance(fmt, np.ndarray):
        return fmt.nbytes
    return sum(v.nbytes for v in vars(fmt).values() if isinstance(v, np.ndarray))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls; :meth:`Tracer.restore` undoes it."""
    submitted: Dict[int, float] = {}  # id(request inputs) -> submit time

    def stamp_submit(args, kwargs):
        submitted[id(args[1].inputs)] = time.perf_counter()
        return None

    def engine_call(args, kwargs):
        now = time.perf_counter()
        batches = args[1]
        waits = [now - submitted.pop(id(b)) for b in batches if id(b) in submitted]
        return {
            "requests": len(batches),
            "images": sum(int(np.shape(b)[0]) for b in batches),
            "wait_sum": sum(waits),
            "wait_n": len(waits),
        }

    def pipe(args, kwargs):
        # Codec calls on a process shard's pump thread frame the parent-child
        # pipe; they belong to procworker, not to the client-facing wire.
        return {"pipe": float(threading.current_thread().name.startswith("repro-shard"))}

    def codec(encode):
        def info(args, kwargs, result):
            message, text = (args[0], result) if encode else (result, args[1])
            if isinstance(message, ApiRequest):
                predict, request = message.method == "predict", 1.0
            else:
                predict, request = "response" in (message.payload or {}), 0.0
            return {"bytes": len(text), "predict": float(predict), "request": request}
        return info

    def gemm(args, kwargs, result):
        fmt, activations = args[1], args[2]
        return {
            "mflop": 2.0 * _weight_values(fmt) * activations.shape[1] / 1e6,
            "mbytes": (_weight_bytes(fmt) + activations.nbytes + result.nbytes) / 1e6,
        }

    def columns(args, kwargs, result):
        return {
            "melems": result.size / 1e6,
            "mbytes": (args[1].nbytes + result.nbytes) / 1e6,
        }

    wrap = tracer.wrap
    wrap(GatewayClient, "predict", "client.predict")
    wrap(Gateway, "handle", "gateway.handle",
         request_id=lambda a, k: a[1].request_id,
         before=lambda a, k: {"predict": float(a[1].method == "predict")})
    for cls in (ApiRequest, ApiResponse):
        wrap(cls, "to_json", _CODEC, before=pipe, info=codec(encode=True))
        wrap(cls, "from_json", _CODEC, before=pipe, info=codec(encode=False))
    # Its span stands between the gateway and the cluster, so that the
    # gateway's self time excludes the wait for the shard's answer.
    wrap(ClusterBackend, "predict", "frontend.predict")
    wrap(ClusterService, "submit", "frontend.submit", before=stamp_submit)
    wrap(EngineCache, "get", "cache.get",
         before=lambda a, k: {"hit": float(a[1] in a[0])})
    wrap(ModelRegistry, "build_engine", "registry.build_engine")
    wrap(ModelRegistry, "register", "registry.register")
    wrap(CRISPFormat, "from_dense", "format.encode")
    wrap(BatchScheduler, "flush", "scheduler.flush")
    wrap(Engine, "predict_many", "engine.predict_many", before=engine_call)
    wrap(FastBackend, "sparse_matmul", "kernel.sparse_matmul", info=gemm)
    wrap(FastBackend, "im2col", "kernel.im2col", info=columns)
    wrap(serve_service.PersonalizationService, "personalize", "personalize")
    wrap(serve_service, "universal_model", "personalize.universal")
    wrap(crisp.CRISPPruner, "prune", "pruning.prune")
    wrap(crisp, "class_aware_saliency", "pruning.saliency")
    wrap(crisp, "evaluate", "trainer.evaluate")
    wrap(Trainer, "fit", "trainer.fit")


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def derive(tracer: Tracer, phase, counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``counters`` carries what the run measured outside the spans: cache
    hits/gets from the cluster's stats, process CPU seconds, generator
    lateness and the traced-minus-untraced latency.
    """
    spans = tracer.spans
    by_id = {s.span_id: s for s in spans}
    own = self_times(spans)
    named: Dict[str, List] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)

    def under(span, name):
        return name in ancestors(span, by_id)

    out = {name: 0.0 for name in PER_LAYER}
    predicts = [r for r in phase.records + phase.user_predicts if r.ok]

    # repro.gateway --------------------------------------------------------
    handles = {s.request_id: s for s in named.get("gateway.handle", ())
               if s.info.get("predict")}
    clients = named.get("client.predict", [])
    out["transport.self_ms"] = _mean(
        (c.duration - handles[c.request_id].duration) * 1e3
        for c in clients if c.request_id in handles
    )
    wire = [s for s in named.get(_CODEC, ())
            if s.info.get("predict") and not s.info["pipe"]
            and not under(s, "frontend.submit")]
    if clients:
        out["wire.codec_ms"] = sum(s.duration for s in wire) * 1e3 / len(clients)
        out["wire.request_bytes"] = _mean(s.info["bytes"] for s in wire if s.info["request"])
        out["wire.response_bytes"] = _mean(
            s.info["bytes"] for s in wire if not s.info["request"])
    out["gateway.handle_self_ms"] = _mean(own[s.span_id] * 1e3 for s in handles.values())

    # repro.cluster --------------------------------------------------------
    out["frontend.submit_ms"] = _mean(s.duration * 1e3 for s in named.get("frontend.submit", ()))
    engine_calls = named.get("engine.predict_many", [])
    waits = [s for s in engine_calls if s.info.get("wait_n")]
    if waits:
        out["shard.wait_ms"] = (sum(s.info["wait_sum"] for s in waits)
                                / sum(s.info["wait_n"] for s in waits) * 1e3)
    hopped = [r for r in predicts if r.hops and "engine" in r.hops]
    if hopped:
        out["shard.wait_ms"] = _mean(r.hops["shard"] - r.hops["engine"] for r in hopped)
        out["procworker.overhead_ms"] = _mean(
            r.hops["frontend"] - r.hops["shard"] for r in hopped)
    # Each response says how many requests its engine call fused, so the
    # number of engine calls is the sum of 1/k over responses.
    calls = sum(1.0 / r.response.batched_with for r in predicts)
    if calls:
        images = sum(int(r.response.logits.shape[0]) for r in predicts)
        out["shard.requests_per_dispatch"] = len(predicts) / calls
        out["shard.images_per_dispatch"] = images / calls

    # repro.serve ------------------------------------------------------------
    out["cache.hits"] = counters.get("cache_hits", 0.0)
    out["cache.gets"] = counters.get("cache_gets", 0.0)
    if out["cache.gets"]:
        out["cache.hit_ratio"] = out["cache.hits"] / out["cache.gets"]
    out["cache.miss_ms"] = _mean(s.duration * 1e3 for s in named.get("cache.get", ())
                                 if not s.info.get("hit"))
    out["registry.build_engine_ms"] = _mean(
        s.duration * 1e3 for s in named.get("registry.build_engine", ()))
    out["format.encode_ms"] = _mean(s.duration * 1e3 for s in named.get("format.encode", ()))
    out["scheduler.dispatch_self_ms"] = _mean(
        own[s.span_id] * 1e3 for s in named.get("scheduler.flush", ()))
    out["registry.register_ms"] = _mean(
        s.duration * 1e3 for s in named.get("registry.register", ()))

    # repro.backend / repro.nn ------------------------------------------------
    for bucket, lo, hi in BUCKETS:
        if engine_calls:
            times = [s.duration * 1e3 for s in engine_calls
                     if s.info["images"] >= lo and (hi is None or s.info["images"] <= hi)]
            out[f"engine.calls.{bucket}"] = float(len(times))
            out[f"engine.predict_ms.{bucket}"] = _mean(times)
        elif hopped:
            # Process shards: one engine call per group of fused responses.
            times, weight = [], 0.0
            for r in hopped:
                images = r.response.batched_with * r.response.logits.shape[0]
                if images >= lo and (hi is None or images <= hi):
                    times.append(r.hops["engine"])
                    weight += 1.0 / r.response.batched_with
            out[f"engine.calls.{bucket}"] = weight
            out[f"engine.predict_ms.{bucket}"] = _mean(times)
    out["engine.non_gemm_ms"] = _mean(own[s.span_id] * 1e3 for s in engine_calls)
    for kernel in ("sparse_matmul", "im2col"):
        inference = [s for s in named.get(f"kernel.{kernel}", ())
                     if under(s, "engine.predict_many")]
        out[f"kernel.{kernel}_calls"] = float(len(inference))
        out[f"kernel.{kernel}_ms"] = _mean(s.duration * 1e3 for s in inference)
        for key in ("mflop", "melems", "mbytes"):
            metric = f"kernel.{kernel}_{key}"
            if metric in out:
                out[metric] = _mean(s.info[key] for s in inference)

    # repro.pruning ------------------------------------------------------------
    personalizations = max(1, len(named.get("personalize", ())))
    for metric, name, self_only in (
        ("personalize.universal_ms", "personalize.universal", False),
        ("pruning.saliency_ms", "pruning.saliency", False),
        ("pruning.mask_ms", "pruning.prune", True),
        ("trainer.fit_ms", "trainer.fit", False),
        ("trainer.evaluate_ms", "trainer.evaluate", False),
    ):
        total = sum((own[s.span_id] if self_only else s.duration)
                    for s in named.get(name, ()) if under(s, "personalize"))
        out[metric] = total * 1e3 / personalizations

    out["trace.spans"] = float(len(spans))
    for key in ("process.cpu_s_per_request", "gen.late_p50_ms", "gen.late_max_ms",
                "gen.peak_inflight", "trace.overhead_p50_ms"):
        out[key] = float(counters.get(key, 0.0))
    return out
