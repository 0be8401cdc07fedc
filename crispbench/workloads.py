"""The benchmark workloads: tenant fleet, seeded traffic plans, deployments, runs.

Every workload drives the real stack (``repro.gateway`` -> ``repro.cluster``
-> ``repro.serve`` -> ``repro.backend``, plus ``repro.pruning`` / ``repro.nn``
for personalization).  Traffic is generated here from the seed with NumPy,
never by ``repro.loadgen``, so a change to the program cannot change the
traffic.  The client side is one process with at most two client threads and
at most two connections.
"""

from __future__ import annotations

import gc
import itertools
import queue
import threading
import time
import zlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster import ClusterConfig, ClusterService
from repro.errors import ApiError
from repro.gateway import ClusterBackend, Gateway, GatewayClient, serve_http
from repro.nn.models import build_model
from repro.nn.models.base import prunable_layers
from repro.serve import ModelRegistry
from repro.serve.service import clear_universal_model_cache, universal_model
from repro.serve.types import EngineSpec, PersonalizeRequest, PredictRequest
from repro.sparsity.block import BlockGrid
from repro.sparsity.hybrid import HybridSparsityConfig, hybrid_mask

from .stats import digest

#: Request image shape (C, H, W) and classes of every fleet tenant
#: (``synthetic-tiny``: 8 classes of 12x12 images).
IMAGE_SHAPE = (3, 12, 12)
NUM_CLASSES = 8

#: 2:4 inside 16x16 blocks with half the block columns kept: ~75 % sparse, and
#: exactly the pattern the serving default ``EngineSpec()`` (``crisp``)
#: encodes losslessly.
HYBRID = HybridSparsityConfig(n=2, m=4, block_size=16)

#: Classes per personalized user (``PersonalizeRequest(num_classes=3)``).
USER_CLASSES = 3

#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Consecutive passes the planned traffic is split into.  Each pass's median
#: latency (and, in the closed loop, its throughput) is reported as the
#: median over the passes, so a few seconds of slow host do not set a run's
#: figures.
PASSES = 5

#: Planned requests each extra set-up replays before it is closed; their
#: answers must equal the timed phase's answers to the same requests.
REPLAY_PREFIX = 8

#: Seconds a phase may stall with requests outstanding before they count as hung.
HANG_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class WorkloadSpec:
    """Fleet, deployment and traffic parameters of one workload."""

    name: str
    why: str
    tenants: int
    workers: str  #: cluster shard kind: "process" or "threaded"
    transport: str  #: "http" (gateway over HTTP) or "direct" (ClusterBackend, no wire)
    images: int  #: images per predict request
    popularity: str  #: "uniform" or "zipf"
    latency_limit_ms: float  #: SLO limit behind slo_attainment
    rate_per_s: float = 0.0  #: open loop: Poisson arrival rate
    outstanding: int = 0  #: closed loop: requests kept in flight
    nominal_rps: float = 0.0  #: closed loop: requests planned per second of --seconds
    zipf_s: float = 1.1
    probe_users: int = 20  #: idle personalizations after the timed phase
    shards: int = 2
    cache_capacity: int = 4  #: engine-cache slots per shard

    @property
    def open_loop(self) -> bool:
        return self.rate_per_s > 0


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="http-open",
            why=(
                "Poisson 12 req/s of 1 image over 2 HTTP keep-alive connections to "
                "2 process shards, 8 resident tenants: transport, wire and gateway "
                "dominate; SLO 250 ms"
            ),
            tenants=8, workers="process", transport="http", images=1,
            popularity="uniform", latency_limit_ms=250.0, rate_per_s=12.0,
        ),
        WorkloadSpec(
            name="fused-batch",
            why=(
                "closed loop, 8 outstanding 8-image requests via ClusterBackend.submit, "
                "Zipf(1.1) over 12 tenants on 2 threaded shards x 5 slots: crisp GEMM, "
                "fusion, cache misses; SLO 1500 ms"
            ),
            tenants=12, workers="threaded", transport="direct", images=8,
            popularity="zipf", latency_limit_ms=1500.0, outstanding=8,
            nominal_rps=40.0, cache_capacity=5,
        ),
    )
}


def spec_params(spec: WorkloadSpec) -> Dict[str, object]:
    """The fleet and deployment parameters stamped on every result."""
    params = asdict(spec)
    params.pop("why")
    params.update(
        model="resnet_tiny", image_shape=list(IMAGE_SHAPE), classes=NUM_CLASSES,
        sparsity=str(HYBRID), block_keep="half", engine=EngineSpec().to_dict(),
    )
    return params


# ---------------------------------------------------------------------------
# Fleet and traffic
# ---------------------------------------------------------------------------

def build_fleet(tenants: int, seed: int) -> ModelRegistry:
    """Register ``tenants`` hybrid-sparse ``resnet_tiny`` models.

    Tenant ``i`` is initialized from seed ``seed + i`` and masked per layer
    with the hybrid 2:4 + block mask of its weight magnitudes.
    """
    registry = ModelRegistry()
    for i in range(tenants):
        model = build_model(
            "resnet_tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SHAPE[1], seed=seed + i
        )
        for layer in prunable_layers(model).values():
            scores = np.abs(layer.reshaped_weight())
            block_cols = BlockGrid.for_matrix(scores, HYBRID.block_size).block_cols
            mask, _ = hybrid_mask(scores, HYBRID, keep_blocks_per_row=max(1, block_cols // 2))
            layer.set_reshaped_mask(mask)
        registry.register(model, spec=EngineSpec(), model_id=f"tenant-{i:02d}")
    return registry


@dataclass
class Plan:
    """One workload's generated traffic; the same seed gives the same plan."""

    offsets: np.ndarray  #: due time of each predict, seconds from phase start
    tenants: np.ndarray  #: tenant index of each predict
    inputs: np.ndarray  #: (requests, images, C, H, W)
    users: np.ndarray  #: user ids the probe personalizes
    user_inputs: np.ndarray  #: one predict per personalized user

    def __len__(self) -> int:
        return len(self.tenants)

    def digest(self) -> str:
        return digest([self.offsets, self.tenants, self.inputs, self.users, self.user_inputs])


def make_plan(spec: WorkloadSpec, seed: int, seconds: float) -> Plan:
    """Generate the workload's traffic for a phase of about ``seconds``.

    Open-loop arrivals are a Poisson process conditioned on its count over
    the phase (sorted uniform offsets), and tenants are drawn as a shuffled
    sequence with exactly the popularity law's expected counts.  The seed
    picks every arrival, order and input, while the amount of traffic and
    the share each tenant gets do not vary between seeds.
    """
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    if spec.open_loop:
        n = max(1, round(spec.rate_per_s * seconds))
        offsets = np.sort(rng.uniform(0.0, seconds, n))
    else:
        n = max(spec.outstanding, round(spec.nominal_rps * seconds))
        offsets = np.zeros(n)
    ranks = np.arange(1, spec.tenants + 1, dtype=np.float64)
    weights = ranks ** -spec.zipf_s if spec.popularity == "zipf" else np.ones(spec.tenants)
    tenants = rng.permutation(np.repeat(np.arange(spec.tenants), _apportion(weights, n)))
    inputs = rng.standard_normal((n, spec.images) + IMAGE_SHAPE)
    # The personalized users are a fixed panel (not drawn from the seed), so
    # user_accuracy tracks pruning quality rather than which users were drawn.
    users = np.arange(spec.probe_users)
    user_inputs = rng.standard_normal((spec.probe_users, 1) + IMAGE_SHAPE)
    return Plan(offsets, tenants.astype(np.int64), inputs, users, user_inputs)


def _apportion(weights: np.ndarray, n: int) -> np.ndarray:
    """Integer counts summing to ``n`` in proportion to ``weights`` (largest remainder)."""
    exact = weights / weights.sum() * n
    counts = np.floor(exact).astype(np.int64)
    counts[np.argsort(counts - exact, kind="stable")[: n - counts.sum()]] += 1
    return counts


# ---------------------------------------------------------------------------
# Deployment
# ---------------------------------------------------------------------------

class Deployment:
    """Fleet + cluster + gateway (+ HTTP server) for one workload, warmed up."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self.registry = build_fleet(spec.tenants, seed)
        self.tenant_ids = self.registry.ids()
        self.cluster = ClusterService(
            ClusterConfig(
                shards=spec.shards, workers=spec.workers, cache_capacity=spec.cache_capacity
            ),
            registry=self.registry,
        )
        self.backend = ClusterBackend(self.cluster)
        self.server = None
        self.clients: List[GatewayClient] = []
        try:
            if spec.transport == "http":
                self.server = serve_http(Gateway(self.backend))
                self.clients = [GatewayClient(self.server.transport()) for _ in range(2)]
            self._pretrain_universal()
            self._warm_up(seed)
        except BaseException:
            self.close()
            raise

    def _pretrain_universal(self) -> None:
        """Train the backbone every personalization starts from (part of set-up)."""
        clear_universal_model_cache()
        service = self.cluster.service
        config, dataset = service.config, service.dataset(0)
        universal_model(
            config.model_name, config.dataset_preset, config.pretrain_epochs,
            num_classes=dataset.num_classes, input_size=dataset.image_size,
            batch_size=config.batch_size, seed=0, dataset=dataset,
        )

    def _warm_up(self, seed: int) -> None:
        """Touch every tenant (resident caches, open connections, workspaces)."""
        rng = np.random.default_rng([seed, 7])
        rounds = 2 if self.spec.transport == "http" else 1
        for r in range(rounds):
            for i, model_id in enumerate(self.tenant_ids):
                batch = rng.standard_normal((self.spec.images,) + IMAGE_SHAPE)
                if self.clients:
                    self.clients[(i + r) % 2].predict(model_id, batch)
                else:
                    self.backend.predict(PredictRequest(model_id, batch), timeout=HANG_TIMEOUT_S)
        if not self.spec.open_loop:
            # Fused batches across the sizes the closed loop produces.
            for burst in (1, 2, 4, self.spec.outstanding):
                futures = [
                    self.backend.submit(PredictRequest(
                        self.tenant_ids[int(rng.integers(len(self.tenant_ids)))],
                        rng.standard_normal((self.spec.images,) + IMAGE_SHAPE),
                    ))
                    for _ in range(burst)
                ]
                for future in futures:
                    future.result(HANG_TIMEOUT_S)

    def personalize(self, user_id: int, client: Optional[GatewayClient]) -> str:
        request = PersonalizeRequest(user_id=int(user_id), num_classes=USER_CLASSES)
        if client is not None:
            return client.personalize(request)
        return self.backend.personalize(request)

    def predict(self, model_id: str, batch, request_id: str, client: Optional[GatewayClient]):
        if client is not None:
            return client.predict(model_id, batch, request_id=request_id)
        return self.backend.predict(
            PredictRequest(model_id, batch, request_id), timeout=HANG_TIMEOUT_S
        )

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.stop()
        self.cluster.shutdown()


def timed_setup(spec: WorkloadSpec, seed: int):
    """Set up one deployment; returns it and the seconds its set-up took."""
    start = time.perf_counter()
    deployment = Deployment(spec, seed)
    return deployment, time.perf_counter() - start


def replay_prefix(dep: "Deployment", plan: "Plan") -> List[object]:
    """Answers (classes, or ``None`` on failure) to the plan's first
    :data:`REPLAY_PREFIX` requests, sent one at a time."""
    client = dep.clients[0] if dep.clients else None
    answers = []
    for i in range(min(REPLAY_PREFIX, len(plan))):
        model_id = dep.tenant_ids[int(plan.tenants[i])]
        try:
            response = dep.predict(model_id, plan.inputs[i], str(i), client)
        except ApiError:
            answers.append(None)
        else:
            answers.append(np.asarray(response.classes) if response.ok else None)
    return answers


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

@dataclass
class Record:
    """One operation's outcome."""

    kind: str  #: "predict" (planned traffic), "user-predict" or "personalize"
    index: int
    model_id: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    ready: float = 0.0  #: when it was due and a client thread was free to send it
    ok: bool = False
    error: str = ""
    response: object = None
    hops: Optional[Dict[str, float]] = None  #: repro.trace hop ms, when traced

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its completion."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds sent after due (waiting for a busy client thread included)."""
        return self.sent - self.due

    @property
    def stall(self) -> float:
        """Seconds the generator itself added: sent after due and a thread was free."""
        return self.sent - self.ready


@dataclass
class PhaseResult:
    records: List[Record]  #: the planned predict traffic, in plan order
    users: List[Record]  #: personalize calls, in plan order
    user_predicts: List[Record]  #: the predict sent to each new tenant
    passes: List[range]  #: consecutive slices of ``records``, one per pass
    peak_inflight: int

    def pass_records(self) -> List[List[Record]]:
        return [self.records[p.start:p.stop] for p in self.passes]


def pass_bounds(n: int, passes: int = PASSES) -> List[range]:
    """Split ``n`` planned requests into ``passes`` consecutive slices."""
    edges = np.linspace(0, n, min(passes, n) + 1).round().astype(int)
    return [range(a, b) for a, b in zip(edges[:-1], edges[1:])]


class _Inflight:
    """Counts requests in flight and remembers the peak."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.now = 0
        self.peak = 0

    def __enter__(self):
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)

    def __exit__(self, *exc):
        with self.lock:
            self.now -= 1


def _finish(record: Record, response) -> None:
    record.done = time.perf_counter()
    record.response = response
    record.ok = bool(getattr(response, "ok", False))
    if not record.ok:
        record.error = getattr(response, "reason", "not ok")
    trace = getattr(response, "trace", None)
    if trace is not None:
        record.hops = trace.hop_ms()


def _fail(record: Record, exc: BaseException) -> None:
    record.done = time.perf_counter()
    record.ok = False
    record.error = f"{type(exc).__name__}: {exc}"


def run_phase(dep: Deployment, plan: Plan, tracer=None) -> PhaseResult:
    """Replay ``plan``'s traffic against ``dep``, in :data:`PASSES` passes.

    Open-loop passes are windows of one continuous schedule; a closed-loop
    pass starts when the previous one has drained.
    """
    records = [
        Record("predict", i, dep.tenant_ids[int(t)], float(plan.offsets[i]))
        for i, t in enumerate(plan.tenants)
    ]
    passes = pass_bounds(len(records))
    start = time.perf_counter()
    if dep.spec.open_loop:
        inflight, cursor = _Inflight(), itertools.count()
        threads = [
            threading.Thread(target=_open_loop_worker,
                             args=(dep, plan, records, start, client, inflight, cursor, tracer))
            for client in dep.clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        peak = inflight.peak
    else:
        peak = 0
        for each in passes:
            peak = max(peak, _closed_loop(dep, plan, records, each))
    return PhaseResult(records, [], [], passes, peak)


def run_probe(dep: Deployment, plan: Plan, phase: PhaseResult, tracer=None) -> None:
    """Personalize the probe users one after another, with no other load.

    The same fixed users every run, through the workload's own client path;
    each new tenant then answers one predict.
    """
    client = dep.clients[0] if dep.clients else None
    # Collect the timed phase's garbage now, so that a collection it owes
    # does not land inside one personalize call.
    gc.collect()
    for j, user_id in enumerate(plan.users):
        record = Record("personalize", j, "", 0.0)
        predict = Record("user-predict", j, "", 0.0)
        phase.users.append(record)
        phase.user_predicts.append(predict)
        record.due = record.sent = time.perf_counter()
        if tracer is not None:
            tracer.set_request(f"user-{j}")
        try:
            record.model_id = dep.personalize(int(user_id), client)
        except ApiError as exc:
            _fail(record, exc)
            continue
        record.done = time.perf_counter()
        record.ok = True
        predict.model_id = record.model_id
        predict.due = predict.sent = time.perf_counter()
        try:
            response = dep.predict(record.model_id, plan.user_inputs[j], f"user-{j}", client)
        except ApiError as exc:
            _fail(predict, exc)
        else:
            _finish(predict, response)


def _open_loop_worker(dep, plan, records, start, client, inflight, cursor, tracer):
    """Take the next planned request, wait until it is due, send it.

    A request that finds every client thread busy past its due time is sent
    late; its latency is still measured from the due time.
    """
    free_at = start
    for i in cursor:
        if i >= len(records):
            return
        record = records[i]
        record.due = start + plan.offsets[i]
        record.ready = max(record.due, free_at)
        delay = record.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        record.sent = time.perf_counter()
        if tracer is not None:
            tracer.set_request(str(i))
        with inflight:
            try:
                response = dep.predict(record.model_id, plan.inputs[i], str(i), client)
            except ApiError as exc:
                _fail(record, exc)
            else:
                _finish(record, response)
        free_at = record.done


def _closed_loop(dep, plan, records, indices: range) -> int:
    """Keep ``outstanding`` of ``indices`` in flight from one thread; returns the peak.

    A request is due when the slot it takes frees up, so its late time is
    the client's own turnaround.
    """
    start = time.perf_counter()
    completions: "queue.Queue[int]" = queue.Queue()
    pending = peak = 0

    def send(i: int, due: float) -> None:
        record = records[i]
        record.due = record.ready = due
        record.sent = time.perf_counter()
        future = dep.backend.submit(PredictRequest(record.model_id, plan.inputs[i], str(i)))
        future.add_done_callback(lambda f: (_stamp(record, f), completions.put(i)))

    cursor = iter(indices)
    for i in itertools.islice(cursor, dep.spec.outstanding):
        send(i, start)
        pending += 1
    peak = pending
    while pending:
        try:
            done = completions.get(timeout=HANG_TIMEOUT_S)
        except queue.Empty:
            break  # whatever is still outstanding counts as hung
        pending -= 1
        for i in itertools.islice(cursor, 1):
            send(i, records[done].done)
            pending += 1
    return peak


def _stamp(record: Record, future) -> None:
    exc = future.exception()
    if exc is not None:
        _fail(record, exc)
    else:
        _finish(record, future.result())
