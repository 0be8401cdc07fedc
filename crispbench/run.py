#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 crispbench/run.py --workload http-open --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays the
same traffic untraced and then traced, and reports the per-layer metrics
and the tracing overhead.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "slo_attainment": "ratio",
    "throughput_img_s": "img/s",
    "personalize_p50_s": "s",
    "user_accuracy": "ratio",
    "weight_kib_per_tenant": "KiB",
    "peak_pss_mib": "MiB",
}

#: A run whose generator stalled the median request longer than this (after
#: it was due and a client thread was free) is flagged: its latencies then
#: include the client's own stall.
GEN_BEHIND_MS = 5.0

#: Whole-run watchdog: a hung run dumps its stacks, stops its processes and
#: exits non-zero.  The allowance grows with the traffic a run replays (twice
#: when traced), so a slow run still reports its figures; a stalled phase
#: already ends after ``workloads.HANG_TIMEOUT_S``.
WATCHDOG_BASE_S, WATCHDOG_PER_TRAFFIC_S = 120.0, 3.0


def watchdog_seconds(seconds: float, trace: int) -> float:
    return WATCHDOG_BASE_S + WATCHDOG_PER_TRAFFIC_S * seconds * (1 + trace)


def stop_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    Process shards are normally joined by ``Deployment.close``; any a failed
    path left alive are killed here.  ``multiprocessing``'s resource tracker
    (started for the ``repro.shm`` segments) would otherwise outlive the run
    until it noticed the exit, so it is stopped and reaped too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def start_watchdog(seconds: float) -> threading.Timer:
    def expire() -> None:
        print(f"watchdog: run exceeded {seconds:.0f} s", file=sys.stderr)
        faulthandler.dump_traceback(all_threads=True)
        stop_processes()
        os._exit(1)

    timer = threading.Timer(seconds, expire)
    timer.daemon = True
    timer.start()
    return timer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _children():
    import multiprocessing

    return [p.pid for p in multiprocessing.active_children()]


def _pss_kib(pid) -> int:
    """Proportional set size: shared pages (e.g. ``repro.shm`` weights) split
    between the processes that map them, so a sum over processes counts
    them once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):  # a child that has just exited
        pass
    return 0


class MemorySampler:
    """Samples the PSS of this process plus its children every 0.1 s.

    Runs from before the first set-up until the probe has ended;
    ``peak_mib`` is the largest sample.
    """

    INTERVAL_S = 0.1

    def __init__(self) -> None:
        import threading

        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="memory-sampler", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            self.samples.append(_pss_kib("self") + sum(_pss_kib(pid) for pid in _children()))
            if self._stop.wait(self.INTERVAL_S):
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def peak_mib(self) -> float:
        return max(self.samples) / 1024.0


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its live children."""
    times = os.times()
    total = times.user + times.system
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in _children():
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def host_cpu_ticks():
    """(steal, total) ticks of the whole machine, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while a virtual CPU of
    this machine had work; a high share means the figures of the run
    reflect a contended host.
    """
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def cache_counts(dep):
    cache = dep.cluster.stats()["cache"]
    return cache["hits"], cache["hits"] + cache["misses"]


def provenance(spec, seconds):
    """Host, library versions, git sha (when in a repository) and workload knobs."""
    import numpy as np
    from benchlib import host_context
    from crispbench.workloads import spec_params

    # Keep git from searching above the checkout for a repository.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    host = host_context()
    host["numpy"] = np.__version__
    return {"host": host, "workload": spec_params(spec), "seconds": seconds}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}: run from a repository checkout",
              file=sys.stderr)
        return 2
    watchdog = start_watchdog(watchdog_seconds(args.seconds, args.trace))
    try:
        return run(args)
    finally:
        watchdog.cancel()
        stop_processes()


def run(args) -> int:
    for path in (ROOT / "benchmarks", ROOT, ROOT / "src"):
        sys.path.insert(0, str(path))

    import numpy as np

    from crispbench import checks
    from crispbench.stats import latency_summary, median, pass_figures
    from crispbench.workloads import (
        SETUP_REPEATS, WORKLOADS, make_plan, replay_prefix, run_phase, run_probe, timed_setup,
    )

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    source = checks.code_hash(ROOT)  # of the code this run imported
    print(f"crispbench {spec.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(spec, args.seconds), sort_keys=True))
    steal0, ticks0 = host_cpu_ticks()

    plan = make_plan(spec, args.seed, args.seconds)
    plan_digest = plan.digest()
    problems = checks.check_plan(spec, args.seed, args.seconds, plan_digest)
    print(f"plan: digest {plan_digest[:16]} requests={len(plan)} users={len(plan.users)} "
          f"(same seed reproduces it, seed+1 differs: {'no' if problems else 'yes'})")

    # Memory is sampled over the one deployment that serves the traffic and
    # the probe; the extra set-ups timed for setup_s come after it.
    memory = MemorySampler()
    dep, setup = timed_setup(spec, args.seed)
    setup_times = [setup]
    tracer = None
    try:
        cpu0 = cpu_seconds()
        phase = run_phase(dep, plan)
        cpu = cpu_seconds() - cpu0
        phases = [phase]
        if not args.trace:
            run_probe(dep, plan, phase)
            memory.stop()
        else:
            # The traced replay must meet the deployment as the untraced one
            # did, so the probe's new tenants come only after it.
            from repro import trace as repro_trace
            from crispbench.layers import install
            from crispbench.tracer import Tracer

            tracer = Tracer()
            install(tracer)
            if spec.workers == "process":
                repro_trace.enable()  # child-side shard/engine hops
            try:
                hits0, gets0 = cache_counts(dep)
                traced = run_phase(dep, plan, tracer)
                hits1, gets1 = cache_counts(dep)
                run_probe(dep, plan, traced, tracer)
            finally:
                tracer.restore()
                repro_trace.disable()
            phases.append(traced)
        for each in phases:
            problems += checks.check_answers(dep.registry, plan, each)
        reference = checks.check_reference(dep.registry, plan, phases[-1], args.seed)
        problems += reference["problems"]
        personalized = sorted({r.model_id for r in phases[-1].users if r.ok})
        accuracy = [dep.registry.get(m).metadata["accuracy"] for m in personalized]
        weight_bits = [dep.registry.build_engine(m, attach=False).total_weight_bits()
                       for m in dep.registry.ids()]
    finally:
        memory.stop()
        dep.close()

    # Each extra set-up is a deployment built independently from the same
    # seed; it answers the plan's first requests before it is closed.
    replays = []
    for _ in range(0 if args.trace else SETUP_REPEATS - 1):
        extra, setup = timed_setup(spec, args.seed)
        setup_times.append(setup)
        try:
            replays.append(replay_prefix(extra, plan))
        finally:
            extra.close()
    problems += checks.check_replays(phase, replays)

    # -- outcomes -----------------------------------------------------------
    operations = [r for each in phases for r in each.records + each.users + each.user_predicts]
    attempted = len(operations)
    failed = sum(1 for r in operations if not r.ok)
    hung = sum(1 for r in operations if r.done == 0.0)
    answered = [r for r in phase.records if r.ok]
    lat = latency_summary([r.latency for r in answered])
    images = plan.inputs.shape[1]
    per_pass = pass_figures([[(r.due, r.done, r.ok) for r in each]
                             for each in phase.pass_records()], images)
    # A window of a Poisson schedule holds a random share of the arrivals,
    # so an open loop's throughput is taken over the whole phase.
    whole = pass_figures([[(r.due, r.done, r.ok) for r in phase.records]], images)
    sent = [r for r in phase.records if r.sent]
    late = np.array([r.late for r in sent] or [0.0]) * 1e3
    stall = np.array([r.stall for r in sent] or [0.0]) * 1e3
    behind = float(np.median(stall)) > GEN_BEHIND_MS
    pers = latency_summary([r.done - r.sent for r in phases[-1].users if r.ok])

    replayed = {checks.predictions_digest(each, users=False) for each in phases}
    if failed == 0 and len(replayed) > 1:
        problems.append("traced replay answered differently from the untraced one")
    predictions = checks.predictions_digest(phases[-1])
    history = "skipped (failures)"
    if failed == 0:
        key = (f"{source}:{spec.name}:{args.seed}:{args.seconds:g}"
               f":trace{args.trace}")
        history = checks.check_digest_history(ROOT, key, predictions)
        if history == "MISMATCH":
            problems.append("predictions digest differs from an earlier run of this seed")
    if not personalized:
        problems.append("no personalization succeeded")

    limit_s = spec.latency_limit_ms / 1e3
    e2e = {
        "setup_s": median(setup_times),
        "latency_p50_ms": per_pass["p50_ms"],
        "latency_tail_ms": lat["tail_ms"] or 0.0,
        "slo_attainment": sum(1 for r in answered if r.latency <= limit_s) / len(phase.records),
        "throughput_img_s": whole["throughput"] if spec.open_loop else per_pass["throughput"],
        "personalize_p50_s": (pers["p50_ms"] or 0.0) / 1e3,
        "user_accuracy": float(np.mean(accuracy)) if accuracy else 0.0,
        "weight_kib_per_tenant": float(np.mean(weight_bits)) / 8192.0,
        "peak_pss_mib": memory.peak_mib(),
    }

    print(f"setup: {', '.join(f'{t:.3f}' for t in setup_times)} s")
    print(f"predicts: {len(phase.records)} sent, {len(answered)} ok; latency n={lat['n']}, "
          f"tail at p{lat['tail_p']}, limit {spec.latency_limit_ms:g} ms")
    print(f"passes: {len(phase.passes)}; p50 ms "
          + " ".join(f"{v:.1f}" for v in per_pass["pass_p50_ms"]) + "; img/s "
          + " ".join(f"{v:.1f}" for v in per_pass["pass_throughput"]))
    print(f"personalize: n={pers['n']}, tail "
          + (f"p{pers['tail_p']} {pers['tail_ms'] / 1e3:.3f} s" if pers["tail_p"]
             else f"n/a (too few samples; max {((pers['max_ms'] or 0) / 1e3):.3f} s)"))
    print(f"error_share: {failed / attempted:.6f} ratio "
          f"({failed} failed or rejected, {hung} hung, of {attempted} attempted)")
    print(f"generator: late p50 {np.median(late):.3f} ms, max {late.max():.3f} ms; "
          f"own stall p50 {np.median(stall):.3f} ms, max {stall.max():.3f} ms; "
          f"peak in flight {phase.peak_inflight}"
          + ("  ** GENERATOR BEHIND: latencies include client stalls **" if behind else ""))
    print(f"reference check: {reference['checked']} answers recomputed with the reference "
          f"backend, max |diff| {reference['max_abs_diff']:.3g}")
    print(f"predictions digest: {predictions[:16]} ({history}); "
          f"{len(replays)} extra set-ups replayed the first {checks.REPLAY_PREFIX} requests")
    steal1, ticks1 = host_cpu_ticks()
    print(f"host: steal {100.0 * (steal1 - steal0) / max(1, ticks1 - ticks0):.2f} % "
          f"of CPU time during the run, load average {os.getloadavg()[0]:.2f}")
    if not args.trace:
        for name, unit in END_TO_END.items():
            print(f"  {name:24s} {e2e[name]:12.4f} {unit}")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        from crispbench.layers import PER_LAYER, derive

        traced = phases[1]
        traced_lat = latency_summary([r.latency for r in traced.records if r.ok])
        counters = {
            "cache_hits": hits1 - hits0,
            "cache_gets": gets1 - gets0,
            "process.cpu_s_per_request": cpu / max(1, len(phase.records)),
            "gen.late_p50_ms": float(np.median(late)),
            "gen.late_max_ms": float(late.max()),
            "gen.peak_inflight": phase.peak_inflight,
            "trace.overhead_p50_ms": (traced_lat["p50_ms"] or 0.0) - (lat["p50_ms"] or 0.0),
        }
        layers = derive(tracer, traced, counters)
        print(f"tracing overhead: p50 {lat['p50_ms'] or 0.0:.3f} ms untraced -> "
              f"{traced_lat['p50_ms'] or 0.0:.3f} ms traced")
        for name, unit in PER_LAYER.items():
            print(f"  {name:32s} {layers[name]:12.4f} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}

    for problem in problems:
        print(f"CORRECTNESS: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
