"""Correctness gates of a run.

* Every answered predict is well formed (id, tenant, shape, argmax classes).
* A seeded sample of answers is recomputed with the ``reference`` backend on
  the same registered models and must agree within :data:`TOLERANCE`.
* The predictions digest (answered classes in plan order) must be identical
  whenever the same code replays the same seed; digests are kept per code
  hash under ``.crispbench-state/`` in the checkout.  Within one untraced
  run, each extra set-up (a deployment built independently from the same
  seed) answers the plan's first requests, and the answers must equal the
  timed phase's.
* The traffic plan must be reproducible: the same seed gives the same plan
  digest, another seed a different one.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.backend import Engine
from repro.serve.types import EngineSpec

from .stats import digest
from .workloads import REPLAY_PREFIX, make_plan

#: Reference-backend agreement required of a fast-backend answer (float64).
TOLERANCE = {"rtol": 1e-9, "atol": 1e-9}

#: Sampled answers recomputed per run: planned traffic, personalized users.
SAMPLE_PREDICTS, SAMPLE_USERS = 8, 4


def check_plan(spec, seed: int, seconds: float, plan_digest: str) -> List[str]:
    """Same seed -> same plan digest; another seed -> a different one."""
    problems = []
    if make_plan(spec, seed, seconds).digest() != plan_digest:
        problems.append("plan digest differs when regenerated from the same seed")
    if make_plan(spec, seed + 1, seconds).digest() == plan_digest:
        problems.append("plan digest does not change with the seed")
    return problems


def check_answers(registry, plan, phase) -> List[str]:
    """Shape/id/class checks on every answered predict."""
    problems = []
    for record in phase.records + phase.user_predicts:
        if not record.ok:
            continue
        response = record.response
        expected_id = str(record.index) if record.kind == "predict" else f"user-{record.index}"
        images = plan.inputs.shape[1] if record.kind == "predict" else 1
        logits = np.asarray(response.logits)
        classes = registry.get(record.model_id).num_classes
        if response.request_id != expected_id or response.model_id != record.model_id:
            problems.append(f"{record.kind} {record.index}: answered for "
                            f"{response.request_id}/{response.model_id}")
        elif logits.shape != (images, classes) or not np.isfinite(logits).all():
            problems.append(f"{record.kind} {record.index}: logits shape {logits.shape}")
        elif not np.array_equal(np.asarray(response.classes), logits.argmax(axis=1)):
            problems.append(f"{record.kind} {record.index}: classes are not the argmax")
    return problems


def check_reference(registry, plan, phase, seed: int) -> Dict[str, object]:
    """Recompute a seeded sample of answers with the ``reference`` backend."""
    rng = np.random.default_rng([seed, 99])
    answered = [r for r in phase.records if r.ok]
    users = [r for r in phase.user_predicts if r.ok]
    sample = [answered[i] for i in sorted(rng.choice(
        len(answered), size=min(SAMPLE_PREDICTS, len(answered)), replace=False))]
    sample += users[:SAMPLE_USERS]
    engines = {}
    worst, problems = 0.0, []
    for record in sample:
        if record.model_id not in engines:
            spec = registry.get(record.model_id).spec
            engines[record.model_id] = Engine.from_spec(
                registry.materialize(record.model_id),
                EngineSpec(backend="reference", weight_format=spec.weight_format,
                           n=spec.n, m=spec.m, block_size=spec.block_size),
            )
        inputs = (plan.inputs[record.index] if record.kind == "predict"
                  else plan.user_inputs[record.index])
        expected = engines[record.model_id].predict(inputs)
        served = np.asarray(record.response.logits)
        worst = max(worst, float(np.max(np.abs(expected - served))))
        if not np.allclose(served, expected, **TOLERANCE):
            problems.append(f"{record.kind} {record.index}: differs from the reference backend")
    return {"checked": len(sample), "max_abs_diff": worst, "problems": problems}


def check_replays(phase, replays: List[List[object]]) -> List[str]:
    """Extra set-ups must answer the first planned requests like the timed phase."""
    answered = [np.asarray(r.response.classes) if r.ok else None
                for r in phase.records[:REPLAY_PREFIX]]
    problems = []
    for k, answers in enumerate(replays):
        for i, (got, want) in enumerate(zip(answers, answered)):
            if got is None or want is None or not np.array_equal(got, want):
                problems.append(f"extra set-up {k + 1} answered request {i} differently "
                                "from the timed phase")
    return problems


def predictions_digest(phase, users: bool = True) -> str:
    """Answered classes in plan order; a failed request contributes a marker.

    ``users=False`` leaves out the predicts sent to personalized users.
    """
    parts: List[object] = []
    for record in phase.records + (phase.user_predicts if users else []):
        parts.append(record.kind)
        parts.append(np.asarray(record.response.classes) if record.ok else "failed")
    return digest(parts)


def code_hash(root: Path) -> str:
    """Hash of the program and benchmark sources (what a digest is valid for)."""
    h = hashlib.sha256()
    for base in ("src", "crispbench"):
        for path in sorted((root / base).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest_history(root: Path, key: str, value: str) -> str:
    """Compare with the digest an earlier run of the same code and seed stored.

    Returns ``"stored"``, ``"matched"`` or ``"MISMATCH"``.
    """
    state = root / ".crispbench-state"
    path = state / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    if key in history:
        return "matched" if history[key] == value else "MISMATCH"
    history[key] = value
    state.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    tmp.replace(path)
    return "stored"
