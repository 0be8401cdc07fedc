"""Per-layer-kind ledger of ``Engine.predict`` wall time.

Splits the fast engine's inference time on a hybrid-pruned ``resnet_tiny``
into im2col, sparse GEMM, BatchNorm, ReLU and the rest (pooling, the
residual adds, Python dispatch), for the ``dense`` and ``crisp`` weight
formats at batch 1, 8 and 32.  Each part is timed by wrapping the kernel
that computes it, so "rest" also carries the wrappers' own overhead; the
uninstrumented ``predict`` time is reported beside the split.

    PYTHONPATH=src python benchmarks/bench_layers.py --smoke --json BENCH_layers.json
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro.backend import Engine, FastBackend
from repro.nn import functional as F
from repro.nn.models import build_model
from repro.nn.models.base import prunable_layers
from repro.sparsity import HybridSparsityConfig, hybrid_mask

FORMATS = ("dense", "crisp")
BATCHES = (1, 8, 32)
PARTS = ("im2col", "sparse_gemm", "batchnorm", "relu", "rest")
N, M, BLOCK = 2, 4, 16


def pruned_resnet_tiny(seed: int = 0):
    """``resnet_tiny`` with a hybrid 2:4 + 16-block mask on every prunable layer."""
    model = build_model("resnet_tiny", num_classes=10, input_size=16, seed=seed)
    for layer in prunable_layers(model).values():
        w2d = layer.reshaped_weight()
        block_cols = -(-w2d.shape[1] // BLOCK)
        mask, _ = hybrid_mask(
            np.abs(w2d),
            HybridSparsityConfig(N, M, BLOCK),
            keep_blocks_per_row=max(1, block_cols // 2),
        )
        layer.set_reshaped_mask(mask)
    return model


@contextmanager
def timed(owner, attr: str, totals: dict, part: str):
    """Accumulate the wall time of ``owner.attr`` calls into ``totals[part]``."""
    original = getattr(owner, attr)
    shadowed = attr in vars(owner)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            totals[part] += time.perf_counter() - start

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        if shadowed:
            setattr(owner, attr, original)
        else:  # the wrapper shadowed a class method
            delattr(owner, attr)


def measure(engine: Engine, x: np.ndarray, repeat: int) -> dict:
    """Per-predict milliseconds of each part, plus the uninstrumented total."""
    for _ in range(2):
        engine.predict(x)
    plain = []
    for _ in range(repeat):
        start = time.perf_counter()
        engine.predict(x)
        plain.append(time.perf_counter() - start)

    totals = defaultdict(float)
    backend = engine.backend
    with timed(backend, "im2col", totals, "im2col"), \
            timed(backend, "sparse_matmul", totals, "sparse_gemm"), \
            timed(F, "batchnorm_forward", totals, "batchnorm"), \
            timed(F, "relu_forward", totals, "relu"):
        start = time.perf_counter()
        for _ in range(repeat):
            engine.predict(x)
        wall = time.perf_counter() - start
    totals["rest"] = wall - sum(totals.values())
    result = {part: 1e3 * totals[part] / repeat for part in PARTS}
    result["instrumented"] = 1e3 * wall / repeat
    result["predict"] = 1e3 * float(np.median(plain))
    return result


def main(argv=None) -> int:
    import argparse

    from benchlib import write_records

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="few repeats (fast CI sanity run)")
    parser.add_argument("--json", metavar="PATH", help="write BENCH_*.json records to PATH")
    args = parser.parse_args(argv)
    repeat = 5 if args.smoke else 30

    rng = np.random.default_rng(0)
    header = " | ".join(f"{p:>11}" for p in PARTS + ("predict",))
    print(f"{'format':>6} {'batch':>5} | {header}   (ms per predict)")
    records = []
    for weight_format in FORMATS:
        model = pruned_resnet_tiny()
        # A private backend instance, so the wrappers never touch the
        # process-wide singleton.
        with Engine(model, backend=FastBackend(), weight_format=weight_format,
                    n=N, m=M, block_size=BLOCK) as engine:
            for batch in BATCHES:
                x = rng.normal(size=(batch, 3, 16, 16))
                result = measure(engine, x, repeat)
                row = " | ".join(f"{result[p]:11.3f}" for p in PARTS + ("predict",))
                print(f"{weight_format:>6} {batch:>5} | {row}")
                for part, value in result.items():
                    records.append({
                        "name": f"{weight_format}.b{batch}.{part}_ms", "unit": "ms",
                        "value": value, "format": weight_format, "batch": batch,
                        "part": part, "backend": "fast",
                    })

    if args.json:
        write_records(
            args.json,
            "engine_layers",
            {"model": "resnet_tiny", "n": N, "m": M, "block_size": BLOCK,
             "batches": list(BATCHES), "formats": list(FORMATS), "repeat": repeat,
             "smoke": args.smoke},
            records,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
