"""Channel-major inference: BatchNorm bit-identity, im2col columns, engine parity.

Engine convolutions return NCHW views over channel-major ``(C, N, H, W)``
memory.  BatchNorm, ReLU and the residual add are elementwise, so they keep
that order, and the fast backend's inference ``im2col`` hands unpadded
stride-1 1x1 convolutions a free view of their input.  These tests pin the
single-pass BatchNorm kernel against a frozen copy of the two-pass one, the
channel-major column matrices against ``F.im2col``, and fast-vs-reference
engine parity across the model zoo.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import Engine, FastBackend, use_backend
from repro.nn import functional as F
from repro.nn.models import build_model
from repro.nn.models.base import prunable_layers
from repro.sparsity import HybridSparsityConfig, hybrid_mask


def two_pass_batchnorm(x, gamma, beta, running_mean, running_var, training,
                       momentum=0.1, eps=1e-5):
    """The BatchNorm kernel before the single-centering rewrite (the oracle)."""
    is_conv = x.ndim == 4
    axes = (0, 2, 3) if is_conv else (0,)

    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var

    if is_conv:
        mean_b = mean[None, :, None, None]
        var_b = var[None, :, None, None]
        gamma_b = gamma[None, :, None, None]
        beta_b = beta[None, :, None, None]
    else:
        mean_b, var_b, gamma_b, beta_b = mean, var, gamma, beta

    inv_std = 1.0 / np.sqrt(var_b + eps)
    x_hat = (x - mean_b) * inv_std
    out = gamma_b * x_hat + beta_b

    cache = {
        "x_hat": x_hat,
        "inv_std": inv_std,
        "gamma": gamma,
        "axes": axes,
        "is_conv": is_conv,
        "training": training,
    }
    return out, cache


def _array(rng, layout, shape):
    """Standard-normal ``shape`` array in the named memory layout."""
    n, c, h, w = shape
    if layout == "nchw":
        return rng.normal(size=shape)
    if layout == "channel-major":
        return rng.normal(size=(c, n, h, w)).transpose(1, 0, 2, 3)
    if layout == "nhwc":
        return rng.normal(size=(n, h, w, c)).transpose(0, 3, 1, 2)
    return rng.normal(size=(n, c))  # "2d": BatchNorm1d input


class TestBatchNormBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(["nchw", "channel-major", "2d"]),
        training=st.booleans(),
        n=st.integers(1, 6),
        c=st.integers(1, 9),
        h=st.integers(1, 7),
        w=st.integers(1, 7),
        scale=st.sampled_from([1e-3, 1.0, 37.0]),
        shift=st.sampled_from([0.0, -4.5, 1e3]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_two_pass_kernel(self, layout, training, n, c, h, w, scale, shift, seed):
        rng = np.random.default_rng(seed)
        x = _array(rng, layout, (n, c, h, w)) * scale + shift
        gamma, beta = rng.normal(size=c), rng.normal(size=c)
        mean0, var0 = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
        stats_old = (mean0.copy(), var0.copy())
        stats_new = (mean0.copy(), var0.copy())

        out_old, cache_old = two_pass_batchnorm(x, gamma, beta, *stats_old, training)
        out_new, cache_new = F.batchnorm_forward(x, gamma, beta, *stats_new, training)

        np.testing.assert_array_equal(out_new, out_old)
        for old, new in zip(stats_old, stats_new):
            np.testing.assert_array_equal(new, old)
        assert set(cache_new) == set(cache_old)
        for key in ("x_hat", "inv_std", "gamma"):
            np.testing.assert_array_equal(cache_new[key], cache_old[key])
        for key in ("axes", "is_conv", "training"):
            assert cache_new[key] == cache_old[key]

        grad_out = rng.normal(size=x.shape)
        for got, want in zip(
            F.batchnorm_backward(grad_out, cache_new),
            F.batchnorm_backward(grad_out, cache_old),
        ):
            np.testing.assert_array_equal(got, want)

    def test_keeps_channel_major_order(self, rng):
        x = rng.normal(size=(6, 2, 5, 5)).transpose(1, 0, 2, 3)
        c = x.shape[1]
        for training in (True, False):
            out, cache = F.batchnorm_forward(
                x, np.ones(c), np.zeros(c), np.zeros(c), np.ones(c), training
            )
            assert out.transpose(1, 0, 2, 3).flags.c_contiguous
            assert cache["x_hat"].transpose(1, 0, 2, 3).flags.c_contiguous
            assert not np.shares_memory(out, cache["x_hat"])


class TestChannelMajorIm2col:
    @pytest.mark.parametrize("layout", ["nchw", "channel-major", "nhwc"])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_values_match_functional_im2col(self, rng, kernel, stride, padding, layout):
        backend = FastBackend()
        x = _array(rng, layout, (3, 4, 7, 6))
        cols = backend.im2col(x, kernel, kernel, stride, padding, training=False)
        np.testing.assert_array_equal(cols, F.im2col(x, kernel, kernel, stride, padding))
        assert cols.T.flags.c_contiguous
        free = (kernel, stride, padding, layout) == (1, 1, 0, "channel-major")
        assert np.shares_memory(cols, x) == free

    def test_padding_border_stays_zero_across_calls(self, rng):
        backend = FastBackend()
        for _ in range(3):
            x = rng.normal(size=(2, 3, 5, 5)) + 10.0
            cols = backend.im2col(x, 3, 3, 1, 1, training=False)
            np.testing.assert_array_equal(cols, F.im2col(x, 3, 3, 1, 1))
        assert backend.workspace_stats() == {"hits": 4, "misses": 2, "buffers": 2}

    def test_threads_never_share_a_buffer(self, rng):
        backend = FastBackend()
        workers = 4
        inputs = [rng.normal(size=(2, 3, 6, 6)) for _ in range(workers)]
        barrier = threading.Barrier(workers, timeout=30)
        results = [None] * workers
        errors = []

        def worker(i):
            try:
                for _ in range(30):
                    barrier.wait()
                    cols = backend.im2col(inputs[i], 3, 3, 1, 1, training=False)
                    barrier.wait()
                    np.testing.assert_array_equal(cols, F.im2col(inputs[i], 3, 3, 1, 1))
                results[i] = cols
            except Exception as exc:  # pragma: no cover - reported below
                barrier.abort()
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        for i in range(workers):
            for j in range(i):
                assert not np.shares_memory(results[i], results[j])
        # A column and a padding buffer per thread.
        assert backend.workspace_stats()["buffers"] == 2 * workers


def _pruned(arch, seed=0, n=2, m=4, block_size=8):
    model = build_model(arch, num_classes=5, input_size=16, seed=seed)
    for layer in prunable_layers(model).values():
        w2d = layer.reshaped_weight()
        block_cols = -(-w2d.shape[1] // block_size)
        mask, _ = hybrid_mask(
            np.abs(w2d),
            HybridSparsityConfig(n, m, block_size),
            keep_blocks_per_row=max(1, block_cols - 1),
        )
        layer.set_reshaped_mask(mask)
    return model


class _RecordingFast(FastBackend):
    """The fast backend, noting for each inference im2col call whether the
    columns are a free view of the input."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def im2col(self, x, kernel_h, kernel_w, stride=1, padding=0, training=True):
        cols = super().im2col(x, kernel_h, kernel_w, stride, padding, training)
        free = (kernel_h, kernel_w, stride, padding) == (1, 1, 1, 0)
        self.calls.append((free, np.shares_memory(cols, x)))
        return cols


class TestEngineChannelMajor:
    @pytest.mark.parametrize("weight_format", ["dense", "crisp"])
    @pytest.mark.parametrize("arch", ["resnet_tiny", "vgg_tiny", "mobilenet_tiny"])
    def test_fast_matches_reference(self, rng, arch, weight_format):
        model = _pruned(arch)
        spec = dict(weight_format=weight_format, n=2, m=4, block_size=8)
        batches = [rng.normal(size=(b, 3, 16, 16)) for b in (1, 3, 5, 1, 7)]
        with Engine(model, backend="reference", **spec) as engine:
            expected = [engine.predict(x) for x in batches]
        with use_backend("fast"), Engine(model, backend="fast", **spec) as engine:
            for x, want in zip(batches, expected):
                np.testing.assert_allclose(engine.predict(x), want, atol=1e-8)

    def test_one_by_one_chain_never_copies(self, rng):
        model = build_model("resnet_tiny", num_classes=5, input_size=16, seed=0)
        backend = _RecordingFast()
        with Engine(model, backend=backend, weight_format="dense") as engine:
            engine.predict(rng.normal(size=(3, 3, 16, 16)))
        # Every unpadded stride-1 1x1 conv reads the previous activation in
        # place: conv outputs, BatchNorm, ReLU and the residual add all keep
        # channel-major memory.  Every other conv copies into a workspace.
        assert len(backend.calls) == 13
        assert sum(free for free, _ in backend.calls) == 7
        for free, shared in backend.calls:
            assert shared == free
