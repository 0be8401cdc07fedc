"""Engine lifecycle tests: attach/detach restoration and format refresh.

Covers the two serving-critical lifecycle properties: a detached engine must
leave the module exactly as it found it (context-manager protocol), and an
engine that outlives a re-pruning must not serve stale compressed weights
(``refresh_formats`` regression).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import Engine
from repro.nn.models import build_model
from repro.nn.models.base import prunable_layers
from repro.sparsity import HybridSparsityConfig, hybrid_mask, nm_mask


@pytest.fixture
def model():
    return build_model("resnet_tiny", num_classes=4, input_size=12, seed=0)


@pytest.fixture
def batch(rng):
    return rng.normal(size=(3, 3, 12, 12))


def _forward_table(model):
    """Each prunable layer's instance-level forward override (None = class forward)."""
    return {
        name: layer.__dict__.get("forward")
        for name, layer in prunable_layers(model).items()
    }


class TestDetachRestoresForwards:
    def test_context_manager_restores_original_forwards(self, model, batch):
        model.eval()
        baseline = model(batch)
        before = _forward_table(model)

        with Engine(model, backend="fast", weight_format="csr") as engine:
            assert engine.attached
            during = _forward_table(model)
            # Every prunable layer's forward is rerouted while attached.
            assert all(during[name] is not before[name] for name in before)
            np.testing.assert_allclose(engine.predict(batch), baseline, atol=1e-8)

        assert not engine.attached
        after = _forward_table(model)
        assert after == before  # original (absent) overrides restored exactly
        np.testing.assert_allclose(model(batch), baseline, atol=1e-12)

    def test_detach_is_idempotent(self, model, batch):
        engine = Engine(model, backend="fast", weight_format="dense")
        engine.detach()
        engine.detach()
        model.eval()
        assert model(batch).shape == (3, 4)

    def test_reattach_after_detach(self, model, batch):
        engine = Engine(model, backend="fast", weight_format="csr")
        expected = engine.predict(batch)
        engine.detach()
        engine.attach()
        np.testing.assert_allclose(engine.predict(batch), expected, atol=1e-12)
        engine.detach()


class TestRefreshFormats:
    def test_stale_formats_after_repruning(self, model, batch):
        """Re-pruning while an engine is attached must require refresh_formats:
        the engine serves the old encoding until then (the stale-format
        hazard), and refresh brings it back in sync."""
        engine = Engine(model, backend="fast", weight_format="csr")
        stale = engine.predict(batch)

        # Re-prune: install 1:4 N:M masks on every prunable layer.
        for layer in prunable_layers(model).values():
            scores = np.abs(layer.reshaped_weight())
            layer.set_reshaped_mask(nm_mask(scores, 1, 4, axis=0))

        # Without refresh the engine still serves the pre-pruning encoding.
        np.testing.assert_allclose(engine.predict(batch), stale, atol=1e-12)

        engine.refresh_formats()
        refreshed = engine.predict(batch)
        assert not np.allclose(refreshed, stale)

        # The refreshed engine matches a fresh engine over the pruned module.
        engine.detach()
        fresh = Engine(model, backend="fast", weight_format="csr")
        np.testing.assert_allclose(fresh.predict(batch), refreshed, atol=1e-10)
        fresh.detach()

    def test_crisp_operand_does_not_outlive_its_encoding(self, model, batch):
        """The fast backend memoizes each CRISP layer's decoded dense operand.
        A re-mask plus refresh_formats must still serve the new masks: the
        result matches a freshly built reference engine."""

        def hybrid_prune(n):
            for layer in prunable_layers(model).values():
                scores = np.abs(layer.reshaped_weight())
                mask, _ = hybrid_mask(
                    scores, HybridSparsityConfig(n, 4, 8), keep_blocks_per_row=1
                )
                layer.set_reshaped_mask(mask)

        hybrid_prune(2)
        engine = Engine(model, backend="fast", weight_format="crisp", n=2, m=4, block_size=8)
        stale = engine.predict(batch)  # memoizes every layer's operand

        hybrid_prune(1)
        engine.refresh_formats()
        refreshed = engine.predict(batch)
        engine.detach()
        assert not np.allclose(refreshed, stale)

        with Engine(
            model, backend="reference", weight_format="crisp", n=2, m=4, block_size=8
        ) as fresh:
            assert fresh.is_lossless
            np.testing.assert_allclose(refreshed, fresh.predict(batch), atol=1e-8)

    def test_refresh_encodes_effective_weight(self, model, batch):
        """STE-style dense shadow weights must never leak into inference:
        the encoding uses data * mask, not data."""
        engine = Engine(model, backend="fast", weight_format="csr", attach=False)
        for layer in prunable_layers(model).values():
            scores = np.abs(layer.reshaped_weight())
            layer.set_reshaped_mask(nm_mask(scores, 2, 4, axis=0))
        # Perturb the masked-out entries of the dense shadow weights.
        for layer in prunable_layers(model).values():
            layer.weight.data = layer.weight.data + (1.0 - layer.weight.mask) * 7.0
        engine.refresh_formats()
        engine.attach()
        masked_pred = engine.predict(batch)
        engine.detach()

        model.apply_masks()  # hard-zero the shadow entries
        fresh = Engine(model, backend="fast", weight_format="csr")
        np.testing.assert_allclose(fresh.predict(batch), masked_pred, atol=1e-10)
        fresh.detach()
