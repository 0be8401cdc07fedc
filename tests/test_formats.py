"""Tests for sparse storage formats and metadata accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsity.block import partition_into_blocks
from repro.sparsity.formats import (
    BlockedEllpackFormat,
    CRISPFormat,
    CSRFormat,
    DenseFormat,
    ELLPACKFormat,
    compare_formats,
    paper_block_metadata_bits,
    paper_nm_metadata_bits,
)
from repro.sparsity.hybrid import HybridSparsityConfig, hybrid_mask
from repro.sparsity.nm import nm_mask


def make_hybrid_matrix(rng, rows=32, cols=32, n=2, m=4, block_size=8, keep=2):
    """A random matrix pruned to a valid hybrid pattern."""
    weight = rng.normal(size=(rows, cols))
    mask, _ = hybrid_mask(np.abs(weight), HybridSparsityConfig(n, m, block_size), keep_blocks_per_row=keep)
    return weight * mask


class TestDenseFormat:
    def test_roundtrip_and_summary(self, rng):
        matrix = rng.normal(size=(8, 8))
        fmt = DenseFormat.from_dense(matrix)
        np.testing.assert_allclose(fmt.to_dense(), matrix)
        summary = fmt.summary()
        assert summary.metadata_bits == 0
        assert summary.data_bits == 64 * 8


class TestCSRFormat:
    def test_roundtrip(self, rng):
        matrix = rng.normal(size=(10, 12)) * (rng.random((10, 12)) < 0.3)
        fmt = CSRFormat.from_dense(matrix)
        np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_nnz_counted(self, rng):
        matrix = np.zeros((4, 4))
        matrix[0, 1] = 2.0
        matrix[3, 2] = -1.0
        summary = CSRFormat.from_dense(matrix).summary()
        assert summary.nnz == 2

    def test_metadata_scales_with_nnz(self, rng):
        sparse = rng.normal(size=(16, 16)) * (rng.random((16, 16)) < 0.2)
        dense = rng.normal(size=(16, 16))
        assert (
            CSRFormat.from_dense(dense).summary().metadata_bits
            > CSRFormat.from_dense(sparse).summary().metadata_bits
        )

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            CSRFormat.from_dense(rng.normal(size=8))

    def test_empty_matrix(self):
        fmt = CSRFormat.from_dense(np.zeros((3, 3)))
        np.testing.assert_allclose(fmt.to_dense(), 0.0)
        assert fmt.summary().nnz == 0


class TestELLPACKFormat:
    def test_roundtrip(self, rng):
        matrix = rng.normal(size=(6, 9)) * (rng.random((6, 9)) < 0.4)
        fmt = ELLPACKFormat.from_dense(matrix)
        np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_padding_penalty(self):
        """One dense row forces padding slots on every other row."""
        matrix = np.zeros((4, 8))
        matrix[0] = 1.0  # row 0 dense, rest empty
        summary = ELLPACKFormat.from_dense(matrix).summary()
        # 4 rows x 8 slots even though only 8 values exist.
        assert summary.data_bits == 4 * 8 * 8
        assert summary.nnz == 8

    def test_metadata_at_least_csr_for_irregular(self, rng):
        matrix = rng.normal(size=(12, 16))
        matrix[rng.random((12, 16)) < 0.7] = 0.0
        matrix[0] = rng.normal(size=16)  # make one row dense
        ell = ELLPACKFormat.from_dense(matrix).summary()
        csr = CSRFormat.from_dense(matrix).summary()
        assert ell.metadata_bits >= csr.metadata_bits


class TestBlockedEllpackFormat:
    def test_roundtrip(self, rng):
        matrix = make_hybrid_matrix(rng)
        fmt = BlockedEllpackFormat.from_dense(matrix, block_size=8)
        np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_roundtrip_unaligned_shape(self, rng):
        matrix = rng.normal(size=(10, 13)) * (rng.random((10, 13)) < 0.5)
        fmt = BlockedEllpackFormat.from_dense(matrix, block_size=4)
        np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_metadata_one_index_per_block(self, rng):
        matrix = make_hybrid_matrix(rng, keep=2)
        fmt = BlockedEllpackFormat.from_dense(matrix, block_size=8)
        summary = fmt.summary()
        stored_blocks = int(fmt.blocks_per_row.sum())
        assert stored_blocks == 4 * 2  # 4 block-rows, 2 kept each
        assert summary.metadata_bits == stored_blocks * 2  # ceil(log2(4 block cols)) = 2


class TestCRISPFormat:
    def test_roundtrip_on_hybrid_matrix(self, rng):
        matrix = make_hybrid_matrix(rng)
        fmt = CRISPFormat.from_dense(matrix, n=2, m=4, block_size=8)
        assert fmt.is_lossless
        np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_roundtrip_1_4_and_3_4(self, rng):
        for n in (1, 3):
            matrix = make_hybrid_matrix(rng, n=n, m=4)
            fmt = CRISPFormat.from_dense(matrix, n=n, m=4, block_size=8)
            assert fmt.is_lossless
            np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_lossy_on_violating_matrix(self, rng):
        matrix = rng.normal(size=(16, 16))  # dense: violates 2:4 everywhere
        fmt = CRISPFormat.from_dense(matrix, n=2, m=4, block_size=8)
        assert not fmt.is_lossless
        decoded = fmt.to_dense()
        # The decoded matrix satisfies 2:4 (keeps the 2 largest per group).
        mask = (decoded != 0).astype(float)
        from repro.sparsity.masks import check_nm_compliance

        assert check_nm_compliance(mask, 2, 4, axis=0)

    def test_block_size_must_be_multiple_of_m(self, rng):
        with pytest.raises(ValueError):
            CRISPFormat.from_dense(rng.normal(size=(8, 8)), n=2, m=4, block_size=6)

    @pytest.mark.parametrize("n", [0, 5])
    def test_invalid_nm_ratio(self, rng, n):
        with pytest.raises(ValueError, match="N:M"):
            CRISPFormat.from_dense(rng.normal(size=(8, 8)), n=n, m=4, block_size=8)

    def test_metadata_cheaper_than_csr_and_ellpack(self, rng):
        matrix = make_hybrid_matrix(rng, rows=64, cols=64, block_size=16, keep=2)
        summaries = compare_formats(matrix, n=2, m=4, block_size=16)
        crisp = summaries["crisp"].metadata_bits
        assert summaries["csr"].metadata_bits > crisp
        assert summaries["ellpack"].metadata_bits > crisp

    def test_metadata_offsets_cost(self, rng):
        matrix = make_hybrid_matrix(rng, rows=16, cols=16, block_size=8, keep=1)
        fmt = CRISPFormat.from_dense(matrix, n=2, m=4, block_size=8)
        summary = fmt.summary()
        stored_blocks = int(fmt.blocks_per_row.sum())
        values = stored_blocks * (8 // 4) * 8 * 2
        assert summary.data_bits == values * 8
        # 2-bit offsets per value + 1-bit-minimum block index per block.
        assert summary.metadata_bits == values * 2 + stored_blocks * 1


def loop_crisp_encode(matrix, n, m, block_size):
    """The original per-block / per-group / per-column CRISP encoder.

    Kept as the oracle for the vectorized :meth:`CRISPFormat.from_dense`:
    returns ``(block_cols, blocks_per_row, group_values, group_offsets,
    is_lossless)``.
    """
    tiles, grid = partition_into_blocks(np.asarray(matrix, dtype=np.float64), block_size)
    nonzero = tiles.reshape(grid.block_rows, grid.block_cols, -1).any(axis=2)
    blocks_per_row = nonzero.sum(axis=1).astype(np.int64)
    slots = max(1, int(blocks_per_row.max()))
    groups_per_block = block_size // m
    block_cols = np.zeros((grid.block_rows, slots), dtype=np.int64)
    stored_shape = (grid.block_rows, slots, groups_per_block, block_size, n)
    group_values = np.zeros(stored_shape)
    group_offsets = np.zeros(stored_shape, dtype=np.int64)
    lossless = True
    for br in range(grid.block_rows):
        for slot, bc in enumerate(np.nonzero(nonzero[br])[0]):
            block = tiles[br, bc]
            block_cols[br, slot] = bc
            for g in range(groups_per_block):
                group = block[g * m : (g + 1) * m, :]
                for col in range(block_size):
                    column = group[:, col]
                    nz = np.nonzero(column)[0]
                    if len(nz) > n:
                        lossless = False
                        order = np.argsort(np.abs(column[nz]))[::-1]
                        nz = np.sort(nz[order[:n]])
                    for k, offset in enumerate(nz):
                        group_values[br, slot, g, col, k] = column[offset]
                        group_offsets[br, slot, g, col, k] = offset
    return block_cols, blocks_per_row, group_values, group_offsets, lossless


def assert_matches_loop_encoder(matrix, n, m, block_size):
    fmt = CRISPFormat.from_dense(matrix, n=n, m=m, block_size=block_size)
    *arrays, lossless = loop_crisp_encode(matrix, n, m, block_size)
    names = ("block_cols", "blocks_per_row", "group_values", "group_offsets")
    for name, want in zip(names, arrays):
        got = getattr(fmt, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert fmt.is_lossless is lossless
    return fmt


#: Every (N, M) x block size the vectorized encoder is pinned on.
ENCODER_CONFIGS = [(n, m, b) for n, m in ((1, 4), (2, 4), (2, 8)) for b in (8, 16, 32)]


class TestCRISPEncoderMatchesLoop:
    @pytest.mark.parametrize("n,m,block_size", ENCODER_CONFIGS)
    def test_all_zero_matrix(self, n, m, block_size):
        fmt = assert_matches_loop_encoder(np.zeros((block_size + 3, 5)), n, m, block_size)
        assert fmt.is_lossless and not fmt.blocks_per_row.any()

    @pytest.mark.parametrize("n,m,block_size", ENCODER_CONFIGS)
    def test_lossy_groups_with_magnitude_ties(self, n, m, block_size):
        # Every group holds m equal-magnitude non-zeros: all lossy, all ties.
        matrix = np.where(np.arange(2 * block_size) % 2 == 0, 1.0, -1.0)[:, None]
        matrix = np.repeat(matrix, block_size + 1, axis=1)
        fmt = assert_matches_loop_encoder(matrix, n, m, block_size)
        assert not fmt.is_lossless

    @given(
        config=st.sampled_from(ENCODER_CONFIGS),
        rows=st.integers(1, 70),
        cols=st.integers(1, 70),
        ties=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_byte_identical(self, config, rows, cols, ties, seed):
        n, m, block_size = config
        rng = np.random.default_rng(seed)
        if ties:
            # Few distinct magnitudes and many zeros: magnitude ties across
            # the keep/drop cut of lossy groups, plus empty blocks.
            palette = np.array([0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 2.0, -0.5])
            matrix = rng.choice(palette, size=(rows, cols))
        else:
            density = rng.choice([0.1, 0.5, 1.0])
            matrix = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
        assert_matches_loop_encoder(matrix, n, m, block_size)


class TestCompareFormats:
    def test_all_formats_present(self, rng):
        matrix = make_hybrid_matrix(rng)
        summaries = compare_formats(matrix, block_size=8)
        assert set(summaries) == {"dense", "csr", "ellpack", "blocked-ellpack", "crisp"}

    def test_overhead_ratio_helper(self, rng):
        matrix = make_hybrid_matrix(rng)
        summaries = compare_formats(matrix, block_size=8)
        ratio = summaries["csr"].metadata_overhead_vs(summaries["crisp"])
        assert ratio > 1.0

    @given(st.sampled_from([(1, 4), (2, 4), (3, 4)]), st.sampled_from([8, 16]))
    @settings(max_examples=12, deadline=None)
    def test_property_roundtrips(self, nm_pair, block_size):
        n, m = nm_pair
        rng = np.random.default_rng(n * 13 + block_size)
        matrix = make_hybrid_matrix(
            rng, rows=block_size * 3, cols=block_size * 2, n=n, m=m, block_size=block_size, keep=1
        )
        for cls, kwargs in (
            (CSRFormat, {}),
            (ELLPACKFormat, {}),
            (BlockedEllpackFormat, {"block_size": block_size}),
            (CRISPFormat, {"n": n, "m": m, "block_size": block_size}),
        ):
            fmt = cls.from_dense(matrix, **kwargs)
            np.testing.assert_allclose(fmt.to_dense(), matrix, err_msg=cls.__name__)


class TestPaperFormulas:
    def test_block_formula_positive_and_scales(self):
        small = paper_block_metadata_bits(s=64, k=576, k_prime=144, block_size=16)
        large = paper_block_metadata_bits(s=64, k=576, k_prime=288, block_size=16)
        assert 0 < small < large

    def test_block_formula_bigger_blocks_cost_less(self):
        b16 = paper_block_metadata_bits(s=64, k=576, k_prime=288, block_size=16)
        b64 = paper_block_metadata_bits(s=64, k=576, k_prime=288, block_size=64)
        assert b64 < b16

    def test_block_formula_invalid(self):
        with pytest.raises(ValueError):
            paper_block_metadata_bits(s=64, k=100, k_prime=0, block_size=16)

    def test_nm_formula(self):
        # S * K' * (N/M) * floor(log2(M)) = 64 * 128 * 0.5 * 2
        assert paper_nm_metadata_bits(64, 128, 2, 4) == pytest.approx(64 * 128 * 0.5 * 2)

    def test_nm_formula_invalid(self):
        with pytest.raises(ValueError):
            paper_nm_metadata_bits(64, 128, 5, 4)
