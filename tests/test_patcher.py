"""Overlapping patch layouts, unfold/fold, and coverage accounting.

``window_unfold``, ``loop_coverage_map`` and ``loop_scatter_add`` are the
patcher's functions as they were written before they read the layout's
pixel-index table: a strided sliding-window view and two loops over patch
origins. They are the bitwise oracles of the table-driven versions.
"""

import dataclasses

import numpy as np
import pytest

from patchmem.errors import DimensionError, LayoutError, ParameterError
from patchmem.grids import FeatureGrid
from patchmem.patcher import (
    PatchGrid,
    coverage_map,
    fold,
    make_layout,
    scatter_add,
    unfold,
)


def window_unfold(grid, layout):
    """(N, C, P, P) patches cut with a sliding-window view at the stride."""
    p, s = layout.patch, layout.stride
    windows = np.lib.stride_tricks.sliding_window_view(grid.data, (p, p), axis=(1, 2))
    # windows: (C, H-P+1, W-P+1, P, P); subsample at the stride
    sub = windows[:, ::s, ::s][:, : layout.n_h, : layout.n_w]
    return np.ascontiguousarray(sub.transpose(1, 2, 0, 3, 4).reshape(
        layout.n_patches, grid.channels, p, p))


def loop_coverage_map(layout):
    """(H, W) patch count per pixel, one slice increment per origin."""
    cov = np.zeros((layout.map_h, layout.map_w), dtype=np.int64)
    p = layout.patch
    for r, c in layout.origins:
        cov[r:r + p, c:c + p] += 1
    return cov


def loop_scatter_add(patches):
    """(C, H, W) sum of patches, added slice by slice in patch order."""
    layout = patches.layout
    acc = np.zeros((patches.channels, layout.map_h, layout.map_w), dtype=np.float64)
    p = layout.patch
    for i, (r, col) in enumerate(layout.origins):
        acc[:, r:r + p, col:col + p] += patches.data[i]
    return acc


def center_block_coverage(layout):
    """Map of pixels lying in the central P/2 block of at least one patch.

    The central block of a patch at origin o starts at o + (P - P//2) // 2
    and spans P//2 pixels per axis. Returns a boolean (H, W) array.
    """
    half = layout.patch // 2
    off = (layout.patch - half) // 2
    hit = np.zeros((layout.map_h, layout.map_w), dtype=bool)
    for r, c in layout.origins:
        hit[r + off:r + off + half, c + off:c + off + half] = True
    return hit


def random_admissible_layout(rng, max_side=60):
    """Sample a patch size and map dims the layout construction accepts."""
    patch = int(rng.choice([2, 4, 6, 8]))
    step = patch // 2
    n_h = int(rng.integers(1, (max_side - patch) // step + 2))
    n_w = int(rng.integers(1, (max_side - patch) // step + 2))
    return patch + step * (n_h - 1), patch + step * (n_w - 1), patch


class TestMakeLayout:
    def test_half_overlap_grid_counts(self):
        layout = make_layout(24, 24, 6)
        assert layout.stride == 3
        assert (layout.n_h, layout.n_w) == (7, 7)
        assert layout.n_patches == 49

    def test_small_map_origins(self):
        layout = make_layout(9, 9, 6)
        assert [tuple(o) for o in layout.origins] == [
            (0, 0), (0, 3), (3, 0), (3, 3)]

    def test_non_tiling_width_rejected(self):
        with pytest.raises(LayoutError):
            make_layout(24, 25, 6)

    def test_patch_larger_than_map_rejected(self):
        with pytest.raises(LayoutError):
            make_layout(4, 8, 6)

    def test_odd_patch_rejected(self):
        with pytest.raises(ParameterError):
            make_layout(9, 9, 5)

    def test_origins_row_major(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h, w, p = random_admissible_layout(rng)
            layout = make_layout(h, w, p)
            origins = [tuple(o) for o in layout.origins]
            assert origins == sorted(origins)


class TestUnfold:
    def test_values_match_direct_slicing(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            h, w, p = random_admissible_layout(rng, max_side=30)
            layout = make_layout(h, w, p)
            grid = FeatureGrid(rng.standard_normal((3, h, w)))
            patches = unfold(grid, layout)
            assert patches.data.shape == (layout.n_patches, 3, p, p)
            for n, (oy, ox) in enumerate(layout.origins):
                assert np.array_equal(patches.data[n],
                                      grid.data[:, oy:oy + p, ox:ox + p])

    def test_layout_mismatch_rejected(self):
        layout = make_layout(9, 9, 6)
        with pytest.raises(DimensionError):
            unfold(FeatureGrid(np.zeros((1, 12, 9))), layout)


class TestCoverage:
    def test_small_map_coverage_pattern(self):
        cov = coverage_map(make_layout(9, 9, 6))
        assert cov[0, 0] == 1 and cov[0, 8] == 1
        assert cov[8, 0] == 1 and cov[8, 8] == 1
        # the central 3x3 block is hit by all four patches
        assert np.all(cov[3:6, 3:6] == 4)
        assert cov.sum() == 4 * 36

    def test_matches_brute_force_accumulation(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            h, w, p = random_admissible_layout(rng)
            layout = make_layout(h, w, p)
            brute = loop_coverage_map(layout)
            assert np.array_equal(coverage_map(layout), brute)
            assert brute.min() >= 1

    def test_center_blocks_union(self):
        hit = center_block_coverage(make_layout(9, 9, 6))
        # patch origins (0,0),(0,3),(3,0),(3,3); central 3x3 blocks start
        # one pixel in, so the union is the 6x6 interior [1:7, 1:7]
        want = np.zeros((9, 9), dtype=bool)
        want[1:7, 1:7] = True
        assert np.array_equal(hit, want)

    def test_center_blocks_skip_map_border(self):
        hit = center_block_coverage(make_layout(24, 24, 6))
        assert not hit[0].any() and not hit[-1].any()
        assert not hit[:, 0].any() and not hit[:, -1].any()
        assert hit[1:22, 1:22].all()


class TestFold:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(25):
            h, w, p = random_admissible_layout(rng)
            layout = make_layout(h, w, p)
            grid = FeatureGrid(rng.standard_normal((2, h, w)))
            back = fold(unfold(grid, layout))
            worst = max(worst, float(np.abs(back.data - grid.data).max()))
        assert worst <= 1e-6

    def test_overlap_averaging(self):
        layout = make_layout(9, 9, 6)
        patches = unfold(FeatureGrid(np.zeros((1, 9, 9))), layout)
        data = patches.data.copy()
        data[0] = 1.0  # only the top-left patch carries signal
        folded = fold(type(patches)(layout, data))
        # a pixel covered by all four patches averages 1/4
        assert np.isclose(folded.data[0, 4, 4], 0.25)
        assert np.isclose(folded.data[0, 0, 0], 1.0)

    def test_scatter_add_is_unfold_adjoint(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            h, w, p = random_admissible_layout(rng, max_side=30)
            layout = make_layout(h, w, p)
            x = FeatureGrid(rng.standard_normal((2, h, w)))
            y = rng.standard_normal((layout.n_patches, 2, p, p))
            patches = unfold(x, layout)
            lhs = float(np.sum(patches.data * y))
            rhs = float(np.sum(x.data * scatter_add(PatchGrid(layout, y))))
            assert np.isclose(lhs, rhs, atol=1e-9)


class TestPixelTable:
    def test_rows_list_each_patch_row_major(self):
        layout = make_layout(9, 12, 6)
        assert layout.pix.shape == (layout.n_patches, 36)
        for i, (oy, ox) in enumerate(layout.origins):
            for dy in range(6):
                for dx in range(6):
                    assert layout.pix[i, dy * 6 + dx] == (oy + dy) * 12 + ox + dx

    def test_layout_is_read_only(self):
        # memoized: equal arguments give the same frozen, read-only object
        layout = make_layout(9, 9, 6)
        assert make_layout(9, 9, 6) is layout
        assert make_layout(9, 9, 2) is not layout
        for table in (layout.origins, layout.pix):
            with pytest.raises(ValueError):
                table[0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.patch = 4

    def test_bitwise_equal_to_old_formulas(self):
        # 60 layouts, P from 2 to 12, 1 to 11 patches per axis
        rng = np.random.default_rng(16)
        for _ in range(60):
            p = int(rng.choice([2, 4, 6, 8, 10, 12]))
            n_h, n_w = (int(v) for v in rng.integers(1, 12, size=2))
            h, w = p + p // 2 * (n_h - 1), p + p // 2 * (n_w - 1)
            layout = make_layout(h, w, p)
            grid = FeatureGrid(rng.standard_normal((3, h, w)))
            assert np.array_equal(unfold(grid, layout).data, window_unfold(grid, layout))
            cov = coverage_map(layout)
            assert cov.dtype == np.int64
            assert np.array_equal(cov, loop_coverage_map(layout))
            patches = PatchGrid(layout, rng.standard_normal((layout.n_patches, 3, p, p)))
            assert np.array_equal(scatter_add(patches), loop_scatter_add(patches))
            assert np.array_equal(fold(patches).data,
                                  loop_scatter_add(patches) / loop_coverage_map(layout))
