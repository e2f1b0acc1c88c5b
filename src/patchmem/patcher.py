"""Overlapping patch extraction and reassembly.

Patches are square (P x P, P even) and tile the map with stride P/2, so
neighbouring patches overlap by half a patch in each direction. A map is
admissible only when (H - P) and (W - P) are exact multiples of the stride;
nothing is ever padded. Patch origins are enumerated row-major.

The layout's pixel-index table ``pix`` is the one patch-to-pixel map:
``unfold`` gathers through it, and ``scatter_add`` and ``coverage_map``
count through it with ``np.bincount``, which visits patches in order, so
each pixel sums its patches' contributions in patch order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, LayoutError, ParameterError
from .grids import FeatureGrid, real_array


@dataclass(frozen=True, eq=False)
class PatchLayout:
    """Geometry of an overlapping patch tiling.

    Compared and hashed by identity: the fields hold arrays, which a
    field-wise ``==`` cannot reduce to one truth value.

    Attributes:
        map_h, map_w: source map size.
        patch: patch side length P.
        stride: P // 2.
        n_h, n_w: patch counts along each axis.
        origins: (N, 2) read-only int array of top-left corners, row-major.
        pix: (N, P^2) read-only table of flat pixel indices; row i lists
            patch i's pixels in row-major in-patch order, so entry
            dy*P + dx is (origin_y + dy)*W + origin_x + dx.
    """

    map_h: int
    map_w: int
    patch: int
    stride: int
    n_h: int
    n_w: int
    origins: np.ndarray
    pix: np.ndarray

    @property
    def n_patches(self):
        return self.n_h * self.n_w


def layout_shape(map_h, map_w, patch):
    """Patch counts (n_h, n_w) of a map's layout, or raise LayoutError.

    Requires an even patch size no larger than either map dim, and map dims
    that the stride tiles exactly: (dim - P) % (P / 2) == 0.
    """
    if patch < 2 or patch % 2 != 0:
        raise ParameterError(f"patch size must be even and >= 2, got {patch}")
    if map_h < 1 or map_w < 1:
        raise DimensionError(f"map dims must be positive, got ({map_h}, {map_w})")
    if patch > map_h or patch > map_w:
        raise LayoutError(
            f"patch {patch} exceeds map dims ({map_h}, {map_w})")
    stride = patch // 2
    if (map_h - patch) % stride != 0:
        raise LayoutError(
            f"height {map_h} is not tileable by patch {patch} stride {stride}")
    if (map_w - patch) % stride != 0:
        raise LayoutError(
            f"width {map_w} is not tileable by patch {patch} stride {stride}")
    return (map_h - patch) // stride + 1, (map_w - patch) // stride + 1


@functools.lru_cache(maxsize=64)
def make_layout(map_h, map_w, patch):
    """The patch layout for a map under the rules of layout_shape.

    Memoized: equal arguments return the same frozen, read-only layout.
    """
    n_h, n_w = layout_shape(map_h, map_w, patch)
    stride = patch // 2
    rows = np.repeat(np.arange(n_h) * stride, n_w)
    cols = np.tile(np.arange(n_w) * stride, n_h)
    origins = np.stack([rows, cols], axis=1).astype(np.intp)
    offsets = (np.arange(patch)[:, None] * map_w + np.arange(patch)).ravel()
    pix = (origins[:, 0] * map_w + origins[:, 1])[:, None] + offsets
    origins.flags.writeable = False
    pix.flags.writeable = False
    return PatchLayout(map_h, map_w, patch, stride, n_h, n_w, origins, pix)


class PatchGrid:
    """Patches cut from (or destined for) one feature map.

    Attributes:
        layout: the PatchLayout the patches follow.
        data: (N, C, P, P) array, float32 or float64 as ``real_array``
            holds it.
    """

    def __init__(self, layout, data):
        data = real_array(data)
        if data.ndim != 4:
            raise DimensionError(f"patch data must be (N, C, P, P), got {data.shape}")
        n, _, ph, pw = data.shape
        if n != layout.n_patches or ph != layout.patch or pw != layout.patch:
            raise DimensionError(
                f"patch data shape {data.shape} does not match layout "
                f"(N={layout.n_patches}, P={layout.patch})")
        self.layout = layout
        self.data = data

    @property
    def n_patches(self):
        return self.data.shape[0]

    @property
    def channels(self):
        return self.data.shape[1]


def unfold(grid, layout):
    """Cut a FeatureGrid into overlapping patches.

    Returns a PatchGrid whose patch i is the source restricted to
    origins[i] .. origins[i] + P.
    """
    if grid.height != layout.map_h or grid.width != layout.map_w:
        raise DimensionError(
            f"grid dims ({grid.height}, {grid.width}) do not match layout "
            f"({layout.map_h}, {layout.map_w})")
    c, p = grid.channels, layout.patch
    gathered = grid.data.reshape(c, layout.map_h * layout.map_w)[:, layout.pix]
    patches = np.ascontiguousarray(gathered.transpose(1, 0, 2)).reshape(
        layout.n_patches, c, p, p)
    return PatchGrid(layout, patches)


def coverage_map(layout):
    """Return the (H, W) count of patches covering each pixel.

    Interior pixels of a multi-patch layout are covered up to 4 times;
    coverage is never zero because the stride tiles the map exactly.
    """
    return np.bincount(layout.pix.ravel()).reshape(layout.map_h, layout.map_w)


def scatter_add(patches):
    """Adjoint of unfold: sum patches back onto the map without averaging.

    Fold divides it by coverage; the matcher's backward pass does not call
    it. Returns a raw (C, H, W) array of the patches' dtype.
    """
    layout = patches.layout
    hw = layout.map_h * layout.map_w
    idx = layout.pix.ravel()
    acc = np.empty((patches.channels, hw), dtype=patches.data.dtype)
    for ch in range(patches.channels):
        acc[ch] = np.bincount(idx, weights=patches.data[:, ch].ravel(), minlength=hw)
    return acc.reshape(patches.channels, layout.map_h, layout.map_w)


def fold(patches):
    """Reassemble overlapping patches into a FeatureGrid.

    Overlapping contributions are averaged: each output pixel is the sum of
    all patch values covering it divided by its coverage count.
    """
    acc = scatter_add(patches)
    acc /= coverage_map(patches.layout)
    return FeatureGrid(acc)
