"""Two-scale matching with a shared top-K selection.

A pyramid is a {scale: FeatureGrid} dict. Scale 4 is the coarse grid
(feature stride 16); scale 3 is exactly twice its size in both spatial dims
(stride 8). Matching runs the full patch pipeline at scale 4 with patch size
P, then reuses the resulting top-K table at scale 3 with patch size 2P. The
layouts are congruent by construction: both scales have the same patch
count and scale-3 origins are exactly twice the scale-4 origins, so the
table transfers verbatim and no scale-3 affinity is ever computed.
"""

from __future__ import annotations

import numpy as np

from .errors import LayoutError
from .matcher import plmm_forward
from .patcher import make_layout


def lift_topk(topk, layout4, layout3):
    """Transfer a scale-4 top-K table to the scale-3 layout.

    The two layouts must have the same patch count; because origins scale by
    exactly 2, patch i at scale 3 covers the same image region as patch i at
    scale 4, so the checked table itself is returned. Nothing writes a
    top-K table, so the two scales may share it.
    """
    if layout3.n_patches != layout4.n_patches:
        raise LayoutError(
            f"scale-3 layout has {layout3.n_patches} patches, scale-4 has "
            f"{layout4.n_patches}; top-K cannot be lifted")
    if layout3.patch != 2 * layout4.patch:
        raise LayoutError(
            f"scale-3 patch {layout3.patch} is not twice scale-4 patch {layout4.patch}")
    if not np.array_equal(layout3.origins, 2 * layout4.origins):
        raise LayoutError("scale-3 origins are not twice the scale-4 origins")
    if topk.ids.shape[0] != layout4.n_patches:
        raise LayoutError(
            f"top-K table has {topk.ids.shape[0]} rows, layouts expect "
            f"{layout4.n_patches}")
    return topk


def match_multiscale(query, memory_keys, memory_values, p4, k, counter=None):
    """Run patch matching at both scales with one top-K selection.

    Args:
        query: key pyramid of the query frame.
        memory_keys: list of key pyramids, one per memory frame.
        memory_values: list of value pyramids, parallel to memory_keys.
        p4: patch size at scale 4; scale 3 uses 2 * p4.
        k: memory patches kept per query patch.
        counter: optional OpCounter. Only the scale-4 pass adds patch pairs.

    Returns:
        {3: readout, 4: readout}, FeatureGrids. LayoutError if the scale-3
        layout is not the scale-4 layout doubled.
    """
    res4 = plmm_forward(
        query[4], [m[4] for m in memory_keys], [m[4] for m in memory_values],
        patch=p4, k=k, counter=counter)
    layout4 = make_layout(query[4].height, query[4].width, p4)
    layout3 = make_layout(query[3].height, query[3].width, 2 * p4)
    lifted = lift_topk(res4.topk, layout4, layout3)
    res3 = plmm_forward(
        query[3], [m[3] for m in memory_keys], [m[3] for m in memory_values],
        patch=2 * p4, k=k, counter=counter, topk_override=lifted)
    return {3: res3.readout, 4: res4.readout}
