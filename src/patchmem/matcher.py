"""Patch-level memory matching.

The matcher compares a query feature map against a bank of memory feature
maps in two stages. Stage one scores whole patches against each other and
keeps the top K memory patches per query patch; stage two runs a softmax
pixel matching only inside the selected patches and reads out memory values
with the resulting weights. Folded back together this gives a value map for
the query frame at a fraction of the cost of all-pairs pixel matching, which
``dense_readout`` still provides as the reference path.

Similarity is the negated squared Euclidean distance, so in exact
arithmetic identical vectors score 0 and everything else is negative. The
scores are computed with the Gram expansion ``2 a.b - ||a||^2 - ||b||^2``,
which rounds: an identical pair scores 0 only up to a few units of rounding
of ``||a||^2``, of either sign, and swapping the two arguments can change
the last bits of a score. Softmax rows are stabilized by subtracting the
row maximum. The patch path computes its pixel logits as
``2 q.m - ||m||^2``, one GEMM per query patch: the dropped ``-||q||^2`` is
constant along each softmax row, so the weights do not change.

The pixel stage never cuts a map into overlapping patches, which would hold
about four times the map's bytes. It lays the query and the memory maps out
once per call as channels-last pixel rows and gathers each block of
selected patches from them through a table of flat pixel indices (patch
origin times W plus the in-patch offset, the layout's ``pix``). ``unfold``
serves only the patch affinity. ``plmm_backward`` runs the forward's blocks
again rather than keeping them, so the pass and its gradient hold one
block of pixel logits at a time.

``OpCounter`` tracks exact comparison counts: a patch affinity over T memory
frames of N patches adds T*N^2 patch pairs, pixel matching adds
N*K*(P^2)^2 pixel pairs, and the dense path adds T*(H*W)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .grids import FeatureGrid
from .patcher import PatchGrid, coverage_map, fold, make_layout, scatter_add, unfold

# Fault injection hook used only by the verification harness: when set, the
# pixel-matching logits of the patch path are sign-flipped, which must make
# the dense-oracle equivalence suite fail.
_FAULT_FLIP_PIXEL_SIMILARITY = False


# Byte budget of the pixel logits of one block of query patches, or of
# query pixels in the dense path. Gather, logits, softmax and readout run
# block by block, so the largest intermediate stays about the size of one
# core's L2 cache instead of growing with the query size; a query patch or
# pixel with more logits than this forms a block of its own.
_LOGIT_BLOCK_BYTES = 1 << 20


def _set_pixel_similarity_fault(enabled):
    global _FAULT_FLIP_PIXEL_SIMILARITY
    _FAULT_FLIP_PIXEL_SIMILARITY = bool(enabled)


@dataclass
class OpCounter:
    """Exact counts of pairwise comparisons performed."""

    patch_pairs: int = 0
    pixel_pairs: int = 0


@dataclass
class TopKIndex:
    """Per query patch, the flat indices of its K best memory patches.

    ids[i] is sorted by descending computed score; scores that are exactly
    equal go to the lower memory index. Scores equal only in exact arithmetic
    (say, two identical memory patches) may differ by rounding, and then the
    larger computed score comes first, whatever its index.
    """

    ids: np.ndarray
    k: int


def _neg_sqdist(a, b, bb=None):
    """Pairwise -||a_i - b_j||^2 via the Gram expansion, (n, m) for (n,d),(m,d).

    Not exact: a_i == b_j can score a tiny nonzero value, and
    _neg_sqdist(a, b) need not equal _neg_sqdist(b, a).T bit for bit. A
    caller that scores many blocks of rows against one ``b`` passes its
    squared row norms as ``bb``.
    """
    aa = (a * a).sum(axis=1)
    if bb is None:
        bb = (b * b).sum(axis=1)
    # the operations of 2 a.b - aa - bb in their order, in one buffer
    s = a @ b.T
    s *= 2.0
    s -= aa[:, None]
    s -= bb[None, :]
    return s


def _pixel_rows(grids):
    """(T*H*W, C) channels-last pixel rows of T same-size (C, H, W) grids.

    Row t*H*W + y*W + x is the channel vector of grid t at (y, x), one
    contiguous run of C values; each grid costs one grid-sized copy.
    """
    c, h, w = grids[0].data.shape
    rows = np.empty((len(grids), h, w, c), dtype=np.float64)
    for t, g in enumerate(grids):
        rows[t] = g.data.transpose(1, 2, 0)
    return rows.reshape(len(grids) * h * w, c)


def _softmax_rows(logits):
    """Row softmax over the last axis, stabilized by the row max.

    Works in place: ``logits`` is overwritten with the weights and returned.
    """
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def patch_affinity(query, memory, counter=None):
    """Score every query patch against every memory patch.

    Args:
        query: PatchGrid of the query frame (N patches).
        memory: list of PatchGrid, one per memory frame, all sharing the
            query's layout and channel count.
        counter: optional OpCounter; receives T*N^2 patch pairs.

    Returns:
        (N, T*N) scores, higher meaning more similar; column t*N+j is
        memory frame t, patch j.
    """
    if not memory:
        raise ParameterError("memory must contain at least one frame")
    n = query.n_patches
    c = query.channels
    p = query.layout.patch
    flat_q = query.data.reshape(n, c * p * p)
    blocks = []
    for m in memory:
        if m.n_patches != n or m.channels != c or m.layout.patch != p:
            raise DimensionError(
                "memory patch grid does not match the query layout")
        blocks.append(m.data.reshape(n, c * p * p))
    flat_m = np.concatenate(blocks, axis=0)
    scores = _neg_sqdist(flat_q, flat_m)
    if counter is not None:
        counter.patch_pairs += len(memory) * n * n
    return scores


def topk_select(scores, k):
    """Pick the K highest-scoring memory patches per row of (N, T*N) scores.

    Exactly equal scores are broken toward the lower memory index; rows come
    back sorted by descending score. k must lie in 1..T*N.
    """
    total = scores.shape[1]
    if k < 1 or k > total:
        raise ParameterError(f"k={k} outside valid range 1..{total}")
    # stable argsort on negated scores keeps the lower index first on ties
    order = np.argsort(-scores, axis=1, kind="stable")
    return TopKIndex(ids=order[:, :k].astype(np.intp), k=k)


@dataclass
class PlmmResult:
    """Output of a patch-matching forward pass."""

    readout: FeatureGrid
    topk: TopKIndex


def _checked_layout(q_key, mem_keys, mem_values, patch):
    """The query's patch layout, once the bank is checked against the query."""
    if len(mem_keys) != len(mem_values) or not mem_keys:
        raise ParameterError("memory keys and values must be parallel, non-empty lists")
    layout = make_layout(q_key.height, q_key.width, patch)
    c_v = mem_values[0].channels
    for mk in mem_keys:
        if (mk.height, mk.width, mk.channels) != (q_key.height, q_key.width, q_key.channels):
            raise DimensionError("memory key dims do not match the query key")
    for mv in mem_values:
        if (mv.height, mv.width) != (q_key.height, q_key.width):
            raise DimensionError("memory value dims do not match the query key")
        if mv.channels != c_v:
            raise DimensionError("memory value channel counts disagree")
    return layout


def _check_topk(topk, n, t):
    """Reject a top-K table that does not fit N query patches and a T-frame bank."""
    if topk.ids.shape[0] != n:
        raise DimensionError(
            f"top-K table has {topk.ids.shape[0]} rows, layout expects {n}")
    if topk.ids.max() >= t * n or topk.ids.min() < 0:
        raise ParameterError("top-K table indexes outside this memory bank")


def _pixel_blocks(q_key, mem_keys, mem_values, layout, ids):
    """The pixel stage, one block of query patches at a time.

    Yields ``(lo, q_pix, m_sel, v_sel, weights)`` for query patches
    lo .. lo + B: their (B, P^2, C_k) pixels, the (B, K*P^2, C_k) keys and
    (B, K*P^2, C_v) values of their selected memory patches, and the
    (B, P^2, K*P^2) softmax weights. A block holds as many patches as fit
    their logits in _LOGIT_BLOCK_BYTES.
    """
    n, p = layout.n_patches, layout.patch
    hw = layout.map_h * layout.map_w
    pix = layout.pix
    q_rows = _pixel_rows([q_key])
    key_rows = _pixel_rows(mem_keys)
    val_rows = _pixel_rows(mem_values)
    # -||q - m||^2 up to the row constant -||q||^2, batched over query
    # patches; the key norms are taken before the gather, which repeats keys,
    # and summed in channel order over the (C, H, W) maps, not pairwise
    # along the rows, so they round as the per-patch norms of
    # tests/test_matcher.py's unfold oracle do
    key_sq = np.concatenate([(mk.data * mk.data).sum(axis=0).ravel() for mk in mem_keys])
    row = ids.shape[1] * p * p
    block = max(1, _LOGIT_BLOCK_BYTES // (8 * p * p * row))
    for lo in range(0, n, block):
        sel = ids[lo:lo + block]
        # memory patch t*N+i of the bank reads the pixels of query patch i
        # shifted by t*H*W
        sel_pix = (((sel // n) * hw)[:, :, None] + pix[sel % n]).reshape(len(sel), row)
        # the query operand is stored (patch, channel, pixel) and reaches the
        # GEMM transposed, as in the unfold oracle: BLAS may round a small
        # product differently for another operand order
        q_pix = np.empty((len(sel), q_key.channels, p * p), dtype=np.float64).transpose(0, 2, 1)
        q_pix[...] = q_rows[pix[lo:lo + block]]
        m_sel = key_rows[sel_pix]
        logits = np.matmul(2.0 * q_pix, m_sel.transpose(0, 2, 1))
        logits -= key_sq[sel_pix].reshape(len(sel), 1, row)
        if _FAULT_FLIP_PIXEL_SIMILARITY:
            logits = -logits
        yield lo, q_pix, m_sel, val_rows[sel_pix], _softmax_rows(logits)


def plmm_forward(q_key, mem_keys, mem_values, patch, k,
                 counter=None, topk_override=None):
    """Full patch-level matching: affinity, top-K, pixel softmax, readout, fold.

    Args:
        q_key: FeatureGrid (C_k, H, W) of query keys.
        mem_keys: list of FeatureGrid, memory keys, same dims as the query.
        mem_values: list of FeatureGrid, memory values, same spatial dims,
            any channel count; parallel to mem_keys.
        patch: patch size P (even, dims must be tileable).
        k: memory patches kept per query patch.
        counter: optional OpCounter.
        topk_override: reuse a TopKIndex from another scale instead of
            computing affinity here (no patch pairs are counted then).

    Returns:
        PlmmResult with the folded (C_v, H, W) readout and the TopKIndex used.
    """
    layout = _checked_layout(q_key, mem_keys, mem_values, patch)
    n = layout.n_patches
    if topk_override is not None:
        _check_topk(topk_override, n, len(mem_keys))
        topk = topk_override
    else:
        topk = topk_select(patch_affinity(
            unfold(q_key, layout), [unfold(mk, layout) for mk in mem_keys],
            counter=counter), k)

    c_v = mem_values[0].channels
    ro_pix = np.empty((n, patch * patch, c_v), dtype=np.float64)
    for lo, _, _, v_sel, weights in _pixel_blocks(q_key, mem_keys, mem_values,
                                                  layout, topk.ids):
        np.matmul(weights, v_sel, out=ro_pix[lo:lo + len(weights)])
    if counter is not None:
        counter.pixel_pairs += n * topk.k * patch ** 4

    ro_patches = PatchGrid(layout, ro_pix.transpose(0, 2, 1).reshape(n, c_v, patch, patch))
    return PlmmResult(readout=fold(ro_patches), topk=topk)


def plmm_backward(q_key, mem_keys, mem_values, patch, topk, upstream):
    """Exact gradients of plmm_forward for a scalar loss.

    The top-K selection and the fold coverage counts are treated as
    constants; gradients flow through fold, readout, softmax, and the
    similarity logits. The forward's pixel blocks are recomputed, so memory
    stays one block of logits plus the per-patch gradient buffers.

    Args:
        q_key, mem_keys, mem_values, patch: the forward pass's inputs.
        topk: the TopKIndex the forward pass used.
        upstream: (C_v, H, W) gradient of the loss w.r.t. the folded readout.

    Returns:
        (d_query_key, d_memory_keys, d_memory_values) where the first is a
        (C_k, H, W) array and the others are lists of per-frame arrays.
    """
    layout = _checked_layout(q_key, mem_keys, mem_values, patch)
    n, p, t = layout.n_patches, patch, len(mem_keys)
    c_k, c_v = q_key.channels, mem_values[0].channels
    _check_topk(topk, n, t)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (c_v, layout.map_h, layout.map_w):
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match the readout "
            f"({c_v}, {layout.map_h}, {layout.map_w})")

    # fold adjoint: divide by coverage, then gather each patch's pixels
    g_rows = (upstream / coverage_map(layout)).reshape(c_v, -1).T
    d_q_pix = np.empty((n, p * p, c_k), dtype=np.float64)
    d_key_buf = np.zeros((t * n, p * p, c_k), dtype=np.float64)
    d_val_buf = np.zeros((t * n, p * p, c_v), dtype=np.float64)
    for lo, q_pix, m_sel, v_sel, w in _pixel_blocks(q_key, mem_keys, mem_values,
                                                    layout, topk.ids):
        hi = lo + len(w)
        g = g_rows[layout.pix[lo:hi]]

        # readout adjoints
        d_v_sel = np.matmul(w.transpose(0, 2, 1), g)
        s = np.matmul(g, v_sel.transpose(0, 2, 1))

        # softmax adjoint
        ws = (w * s).sum(axis=2, keepdims=True)
        d_logit = w * (s - ws)

        # similarity adjoint: logits[i,j] = -||q_i - m_j||^2. The rows of
        # d_logit sum to 0, so the -||q_i||^2 term contributes nothing to d_q.
        col = d_logit.sum(axis=1)
        d_q_pix[lo:hi] = 2.0 * np.matmul(d_logit, m_sel)
        d_m_sel = 2.0 * (np.matmul(d_logit.transpose(0, 2, 1), q_pix)
                         - col[:, :, None] * m_sel)

        # accumulate the selected-patch gradients in per-frame patch buffers
        sel = topk.ids[lo:hi].ravel()
        np.add.at(d_key_buf, sel, d_m_sel.reshape(len(sel), p * p, c_k))
        np.add.at(d_val_buf, sel, d_v_sel.reshape(len(sel), p * p, c_v))

    def _to_grid(buf, channels):
        grads = []
        for ti in range(t):
            block = buf[ti * n:(ti + 1) * n]
            pg = PatchGrid(layout, block.transpose(0, 2, 1).reshape(n, channels, p, p))
            grads.append(scatter_add(pg))
        return grads

    d_mem_keys = _to_grid(d_key_buf, c_k)
    d_mem_values = _to_grid(d_val_buf, c_v)

    dq_pg = PatchGrid(layout, d_q_pix.transpose(0, 2, 1).reshape(n, c_k, p, p))
    d_query_key = scatter_add(dq_pg)
    return d_query_key, d_mem_keys, d_mem_values


def dense_readout(q_key, mem_keys, mem_values, counter=None):
    """All-pairs pixel matching, the reference path.

    Every query pixel is matched by softmax against every memory pixel of
    every frame; no patches, no top-K. Quadratic in H*W, so query rows are
    processed in blocks whose logits fit in _LOGIT_BLOCK_BYTES, the budget of
    the patch path.
    """
    if len(mem_keys) != len(mem_values) or not mem_keys:
        raise ParameterError("memory keys and values must be parallel, non-empty lists")
    h, w, c_k = q_key.height, q_key.width, q_key.channels
    c_v = mem_values[0].channels
    for mk, mv in zip(mem_keys, mem_values):
        if (mk.height, mk.width, mk.channels) != (h, w, c_k):
            raise DimensionError("memory key dims do not match the query key")
        if (mv.height, mv.width) != (h, w) or mv.channels != c_v:
            raise DimensionError("memory value dims are inconsistent")
    t = len(mem_keys)
    hw = h * w
    q_pix = q_key.data.reshape(c_k, hw).T
    m_pix = np.concatenate([mk.data.reshape(c_k, hw).T for mk in mem_keys], axis=0)
    v_pix = np.concatenate([mv.data.reshape(c_v, hw).T for mv in mem_values], axis=0)

    out = np.empty((hw, c_v), dtype=np.float64)
    m_sq = (m_pix * m_pix).sum(axis=1)
    block = max(1, _LOGIT_BLOCK_BYTES // (8 * t * hw))
    for lo in range(0, hw, block):
        logits = _neg_sqdist(q_pix[lo:lo + block], m_pix, m_sq)
        out[lo:lo + block] = _softmax_rows(logits) @ v_pix
    if counter is not None:
        counter.pixel_pairs += t * hw * hw
    return FeatureGrid(out.T.reshape(c_v, h, w))
