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
patch affinity uses the Gram expansion ``2 a.b - ||a||^2 - ||b||^2``, which
rounds: an identical pair scores 0 only up to a few units of rounding of
``||a||^2``, of either sign, and swapping the arguments can change the last
bits of a score. Both matchers score pixels by one dot product of query
rows ``[2q, 1]`` with bank rows ``[m, -||m||^2]``, dropping ``-||q||^2``,
which is constant along each softmax row. Softmax rows are stabilized by
subtracting the row maximum, and logits are raised to ``_EXP_FLOOR`` before
exp, half the log of the dtype's smallest normal number, so that no weight,
and no product of two weights, is subnormal. Both read out by one product
with value rows ``[v, 1]``, whose last column is the softmax denominator.

The pixel stage works on cells, the stride x stride tiles the layout is
built from: a query patch is 2 x 2 query cells and a selected memory patch
2 x 2 memory cells. Query patches overlap, and so do the memory patches one
of them selects, so many (query cell, memory cell) logit blocks recur
across the patch softmaxes. Each distinct pair is computed once, with its
per-pixel max and its sums of exp and of exp times the memory values; each
patch then combines the pairs of its selection, rescaled by
exp(pair max - patch max), which in exact arithmetic is its softmax and
readout. The stage never cuts a map into overlapping patches: it lays the
query and the memory maps out once per call as channels-last pixel rows and
gathers each block of pairs from them, by index tables it also builds once
per call for all blocks. A block gathers the pair maxima and pair sums of
its patch quadrants selection position first, so the patch max and the sum
over a selection reduce the outer axis of one array. ``unfold`` serves only
the patch affinity. ``plmm_backward`` runs the forward's blocks again rather
than keeping them, so the pass and its gradient hold one block at a time.

Both matchers run in the dtype of their inputs: float32 keys and values
give float32 logits, weights and readouts, and float64 inputs run in
float64, as does any mix of the two.

``OpCounter`` tracks exact comparison counts: a patch affinity over T memory
frames of N patches adds T*N^2 patch pairs, pixel matching adds
N*K*(P^2)^2 pixel pairs, the pairs the patch softmaxes range over (the cell
stage computes each distinct pair among them once), and the dense path adds
T*(H*W)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ParameterError
from .grids import FeatureGrid
from .patcher import PatchGrid, coverage_map, fold, make_layout, unfold

# Byte budget of one block of the pixel stage: the logits of a block of query
# cells with the keys and values gathered for them. Gather, logits, softmax
# and readout run block by block, so the largest intermediate stays about one
# core's L2 cache; a query cell over budget forms a block of its own.
_LOGIT_BLOCK_BYTES = 1 << 20

# Byte budget of the logits of a block of query pixels in the dense path. Its
# five numpy calls per block make small blocks that stay in L2 pay: the 70
# dense_readout calls of a paper-288-dense study (seed 7, one BLAS thread, Xeon
# with 2 MiB of L2 per core) took 286 ms at 512 KiB, 341 at 1 MiB, faster in 19
# of 20 alternating rounds (256 KiB: 13). The pixel stage, ~25 calls per block,
# took 2 % longer at 512 KiB and 25 % at 256 KiB.
_DENSE_BLOCK_BYTES = 1 << 19

# Most padded slots a block of the pixel stage may add, as a share of its
# real pairs: without the cap, a map that fits the budget in one block pads
# its cells to about 1.3-1.9x its pairs. A map whose padding as one block
# fills under this share of the budget is not capped: on a 2-vCPU Xeon a
# block's fixed cost, about 0.1 ms, is the arithmetic of about 100 KB of
# slots, more than such a map's padding.
_PAD_SHARE = 0.125

# Logits are raised to a floor F of their dtype, after their row max is
# subtracted, before exp: F = ceil(ln(tiny) / 2), tiny the dtype's smallest
# normal number, so -354 for float64 and -43 for float32. Then e^F and the
# product of two floored factors, e^(2F) >= tiny, are still normal: numpy
# sets no flush-to-zero, and on x86 a subnormal operand or result takes a
# microcode assist (a pixel-stage readout GEMM with 70 % of its weights at
# e^-87 ran 12x slower on a Xeon than with them at e^-43). A raised
# term overstates its weight by at most e^F against the row max's e^0 = 1,
# so a row of n terms moves its sum by at most n e^F: 8e-16 for the 3,888
# memory pixels of a float32 dense row at working side 288, far below half
# an ulp of 1 (6e-8). Only weights already below about e^F change.
_EXP_FLOOR = {np.dtype(d): float(np.ceil(np.log(np.finfo(d).tiny) / 2))
              for d in (np.float64, np.float32)}


@dataclass
class OpCounter:
    """Exact counts of pairwise comparisons.

    ``pixel_pairs`` counts the pairs the patch softmaxes range over, N*K*P^4
    per patch pass; the cell stage computes each distinct one of them once.
    """

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
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def cell_pairs(self, layout, t):
        """The _cell_pairs tables of this selection on ``layout``'s cell
        grid over a T-frame bank, built on first use and kept.

        Nothing writes a top-K table, so the tables stay valid. A lifted
        table (see pyramid.lift_topk) is this same object on a layout with
        the same cell grid, so a two-scale match builds them once.
        """
        key = (layout.n_h, layout.n_w, t)
        if key not in self._pairs:
            tables = _cell_pairs(layout, self.ids, t)
            for table in tables:
                table.flags.writeable = False
            self._pairs[key] = tables
        return self._pairs[key]


def _neg_sqdist(a, b):
    """Pairwise -||a_i - b_j||^2 via the Gram expansion, (n, m) for (n,d),(m,d).

    Not exact: a_i == b_j can score a tiny nonzero value, and
    _neg_sqdist(a, b) need not equal _neg_sqdist(b, a).T bit for bit.
    """
    aa = (a * a).sum(axis=1)
    bb = (b * b).sum(axis=1)
    # the operations of 2 a.b - aa - bb in their order, in one buffer
    s = a @ b.T
    s *= 2.0
    s -= aa[:, None]
    s -= bb[None, :]
    return s


def _pixel_rows(grids, last, dtype):
    """(T*H*W, C + 1) channels-last ``dtype`` pixel rows of T same-size
    (C, H, W) grids.

    Row t*H*W + y*W + x holds the channel vector of grid t at (y, x), one
    contiguous run of C values, then ``last`` (a scalar or one value per
    row); each grid costs one grid-sized copy.
    """
    c, h, w = grids[0].data.shape
    rows = np.empty((len(grids), h, w, c + 1), dtype=dtype)
    for t, g in enumerate(grids):
        rows[t, :, :, :c] = g.data.transpose(1, 2, 0)
    rows = rows.reshape(len(grids) * h * w, c + 1)
    rows[:, c] = last
    return rows


def _match_rows(q_key, mem_keys, mem_values, dtype):
    """The query rows [2q, 1], bank key rows [m, -||m||^2] and value rows
    [v, 1] of a match: a query row dotted with a key row is -||q - m||^2 up
    to the row constant -||q||^2."""
    q_rows = _pixel_rows([q_key], 1.0, dtype)
    q_rows[:, :-1] *= 2.0
    key_rows = _pixel_rows(mem_keys, np.concatenate(
        [-(mk.data * mk.data).sum(axis=0).ravel() for mk in mem_keys]), dtype)
    return q_rows, key_rows, _pixel_rows(mem_values, 1.0, dtype)


def _floored_exp(x):
    """exp of ``x`` in place, after raising every entry to the _EXP_FLOOR of
    its dtype, ceil(ln(tiny) / 2): every result and every product of two
    results is a normal number, and a raised entry's weight grows by at
    most e^floor (2.1e-19 in float32) against a row max of 1."""
    np.maximum(x, _EXP_FLOOR[x.dtype], out=x)
    return np.exp(x, out=x)


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
    # The first K of a stable argsort of the negated scores, without sorting
    # the whole row: every score above the row's K-th highest, then as many of
    # the lowest-indexed scores equal to it as fill K. A full sort took a
    # fifth of plmm_forward on 48x48 maps.
    neg = -scores
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    above = neg < kth
    ties = neg == kth
    keep = above | (ties & (np.cumsum(ties, axis=1) <= k - above.sum(axis=1, keepdims=True)))
    rows = np.arange(len(scores))[:, None]
    ids = np.nonzero(keep)[1].reshape(len(scores), k)
    # ids ascend in each row, so a stable sort keeps the lower index first on ties
    order = np.argsort(neg[rows, ids], axis=1, kind="stable")
    return TopKIndex(ids=ids[rows, order], k=k)


@dataclass
class PlmmResult:
    """Output of a patch-matching forward pass."""

    readout: FeatureGrid
    topk: TopKIndex


def _check_bank(q_key, mem_keys, mem_values):
    """Reject a bank that does not fit the query key, for either matcher.

    Returns the dtype the match runs in: that of all its inputs together.
    """
    if len(mem_keys) != len(mem_values) or not mem_keys:
        raise ParameterError("memory keys and values must be parallel, non-empty lists")
    c_v = mem_values[0].channels
    for mk in mem_keys:
        if (mk.height, mk.width, mk.channels) != (q_key.height, q_key.width, q_key.channels):
            raise DimensionError("memory key dims do not match the query key")
    for mv in mem_values:
        if (mv.height, mv.width) != (q_key.height, q_key.width):
            raise DimensionError("memory value dims do not match the query key")
        if mv.channels != c_v:
            raise DimensionError("memory value channel counts disagree")
    return np.result_type(q_key.data, *(g.data for g in mem_keys + mem_values))


def _check_topk(topk, n, t):
    """Reject a top-K table that does not fit N query patches and a T-frame bank."""
    if topk.ids.shape[0] != n:
        raise DimensionError(
            f"top-K table has {topk.ids.shape[0]} rows, layout expects {n}")
    if topk.ids.max() >= t * n or topk.ids.min() < 0:
        raise ParameterError("top-K table indexes outside this memory bank")


def _cell_pairs(layout, ids, t):
    """The distinct (query cell, memory cell) pairs the patch softmaxes read.

    A cell is a stride x stride tile: the map has (n_h + 1) x (n_w + 1) of
    them, and patch a*n_w + b is cells (a + dy)*(n_w + 1) + b + dx, dy and
    dx in {0, 1}. Memory patch t*N + i is the same cells of frame t, numbered
    t*n_cells + cell. An item is one quadrant of one query patch, numbered
    4*patch + 2*dy + dx; its softmax ranges over the 4K memory cells of the
    patch's selection, a multiset when selected patches overlap or repeat.

    Returns the index tables
        cells: query cells in processing order: by pair count, so that a
            block's cells have near-equal counts and the padding of their
            pair lists to one count stays small, then by index;
        start: offsets of each such cell's pairs;
        mem: the memory cell of each pair, ascending within a query cell;
        items, item_start: the items grouped by cell in processing order,
            by patch within a cell, and the offsets of each cell's items;
        item_rank: the processing position of each item's cell;
        refs: (4N, 4K) pair index of each item's memory cells, in the
            selection's order.
    """
    n, n_w = layout.n_patches, layout.n_w
    row = n_w + 1
    n_cells = (layout.n_h + 1) * row
    span = t * n_cells
    i = np.arange(n)
    quads = ((i // n_w) * row + i % n_w)[:, None] + np.array([0, 1, row, row + 1])
    mem = (((ids // n) * n_cells)[:, :, None] + quads[ids % n]).reshape(n, -1)
    item_cell = quads.ravel()
    mem = np.repeat(mem, 4, axis=0)
    # present[c, m]: some item of query cell c reads memory cell m
    present = np.zeros((n_cells, span), dtype=bool)
    present[item_cell[:, None], mem] = True
    count = np.count_nonzero(present, axis=1)
    cells = np.argsort(count, kind="stable")
    rank = np.empty_like(cells)
    rank[cells] = np.arange(n_cells)
    # pairs numbered by the processing rank of their query cell, then by
    # memory cell; number[rank * span + m] is the number of pair (rank, m)
    pairs = np.flatnonzero(present[cells])
    number = np.empty(n_cells * span, dtype=np.intp)
    number[pairs] = np.arange(len(pairs))
    items = np.argsort(rank[item_cell], kind="stable")
    start = np.concatenate(([0], np.cumsum(count[cells])))
    item_start = np.concatenate(([0], np.cumsum(np.bincount(item_cell, minlength=n_cells)[cells])))
    item_rank = rank[item_cell[items]]
    return (cells, start, pairs % span, items, item_start, item_rank,
            number[item_rank[:, None] * span + mem[items]])


class _PairBlock(NamedTuple):
    """One block of the cell stage; see _pair_blocks."""

    q_pix: np.ndarray
    q: np.ndarray
    m_pix: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    e: np.ndarray
    items: np.ndarray
    item_cells: np.ndarray
    refs: np.ndarray
    beta: np.ndarray
    sums: np.ndarray


def _pair_blocks(q_key, mem_keys, mem_values, layout, topk, dtype):
    """The pixel stage on distinct (query cell, memory cell) pairs, by blocks.

    A block is a run of query cells in processing order, whose pair counts
    are near-equal; each cell's pairs are padded to the block's largest
    count c by repeating its last pair, and one batched GEMM per block
    computes each pair's logits once: each cell's key rows against the
    stacked pixels of its c slots. Per slot and query pixel come the row
    max, then e, the floored exp of the logits minus that max, and the sums
    of e and of e times the memory values. Each item combines the pairs of
    its multiset, each rescaled by beta = exp(pair max - item max); in exact
    arithmetic this is the softmax over the item's patch selection and its
    readout. beta and the rescaled pair sums are gathered selection position
    first, so the item max and the sum over the selection reduce the outer
    axis, in the selection's order. Padded slots are never read; a block
    ends before they would pass _PAD_SHARE of its real pairs, unless the
    whole map padded as one block adds under _PAD_SHARE of
    _LOGIT_BLOCK_BYTES, less than a cut costs. The logits and the operands
    gathered for them, all of ``dtype``, padded slots included, fit in
    _LOGIT_BLOCK_BYTES per block, in buffers allocated once per call: a
    block's arrays are views that the next block overwrites. The index
    tables of all blocks (the query pixels of the cells, the first bank
    pixel of each slot's memory cell, the slots of the items) are built
    once per call too, so a block runs only its gathers and arithmetic.

    The block a cell lands in can move its logits by an ulp (OpenBLAS may
    round a GEMM row differently when the padded row count changes), so
    _LOGIT_BLOCK_BYTES can move a readout in its last bit: blocked and
    one-block results are bitwise equal on the tested instances only.

    Yields a _PairBlock per block of B cells from processing position lo:
        q_pix: (B, S^2) flat query pixels of its cells, S the stride;
        q: (B, S^2, C_k + 1) their key rows as [2q, 1];
        m_pix: (B, S^2, c) flat bank pixels of the slots, memory pixel
            before slot, so that a cell's rows stack its slots' pixels;
        keys, values: their key rows [m, -|m|^2] and value rows [v, 1];
        e: (B, S^2, c, S^2), the last axis the query pixel;
        items, item_cells: its I items and their cells' positions in q;
        refs: (4K, I) slot of each item's memory cells, selection position
            first: (cell - lo) * c + (pair - start[cell]);
        beta: (4K, I, S^2), per query pixel;
        sums: (I, C_v + 1, S^2): the items' unnormalized readouts and, last,
            their softmax denominators.
    """
    s, w = layout.stride, layout.map_w
    ss = s * s
    hw = layout.map_h * w
    cells, start, pair_mem, items, item_start, item_rank, item_refs = topk.cell_pairs(
        layout, len(mem_keys))
    n_cells = len(cells)
    cy, cx = np.divmod(np.arange(n_cells), layout.n_w + 1)
    # a cell's pixels are its origin pixel plus these offsets
    offsets = (np.arange(s)[:, None] * w + np.arange(s)).ravel()
    cell_origin = (cy * w + cx) * s
    q_rows, key_rows, val_rows = _match_rows(q_key, mem_keys, mem_values, dtype)
    count = np.diff(start)
    k_cols, v_cols = key_rows.shape[1], val_rows.shape[1]
    per_pair = key_rows.itemsize * ss * (ss + k_cols + v_cols)
    # a cut saves at most the padding of the whole map as one block; when that
    # is under _PAD_SHARE of the budget, it saves less than the fixed cost of
    # one more block, so only the budget cuts
    cap = 1.0 + _PAD_SHARE
    if (n_cells * count[-1] - start[-1]) * per_pair <= _PAD_SHARE * _LOGIT_BLOCK_BYTES:
        cap = np.inf
    # cells lo..hi-1 take (hi - lo) * count[hi - 1] slots, ascending in hi;
    # a block ends before the first cell whose slots pass the budget or cap
    # times the block's pairs, but takes at least one cell
    budget = _LOGIT_BLOCK_BYTES // per_pair
    bounds = []
    lo = pairs = 0
    for hi, c in enumerate(count.tolist()):
        pairs += c
        slots = (hi - lo + 1) * c
        if hi > lo and (slots > budget or slots > cap * pairs):
            bounds.append((lo, hi))
            lo, pairs = hi, c
    bounds.append((lo, n_cells))
    # the tables of all blocks: the cell at position r has slot_c[r] slots
    # from slot_start[r]; its slot j reads pair start[r] + min(j, count[r] - 1),
    # whose memory cell's first bank pixel is the slot's slot_origin
    lows, highs = np.array(bounds).T
    block_of = np.repeat(np.arange(len(bounds)), highs - lows)
    slot_c = count[highs - 1][block_of]
    slot_start = np.concatenate(([0], np.cumsum(slot_c)))
    slot_cell = np.repeat(np.arange(n_cells), slot_c)
    j = np.arange(slot_start[-1]) - slot_start[slot_cell]
    mem = pair_mem[start[slot_cell] + np.minimum(j, count[slot_cell] - 1)]
    slot_origin = (mem // n_cells) * hw + cell_origin[mem % n_cells]
    cell_pix = cell_origin[cells][:, None] + offsets
    # pair p of the cell at r is slot p + shift[r] of its block
    shift = slot_start[:-1] - slot_start[lows][block_of] - start[:-1]
    item_slots = np.ascontiguousarray((item_refs + shift[item_rank][:, None]).T)
    most = ((highs - lows) * count[highs - 1]).max() * ss
    e_buf, key_buf, val_buf, max_buf, sums_buf = (
        np.empty(most * cols, dtype=dtype) for cols in (ss, k_cols, v_cols, 1, v_cols))
    for lo, hi in bounds:
        g, c = hi - lo, count[hi - 1]
        q_pix = cell_pix[lo:hi]
        q = np.take(q_rows, q_pix, axis=0)
        m_pix = slot_origin[slot_start[lo]:slot_start[hi]].reshape(g, 1, c) + offsets[:, None]
        keys = key_buf[:g * ss * c * k_cols].reshape(g, ss, c, k_cols)
        # the indices are in range; "raise" would buffer the whole output
        np.take(key_rows, m_pix, axis=0, out=keys, mode="clip")
        values = val_buf[:g * ss * c * v_cols].reshape(g, ss, c, v_cols)
        np.take(val_rows, m_pix, axis=0, out=values, mode="clip")
        e = e_buf[:g * ss * c * ss].reshape(g, ss, c, ss)
        np.matmul(keys.reshape(g, ss * c, -1), q.transpose(0, 2, 1), out=e.reshape(g, ss * c, ss))
        pair_max = np.max(e, axis=1, out=max_buf[:g * c * ss].reshape(g, c, ss))
        e -= pair_max[:, None]
        _floored_exp(e)
        pair_sums = sums_buf[:g * c * v_cols * ss].reshape(g, c, v_cols, ss)
        np.matmul(values.transpose(0, 2, 3, 1), e.transpose(0, 2, 1, 3), out=pair_sums)
        i0, i1 = item_start[lo], item_start[hi]
        refs = item_slots[:, i0:i1]
        beta = np.take(pair_max.reshape(g * c, ss), refs, axis=0)
        beta -= beta.max(axis=0)
        _floored_exp(beta)
        sums = np.take(pair_sums.reshape(g * c, v_cols, ss), refs, axis=0)
        sums *= beta[:, :, None]
        yield _PairBlock(q_pix, q, m_pix, keys, values, e, items[i0:i1],
                         item_rank[i0:i1] - lo, refs, beta, sums.sum(axis=0))


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
        PlmmResult with the folded (C_v, H, W) readout, in the dtype of the
        inputs, and the TopKIndex used.
    """
    dtype = _check_bank(q_key, mem_keys, mem_values)
    layout = make_layout(q_key.height, q_key.width, patch)
    n = layout.n_patches
    if topk_override is not None:
        _check_topk(topk_override, n, len(mem_keys))
        topk = topk_override
    else:
        topk = topk_select(patch_affinity(
            unfold(q_key, layout), [unfold(mk, layout) for mk in mem_keys],
            counter=counter), k)

    c_v, s = mem_values[0].channels, layout.stride
    # item 4*i + 2*dy + dx is quadrant (dy, dx) of patch i, its pixels (sy, sx)
    ro = np.empty((4 * n, c_v, s * s), dtype=dtype)
    for blk in _pair_blocks(q_key, mem_keys, mem_values, layout, topk, dtype):
        ro[blk.items] = blk.sums[:, :-1] / blk.sums[:, -1:]
    # (i, dy, dx, c, sy, sx) -> (i, c, dy*s + sy, dx*s + sx)
    ro = ro.reshape(n, 2, 2, c_v, s, s).transpose(0, 3, 1, 4, 2, 5).reshape(n, c_v, patch, patch)
    if counter is not None:
        counter.pixel_pairs += n * topk.k * patch ** 4
    return PlmmResult(readout=fold(PatchGrid(layout, ro)), topk=topk)


def plmm_backward(q_key, mem_keys, mem_values, patch, topk, upstream):
    """Exact gradients of plmm_forward for a scalar loss.

    The top-K selection and the fold coverage counts are treated as
    constants; gradients flow through fold, readout, softmax, and the
    similarity logits. The forward's pair blocks are recomputed, so memory
    stays one block plus the gradient maps. Item i's weights are
    e(x, m) * beta_i(x) / Z_i(x), so a pair's logit gradient sums over the
    items that read it: e(x, m) * (A(x) * g(x).v_m - B(x)), with
    A = sum of beta_i / Z_i and B = sum of beta_i / Z_i * g(x).readout_i(x),
    g the upstream gradient divided by the coverage.

    Args:
        q_key, mem_keys, mem_values, patch: the forward pass's inputs.
        topk: the TopKIndex the forward pass used.
        upstream: (C_v, H, W) gradient of the loss w.r.t. the folded readout.

    Returns:
        (d_query_key, d_memory_keys, d_memory_values) where the first is a
        (C_k, H, W) array and the others are lists of per-frame arrays, in
        the forward pass's dtype.
    """
    dtype = _check_bank(q_key, mem_keys, mem_values)
    layout = make_layout(q_key.height, q_key.width, patch)
    h, w, t = layout.map_h, layout.map_w, len(mem_keys)
    c_k, c_v = q_key.channels, mem_values[0].channels
    _check_topk(topk, layout.n_patches, t)
    upstream = np.asarray(upstream, dtype=dtype)
    if upstream.shape != (c_v, h, w):
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match the readout "
            f"({c_v}, {h}, {w})")

    # fold adjoint: divide by coverage; every pixel of a query cell reads
    # the same patches, so each item's readout gets its cell's gradient
    g_rows = (upstream / coverage_map(layout).astype(dtype)).reshape(c_v, -1).T
    d_q = np.empty((h * w, c_k), dtype=dtype)
    d_keys = np.zeros((t * h * w, c_k), dtype=dtype)
    d_values = np.zeros((t * h * w, c_v), dtype=dtype)
    for blk in _pair_blocks(q_key, mem_keys, mem_values, layout, topk, dtype):
        g = g_rows[blk.q_pix]
        # softmax adjoint, gathered onto the pairs; add.at runs item by item
        weights = (blk.beta / blk.sums[:, -1]).transpose(1, 0, 2)
        g_ro = np.einsum("ixv,ivx->ix", g[blk.item_cells], blk.sums[:, :-1]) / blk.sums[:, -1]
        n_g, ss, c, _ = blk.e.shape
        # a = b = 0 on padded slots, so they add exactly 0 to every gradient
        a = np.zeros((n_g * c, ss), dtype=dtype)
        b = np.zeros_like(a)
        np.add.at(a, blk.refs.T, weights)
        np.add.at(b, blk.refs.T, weights * g_ro[:, None])
        a = a.reshape(n_g, 1, c, ss)
        g_v = np.matmul(blk.values[..., :-1].reshape(n_g, -1, c_v), g.transpose(0, 2, 1))
        d_logit = blk.e * (a * g_v.reshape(blk.e.shape) - b.reshape(n_g, 1, c, ss))
        d_logit = d_logit.reshape(n_g, -1, ss)
        # similarity adjoint: logits[x, m] = 2 q_x.m - ||m||^2, and the
        # dropped -||q_x||^2 gets nothing: each item's d_logit rows sum to 0
        k_m = blk.keys[..., :-1].reshape(n_g, -1, c_k)
        d_q[blk.q_pix] = 2.0 * np.matmul(d_logit.transpose(0, 2, 1), k_m)
        d_m = np.matmul(d_logit, blk.q[:, :, :-1])
        d_m -= 2.0 * d_logit.sum(axis=2)[:, :, None] * k_m
        np.add.at(d_keys, blk.m_pix.ravel(), d_m.reshape(-1, c_k))
        d_v = np.matmul((blk.e * a).reshape(n_g, -1, ss), g)
        np.add.at(d_values, blk.m_pix.ravel(), d_v.reshape(-1, c_v))

    def _to_grids(rows, channels):
        return [rows[ti * h * w:(ti + 1) * h * w].T.reshape(channels, h, w) for ti in range(t)]

    return d_q.T.reshape(c_k, h, w), _to_grids(d_keys, c_k), _to_grids(d_values, c_v)


def dense_readout(q_key, mem_keys, mem_values, counter=None):
    """All-pairs pixel matching, the reference path.

    Every query pixel is matched by softmax against every memory pixel of
    every frame; no patches, no top-K. Quadratic in H*W, so query rows run
    in blocks whose logits fit in _DENSE_BLOCK_BYTES. As in the pixel stage,
    a block's logits are one GEMM of its rows [2q, 1] with the bank rows
    [m, -||m||^2], and the floored exp of the logits minus their row max
    meets the value rows [v, 1] in one GEMM, divided by its last column.
    """
    dtype = _check_bank(q_key, mem_keys, mem_values)
    q_rows, key_rows, val_rows = _match_rows(q_key, mem_keys, mem_values, dtype)
    out = np.empty((len(q_rows), val_rows.shape[1] - 1), dtype=dtype)
    block = max(1, _DENSE_BLOCK_BYTES // (dtype.itemsize * len(key_rows)))
    for lo in range(0, len(q_rows), block):
        e = q_rows[lo:lo + block] @ key_rows.T
        e -= e.max(axis=1, keepdims=True)
        sums = _floored_exp(e) @ val_rows
        out[lo:lo + block] = sums[:, :-1] / sums[:, -1:]
    if counter is not None:
        counter.pixel_pairs += len(q_rows) * len(key_rows)
    return FeatureGrid(out.T.reshape(-1, q_key.height, q_key.width))
