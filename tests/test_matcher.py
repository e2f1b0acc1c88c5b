"""Patch affinity, top-K selection, pixel matching, readout, and the
dense reference path.

The core check is a pure-loop reference implementation of the whole
patch-matching forward pass, kept free of einsum and broadcasting so it
cannot share a bug with the library code. ``pixel_match_weights`` and
``readout`` are per-patch oracles of the pixel stage: the full negated
squared distance, one query patch at a time. ``unfold_plmm_forward`` is the
pixel stage as it ran on unfolded patches, one (P^2, K*P^2) logit block per
query patch, and ``cached_plmm_backward`` is the backward pass as it ran on
that oracle's whole-layout intermediates. The library computes each
distinct (query cell, memory cell) block of logits once and rescales it per
patch, so it agrees with these oracles to rounding, not bit for bit.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from patchmem import matcher, propagator, pyramid
from patchmem.errors import DimensionError, ParameterError
from patchmem.evalkit import PhantomSpec, gen_phantom
from patchmem.featurizer import EncoderConfig, encode_key
from patchmem.grids import FeatureGrid, resize_bilinear
from patchmem.matcher import (
    OpCounter,
    PlmmResult,
    TopKIndex,
    dense_readout,
    patch_affinity,
    plmm_backward,
    plmm_forward,
    topk_select,
)
from patchmem.patcher import PatchGrid, coverage_map, fold, make_layout, scatter_add, unfold
from patchmem.propagator import PropagationConfig, run_4d


def loop_plmm_reference(q_key, mem_keys, mem_values, patch, k, topk_ids=None):
    """Patch matching recomputed with explicit python loops.

    ``topk_ids`` stands in for the affinity and top-K stage, as
    ``plmm_forward``'s ``topk_override`` does.
    """
    layout = make_layout(q_key.height, q_key.width, patch)
    origins = [tuple(o) for o in layout.origins]
    p = patch
    n = len(origins)
    t = len(mem_keys)
    c_v = mem_values[0].channels

    def patch_of(grid, origin):
        oy, ox = origin
        return grid.data[:, oy:oy + p, ox:ox + p]

    # affinity and top-k per query patch
    scores = np.zeros((n, t * n))
    for qi, qo in enumerate(origins):
        q = patch_of(q_key, qo).ravel()
        col = 0
        for ti in range(t):
            for mi, mo in enumerate(origins):
                m = patch_of(mem_keys[ti], mo).ravel()
                scores[qi, col] = -np.sum((q - m) ** 2)
                col += 1
    acc = np.zeros((c_v, q_key.height, q_key.width))
    cov = coverage_map(layout).astype(np.float64)
    for qi, qo in enumerate(origins):
        if topk_ids is None:
            order = sorted(range(t * n), key=lambda j: (-scores[qi, j], j))[:k]
        else:
            order = [int(j) for j in topk_ids[qi]]
        q_pix = patch_of(q_key, qo).transpose(1, 2, 0).reshape(p * p, -1)
        m_pix = []
        v_pix = []
        for flat in order:
            ti, mi = divmod(flat, n)
            m_pix.append(patch_of(mem_keys[ti], origins[mi])
                         .transpose(1, 2, 0).reshape(p * p, -1))
            v_pix.append(patch_of(mem_values[ti], origins[mi])
                         .transpose(1, 2, 0).reshape(p * p, -1))
        m_pix = np.concatenate(m_pix, axis=0)
        v_pix = np.concatenate(v_pix, axis=0)
        out = np.zeros((p * p, c_v))
        for a in range(p * p):
            logits = np.array([-np.sum((q_pix[a] - m_pix[b]) ** 2)
                               for b in range(m_pix.shape[0])])
            w = np.exp(logits - logits.max())
            w /= w.sum()
            out[a] = w @ v_pix
        oy, ox = qo
        acc[:, oy:oy + p, ox:ox + p] += out.T.reshape(c_v, p, p)
    return acc / cov


def softmax_rows(logits):
    """Row softmax over the last axis, stabilized by the row max.

    Works in place: ``logits`` is overwritten with the weights and returned.
    """
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def unfold_plmm_forward(q_key, mem_keys, mem_values, patch, k, topk_ids=None):
    """plmm_forward on unfolded patches, in one block.

    Every map is cut into overlapping patches; their (N, P^2, C) pixel views
    are concatenated over the bank and the key norms are taken per patch
    pixel. ``topk_ids`` stands in for the affinity and top-K stage. Returns
    the PlmmResult and the whole-layout intermediates cached_plmm_backward
    reads.
    """
    layout = make_layout(q_key.height, q_key.width, patch)
    n, p, t = layout.n_patches, patch, len(mem_keys)
    c_k, c_v = q_key.channels, mem_values[0].channels
    q_pg = unfold(q_key, layout)
    key_pgs = [unfold(m, layout) for m in mem_keys]
    if topk_ids is None:
        topk_ids = topk_select(patch_affinity(q_pg, key_pgs), k).ids

    def pixel_view(pg, c):
        return pg.data.transpose(0, 2, 3, 1).reshape(n, p * p, c)

    key_pix = np.concatenate([pixel_view(pg, c_k) for pg in key_pgs], axis=0)
    val_pix = np.concatenate([pixel_view(unfold(v, layout), c_v) for v in mem_values], axis=0)
    q_pix = pixel_view(q_pg, c_k)
    key_sq = (key_pix * key_pix).sum(axis=2)
    row = topk_ids.shape[1] * p * p
    m_sel = key_pix[topk_ids].reshape(n, row, c_k)
    v_sel = val_pix[topk_ids].reshape(n, row, c_v)
    logits = np.matmul(2.0 * q_pix, m_sel.transpose(0, 2, 1))
    logits -= key_sq[topk_ids].reshape(n, 1, row)
    weights = softmax_rows(logits)
    ro_pix = np.matmul(weights, v_sel)
    readout = fold(PatchGrid(layout, ro_pix.transpose(0, 2, 1).reshape(n, c_v, p, p)))
    cache = {"layout": layout, "ids": topk_ids, "weights": weights, "q_pix": q_pix,
             "m_sel": m_sel, "v_sel": v_sel, "t": t, "c_k": c_k, "c_v": c_v}
    return PlmmResult(readout=readout, topk=TopKIndex(ids=topk_ids, k=topk_ids.shape[1])), cache


def cached_plmm_backward(cache, upstream):
    """The backward pass on unfold_plmm_forward's whole-layout intermediates.

    Unfolds the fold adjoint, runs every adjoint over all query patches at
    once and accumulates the selected-patch gradients in one np.add.at per
    buffer.
    """
    layout = cache["layout"]
    ids = cache["ids"]
    w = cache["weights"]          # (N, P^2, K*P^2)
    q_pix = cache["q_pix"]        # (N, P^2, C_k)
    m_sel = cache["m_sel"]        # (N, K*P^2, C_k)
    v_sel = cache["v_sel"]        # (N, K*P^2, C_v)
    t = cache["t"]
    c_k, c_v = cache["c_k"], cache["c_v"]
    n = layout.n_patches
    p = layout.patch
    kk = ids.shape[1]

    cov = coverage_map(layout).astype(np.float64)
    g_pg = unfold(FeatureGrid(upstream / cov[None, :, :]), layout)
    g = g_pg.data.transpose(0, 2, 3, 1).reshape(n, p * p, c_v)

    d_v_sel = np.matmul(w.transpose(0, 2, 1), g)
    s = np.matmul(g, v_sel.transpose(0, 2, 1))
    ws = (w * s).sum(axis=2, keepdims=True)
    d_logit = w * (s - ws)
    col = d_logit.sum(axis=1)
    d_q_pix = 2.0 * np.matmul(d_logit, m_sel)
    d_m_sel = 2.0 * (np.matmul(d_logit.transpose(0, 2, 1), q_pix)
                     - col[:, :, None] * m_sel)

    d_key_buf = np.zeros((t * n, p * p, c_k), dtype=np.float64)
    d_val_buf = np.zeros((t * n, p * p, c_v), dtype=np.float64)
    np.add.at(d_key_buf, ids.ravel(), d_m_sel.reshape(n * kk, p * p, c_k))
    np.add.at(d_val_buf, ids.ravel(), d_v_sel.reshape(n * kk, p * p, c_v))

    def to_grids(buf, channels):
        return [scatter_add(PatchGrid(layout, buf[ti * n:(ti + 1) * n]
                                      .transpose(0, 2, 1).reshape(n, channels, p, p)))
                for ti in range(t)]

    dq_pg = PatchGrid(layout, d_q_pix.transpose(0, 2, 1).reshape(n, c_k, p, p))
    return scatter_add(dq_pg), to_grids(d_key_buf, c_k), to_grids(d_val_buf, c_v)


def pixel_match_weights(q_patch, k_patches):
    """Softmax over -||q_a - m_b||^2 for one (C, P, P) query patch against
    (K, C, P, P) memory patches; returns (P^2, K*P^2) weights."""
    c, p, _ = q_patch.shape
    q_pix = q_patch.reshape(c, p * p).T
    m_pix = k_patches.transpose(0, 2, 3, 1).reshape(-1, c)
    logits = -((q_pix[:, None, :] - m_pix[None, :, :]) ** 2).sum(axis=2)
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def readout(weights, v_patches):
    """(C_v, P, P) weighted sum of (K, C_v, P, P) memory value patches."""
    kk, cv, p, _ = v_patches.shape
    v_pix = v_patches.transpose(0, 2, 3, 1).reshape(kk * p * p, cv)
    return (weights @ v_pix).T.reshape(cv, p, p)


def selected_patches(grids, layout, ids):
    """(K, C, P, P) patches of a memory bank at flat top-K indices t*N+j."""
    pgs = [unfold(g, layout).data for g in grids]
    return np.stack([pgs[j // layout.n_patches][j % layout.n_patches] for j in ids])


def plmm_weights(q, mk, mv, patch, k):
    """(N, P^2, K*P^2) pixel weights of plmm_forward and the forward result.

    Query patch i's weights are read out of the production pixel stage on a
    one-patch map: its keys against its K selected memory patches, each a
    one-patch frame whose values are one-hot over the K*P^2 memory pixels,
    so that the readout at query pixel x is the weight row of x.
    """
    res = plmm_forward(q, mk, mv, patch=patch, k=k)
    layout = make_layout(q.height, q.width, patch)
    q_pg = unfold(q, layout)
    kk, pp = res.topk.k, patch * patch
    one_hot = np.eye(kk * pp, dtype=q.data.dtype).reshape(kk * pp, kk, patch, patch)
    bank = [FeatureGrid(one_hot[:, j]) for j in range(kk)]
    sel = TopKIndex(ids=np.arange(kk)[None], k=kk)
    rows = []
    for i, ids in enumerate(res.topk.ids):
        keys = [FeatureGrid(m) for m in selected_patches(mk, layout, ids)]
        out = plmm_forward(FeatureGrid(q_pg.data[i]), keys, bank, patch, kk, topk_override=sel)
        rows.append(out.readout.data.reshape(kk * pp, pp).T)
    return np.stack(rows), res


def unique_cell_pairs(layout, ids, t):
    """matcher._cell_pairs's tables built by sorting (query cell, memory cell)
    keys with np.unique: the pair counts from one sort, the pairs and each
    item's references to them from a second, keyed by processing rank."""
    n, n_w = layout.n_patches, layout.n_w
    row = n_w + 1
    n_cells = (layout.n_h + 1) * row
    span = t * n_cells
    i = np.arange(n)
    quads = ((i // n_w) * row + i % n_w)[:, None] + np.array([0, 1, row, row + 1])
    mem = (((ids // n) * n_cells)[:, :, None] + quads[ids % n]).reshape(n, -1)
    item_cell = quads.ravel()
    mem = np.repeat(mem, 4, axis=0)
    count = np.bincount(np.unique(item_cell[:, None] * span + mem) // span, minlength=n_cells)
    cells = np.argsort(count, kind="stable")
    rank = np.empty_like(cells)
    rank[cells] = np.arange(n_cells)
    pairs, refs = np.unique(rank[item_cell][:, None] * span + mem, return_inverse=True)
    items = np.argsort(rank[item_cell], kind="stable")
    start = np.concatenate(([0], np.cumsum(count[cells])))
    item_start = np.concatenate(([0], np.cumsum(np.bincount(item_cell, minlength=n_cells)[cells])))
    return (cells, start, pairs % span, items, item_start, rank[item_cell[items]],
            refs.reshape(mem.shape)[items])


def pair_blocks(q, mk, mv, patch, ids):
    """The pixel stage's blocks of a forward pass, each with the pair counts
    of its query cells, in the dtype of the inputs."""
    layout = make_layout(q.height, q.width, patch)
    topk = TopKIndex(ids=ids, k=ids.shape[1])
    count = np.diff(topk.cell_pairs(layout, len(mk))[1])
    lo = 0
    for blk in matcher._pair_blocks(q, mk, mv, layout, topk, matcher._check_bank(q, mk, mv)):
        yield blk, count[lo:lo + len(blk.q_pix)]
        lo += len(blk.q_pix)


def unblocked(monkeypatch):
    """Let the pixel stage run in one block: no byte budget, no padding cap."""
    monkeypatch.setattr(matcher, "_LOGIT_BLOCK_BYTES", 1 << 62)
    monkeypatch.setattr(matcher, "_PAD_SHARE", np.inf)


def block_count(q, mk, mv, patch, ids):
    """Number of blocks the pixel stage splits a forward pass into."""
    return sum(1 for _ in pair_blocks(q, mk, mv, patch, ids))


def one_block_counts(q, mk, mv, patch, ids):
    """The pair counts of the query cells of the one block a forward pass
    runs in; fails if it runs in more than one."""
    (_, counts), = pair_blocks(q, mk, mv, patch, ids)
    return counts


def assert_gradients_match(got, want):
    """plmm_backward's three outputs against an oracle's, rtol 1e-10, atol 1e-12."""
    for a, b in zip([got[0]] + got[1] + got[2], [want[0]] + want[1] + want[2]):
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


def random_maps(rng, t, h, w, c_key=3, c_val=2):
    q = FeatureGrid(rng.standard_normal((c_key, h, w)))
    mk = [FeatureGrid(rng.standard_normal((c_key, h, w))) for _ in range(t)]
    mv = [FeatureGrid(rng.standard_normal((c_val, h, w))) for _ in range(t)]
    return q, mk, mv


class TestPatchAffinity:
    def test_matches_loop_scores(self):
        rng = np.random.default_rng(22)
        q, mk, _ = random_maps(rng, t=2, h=9, w=9)
        layout = make_layout(9, 9, 6)
        aff = patch_affinity(unfold(q, layout), [unfold(m, layout) for m in mk])
        origins = [tuple(o) for o in layout.origins]
        for qi, (qy, qx) in enumerate(origins):
            qp = q.data[:, qy:qy + 6, qx:qx + 6].ravel()
            for ti in range(2):
                for mi, (my, mx) in enumerate(origins):
                    mp = mk[ti].data[:, my:my + 6, mx:mx + 6].ravel()
                    want = -np.sum((qp - mp) ** 2)
                    assert np.isclose(aff[qi, ti * 4 + mi], want,
                                      atol=1e-9)

    def test_counter_counts_patch_pairs(self):
        rng = np.random.default_rng(23)
        q, mk, _ = random_maps(rng, t=2, h=24, w=24)
        layout = make_layout(24, 24, 6)
        counter = OpCounter()
        patch_affinity(unfold(q, layout), [unfold(m, layout) for m in mk],
                       counter=counter)
        assert counter.patch_pairs == 2 * 49 * 49 == 4802

    def test_identical_patch_scores_zero(self):
        rng = np.random.default_rng(24)
        q, _, _ = random_maps(rng, t=1, h=9, w=9)
        layout = make_layout(9, 9, 6)
        aff = patch_affinity(unfold(q, layout), [unfold(q, layout)])
        assert np.allclose(np.diag(aff), 0.0, atol=0.0)

    @pytest.mark.parametrize("n, m, d", [(324, 972, 64), (37, 101, 5), (1, 3, 1)])
    def test_neg_sqdist_bitwise_equals_expression(self, n, m, d):
        # the in-place logits run the expression's operations in its order
        rng = np.random.default_rng(n + m)
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((m, d))
        aa = (a * a).sum(axis=1)
        bb = (b * b).sum(axis=1)
        want = 2.0 * (a @ b.T) - aa[:, None] - bb[None, :]
        assert np.array_equal(matcher._neg_sqdist(a, b), want)

    def test_self_scores_are_zero_up_to_rounding(self):
        # the Gram expansion is exact only in exact arithmetic; what holds is
        # a bound relative to the squared norm, as the module docstring says
        rng = np.random.default_rng(25)
        for d in range(1, 200):
            a = rng.standard_normal((1, d))
            score = matcher._neg_sqdist(a, a)[0, 0]
            assert abs(score) <= 16 * np.finfo(float).eps * (a * a).sum()


class TestTopKSelect:
    def test_highest_score_wins(self):
        assert topk_select(np.array([[-5.0, 0.0, -1.0]]), 1).ids[0, 0] == 1

    def test_tie_goes_to_lower_index(self):
        assert topk_select(np.array([[0.0, 0.0, -1.0]]), 1).ids[0, 0] == 0

    def test_k_range_enforced(self):
        scores = np.zeros((2, 3))
        with pytest.raises(ParameterError):
            topk_select(scores, 0)
        with pytest.raises(ParameterError):
            topk_select(scores, 4)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 9))
            k = int(rng.integers(1, m + 1))
            scores = np.round(rng.standard_normal((n, m)) * 2) / 2
            got = topk_select(scores, k).ids
            for row in range(n):
                want = sorted(range(m), key=lambda j: (-scores[row, j], j))[:k]
                assert got[row].tolist() == want

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_stable_argsort(self, dtype):
        # rows as wide as a study's banks, scores on a few levels (signed
        # zeros included) so that the K-th score is often tied
        rng = np.random.default_rng(29)
        for _ in range(60):
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 500))
            levels = int(rng.integers(1, 8))
            scores = (rng.integers(-levels, levels + 1, size=(n, m)) / 2).astype(dtype)
            scores[rng.random((n, m)) < 0.1] = -0.0
            want = np.argsort(-scores, axis=1, kind="stable")
            for k in {1, int(rng.integers(1, m + 1)), m}:
                got = topk_select(scores, k).ids
                assert got.dtype == np.intp
                assert np.array_equal(got, want[:, :k])


class TestPixelMatchWeights:
    """The pixel weights of plmm_forward, read out through one-hot values."""

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(26)
        q, mk, mv = random_maps(rng, t=2, h=12, w=12)
        w, _ = plmm_weights(q, mk, mv, patch=4, k=2)
        assert w.shape == (25, 16, 32)
        assert np.allclose(w.sum(axis=2), 1.0, atol=1e-12)
        assert (w >= 0).all()

    def test_identical_patches_give_uniform_weights(self):
        # every memory pixel equals every query pixel
        zeros = FeatureGrid(np.zeros((2, 9, 9)))
        mv = [FeatureGrid(np.ones((1, 9, 9)))] * 2
        w, _ = plmm_weights(zeros, [zeros, zeros], mv, patch=6, k=3)
        assert np.allclose(w, 1.0 / (3 * 36), atol=1e-12)

    def test_matches_loop_softmax(self):
        rng = np.random.default_rng(28)
        q, mk, mv = random_maps(rng, t=2, h=2, w=2, c_key=2)
        w, res = plmm_weights(q, mk, mv, patch=2, k=2)
        q_pix = q.data.transpose(1, 2, 0).reshape(4, 2)
        m_pix = np.concatenate(
            [mk[j].data.transpose(1, 2, 0).reshape(4, 2) for j in res.topk.ids[0]])
        for a in range(4):
            logits = np.array([-np.sum((q_pix[a] - m_pix[b]) ** 2)
                               for b in range(8)])
            e = np.exp(logits - logits.max())
            assert np.allclose(w[0, a], e / e.sum(), atol=1e-12)

    def test_weights_equal_per_patch_oracle(self):
        # the GEMM logits drop -||q||^2; per query patch the weights must
        # still equal the softmax of the full negated distance
        rng = np.random.default_rng(27)
        for t, c_key, k in [(2, 6, 3), (3, 64, 4)]:
            q, mk, mv = random_maps(rng, t=t, h=9, w=9, c_key=c_key, c_val=4)
            w, res = plmm_weights(q, mk, mv, patch=6, k=k)
            layout = make_layout(9, 9, 6)
            q_pg = unfold(q, layout)
            for i, ids in enumerate(res.topk.ids):
                want = pixel_match_weights(q_pg.data[i], selected_patches(mk, layout, ids))
                assert np.abs(w[i] - want).max() <= 1e-12

    def test_counter_counts_pixel_pairs(self):
        rng = np.random.default_rng(29)
        q, mk, mv = random_maps(rng, t=3, h=4, w=4, c_key=1)
        counter = OpCounter()
        plmm_forward(q, mk, mv, patch=4, k=3, counter=counter)
        assert counter.pixel_pairs == 16 * 48

    def test_extreme_logits_stay_finite(self):
        # squared distances up to 6400 on either side of the dropped ||q||^2
        q = FeatureGrid(np.full((1, 2, 2), 40.0))
        mk = [FeatureGrid(np.array([[[0.0, 40.0], [80.0, -40.0]]]))]
        mv = [FeatureGrid(np.ones((1, 2, 2)))]
        w, _ = plmm_weights(q, mk, mv, patch=2, k=1)
        assert np.isfinite(w).all()
        assert np.allclose(w.sum(axis=2), 1.0)
        want = pixel_match_weights(q.data, mk[0].data[None])
        assert np.abs(w[0] - want).max() <= 1e-12


class TestReadout:
    def test_convex_combination_stays_in_hull(self):
        rng = np.random.default_rng(30)
        q, mk, _ = random_maps(rng, t=3, h=12, w=12, c_key=2)
        mv = [FeatureGrid(rng.random((1, 12, 12))) for _ in range(3)]
        out = plmm_forward(q, mk, mv, patch=4, k=3).readout.data
        lo = min(v.data.min() for v in mv)
        hi = max(v.data.max() for v in mv)
        assert out.min() >= lo - 1e-12
        assert out.max() <= hi + 1e-12

    def test_one_hot_weights_copy_values(self):
        # pixels 100 apart in key space: each query pixel matches only itself
        yy, xx = np.mgrid[0:4, 0:4]
        keys = FeatureGrid(100.0 * np.stack([yy, xx]).astype(np.float64))
        values = FeatureGrid(np.random.default_rng(31).standard_normal((3, 4, 4)))
        w, res = plmm_weights(keys, [keys], [values], patch=4, k=1)
        # the other logits lie 1e4 and more below the row max; exp of them is
        # taken at _EXP_FLOOR, so their weights are at most e^_EXP_FLOOR, not 0
        floor = matcher._EXP_FLOOR[np.dtype(np.float64)]
        assert np.allclose(w[0], np.eye(16), rtol=0, atol=np.exp(floor))
        assert np.allclose(res.readout.data, values.data, atol=1e-12)

    def test_one_hot_weights_copy_values_float32(self):
        # as above in float32: the logits lie far below float32's
        # _EXP_FLOOR under the row max, so exp of them is taken at the floor
        yy, xx = np.mgrid[0:4, 0:4]
        keys = FeatureGrid(100.0 * np.stack([yy, xx]).astype(np.float32))
        values = FeatureGrid(np.random.default_rng(31).standard_normal((3, 4, 4), np.float32))
        w, res = plmm_weights(keys, [keys], [values], patch=4, k=1)
        assert w.dtype == res.readout.data.dtype == np.float32
        floor = np.float32(matcher._EXP_FLOOR[np.dtype(np.float32)])
        assert np.allclose(w[0], np.eye(16), rtol=0, atol=np.exp(floor))
        assert np.array_equal(res.readout.data, values.data)
        dense = dense_readout(keys, [keys], [values])
        assert dense.data.dtype == np.float32
        assert np.array_equal(dense.data, values.data)

    def test_folded_oracle_readouts_match(self):
        rng = np.random.default_rng(32)
        q, mk, mv = random_maps(rng, t=2, h=12, w=12, c_key=4, c_val=3)
        w, res = plmm_weights(q, mk, mv, patch=4, k=3)
        layout = make_layout(12, 12, 4)
        q_pg = unfold(q, layout)
        patches = [readout(pixel_match_weights(q_pg.data[i], selected_patches(mk, layout, ids)),
                           selected_patches(mv, layout, ids))
                   for i, ids in enumerate(res.topk.ids)]
        want = fold(PatchGrid(layout, np.stack(patches)))
        assert np.abs(res.readout.data - want.data).max() <= 1e-12


class TestPlmmForward:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(31)
        for t, k in [(1, 1), (2, 3), (2, 8)]:
            q, mk, mv = random_maps(rng, t=t, h=6, w=10, c_key=2, c_val=2)
            res = plmm_forward(q, mk, mv, patch=4, k=k)
            want = loop_plmm_reference(q, mk, mv, patch=4, k=k)
            assert np.allclose(res.readout.data, want, atol=1e-10)

    def test_matches_loop_reference_at_benchmark_shapes(self):
        # the benchmark's channel counts and K, at both pyramid scales: patch
        # 6 selects, then patch 12 on a map twice the size reuses the table
        rng = np.random.default_rng(42)
        for t in (2, 3):
            q, mk, mv = random_maps(rng, t=t, h=9, w=9, c_key=64, c_val=4)
            res = plmm_forward(q, mk, mv, patch=6, k=4)
            want = loop_plmm_reference(q, mk, mv, patch=6, k=4)
            assert np.allclose(res.readout.data, want, rtol=0, atol=1e-10)
        q3, mk3, mv3 = random_maps(rng, t=3, h=18, w=18, c_key=64, c_val=4)
        lifted = plmm_forward(q3, mk3, mv3, patch=12, k=4,
                              topk_override=res.topk)
        want = loop_plmm_reference(q3, mk3, mv3, patch=12, k=4,
                                   topk_ids=res.topk.ids)
        assert np.allclose(lifted.readout.data, want, rtol=0, atol=1e-10)

    def test_large_norm_keys_match_loop_reference(self):
        # keys x40 give ||q||^2 near 1e4, so the logits lie far from 0 and
        # the weights stay finite only through the row-max shift
        rng = np.random.default_rng(43)
        q, mk, mv = random_maps(rng, t=2, h=9, w=9, c_key=6, c_val=4)
        q = FeatureGrid(40.0 * q.data)
        mk = [FeatureGrid(40.0 * m.data) for m in mk]
        assert (q.data ** 2).sum(axis=0).mean() > 5e3
        res = plmm_forward(q, mk, mv, patch=6, k=4)
        assert np.isfinite(res.readout.data).all()
        want = loop_plmm_reference(q, mk, mv, patch=6, k=4)
        assert np.allclose(res.readout.data, want, rtol=0, atol=1e-10)

    def test_equals_dense_when_patch_spans_map(self):
        rng = np.random.default_rng(32)
        for t in (1, 2, 3):
            q, mk, mv = random_maps(rng, t=t, h=6, w=6)
            res = plmm_forward(q, mk, mv, patch=6, k=t)
            ref = dense_readout(q, mk, mv)
            assert np.abs(res.readout.data - ref.data).max() <= 1e-6

    @pytest.mark.parametrize("budget_mib", [None, 4])
    def test_blocks_equal_one_block_bitwise(self, monkeypatch, budget_mib):
        # scale 3 at working side 576: N = 121 query patches of P = 12 on
        # 144 query cells, which the default budget and 4 MiB split into
        # blocks of a few cells each; in one block, every cell's pairs are
        # padded to the largest count. float32 is the engine's dtype. The
        # bitwise equality holds for this instance, not in general: OpenBLAS
        # can round a GEMM row differently when a block's row count changes
        rng = np.random.default_rng(43)
        q, mk, mv = random_maps(rng, t=3, h=72, w=72, c_key=64, c_val=4)
        budget = matcher._LOGIT_BLOCK_BYTES if budget_mib is None else budget_mib << 20
        share = matcher._PAD_SHARE
        for (q,), mk, mv in [([q], mk, mv), (as_float32([q]), as_float32(mk), as_float32(mv))]:
            monkeypatch.setattr(matcher, "_LOGIT_BLOCK_BYTES", budget)
            monkeypatch.setattr(matcher, "_PAD_SHARE", share)
            counter = OpCounter()
            blocked = plmm_forward(q, mk, mv, patch=12, k=4, counter=counter)
            assert counter.pixel_pairs == 121 * 4 * 144 * 144
            assert block_count(q, mk, mv, 12, blocked.topk.ids) > 10
            unblocked(monkeypatch)
            assert len(np.unique(one_block_counts(q, mk, mv, 12, blocked.topk.ids))) > 1
            whole = plmm_forward(q, mk, mv, patch=12, k=4)
            assert np.array_equal(blocked.topk.ids, whole.topk.ids)
            assert np.array_equal(blocked.readout.data, whole.readout.data)

    def test_counters_closed_form(self):
        rng = np.random.default_rng(33)
        q, mk, mv = random_maps(rng, t=2, h=24, w=24)
        counter = OpCounter()
        plmm_forward(q, mk, mv, patch=6, k=4, counter=counter)
        assert counter.patch_pairs == 4802
        assert counter.pixel_pairs == 49 * 4 * 36 * 36 == 254016

    def test_topk_override_skips_affinity(self):
        rng = np.random.default_rng(34)
        q, mk, mv = random_maps(rng, t=2, h=9, w=9)
        base = plmm_forward(q, mk, mv, patch=6, k=2)
        counter = OpCounter()
        again = plmm_forward(q, mk, mv, patch=6, k=2, counter=counter,
                             topk_override=base.topk)
        assert counter.patch_pairs == 0
        assert counter.pixel_pairs > 0
        assert np.allclose(again.readout.data, base.readout.data, atol=1e-12)

    def test_override_row_count_validated(self):
        rng = np.random.default_rng(35)
        q, mk, mv = random_maps(rng, t=1, h=9, w=9)
        base = plmm_forward(q, mk, mv, patch=6, k=1)
        bad = matcher.TopKIndex(ids=base.topk.ids[:2], k=1)
        with pytest.raises(DimensionError):
            plmm_forward(q, mk, mv, patch=6, k=1, topk_override=bad)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(36)
        q, mk, mv = random_maps(rng, t=1, h=9, w=9)
        with pytest.raises(ParameterError):
            plmm_forward(q, mk, mv, patch=6, k=5)  # T*N = 4

    def test_key_value_length_mismatch(self):
        rng = np.random.default_rng(37)
        q, mk, mv = random_maps(rng, t=2, h=9, w=9)
        with pytest.raises(ParameterError):
            plmm_forward(q, mk, mv[:1], patch=6, k=1)


def _grid(c, h=12, w=12):
    return FeatureGrid(np.zeros((c, h, w)))


# banks that do not fit a (3, 12, 12) query with two (2, 12, 12) values
BAD_BANKS = [
    pytest.param(lambda mk, mv: (mk, mv[:1]), ParameterError, "parallel", id="short-values"),
    pytest.param(lambda mk, mv: ([], []), ParameterError, "parallel", id="empty"),
    pytest.param(lambda mk, mv: (mk[:1] + [_grid(4)], mv), DimensionError, "memory key dims",
                 id="key-channels"),
    pytest.param(lambda mk, mv: (mk[:1] + [_grid(3, w=6)], mv), DimensionError,
                 "memory key dims", id="key-size"),
    pytest.param(lambda mk, mv: (mk, mv[:1] + [_grid(2, h=6)]), DimensionError,
                 "memory value dims", id="value-size"),
    pytest.param(lambda mk, mv: (mk, mv[:1] + [_grid(5)]), DimensionError,
                 "channel counts", id="value-channels"),
]


class TestBankCheck:
    """Both matchers reject a bad bank with the same error."""

    @pytest.mark.parametrize("change, error, message", BAD_BANKS)
    def test_both_matchers_agree(self, change, error, message):
        q, mk, mv = random_maps(np.random.default_rng(38), t=2, h=12, w=12)
        mk, mv = change(mk, mv)
        with pytest.raises(error, match=message):
            plmm_forward(q, mk, mv, patch=6, k=1)
        with pytest.raises(error, match=message):
            dense_readout(q, mk, mv)


class TestChannelsLastGather:
    """plmm_forward gathers its pixel stage from channels-last rows; the
    unfolded-patch oracles must agree: the top-K tables bit for bit, the
    readouts to 1e-12 and the gradients to rtol 1e-10, atol 1e-12."""

    @staticmethod
    def _maps(rng, t, side, transposed):
        q, mk, mv = random_maps(rng, t=t, h=side, w=side, c_key=64, c_val=4)
        if not transposed:
            return q, mk, mv

        def flip(grids):
            return [FeatureGrid(g.data.transpose(0, 2, 1)) for g in grids]
        return flip([q])[0], flip(mk), flip(mv)

    @pytest.mark.parametrize("side4", [18, 36])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_bitwise_equal_to_unfolded_oracle(self, side4, transposed):
        # a scale-4 map of patch 6 selects with its own top-K; the scale-3
        # map twice its size, patch 12, reuses that table lifted
        rng = np.random.default_rng(side4)
        for t in (1, 2, 3):
            q, mk, mv = self._maps(rng, t, side4, transposed)
            got = plmm_forward(q, mk, mv, patch=6, k=4)
            want, _ = unfold_plmm_forward(q, mk, mv, patch=6, k=4)
            assert np.array_equal(got.topk.ids, want.topk.ids)
            assert np.abs(got.readout.data - want.readout.data).max() <= 1e-12
            q3, mk3, mv3 = self._maps(rng, t, 2 * side4, transposed)
            lifted = plmm_forward(q3, mk3, mv3, patch=12, k=4, topk_override=got.topk)
            want3, _ = unfold_plmm_forward(q3, mk3, mv3, patch=12, k=4,
                                           topk_ids=got.topk.ids)
            assert np.abs(lifted.readout.data - want3.readout.data).max() <= 1e-12

    @pytest.mark.parametrize("transposed", [False, True])
    def test_backward_bitwise_equal_to_cached_oracle(self, transposed):
        rng = np.random.default_rng(44)
        for t, side, patch in [(1, 18, 6), (2, 12, 4), (3, 36, 12)]:
            q, mk, mv = self._maps(rng, t, side, transposed)
            got = plmm_forward(q, mk, mv, patch=patch, k=4)
            want, cache = unfold_plmm_forward(q, mk, mv, patch=patch, k=4)
            assert np.abs(got.readout.data - want.readout.data).max() <= 1e-12
            assert np.array_equal(got.topk.ids, cache["ids"])
            upstream = rng.standard_normal((4, side, side))
            assert_gradients_match(plmm_backward(q, mk, mv, patch, got.topk, upstream),
                                   cached_plmm_backward(cache, upstream))

    @pytest.mark.parametrize("budget_kib", [None, 4])
    def test_backward_blocks_equal_one_block_bitwise(self, monkeypatch, budget_kib):
        # N = 121 query patches of P = 6 on 144 query cells, which the
        # default budget splits into blocks; every cell is over 4 KiB and
        # forms a block of its own. The bitwise equality holds for this
        # instance, not in general: OpenBLAS can round a GEMM row differently
        # when a block's row count changes
        rng = np.random.default_rng(46)
        q, mk, mv = random_maps(rng, t=3, h=36, w=36, c_key=64, c_val=4)
        upstream = rng.standard_normal((4, 36, 36))
        if budget_kib is not None:
            monkeypatch.setattr(matcher, "_LOGIT_BLOCK_BYTES", budget_kib << 10)
        topk = plmm_forward(q, mk, mv, patch=6, k=4).topk
        n_blocks = block_count(q, mk, mv, 6, topk.ids)
        assert n_blocks == 144 if budget_kib else n_blocks > 2
        blocked = plmm_backward(q, mk, mv, 6, topk, upstream)
        unblocked(monkeypatch)
        assert len(np.unique(one_block_counts(q, mk, mv, 6, topk.ids))) > 1
        whole = plmm_backward(q, mk, mv, 6, topk, upstream)
        assert np.array_equal(blocked[0], whole[0])
        for a, b in zip(blocked[1] + blocked[2], whole[1] + whole[2]):
            assert np.array_equal(a, b)

    def test_backward_memory_is_bounded(self):
        # scale 3 at working side 576 with three memory frames: the per-patch
        # gradient buffers and pixel rows fit, whole-layout logits would not
        rng = np.random.default_rng(47)
        q, mk, mv = random_maps(rng, t=3, h=72, w=72, c_key=64, c_val=4)
        upstream = rng.standard_normal((4, 72, 72))
        topk = plmm_forward(q, mk, mv, patch=12, k=4).topk
        tracemalloc.start()
        try:
            plmm_backward(q, mk, mv, 12, topk, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("t", [1, 3])
    def test_unfold_serves_only_the_affinity(self, monkeypatch, t):
        calls = []

        def counting_unfold(grid, layout):
            calls.append(grid)
            return unfold(grid, layout)

        monkeypatch.setattr(matcher, "unfold", counting_unfold)
        rng = np.random.default_rng(45)
        q, mk, mv = random_maps(rng, t=t, h=18, w=18, c_key=8, c_val=4)
        base = plmm_forward(q, mk, mv, patch=6, k=4)
        assert len(calls) == 1 + t
        calls.clear()
        plmm_forward(q, mk, mv, patch=6, k=4, topk_override=base.topk)
        plmm_backward(q, mk, mv, 6, base.topk, rng.standard_normal((4, 18, 18)))
        assert calls == []


class TestCellStage:
    """The pixel stage computes each distinct (query cell, memory cell) block
    of logits once and rescales it per patch; the per-patch oracles must
    agree on every layout shape and selection pattern it meets."""

    @staticmethod
    def _check(q, mk, mv, patch, k, topk_ids=None, rng=None):
        override = None if topk_ids is None else TopKIndex(ids=topk_ids, k=topk_ids.shape[1])
        got = plmm_forward(q, mk, mv, patch, k, topk_override=override)
        want, cache = unfold_plmm_forward(q, mk, mv, patch, k, topk_ids=topk_ids)
        assert np.array_equal(got.topk.ids, want.topk.ids)
        loop = loop_plmm_reference(q, mk, mv, patch, k, topk_ids=topk_ids)
        assert np.allclose(got.readout.data, loop, rtol=0, atol=1e-10)
        assert np.abs(got.readout.data - want.readout.data).max() <= 1e-12
        rng = rng or np.random.default_rng(0)
        upstream = rng.standard_normal(got.readout.data.shape)
        assert_gradients_match(plmm_backward(q, mk, mv, patch, got.topk, upstream),
                               cached_plmm_backward(cache, upstream))
        return got

    @pytest.mark.parametrize("t, h, w, patch, k, transposed", [
        (2, 6, 6, 6, 2, False),     # one patch: the map is P x P
        (2, 6, 18, 6, 3, False),    # one row of patches
        (2, 12, 20, 4, 3, False),   # non-square
        (2, 20, 12, 4, 3, True),    # transposed, non-contiguous grids
        (1, 12, 12, 4, 1, False),   # T = 1, K = 1
        (2, 9, 9, 6, 8, False),     # K = T*N: every memory patch
        (3, 8, 8, 2, 5, False),     # P = 2: cells of one pixel
    ])
    def test_matches_oracles(self, t, h, w, patch, k, transposed):
        rng = np.random.default_rng(t * 1000 + h * 10 + w + patch)
        if transposed:
            q, mk, mv = random_maps(rng, t=t, h=w, w=h, c_key=5, c_val=3)
            q, mk, mv = (FeatureGrid(q.data.transpose(0, 2, 1)),
                         [FeatureGrid(m.data.transpose(0, 2, 1)) for m in mk],
                         [FeatureGrid(v.data.transpose(0, 2, 1)) for v in mv])
            assert not q.data.flags.c_contiguous
        else:
            q, mk, mv = random_maps(rng, t=t, h=h, w=w, c_key=5, c_val=3)
        self._check(q, mk, mv, patch, k, rng=rng)

    @pytest.mark.parametrize("t, h, w, patch, k", [
        (2, 18, 18, 6, 4),   # paper-288's scale-4 grid
        (3, 36, 36, 6, 4),   # wide-576's scale-4 grid
        (1, 6, 6, 6, 1),     # one patch
        (2, 12, 20, 4, 8),   # non-square, K = T*N
        (3, 8, 8, 2, 5),     # P = 2
    ])
    def test_cell_pairs_equal_sorted_keys(self, t, h, w, patch, k):
        rng = np.random.default_rng(t * 100 + h + w)
        layout = make_layout(h, w, patch)
        n = layout.n_patches
        # random selections, repeats allowed, plus one of all-equal ids
        ids = rng.integers(0, t * n, size=(n, k))
        ids[0] = ids[0, 0]
        got = matcher._cell_pairs(layout, ids, t)
        for table, want in zip(got, unique_cell_pairs(layout, ids, t), strict=True):
            assert table.dtype == want.dtype
            assert np.array_equal(table, want)

    def test_overlapping_and_repeated_selections(self):
        # each query patch selects itself, its right and lower neighbours
        # (overlapping memory patches share cells) and itself again in the
        # second frame, and one patch selects one memory patch twice
        rng = np.random.default_rng(48)
        q, mk, mv = random_maps(rng, t=2, h=16, w=16, c_key=4, c_val=3)
        layout = make_layout(16, 16, 4)
        n, n_w = layout.n_patches, layout.n_w
        i = np.arange(n)
        ids = np.stack([i, np.minimum(i + 1, n - 1), np.minimum(i + n_w, n - 1), n + i], axis=1)
        ids[5] = [7, 7, n + 7, 8]
        self._check(q, mk, mv, 4, 4, topk_ids=ids, rng=rng)

    def test_rescale_sets_weights_far_below_neighbour(self):
        # query patches 0 and 1 share the cells of columns 2-3; patch 0 reads
        # memory patch 0, whose keys sit near 35, patch 1 reads memory
        # patch 2, whose keys sit near the query's 0. In those cells patch
        # 0's best logit lies over 1000 below patch 1's, yet its weights
        # must follow the spread of its own logits
        rng = np.random.default_rng(49)
        q = FeatureGrid(0.1 * rng.standard_normal((1, 4, 8)))
        keys = 0.1 * rng.standard_normal((1, 4, 8))
        keys[:, :, :4] += 35.0
        mk = [FeatureGrid(keys)]
        mv = [FeatureGrid(rng.standard_normal((2, 4, 8)))]
        ids = np.array([[0], [2], [2]])
        shared = q.data[0, :, 2:4].ravel()
        best = [(-(shared[:, None] - keys[0, :, cols].ravel()[None]) ** 2).max(axis=1)
                for cols in (slice(0, 4), slice(4, 8))]
        assert (best[1] - best[0]).min() > 745
        # a softmax whose logits were all floored would be uniform there
        w0 = pixel_match_weights(q.data[:, :, :4], keys[None, :, :, :4])
        assert w0.reshape(4, 4, 16)[:, 2:].max(axis=2).min() > 2 / 16
        self._check(q, mk, mv, 4, 1, topk_ids=ids, rng=rng)

    def test_forward_memory_is_bounded(self):
        # the scale-3 pass at working side 576 with three memory frames,
        # reusing a top-K table as the pyramid does: pixel rows, one block
        # and the per-patch readout, where whole-layout logits take 80 MB
        rng = np.random.default_rng(50)
        q, mk, mv = random_maps(rng, t=3, h=72, w=72, c_key=64, c_val=4)
        topk = TopKIndex(ids=rng.integers(0, 3 * 121, (121, 4)), k=4)
        tracemalloc.start()
        try:
            plmm_forward(q, mk, mv, 12, 4, topk_override=topk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("budget_mib", [None, 4])
    def test_block_budget_counts_padded_pairs(self, monkeypatch, budget_mib):
        # every cell's pairs are padded to its block's largest count, and the
        # padded block, logits with their gathered keys and values, fits the
        # budget unless it is one cell over it
        rng = np.random.default_rng(51)
        q, mk, mv = random_maps(rng, t=3, h=72, w=72, c_key=64, c_val=4)
        if budget_mib is not None:
            monkeypatch.setattr(matcher, "_LOGIT_BLOCK_BYTES", budget_mib << 20)
        ids = plmm_forward(q, mk, mv, patch=12, k=4).topk.ids
        mixed = 0
        for blk, counts in pair_blocks(q, mk, mv, 12, ids):
            assert blk.e.shape[2] == counts.max()
            if len(counts) > 1:
                assert (blk.e.nbytes + blk.keys.nbytes + blk.values.nbytes
                        <= matcher._LOGIT_BLOCK_BYTES)
            mixed += len(np.unique(counts)) > 1
        assert mixed >= 1

    @pytest.mark.parametrize("c_key", [3, 64])
    def test_padding_share_is_capped(self, monkeypatch, c_key):
        # a 12 x 12 map with P = 4 has 36 query cells of 14 to 51 pairs, which
        # the budget alone fits in 1 (3 channels) or 4 (64 channels) blocks,
        # padded to 1.54x or 1.15x the distinct pairs; capped, 1.09x and 1.08x
        rng = np.random.default_rng(52)
        q, mk, mv = random_maps(rng, t=3, h=12, w=12, c_key=c_key, c_val=4)
        ids = plmm_forward(q, mk, mv, patch=4, k=4).topk.ids
        cap = 1 + matcher._PAD_SHARE
        blocks = [(blk.e.shape[0] * blk.e.shape[2], counts.sum())
                  for blk, counts in pair_blocks(q, mk, mv, 4, ids)]
        assert all(padded <= cap * real for padded, real in blocks)
        padded, real = np.sum(blocks, axis=0)
        monkeypatch.setattr(matcher, "_PAD_SHARE", np.inf)
        uncapped = sum(blk.e.shape[0] * blk.e.shape[2]
                       for blk, _ in pair_blocks(q, mk, mv, 4, ids))
        assert uncapped > cap * real >= padded > real

    def test_small_map_runs_in_one_block(self):
        # the first instance of acceptance criterion 02: 16 query cells of 6
        # to 14 pairs pad to 1.34x as one block, yet that padding, 18 KB, is
        # under _PAD_SHARE of the budget, less than the fixed cost of a cut,
        # so the cap leaves the map in one block
        rng = np.random.default_rng(1002)
        q, mk, mv = (FeatureGrid(rng.standard_normal((2, 8, 8))),
                     [FeatureGrid(rng.standard_normal((2, 8, 8)))],
                     [FeatureGrid(rng.standard_normal((2, 8, 8)))])
        ids = plmm_forward(q, mk, mv, patch=4, k=2).topk.ids
        counts = one_block_counts(q, mk, mv, 4, ids)
        assert len(counts) == 16 and 16 * counts.max() > (1 + matcher._PAD_SHARE) * counts.sum()


class TestDenseReadout:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(38)
        q, mk, mv = random_maps(rng, t=2, h=4, w=5, c_key=2, c_val=3)
        got = dense_readout(q, mk, mv)
        q_pix = q.data.transpose(1, 2, 0).reshape(20, 2)
        m_pix = np.concatenate(
            [m.data.transpose(1, 2, 0).reshape(20, 2) for m in mk], axis=0)
        v_pix = np.concatenate(
            [v.data.transpose(1, 2, 0).reshape(20, 3) for v in mv], axis=0)
        for a in range(20):
            logits = np.array([-np.sum((q_pix[a] - m_pix[b]) ** 2)
                               for b in range(40)])
            e = np.exp(logits - logits.max())
            w = e / e.sum()
            want = w @ v_pix
            assert np.allclose(got.data.transpose(1, 2, 0).reshape(20, 3)[a],
                               want, atol=1e-10)

    def test_counter(self):
        rng = np.random.default_rng(39)
        q, mk, mv = random_maps(rng, t=2, h=24, w=24)
        counter = OpCounter()
        dense_readout(q, mk, mv, counter=counter)
        assert counter.pixel_pairs == 2 * 576 * 576 == 663552

    def test_chunking_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(40)
        q, mk, mv = random_maps(rng, t=1, h=8, w=8)
        # one query row holds 64 logits of 8 bytes: nine blocks of 7 rows, one of 1
        monkeypatch.setattr(matcher, "_DENSE_BLOCK_BYTES", 7 * 64 * 8)
        a = dense_readout(q, mk, mv)
        monkeypatch.setattr(matcher, "_DENSE_BLOCK_BYTES", 1 << 62)
        b = dense_readout(q, mk, mv)
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_memory_is_bounded(self):
        # scale 3 at working side 576 with three memory frames, in float32:
        # whole logits would take 5184 x 15552 x 4 bytes, 322 MB; the pixel
        # rows of keys and values take 1.1 MB, one block of logits 512 KiB
        rng = np.random.default_rng(41)
        q, mk, mv = random_maps(rng, t=3, h=72, w=72, c_key=8, c_val=4)
        (q,), mk, mv = as_float32([q]), as_float32(mk), as_float32(mv)
        tracemalloc.start()
        try:
            dense_readout(q, mk, mv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def dense_oracle(q, mk, mv):
    """dense_readout's (C_v, H, W) readout from the full distance matrix and
    a normalized weight matrix."""
    c_k, h, w = q.data.shape
    q_pix = q.data.reshape(c_k, -1).T
    m_pix = np.concatenate([m.data.reshape(c_k, -1).T for m in mk])
    v_pix = np.concatenate([v.data.reshape(v.channels, -1).T for v in mv])
    weights = softmax_rows(-((q_pix[:, None] - m_pix[None]) ** 2).sum(axis=2))
    return (weights @ v_pix).T.reshape(-1, h, w)


def as_float32(grids):
    return [FeatureGrid(g.data.astype(np.float32)) for g in grids]


class TestDtypeRule:
    """Both matchers run in the dtype of their inputs: float64 stays float64
    at the oracles' tolerances, float32 gives float32 within its rounding of
    the float64 results, and a mix runs in float64."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(50)
        q, mk, mv = random_maps(rng, t=2, h=12, w=12, c_key=4, c_val=3)
        return q, mk, mv, rng.standard_normal((3, 12, 12))

    def test_float64_in_float64_out(self):
        q, mk, mv, upstream = self.inputs()
        res = plmm_forward(q, mk, mv, patch=4, k=3)
        want, cache = unfold_plmm_forward(q, mk, mv, 4, 3)
        assert res.readout.data.dtype == np.float64
        assert np.abs(res.readout.data - want.readout.data).max() <= 1e-12
        d_q, d_keys, d_values = plmm_backward(q, mk, mv, 4, res.topk, upstream)
        w_q, w_keys, w_values = cached_plmm_backward(cache, upstream)
        for got, ref in zip([d_q, *d_keys, *d_values], [w_q, *w_keys, *w_values]):
            assert got.dtype == np.float64
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)
        dense = dense_readout(q, mk, mv)
        assert dense.data.dtype == np.float64
        assert np.abs(dense.data - dense_oracle(q, mk, mv)).max() <= 1e-12

    def test_float32_in_float32_out(self):
        q, mk, mv, upstream = self.inputs()
        (q32,), mk32, mv32 = as_float32([q]), as_float32(mk), as_float32(mv)
        ref = plmm_forward(q, mk, mv, patch=4, k=3)
        res = plmm_forward(q32, mk32, mv32, patch=4, k=3, topk_override=ref.topk)
        assert res.readout.data.dtype == np.float32
        assert np.abs(res.readout.data - ref.readout.data).max() <= 1e-5
        grads = plmm_backward(q32, mk32, mv32, 4, ref.topk, upstream)
        want = plmm_backward(q, mk, mv, 4, ref.topk, upstream)
        for got, ref_grad in zip([grads[0], *grads[1], *grads[2]],
                                 [want[0], *want[1], *want[2]]):
            assert got.dtype == np.float32
            assert np.abs(got - ref_grad).max() <= 1e-5 * np.abs(ref_grad).max()
        dense = dense_readout(q32, mk32, mv32)
        assert dense.data.dtype == np.float32
        assert np.abs(dense.data - dense_readout(q, mk, mv).data).max() <= 1e-5

    @pytest.mark.parametrize("scale", [4, 3], ids=["scale4", "scale3"])
    def test_float32_dense_on_encoder_keys(self, scale):
        # keys of the paper-288 study's middle slice, as the engine encodes
        # them, reach squared norms of 756 (scale 4) and 1047 (scale 3); with
        # logits 2 q.m - ||m||^2 the float32 readout stays within 1.2e-5 and
        # 1.9e-5 of the float64 one, as it did with the full distances
        volume, _ = gen_phantom(PhantomSpec(t_count=4, seed=7))
        keys = []
        for t in range(4):
            img = resize_bilinear(volume.frame(4, t).astype(np.float32), 288, 288)
            np.clip(img, 0.0, 1.0, out=img)
            keys.append(encode_key(img, EncoderConfig(key_channels=64))[scale])
        assert max((k.data.astype(np.float64) ** 2).sum(axis=0).max() for k in keys) > 700
        rng = np.random.default_rng(53)
        values = [FeatureGrid(rng.random((4, keys[0].height, keys[0].width)))
                  for _ in keys[1:]]
        got = dense_readout(keys[0], keys[1:], as_float32(values))
        keys64 = [FeatureGrid(k.data.astype(np.float64)) for k in keys]
        want = dense_readout(keys64[0], keys64[1:], values)
        assert got.data.dtype == np.float32
        assert np.abs(got.data - want.data).max() <= 1e-4

    def test_mixed_inputs_run_in_float64(self):
        q, mk, mv, _ = self.inputs()
        (q32,), mk32 = as_float32([q]), as_float32(mk)
        assert plmm_forward(q32, mk32, mv, patch=4, k=3).readout.data.dtype == np.float64
        assert dense_readout(q32, mk32, mv).data.dtype == np.float64


def subnormals(x):
    """Number of subnormal entries of a float array."""
    return int(np.count_nonzero((x != 0) & (np.abs(x) < np.finfo(x.dtype).tiny)))


class TestExpFloor:
    """Logits are raised to _EXP_FLOOR before exp so that no weight, and no
    product of two weights, is subnormal: numpy flushes nothing to zero, and
    on x86 each subnormal operand or result takes a slow microcode assist."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_product_of_two_floored_weights_is_normal(self, dtype):
        floor = matcher._EXP_FLOOR[np.dtype(dtype)]
        tiny = np.finfo(dtype).tiny
        assert floor == int(floor) and np.exp(dtype(2 * floor)) >= tiny
        # the lowest integer floor that keeps it so
        assert np.exp(2.0 * (floor - 1)) < tiny

    @staticmethod
    def census(monkeypatch, matcher_name):
        """Subnormal entries met by one matcher over a 3 x 2 phantom study at
        the benchmark's settings: working side 288, 64-channel keys (8 wide),
        patch 6, K 4, both scales, float32, 4-class soft values."""
        found = Counter()
        floored_exp, pair_blocks = matcher._floored_exp, matcher._pair_blocks
        plmm, dense = pyramid.plmm_forward, propagator.dense_readout

        def counted_exp(x):  # e and beta of both matchers
            out = floored_exp(x)
            found["e, beta"] += subnormals(out)
            return out

        def counted_blocks(*args):
            for blk in pair_blocks(*args):
                found["item sums"] += subnormals(blk.sums)
                found["item readouts"] += subnormals(blk.sums[:, :-1] / blk.sums[:, -1:])
                yield blk

        def counted_plmm(*args, **kwargs):
            res = plmm(*args, **kwargs)
            found["readout"] += subnormals(res.readout.data)
            return res

        def counted_dense(*args, **kwargs):
            out = dense(*args, **kwargs)
            found["readout"] += subnormals(out.data)
            return out

        monkeypatch.setattr(matcher, "_floored_exp", counted_exp)
        monkeypatch.setattr(matcher, "_pair_blocks", counted_blocks)
        monkeypatch.setattr(pyramid, "plmm_forward", counted_plmm)
        monkeypatch.setattr(propagator, "dense_readout", counted_dense)
        volume, truth = gen_phantom(PhantomSpec(z_count=3, t_count=2, seed=7))
        cfg = PropagationConfig(z0=1, patch=6, k=4, matcher=matcher_name, working_side=288,
                                encoder=EncoderConfig(key_channels=64))
        run_4d(volume, truth.labels[1, 0], cfg)
        return found

    @pytest.mark.parametrize("matcher_name", ["plmm", "dense"])
    def test_no_subnormal_in_a_study(self, monkeypatch, matcher_name):
        assert sum(self.census(monkeypatch, matcher_name).values()) == 0

    def test_census_sees_a_floor_at_ln_tiny(self, monkeypatch):
        # with the floor at ln(tiny) = -87.3, rounded up, e^floor is normal
        # but its product with a value below 0.71, or with a second floored
        # weight, is not: the same study meets hundreds of subnormals
        floor = float(np.ceil(np.log(np.finfo(np.float32).tiny)))
        monkeypatch.setitem(matcher._EXP_FLOOR, np.dtype(np.float32), floor)
        found = self.census(monkeypatch, "plmm")
        assert found["e, beta"] == 0 and found["item sums"] > 100
