"""Patch affinity, top-K selection, pixel matching, readout, and the
dense reference path.

The core check is a pure-loop reference implementation of the whole
patch-matching forward pass, kept free of einsum and broadcasting so it
cannot share a bug with the library code.
"""

import numpy as np
import pytest

from patchmem import matcher
from patchmem.errors import DimensionError, ParameterError
from patchmem.grids import FeatureGrid
from patchmem.matcher import (
    AffinityMatrix,
    OpCounter,
    dense_readout,
    patch_affinity,
    pixel_match_weights,
    plmm_forward,
    readout,
    similarity,
    topk_select,
)
from patchmem.patcher import coverage_map, make_layout, unfold


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


def random_maps(rng, t, h, w, c_key=3, c_val=2):
    q = FeatureGrid(rng.standard_normal((c_key, h, w)))
    mk = [FeatureGrid(rng.standard_normal((c_key, h, w))) for _ in range(t)]
    mv = [FeatureGrid(rng.standard_normal((c_val, h, w))) for _ in range(t)]
    return q, mk, mv


class TestSimilarity:
    def test_known_value(self):
        assert similarity(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == -25.0

    def test_identical_is_exact_zero(self):
        v = np.array([0.3, -1.7, 2.9])
        assert similarity(v, v) == 0.0

    def test_symmetry_and_negativity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a, b = rng.standard_normal((2, 6))
            assert similarity(a, b) == similarity(b, a)
            assert similarity(a, b) <= 0.0


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
                    assert np.isclose(aff.scores[qi, ti * 4 + mi], want,
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
        assert np.allclose(np.diag(aff.scores), 0.0, atol=0.0)


class TestTopKSelect:
    def test_highest_score_wins(self):
        aff = AffinityMatrix(np.array([[-5.0, 0.0, -1.0]]), 1, 1)
        assert topk_select(aff, 1).ids[0, 0] == 1

    def test_tie_goes_to_lower_index(self):
        aff = AffinityMatrix(np.array([[0.0, 0.0, -1.0]]), 1, 1)
        assert topk_select(aff, 1).ids[0, 0] == 0

    def test_k_range_enforced(self):
        aff = AffinityMatrix(np.zeros((2, 3)), 2, 1)
        with pytest.raises(ParameterError):
            topk_select(aff, 0)
        with pytest.raises(ParameterError):
            topk_select(aff, 4)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 9))
            k = int(rng.integers(1, m + 1))
            scores = np.round(rng.standard_normal((n, m)) * 2) / 2
            got = topk_select(AffinityMatrix(scores, n, 1), k).ids
            for row in range(n):
                want = sorted(range(m), key=lambda j: (-scores[row, j], j))[:k]
                assert got[row].tolist() == want


class TestPixelMatchWeights:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(26)
        w = pixel_match_weights(rng.standard_normal((3, 4, 4)),
                                rng.standard_normal((2, 3, 4, 4)))
        assert w.shape == (16, 32)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert (w >= 0).all()

    def test_identical_patches_give_uniform_weights(self):
        const = np.zeros((3, 2, 4, 4))  # all memory pixels equal the query
        w = pixel_match_weights(np.zeros((2, 4, 4)), const)
        assert np.allclose(w, 1.0 / (3 * 16), atol=1e-12)

    def test_matches_loop_softmax(self):
        rng = np.random.default_rng(28)
        q = rng.standard_normal((2, 2, 2))
        mem = rng.standard_normal((2, 2, 2, 2))
        w = pixel_match_weights(q, mem)
        q_pix = q.transpose(1, 2, 0).reshape(4, 2)
        m_pix = mem.transpose(0, 2, 3, 1).reshape(8, 2)
        for a in range(4):
            logits = np.array([-np.sum((q_pix[a] - m_pix[b]) ** 2)
                               for b in range(8)])
            e = np.exp(logits - logits.max())
            assert np.allclose(w[a], e / e.sum(), atol=1e-12)

    def test_counter_counts_pixel_pairs(self):
        counter = OpCounter()
        pixel_match_weights(np.zeros((1, 4, 4)), np.zeros((3, 1, 4, 4)),
                            counter=counter)
        assert counter.pixel_pairs == 16 * 48

    def test_extreme_logits_stay_finite(self):
        q = np.full((1, 2, 2), 40.0)
        mem = np.zeros((1, 1, 2, 2))
        w = pixel_match_weights(q, mem)  # squared distances ~6400
        assert np.isfinite(w).all()
        assert np.allclose(w.sum(axis=1), 1.0)


class TestReadout:
    def test_convex_combination_stays_in_hull(self):
        rng = np.random.default_rng(29)
        w = pixel_match_weights(rng.standard_normal((2, 4, 4)),
                                rng.standard_normal((3, 2, 4, 4)))
        values = rng.random((3, 1, 4, 4))
        out = readout(w, values)
        assert out.min() >= values.min() - 1e-12
        assert out.max() <= values.max() + 1e-12

    def test_one_hot_weights_copy_values(self):
        p = 2
        w = np.zeros((p * p, p * p))
        np.fill_diagonal(w, 1.0)
        values = np.random.default_rng(30).standard_normal((1, 3, p, p))
        out = readout(w, values)
        assert np.allclose(out, values[0], atol=1e-12)


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

    def test_chunking_does_not_change_result(self):
        rng = np.random.default_rng(40)
        q, mk, mv = random_maps(rng, t=1, h=8, w=8)
        a = dense_readout(q, mk, mv, chunk=7)
        b = dense_readout(q, mk, mv, chunk=4096)
        assert np.allclose(a.data, b.data, atol=1e-12)


class TestFaultInjection:
    def test_flip_breaks_patch_path_only(self):
        rng = np.random.default_rng(41)
        q, mk, mv = random_maps(rng, t=2, h=6, w=6)
        clean = plmm_forward(q, mk, mv, patch=6, k=2)
        clean_dense = dense_readout(q, mk, mv)
        matcher._set_pixel_similarity_fault(True)
        try:
            faulty = plmm_forward(q, mk, mv, patch=6, k=2)
            faulty_dense = dense_readout(q, mk, mv)
        finally:
            matcher._set_pixel_similarity_fault(False)
        assert np.abs(faulty.readout.data - clean.readout.data).max() > 1e-3
        assert np.allclose(faulty_dense.data, clean_dense.data, atol=1e-12)
