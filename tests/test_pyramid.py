"""Two-scale congruence and top-K transfer."""

import numpy as np
import pytest

from patchmem import matcher
from patchmem.errors import LayoutError, ParameterError
from patchmem.grids import FeatureGrid
from patchmem.matcher import OpCounter, TopKIndex, plmm_forward
from patchmem.patcher import make_layout
from patchmem.pyramid import lift_topk, match_multiscale


def random_pyramid(rng, h4, w4, channels=3):
    return {4: FeatureGrid(rng.standard_normal((channels, h4, w4))),
            3: FeatureGrid(rng.standard_normal((channels, 2 * h4, 2 * w4)))}


def pyramid_set(rng, t, h4, w4, c_key=3, c_val=2):
    query = random_pyramid(rng, h4, w4, c_key)
    mem_k = [random_pyramid(rng, h4, w4, c_key) for _ in range(t)]
    mem_v = [random_pyramid(rng, h4, w4, c_val) for _ in range(t)]
    return query, mem_k, mem_v


class TestPyramidTypes:
    def test_dims_must_double(self):
        # scale-3 grids that are not the scale-4 grids doubled have no
        # layout congruent to scale 4's, so the top-K cannot be lifted
        rng = np.random.default_rng(60)
        for h3, w3 in ((12, 11), (16, 16)):
            def pyramid(channels):
                return {4: FeatureGrid(rng.standard_normal((channels, 6, 6))),
                        3: FeatureGrid(rng.standard_normal((channels, h3, w3)))}
            with pytest.raises(LayoutError):
                match_multiscale(pyramid(3), [pyramid(3)], [pyramid(2)], p4=4, k=1)

    def test_scale_pair_pins_double_patch(self):
        # same patch count at both scales, so only the patch size differs
        topk = TopKIndex(ids=np.zeros((4, 1), dtype=np.intp), k=1)
        layout4 = make_layout(9, 9, 6)
        assert lift_topk(topk, layout4, make_layout(18, 18, 12)).k == 1
        with pytest.raises(LayoutError, match="not twice"):
            lift_topk(topk, layout4, make_layout(15, 15, 10))


class TestLiftTopk:
    def test_ids_copied_verbatim(self):
        rng = np.random.default_rng(61)
        q, mk, mv = pyramid_set(rng, t=2, h4=9, w4=9)
        res4 = plmm_forward(q[4], [m[4] for m in mk], [m[4] for m in mv], patch=6, k=3)
        layout4 = make_layout(9, 9, 6)
        layout3 = make_layout(18, 18, 12)
        lifted = lift_topk(res4.topk, layout4, layout3)
        assert lifted is res4.topk

    def test_congruence_checked(self):
        rng = np.random.default_rng(62)
        q, mk, mv = pyramid_set(rng, t=1, h4=9, w4=9)
        res4 = plmm_forward(q[4], [m[4] for m in mk], [m[4] for m in mv], patch=6, k=2)
        layout4 = make_layout(9, 9, 6)
        with pytest.raises(LayoutError):
            lift_topk(res4.topk, layout4, make_layout(24, 24, 12))
        with pytest.raises(LayoutError):
            lift_topk(res4.topk, layout4, make_layout(18, 18, 6))

    def test_origins_double_exhaustively_small(self):
        for patch in (2, 4, 6):
            step = patch // 2
            for n in range(1, 6):
                side = patch + step * (n - 1)
                layout4 = make_layout(side, side, patch)
                layout3 = make_layout(2 * side, 2 * side, 2 * patch)
                assert layout3.n_patches == layout4.n_patches
                assert np.array_equal(layout3.origins, 2 * layout4.origins)


class TestMatchMultiscale:
    def test_no_scale3_affinity_counted(self):
        rng = np.random.default_rng(63)
        q, mk, mv = pyramid_set(rng, t=2, h4=9, w4=9)
        counter = OpCounter()
        match_multiscale(q, mk, mv, p4=6, k=2, counter=counter)
        n = make_layout(9, 9, 6).n_patches
        assert counter.patch_pairs == 2 * n * n  # scale 4 only
        # pixel pairs accumulate at both scales
        assert counter.pixel_pairs == n * 2 * (36 ** 2) + n * 2 * (144 ** 2)

    def test_scale3_uses_lifted_selection(self):
        rng = np.random.default_rng(64)
        q, mk, mv = pyramid_set(rng, t=2, h4=9, w4=9)
        ms = match_multiscale(q, mk, mv, p4=6, k=2)
        assert sorted(ms) == [3, 4]
        own3 = plmm_forward(q[3], [m[3] for m in mk], [m[3] for m in mv], patch=12, k=2,
                            topk_override=None)
        # the scale-3 readout must come from the scale-4 table, which in
        # general differs from what a scale-3 affinity pass would select
        topk4 = plmm_forward(q[4], [m[4] for m in mk], [m[4] for m in mv], patch=6, k=2).topk
        lifted = plmm_forward(q[3], [m[3] for m in mk], [m[3] for m in mv], patch=12, k=2,
                              topk_override=topk4)
        assert np.allclose(ms[3].data, lifted.readout.data, atol=1e-12)
        assert ms[3].data.shape == (2, 18, 18)
        assert ms[4].data.shape == (2, 9, 9)
        # own-selection readout exists but is not what multiscale returns
        assert own3.readout.data.shape == ms[3].data.shape

    def test_readouts_match_single_scale_calls(self):
        rng = np.random.default_rng(65)
        q, mk, mv = pyramid_set(rng, t=1, h4=6, w4=6)
        ms = match_multiscale(q, mk, mv, p4=4, k=1)
        res4 = plmm_forward(q[4], [m[4] for m in mk], [m[4] for m in mv], patch=4, k=1)
        assert np.allclose(ms[4].data, res4.readout.data, atol=1e-12)

    def test_cell_pair_tables_built_once(self, monkeypatch):
        rng = np.random.default_rng(67)
        q, mk, mv = pyramid_set(rng, t=2, h4=9, w4=9)
        built = []
        original = matcher._cell_pairs

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(matcher, "_cell_pairs", counted)
        ms = match_multiscale(q, mk, mv, p4=6, k=2)
        assert len(built) == 1
        # a fresh table of the same ids builds its own tables: same readout, bit for bit
        topk4 = plmm_forward(q[4], [m[4] for m in mk], [m[4] for m in mv], patch=6, k=2).topk
        built.clear()
        fresh = plmm_forward(q[3], [m[3] for m in mk], [m[3] for m in mv],
                             patch=12, k=2, topk_override=TopKIndex(ids=topk4.ids.copy(), k=2))
        assert len(built) == 1
        assert np.array_equal(ms[3].data, fresh.readout.data)

    def test_parallel_lists_required(self):
        rng = np.random.default_rng(66)
        q, mk, mv = pyramid_set(rng, t=2, h4=6, w4=6)
        with pytest.raises(ParameterError):
            match_multiscale(q, mk, mv[:1], p4=4, k=1)
