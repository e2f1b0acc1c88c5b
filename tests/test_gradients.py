"""Analytic gradients of the patch-matching pass against finite differences.

The oracle is ``verification.fd_gradients``, the one behind ``verify`` and
acceptance criterion 02. It re-derives every gradient numerically: perturb
one input entry, rerun the forward pass with the top-K selection frozen,
and difference the scalar loss sum(readout * upstream). Selection indices
and coverage counts are constants of the backward pass by contract.
"""

import numpy as np
import pytest

from patchmem.errors import DimensionError, ParameterError
from patchmem.grids import FeatureGrid
from patchmem.matcher import TopKIndex, plmm_backward, plmm_forward
from patchmem.patcher import make_layout
from patchmem.verification import fd_gradients, max_rel_err

TOL = 1e-4


def make_instance(rng, t, h=8, w=8, c_key=2, c_val=2):
    q = FeatureGrid(rng.standard_normal((c_key, h, w)))
    mk = [FeatureGrid(rng.standard_normal((c_key, h, w))) for _ in range(t)]
    mv = [FeatureGrid(rng.standard_normal((c_val, h, w))) for _ in range(t)]
    return q, mk, mv


class TestAgainstFiniteDifferences:
    def test_small_instances(self):
        rng = np.random.default_rng(51)
        errs = []
        for i in range(6):
            t = 1 + i % 2
            q, mk, mv = make_instance(rng, t)
            upstream = rng.standard_normal((2, 8, 8))
            base, fd_q, fd_mk, fd_mv = fd_gradients(
                q, mk, mv, patch=4, k=2, upstream=upstream)
            d_q, d_mk, d_mv = plmm_backward(q, mk, mv, 4, base.topk, upstream)
            errs += [max_rel_err(a, f) for a, f in
                     zip([d_q, *d_mk, *d_mv], [fd_q, *fd_mk, *fd_mv])]
        assert all(e < TOL for e in errs)

    def test_single_patch_case(self):
        # P = H = W collapses fold to the identity, isolating the
        # softmax/similarity adjoints
        rng = np.random.default_rng(52)
        q, mk, mv = make_instance(rng, t=2, h=4, w=4)
        upstream = rng.standard_normal((2, 4, 4))
        base, fd_q, fd_mk, fd_mv = fd_gradients(
            q, mk, mv, patch=4, k=2, upstream=upstream)
        d_q, d_mk, d_mv = plmm_backward(q, mk, mv, 4, base.topk, upstream)
        for a, f in zip([d_q, *d_mk, *d_mv], [fd_q, *fd_mk, *fd_mv]):
            assert max_rel_err(a, f) < TOL


class TestStructuralProperties:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(53)
        q, mk, mv = make_instance(rng, t=2)
        res = plmm_forward(q, mk, mv, 4, 2)
        d_q, d_mk, d_mv = plmm_backward(q, mk, mv, 4, res.topk, np.zeros((2, 8, 8)))
        assert not d_q.any()
        assert not any(a.any() for a in d_mk)
        assert not any(a.any() for a in d_mv)

    def test_unselected_memory_pixels_get_zero_gradient(self):
        rng = np.random.default_rng(54)
        q, mk, mv = make_instance(rng, t=2)
        res = plmm_forward(q, mk, mv, 4, 2)
        upstream = rng.standard_normal((2, 8, 8))
        d_q, d_mk, d_mv = plmm_backward(q, mk, mv, 4, res.topk, upstream)

        layout = make_layout(8, 8, 4)
        n = layout.n_patches
        touched = [np.zeros((8, 8), dtype=bool) for _ in range(2)]
        for row in res.topk.ids:
            for flat in row:
                ti, mi = divmod(int(flat), n)
                oy, ox = layout.origins[mi]
                touched[ti][oy:oy + 4, ox:ox + 4] = True
        for ti in range(2):
            outside = ~touched[ti]
            assert not d_mk[ti][:, outside].any()
            assert not d_mv[ti][:, outside].any()

    def test_value_gradient_is_weight_scatter(self):
        # values enter linearly, so their gradient is exact even against a
        # numeric check with a large step
        rng = np.random.default_rng(55)
        q, mk, mv = make_instance(rng, t=1)
        upstream = rng.standard_normal((2, 8, 8))
        base, _, _, fd_mv = fd_gradients(q, mk, mv, 4, 2, upstream, step=1e-1)
        _, _, d_mv = plmm_backward(q, mk, mv, 4, base.topk, upstream)
        for a, f in zip(d_mv, fd_mv):
            assert np.allclose(a, f, atol=1e-9)

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(57)
        q, mk, mv = make_instance(rng, t=1)
        res = plmm_forward(q, mk, mv, 4, 2)
        with pytest.raises(DimensionError):
            plmm_backward(q, mk, mv, 4, res.topk, np.zeros((2, 8, 7)))

    def test_topk_table_checked(self):
        rng = np.random.default_rng(59)
        q, mk, mv = make_instance(rng, t=1)
        upstream = np.zeros((2, 8, 8))
        with pytest.raises(DimensionError):
            plmm_backward(q, mk, mv, 4, TopKIndex(ids=np.zeros((8, 2), dtype=np.intp), k=2),
                          upstream)
        with pytest.raises(ParameterError):
            plmm_backward(q, mk, mv, 4, TopKIndex(ids=np.full((9, 2), 9, dtype=np.intp), k=2),
                          upstream)

    def test_gradient_shapes(self):
        rng = np.random.default_rng(58)
        q, mk, mv = make_instance(rng, t=2, c_key=3, c_val=4)
        res = plmm_forward(q, mk, mv, 4, 2)
        d_q, d_mk, d_mv = plmm_backward(q, mk, mv, 4, res.topk,
                                        rng.standard_normal((4, 8, 8)))
        assert d_q.shape == (3, 8, 8)
        assert all(a.shape == (3, 8, 8) for a in d_mk)
        assert all(a.shape == (4, 8, 8) for a in d_mv)
