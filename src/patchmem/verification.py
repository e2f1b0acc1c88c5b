"""Self-checking suites behind the ``verify`` command.

Each suite exercises one contract of the matching stack against an
independent reference: the dense softmax path, central finite differences,
brute-force sorting, or hand-counted schedules. Suites are deterministic
(fixed seeds) and cheap enough to run together in well under five minutes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartitionError
from .evalkit import PhantomSpec, gen_phantom
from .grids import FeatureGrid
from .matcher import dense_readout, plmm_backward, plmm_forward, topk_select
from .patcher import coverage_map, fold, make_layout, unfold
from .propagator import PropagationConfig, partition_regions, run_4d

# Random instances (layouts for fold-unfold) each suite checks, and the
# largest error it passes.
_ORACLE_INSTANCES, _ORACLE_TOL = 40, 1e-6
_GRADIENT_INSTANCES, _GRADIENT_TOL = 4, 1e-4
# Least denominator of the gradient check's relative error, so that an
# all-zero gradient (zero upstream) still gives a defined ratio.
_GRADIENT_CLAMP = 1e-8
_FOLD_LAYOUTS, _FOLD_TOL = 30, 1e-6
_TOPK_INSTANCES = 200


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _random_instance(rng, t, side, c_key=3, c_val=2):
    q = FeatureGrid(rng.standard_normal((c_key, side, side)))
    mk = [FeatureGrid(rng.standard_normal((c_key, side, side))) for _ in range(t)]
    mv = [FeatureGrid(rng.standard_normal((c_val, side, side))) for _ in range(t)]
    return q, mk, mv


def suite_oracle_equivalence():
    """Patch readout must equal the dense softmax readout whenever the
    patch spans the whole map and every memory patch is selected."""
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for i in range(_ORACLE_INSTANCES):
        t = int(rng.integers(1, 4))
        side = int(rng.choice([4, 6]))
        q, mk, mv = _random_instance(rng, t, side)
        res = plmm_forward(q, mk, mv, patch=side, k=t)
        ref = dense_readout(q, mk, mv)
        diff = float(np.abs(res.readout.data - ref.data).max())
        worst = max(worst, diff)
    return SuiteResult("oracle-equivalence", worst <= _ORACLE_TOL,
                       f"{_ORACLE_INSTANCES} instances, max |patch - dense| = {worst:.3e} "
                       f"(tol {_ORACLE_TOL:.0e})")


def fd_gradients(q, mk, mv, patch, k, upstream, step=1e-3):
    """Central finite differences of sum(readout * upstream) with the
    patch selection frozen at the unperturbed optimum."""
    base = plmm_forward(q, mk, mv, patch, k)
    frozen = base.topk

    def loss(q_arr, mk_arrs, mv_arrs):
        res = plmm_forward(FeatureGrid(q_arr),
                           [FeatureGrid(a) for a in mk_arrs],
                           [FeatureGrid(a) for a in mv_arrs],
                           patch, k, topk_override=frozen)
        return float(np.sum(res.readout.data * upstream))

    q_arr = q.data
    mk_arrs = [m.data for m in mk]
    mv_arrs = [m.data for m in mv]

    def fd_array(kind, ti=None):
        if kind == "q":
            target = q_arr
        elif kind == "mk":
            target = mk_arrs[ti]
        else:
            target = mv_arrs[ti]
        out = np.zeros_like(target)
        for idx in range(target.size):
            saved = target.flat[idx]
            target.flat[idx] = saved + step
            lp = loss(q_arr, mk_arrs, mv_arrs)
            target.flat[idx] = saved - step
            lm = loss(q_arr, mk_arrs, mv_arrs)
            target.flat[idx] = saved
            out.flat[idx] = (lp - lm) / (2 * step)
        return out

    fd_q = fd_array("q")
    fd_mk = [fd_array("mk", ti) for ti in range(len(mk))]
    fd_mv = [fd_array("mv", ti) for ti in range(len(mv))]
    return base, fd_q, fd_mk, fd_mv


def _max_rel_err(analytic, fd):
    """Largest deviation relative to the block's gradient magnitude.

    The denominator is the max absolute entry of either side, at least
    _GRADIENT_CLAMP. A wrong or missing term shows up at order one;
    finite-difference truncation stays several orders below the tolerance.
    """
    denom = max(float(np.abs(analytic).max()), float(np.abs(fd).max()), _GRADIENT_CLAMP)
    return float(np.abs(analytic - fd).max()) / denom


def suite_gradient_check():
    """Analytic gradients against central finite differences on small
    problems, with the top-K selection held fixed."""
    rng = np.random.default_rng(20240502)
    worst = 0.0
    for i in range(_GRADIENT_INSTANCES):
        t = 1 + i % 2
        q, mk, mv = _random_instance(rng, t, side=8, c_key=2, c_val=2)
        upstream = rng.standard_normal((2, 8, 8))
        base, fd_q, fd_mk, fd_mv = fd_gradients(q, mk, mv, patch=4, k=2,
                                                upstream=upstream)
        d_q, d_mk, d_mv = plmm_backward(q, mk, mv, 4, base.topk, upstream)
        worst = max(worst, _max_rel_err(d_q, fd_q))
        for a, f in zip(d_mk, fd_mk):
            worst = max(worst, _max_rel_err(a, f))
        for a, f in zip(d_mv, fd_mv):
            worst = max(worst, _max_rel_err(a, f))
    return SuiteResult("gradient-check", worst <= _GRADIENT_TOL,
                       f"{_GRADIENT_INSTANCES} instances, max relative error = {worst:.3e} "
                       f"(tol {_GRADIENT_TOL:.0e})")


def suite_fold_unfold():
    """Unfold then fold must reproduce any map; coverage counts must match
    first-principles overlap counting."""
    rng = np.random.default_rng(20240503)
    worst = 0.0
    checked = 0
    for _ in range(_FOLD_LAYOUTS):
        patch = int(rng.choice([2, 4, 6, 8]))
        step = patch // 2
        n_h = int(rng.integers(1, 6))
        n_w = int(rng.integers(1, 6))
        h = patch + step * (n_h - 1)
        w = patch + step * (n_w - 1)
        layout = make_layout(h, w, patch)
        grid = FeatureGrid(rng.standard_normal((3, h, w)))
        back = fold(unfold(grid, layout))
        worst = max(worst, float(np.abs(back.data - grid.data).max()))
        cov = coverage_map(layout)
        brute = np.zeros((h, w), dtype=np.int64)
        for oy, ox in layout.origins:
            brute[oy:oy + patch, ox:ox + patch] += 1
        if not np.array_equal(cov, brute):
            return SuiteResult("fold-unfold", False,
                               f"coverage mismatch at layout ({h},{w},{patch})")
        checked += 1
    return SuiteResult("fold-unfold", worst <= _FOLD_TOL,
                       f"{checked} layouts, max round-trip error = {worst:.3e} "
                       f"(tol {_FOLD_TOL:.0e})")


def suite_topk():
    """Selection must agree with a brute-force stable sort and break ties
    toward the lower memory index."""
    rng = np.random.default_rng(20240504)
    for i in range(_TOPK_INSTANCES):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 10))
        k = int(rng.integers(1, m + 1))
        # quantized scores force frequent ties
        scores = np.round(rng.standard_normal((n, m)) * 2) / 2.0
        got = topk_select(scores, k).ids
        for row in range(n):
            order = sorted(range(m), key=lambda j: (-scores[row, j], j))
            if not np.array_equal(got[row], np.array(order[:k])):
                return SuiteResult(
                    "topk", False,
                    f"instance {i} row {row}: got {got[row].tolist()}, "
                    f"want {order[:k]}")
    if topk_select(np.array([[0.0, 0.0, -1.0]]), 1).ids[0, 0] != 0:
        return SuiteResult("topk", False, "tie must resolve to the lower index")
    return SuiteResult("topk", True,
                       f"{_TOPK_INSTANCES} random instances match brute-force selection")


def suite_scheduler():
    """Region partitioning and the 4D visit schedule against hand-derived
    banks, including the deep-apex history rule."""
    part = partition_regions(9)
    if (part.basal, part.middle, part.apex) != ((0, 1, 2), (3, 4, 5), (6, 7, 8)):
        return SuiteResult("scheduler", False, f"Z=9 partition wrong: {part}")
    part10 = partition_regions(10)
    if (part10.basal, part10.middle, part10.apex) != (
            (0, 1, 2, 3), (4, 5), (6, 7, 8, 9)):
        return SuiteResult("scheduler", False, f"Z=10 partition wrong: {part10}")
    try:
        partition_regions(3, fractions=(0.45, 0.45))
        return SuiteResult("scheduler", False,
                           "Z=3 with fractions (0.45, 0.45) must fail")
    except PartitionError:
        pass

    spec = PhantomSpec(z_count=9, t_count=4, height=48, width=48,
                       lv_radius_px=8.0, myo_thickness_px=3.0,
                       rv_offset_px=12.0, noise_sigma=0.01, distractor=False)
    vol, truth = gen_phantom(spec)
    cfg = PropagationConfig(patch=6, k=2, scales=(4,))
    result = run_4d(vol, truth.labels[4, 0], cfg)
    prov = result.provenance

    expect_apex = [(4, 0), (7, 3), (8, 2)]
    if prov[(8, 3)] != expect_apex:
        return SuiteResult("scheduler", False,
                           f"apex bank for (8,3): got {prov[(8, 3)]}, "
                           f"want {expect_apex}")
    if prov[(4, 3)] != [(4, 0), (4, 2)]:
        return SuiteResult("scheduler", False,
                           f"temporal bank for (4,3): got {prov[(4, 3)]}")
    for frame, bank in prov.items():
        z, t = frame
        cap = cfg.apex_t_max if part.region_of(z) == "apex" else 2
        if len(bank) > cap:
            return SuiteResult("scheduler", False,
                               f"bank for {frame} exceeds cap {cap}: {bank}")
    expected = {(z, t) for z in range(9) for t in range(4)}
    visited = set(result.order) | {(4, 0)}
    if visited != expected or len(result.order) != len(set(result.order)):
        return SuiteResult("scheduler", False, "schedule is not a complete "
                           "single visit of every frame")
    if not np.array_equal(result.masks.labels[4, 0], truth.labels[4, 0]):
        return SuiteResult("scheduler", False,
                           "anchor output must be the seed verbatim")
    return SuiteResult("scheduler", True,
                       "partitions, banks, history caps, completeness and "
                       "anchor passthrough all verified")


SUITES = {
    "oracle-equivalence": suite_oracle_equivalence,
    "gradient-check": suite_gradient_check,
    "fold-unfold": suite_fold_unfold,
    "topk": suite_topk,
    "scheduler": suite_scheduler,
}


def run_suites(names=None):
    chosen = list(SUITES) if not names else list(names)
    results = []
    for name in chosen:
        if name not in SUITES:
            raise KeyError(name)
        results.append(SUITES[name]())
    return results
