"""Self-checking suites behind the ``verify`` command.

Each suite exercises one contract of the matching stack against an
independent reference: the dense softmax path, central finite differences,
brute-force sorting, or hand-counted schedules. Suites are deterministic
(fixed seeds). Four are acceptance criteria, which run them as they are:
oracle-equivalence is 01, gradient-check 02, fold-unfold 03, scheduler 05.
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
# largest error it passes (gradient-check passes only below its tolerance).
_ORACLE_INSTANCES, _ORACLE_TOL = 102, 1e-6
_GRADIENT_INSTANCES, _GRADIENT_TOL = 24, 1e-4
# Least denominator of the gradient check's relative error, so that an
# all-zero gradient (zero upstream) still gives a defined ratio.
_GRADIENT_CLAMP = 1e-8
_FOLD_LAYOUTS, _FOLD_TOL = 60, 1e-6
_TOPK_INSTANCES = 200
# The scheduler suite's Z -> (basal, middle, apex) slices at the default
# fractions, and hand-derived banks of its 9x10 study anchored at (4, 0):
# the anchor's own, phase steps, a slice step and deep-apex history, up to
# the last phase, so that a change to the late phases' schedule shows.
_PARTITIONS = {9: ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
               10: ((0, 1, 2, 3), (4, 5), (6, 7, 8, 9))}
_BANKS = {
    (4, 0): [],
    (4, 3): [(4, 0), (4, 2)],
    (4, 5): [(4, 0), (4, 4)],
    (4, 9): [(4, 0), (4, 8)],
    (3, 2): [(4, 0), (4, 2)],
    (8, 3): [(4, 0), (7, 3), (8, 2)],
    (8, 9): [(4, 0), (7, 9), (8, 8)],
}


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
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(_ORACLE_INSTANCES):
        t = 1 + i % 3
        side = int(rng.choice([4, 6, 8]))
        q, mk, mv = _random_instance(rng, t, side)
        res = plmm_forward(q, mk, mv, patch=side, k=t)
        ref = dense_readout(q, mk, mv)
        diff = float(np.abs(res.readout.data - ref.data).max())
        if not diff <= _ORACLE_TOL:
            return SuiteResult("oracle-equivalence", False,
                               f"instance {i}: |patch - dense| = {diff:.3e} "
                               f"(tol {_ORACLE_TOL:.0e})")
        worst = max(worst, diff)
    return SuiteResult("oracle-equivalence", True,
                       f"{_ORACLE_INSTANCES} instances, max |patch - dense| = {worst:.3e} "
                       f"(tol {_ORACLE_TOL:.0e})")


def fd_gradients(q, mk, mv, patch, k, upstream, step=1e-3):
    """Central finite differences of sum(readout * upstream) with the
    patch selection frozen at the unperturbed optimum."""
    base = plmm_forward(q, mk, mv, patch, k)
    frozen = base.topk

    # the perturbed arrays are the grids' own data, each restored after use
    arrays = [q.data, *(m.data for m in mk), *(m.data for m in mv)]
    t = len(mk)

    def loss():
        grids = [FeatureGrid(a) for a in arrays]
        res = plmm_forward(grids[0], grids[1:1 + t], grids[1 + t:], patch, k,
                           topk_override=frozen)
        return float(np.sum(res.readout.data * upstream))

    def fd_array(target):
        out = np.zeros_like(target)
        for idx in range(target.size):
            saved = target.flat[idx]
            target.flat[idx] = saved + step
            lp = loss()
            target.flat[idx] = saved - step
            lm = loss()
            target.flat[idx] = saved
            out.flat[idx] = (lp - lm) / (2 * step)
        return out

    fd_q, *fd_mem = [fd_array(a) for a in arrays]
    fd_mk, fd_mv = fd_mem[:t], fd_mem[t:]
    return base, fd_q, fd_mk, fd_mv


def max_rel_err(analytic, fd):
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
    rng = np.random.default_rng(1002)
    worst = 0.0
    for i in range(_GRADIENT_INSTANCES):
        t = 1 + i % 2
        q, mk, mv = _random_instance(rng, t, side=8, c_key=2, c_val=2)
        upstream = rng.standard_normal((2, 8, 8))
        base, fd_q, fd_mk, fd_mv = fd_gradients(q, mk, mv, patch=4, k=2,
                                                upstream=upstream)
        d_q, d_mk, d_mv = plmm_backward(q, mk, mv, 4, base.topk, upstream)
        err = float(np.max([max_rel_err(a, f) for a, f in
                            zip([d_q, *d_mk, *d_mv], [fd_q, *fd_mk, *fd_mv])]))
        if not err < _GRADIENT_TOL:
            return SuiteResult("gradient-check", False,
                               f"instance {i}: relative error = {err:.3e} "
                               f"(tol {_GRADIENT_TOL:.0e})")
        worst = max(worst, err)
    return SuiteResult("gradient-check", True,
                       f"{_GRADIENT_INSTANCES} instances, max relative error = {worst:.3e} "
                       f"(tol {_GRADIENT_TOL:.0e})")


def suite_fold_unfold():
    """Unfold then fold must reproduce any map; coverage counts must match
    first-principles overlap counting."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    for i in range(_FOLD_LAYOUTS):
        patch = int(rng.choice([2, 4, 6, 8]))
        step = patch // 2
        h = patch + step * int(rng.integers(0, 6))
        w = patch + step * int(rng.integers(0, 6))
        layout = make_layout(h, w, patch)
        grid = FeatureGrid(rng.standard_normal((int(rng.integers(1, 4)), h, w)))
        brute = np.zeros((h, w), dtype=np.int64)
        for oy, ox in layout.origins:
            brute[oy:oy + patch, ox:ox + patch] += 1
        if not np.array_equal(coverage_map(layout), brute):
            return SuiteResult("fold-unfold", False,
                               f"layout {i} ({h},{w},{patch}): coverage mismatch")
        diff = float(np.abs(fold(unfold(grid, layout)).data - grid.data).max())
        if not diff <= _FOLD_TOL:
            return SuiteResult("fold-unfold", False,
                               f"layout {i} ({h},{w},{patch}): round-trip error = "
                               f"{diff:.3e} (tol {_FOLD_TOL:.0e})")
        worst = max(worst, diff)
    return SuiteResult("fold-unfold", True,
                       f"{_FOLD_LAYOUTS} layouts, max round-trip error = {worst:.3e} "
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
    for z_count, want in _PARTITIONS.items():
        part = partition_regions(z_count)
        if (part.basal, part.middle, part.apex) != want:
            return SuiteResult("scheduler", False, f"Z={z_count} partition wrong: {part}")
    try:
        partition_regions(3, fractions=(0.45, 0.45))
        return SuiteResult("scheduler", False, "Z=3 with fractions (0.45, 0.45) must fail")
    except PartitionError:
        pass

    spec = PhantomSpec(z_count=9, t_count=10, height=48, width=48,
                       lv_radius_px=8.0, myo_thickness_px=3.0,
                       rv_offset_px=12.0, noise_sigma=0.01, distractor=False, seed=5)
    vol, truth = gen_phantom(spec)
    result = run_4d(vol, truth.labels[4, 0], PropagationConfig(patch=6, k=2, scales=(4,)))
    prov = result.provenance

    for frame, want in _BANKS.items():
        if prov.get(frame) != want:
            return SuiteResult("scheduler", False,
                               f"bank for {frame}: got {prov.get(frame)}, want {want}")
    for frame, bank in prov.items():
        cap = 3 if frame[0] in _PARTITIONS[9][2] else 2  # the apex of Z=9 keeps history
        if len(bank) > cap:
            return SuiteResult("scheduler", False,
                               f"bank for {frame} exceeds cap {cap}: {bank}")
    # provenance holds one entry per segmented frame
    if set(prov) != {(z, t) for z in range(9) for t in range(10)}:
        return SuiteResult("scheduler", False, "schedule is not one visit of every frame")
    if not np.array_equal(result.masks.labels[4, 0], truth.labels[4, 0]):
        return SuiteResult("scheduler", False, "anchor output must be the seed verbatim")
    return SuiteResult("scheduler", True,
                       f"9x10 study, {len(prov)} frames: partitions, {len(_BANKS)} banks, "
                       "history caps 2/3, completeness and anchor passthrough verified")


SUITES = {
    "oracle-equivalence": suite_oracle_equivalence,
    "gradient-check": suite_gradient_check,
    "fold-unfold": suite_fold_unfold,
    "topk": suite_topk,
    "scheduler": suite_scheduler,
}
