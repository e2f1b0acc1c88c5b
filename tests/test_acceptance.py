"""Acceptance suite: every shipped guarantee, one test and one line each.

Each test prints a single summary line (shown with -s; the pytest -v
listing itself is the pass/fail record) and enforces the pinned tolerance
and runtime budget for its property.
"""

import time

import numpy as np

from patchmem.evalkit import (
    PhantomSpec,
    check_complexity,
    default_bench_grid,
    dice,
    gen_phantom,
    hd95,
    report_by_region,
)
from patchmem.featurizer import EncoderConfig
from patchmem.grids import FeatureGrid
from patchmem.matcher import dense_readout, plmm_backward, plmm_forward
from patchmem.patcher import fold, make_layout, unfold
from patchmem.propagator import PropagationConfig, partition_regions, run_4d
from patchmem.verification import _max_rel_err, fd_gradients

# Regression floor for the dynamic-phantom runs, pinned from the first
# dense-oracle result (0.8911 whole-heart mean Dice) with slack for BLAS
# variation across platforms. Do not lower this to make a failing run pass.
DYNAMIC_DICE_FLOOR = 0.89


def _report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def small_geometry(**overrides):
    base = dict(height=48, width=48, lv_radius_px=8.0, myo_thickness_px=3.0,
                rv_offset_px=12.0)
    base.update(overrides)
    return PhantomSpec(**base)


def whole_avg(report):
    """The whole-heart class-average row of a MetricsReport."""
    (row,) = [r for r in report.rows if (r.region, r.class_label) == ("whole", "Avg")]
    return row


def whole_avg_dice(masks, truth):
    part = partition_regions(truth.z_count)
    return whole_avg(report_by_region(masks, truth, part)).dice


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    instances = 102
    for i in range(instances):
        t = 1 + i % 3
        side = int(rng.choice([4, 6, 8]))
        q = FeatureGrid(rng.standard_normal((3, side, side)))
        mk = [FeatureGrid(rng.standard_normal((3, side, side)))
              for _ in range(t)]
        mv = [FeatureGrid(rng.standard_normal((2, side, side)))
              for _ in range(t)]
        got = plmm_forward(q, mk, mv, patch=side, k=t).readout
        want = dense_readout(q, mk, mv)
        worst = max(worst, float(np.abs(got.data - want.data).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _report("criterion 01 oracle equivalence", ok,
            f"{instances} instances, max |patch - dense| = {worst:.2e} "
            f"<= 1e-6, {elapsed:.1f} s < 30 s")


def test_criterion_02_gradient_fidelity():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    instances = 24
    for i in range(instances):
        t = 1 + i % 2
        q = FeatureGrid(rng.standard_normal((2, 8, 8)))
        mk = [FeatureGrid(rng.standard_normal((2, 8, 8))) for _ in range(t)]
        mv = [FeatureGrid(rng.standard_normal((2, 8, 8))) for _ in range(t)]
        upstream = rng.standard_normal((2, 8, 8))
        base, fd_q, fd_mk, fd_mv = fd_gradients(q, mk, mv, patch=4, k=2,
                                                upstream=upstream, step=1e-3)
        d_q, d_mk, d_mv = plmm_backward(q, mk, mv, 4, base.topk, upstream)
        worst = max(worst, _max_rel_err(d_q, fd_q))
        for a, f in zip(d_mk, fd_mk):
            worst = max(worst, _max_rel_err(a, f))
        for a, f in zip(d_mv, fd_mv):
            worst = max(worst, _max_rel_err(a, f))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    _report("criterion 02 gradient fidelity", ok,
            f"{instances} instances, max relative error = {worst:.2e} "
            f"< 1e-4, {elapsed:.1f} s < 60 s")


def test_criterion_03_fold_unfold_round_trip():
    rng = np.random.default_rng(1003)
    worst = 0.0
    layouts = 60
    for _ in range(layouts):
        patch = int(rng.choice([2, 4, 6, 8]))
        step = patch // 2
        h = patch + step * int(rng.integers(0, 6))
        w = patch + step * int(rng.integers(0, 6))
        layout = make_layout(h, w, patch)
        grid = FeatureGrid(rng.standard_normal((int(rng.integers(1, 4)), h, w)))
        back = fold(unfold(grid, layout))
        worst = max(worst, float(np.abs(back.data - grid.data).max()))
    ok = worst <= 1e-6
    _report("criterion 03 fold/unfold round trip", ok,
            f"{layouts} layouts, max |fold(unfold(x)) - x| = {worst:.2e} <= 1e-6")


def test_criterion_04_complexity_exactness():
    report = check_complexity(default_bench_grid(), reps=3)
    mismatched = [r for r in report.rows if not r.counts_match]
    anchor = next(r for r in report.rows
                  if (r.t, r.h, r.w, r.patch, r.k, r.scale) == (2, 24, 24, 6, 4, 4))
    frozen_ok = (anchor.measured_patch_pairs == 4802
                 and anchor.measured_pixel_pairs == 254016
                 and anchor.measured_dense_pairs == 663552)
    timing_rows = [r for r in report.rows
                   if r.scale == 4 and r.h >= 48 and r.w >= 48 and r.t >= 2]
    slow = [r for r in timing_rows if not r.plmm_ms < r.dense_ms]
    ok = not mismatched and frozen_ok and len(timing_rows) >= 3 and not slow
    timings = ", ".join(f"{r.h}x{r.w} T={r.t}: {r.plmm_ms:.1f}/{r.dense_ms:.1f} ms"
                        for r in timing_rows)
    _report("criterion 04 complexity exactness", ok,
            f"{len(report.rows)} rows all exact, frozen counts "
            f"4802/254016/663552, patch beats dense at {timings}")


def test_criterion_05_scheduler_conformance():
    spec = small_geometry(z_count=9, t_count=10, noise_sigma=0.01,
                          distractor=False, seed=5)
    volume, truth = gen_phantom(spec)
    cfg = PropagationConfig(patch=6, k=2, scales=(4,))
    result = run_4d(volume, truth.labels[4, 0], cfg)

    every_frame = {(z, t) for z in range(9) for t in range(10)}
    order = list(result.provenance)
    once = set(order) == every_frame and len(order) == len(every_frame)
    apex = partition_regions(9).apex
    caps_ok = all(len(bank) <= (3 if z in apex else 2)
                  for (z, t), bank in result.provenance.items())
    spot_ok = (result.provenance[(8, 3)] == [(4, 0), (7, 3), (8, 2)]
               and result.provenance[(4, 0)] == []
               and result.provenance[(4, 5)] == [(4, 0), (4, 4)]
               and result.provenance[(3, 2)] == [(4, 0), (4, 2)])
    ok = once and caps_ok and spot_ok
    _report("criterion 05 scheduler conformance", ok,
            f"90 frames each segmented once={once}, bank caps 2/3={caps_ok}, "
            f"spot-checked banks={spot_ok}, (8,3) saw "
            f"{result.provenance[(8, 3)]}")


def test_criterion_06_static_fixed_point():
    spec = small_geometry(z_count=5, t_count=4, contraction_frac=0.0,
                          longaxis_shorten_frac=0.0, noise_sigma=0.0,
                          distractor=False, seed=0)
    volume, truth = gen_phantom(spec)
    seed_mask = truth.labels[2, 0]
    flips = {}
    for matcher in ("plmm", "dense"):
        cfg = PropagationConfig(matcher=matcher, working_side=384,
                                encoder=EncoderConfig(key_channels=128))
        result = run_4d(volume, seed_mask, cfg)
        flips[matcher] = int((result.masks.labels != seed_mask).sum())
    dice_ok = all(dice(truth.labels, truth.labels, c) == 1.0 for c in (1, 2, 3))
    ok = flips["plmm"] == 0 and flips["dense"] == 0 and dice_ok
    _report("criterion 06 static fixed point", ok,
            f"mismatched voxels plmm={flips['plmm']} dense={flips['dense']} "
            f"(Dice exactly 1.0 everywhere)")


def test_criterion_07_dynamic_phantom_quality():
    start = time.perf_counter()
    volume, truth = gen_phantom(PhantomSpec())
    seed_mask = truth.labels[4, 0]
    scores = {}
    for matcher in ("dense", "plmm"):
        cfg = PropagationConfig(matcher=matcher, working_side=288,
                                encoder=EncoderConfig(key_channels=64))
        result = run_4d(volume, seed_mask, cfg)
        scores[matcher] = whole_avg_dice(result.masks, truth)
    elapsed = time.perf_counter() - start
    gap = abs(scores["plmm"] - scores["dense"])
    ok = (scores["dense"] >= DYNAMIC_DICE_FLOOR
          and scores["plmm"] >= DYNAMIC_DICE_FLOOR
          and gap <= 0.02 and elapsed < 300.0)
    _report("criterion 07 dynamic phantom quality", ok,
            f"whole-heart mean Dice dense={scores['dense']:.4f} "
            f"plmm={scores['plmm']:.4f} (floor {DYNAMIC_DICE_FLOOR}), "
            f"gap={gap:.4f} <= 0.02, {elapsed:.0f} s < 300 s")


def test_criterion_08_ablation_structure(tmp_path):
    spec = small_geometry(z_count=5, t_count=3, noise_sigma=0.02,
                          distractor=True, seed=8)
    volume, truth = gen_phantom(spec)
    seed_mask = truth.labels[2, 0]
    part = partition_regions(5)

    arms = []
    for scales in [(3,), (4,), (3, 4)]:
        tag = "scales-" + "".join(str(s) for s in scales)
        arms.append((tag, dict(scales=scales)))
    for k in [1, 2, 4, 6]:
        arms.append((f"k-{k}", dict(k=k)))
    for patch in [2, 4, 6, 8]:
        arms.append((f"patch-{patch}", dict(patch=patch)))
    for mode in ["both", "spatial-only", "temporal-only"]:
        arms.append((f"continuity-{mode}", dict(continuity_mode=mode)))
    for cap in [2, 3, 5]:
        arms.append((f"apex-t-max-{cap}", dict(apex_t_max=cap)))
    assert len(arms) == 17

    # one working resolution whose stride-16 grid (12) every patch size in
    # the sweep tiles, so the arms stay comparable
    base = dict(patch=6, k=2, scales=(3, 4), working_side=192)
    observations = []
    for tag, overrides in arms:
        cfg = PropagationConfig(**{**base, **overrides})
        result = run_4d(volume, seed_mask, cfg)
        report = report_by_region(result.masks, truth, part, method=tag)
        out = tmp_path / f"ablation-{tag}.csv"
        report.to_csv(out)
        observations.append((tag, whole_avg(report).dice))

    written = sorted(tmp_path.glob("ablation-*.csv"))
    rows_ok = all(len(p.read_text().strip().splitlines()) == 17
                  for p in written)
    # directional readings are reported for inspection, not asserted
    for tag, score in observations:
        print(f"  ablation {tag}: whole-heart mean Dice {score:.4f}")
    ok = len(written) == 17 and rows_ok
    _report("criterion 08 ablation structure", ok,
            f"17 arms ran, {len(written)} per-arm CSVs of 16 metric rows each")


def test_criterion_09_cross_scale_congruence():
    checked = 0
    for patch in range(2, 97, 2):
        step = patch // 2
        sides = range(patch, 97, step)
        for h in sides:
            for w in sides:
                coarse = make_layout(h, w, patch)
                fine = make_layout(2 * h, 2 * w, 2 * patch)
                assert fine.n_patches == coarse.n_patches, (h, w, patch)
                assert np.array_equal(fine.origins, 2 * coarse.origins), \
                    (h, w, patch)
                checked += 1
    ok = checked >= 10000
    _report("criterion 09 cross-scale congruence", ok,
            f"{checked} admissible (H, W, P) combos with H, W <= 96: "
            f"origins double and patch counts match")


def test_criterion_10_metric_unit_values():
    square = np.zeros((8, 8), dtype=np.uint8)
    square[2:4, 2:4] = 1
    shifted = np.zeros((8, 8), dtype=np.uint8)
    shifted[2:4, 3:5] = 1  # overlap 2, sizes 4 and 4
    disjoint = np.zeros((8, 8), dtype=np.uint8)
    disjoint[6:8, 6:8] = 1
    empty = np.zeros((8, 8), dtype=np.uint8)
    pix_a = np.zeros((8, 8), dtype=np.uint8)
    pix_b = np.zeros((8, 8), dtype=np.uint8)
    pix_a[1, 1] = 1
    pix_b[1, 6] = 1  # 5 px apart along one axis

    checks = {
        "dice identity": dice(square, square, 1) == 1.0,
        "dice disjoint": dice(square, disjoint, 1) == 0.0,
        "dice half overlap": dice(square, shifted, 1) == 0.5,
        "dice both empty": dice(empty, empty, 1) == 1.0,
        "dice one empty": dice(square, empty, 1) == 0.0,
        "hd95 identity": hd95(square, square, 1) == 0.0,
        "hd95 five px at 1.5 mm": hd95(pix_a, pix_b, 1,
                                       spacing_mm=(1.5, 1.5)) == 7.5,
        "hd95 empty undefined": hd95(square, empty, 1) is None,
    }
    failed = [name for name, good in checks.items() if not good]
    _report("criterion 10 metric unit values", not failed,
            "all frozen examples exact" if not failed
            else f"failed: {', '.join(failed)}")
