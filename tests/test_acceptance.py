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
from patchmem.patcher import make_layout
from patchmem.propagator import PropagationConfig, partition_regions, run_4d
from patchmem.verification import (
    suite_fold_unfold,
    suite_gradient_check,
    suite_oracle_equivalence,
    suite_scheduler,
)

# Regression floor for the dynamic-phantom runs, pinned from the first
# dense-oracle result (0.8911 whole-heart mean Dice) with slack for BLAS
# variation across platforms. Do not lower this to make a failing run pass.
DYNAMIC_DICE_FLOOR = 0.89


def _report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def _report_suite(tag, suite, budget_s=None):
    """A criterion that is one of the ``verify`` suites, within its budget."""
    start = time.perf_counter()
    result = suite()
    elapsed = time.perf_counter() - start
    if budget_s is None:
        _report(tag, result.passed, result.detail)
    else:
        _report(tag, result.passed and elapsed < budget_s,
                f"{result.detail}, {elapsed:.1f} s < {budget_s:.0f} s")


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
    _report_suite("criterion 01 oracle equivalence", suite_oracle_equivalence,
                  budget_s=30.0)


def test_criterion_02_gradient_fidelity():
    _report_suite("criterion 02 gradient fidelity", suite_gradient_check,
                  budget_s=60.0)


def test_criterion_03_fold_unfold_round_trip():
    _report_suite("criterion 03 fold/unfold round trip", suite_fold_unfold)


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
    _report_suite("criterion 05 scheduler conformance", suite_scheduler)


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
    dice_ok = dice(truth.labels, truth.labels, (1, 2, 3)).tolist() == [1.0, 1.0, 1.0]
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
        "dice identity": dice(square, square, (1,)).tolist() == [1.0],
        "dice disjoint": dice(square, disjoint, (1,)).tolist() == [0.0],
        "dice half overlap": dice(square, shifted, (1,)).tolist() == [0.5],
        "dice both empty": dice(empty, empty, (1,)).tolist() == [1.0],
        "dice one empty": dice(square, empty, (1,)).tolist() == [0.0],
        "hd95 identity": hd95(square, square, (1,)).tolist() == [0.0],
        "hd95 five px at 1.5 mm": hd95(pix_a, pix_b, (1,),
                                       spacing_mm=(1.5, 1.5)).tolist() == [7.5],
        "hd95 empty undefined": np.isnan(hd95(square, empty, (1,))).tolist() == [True],
    }
    failed = [name for name, good in checks.items() if not good]
    _report("criterion 10 metric unit values", not failed,
            "all frozen examples exact" if not failed
            else f"failed: {', '.join(failed)}")
