"""Overlap metrics, the analytic phantom, and complexity accounting."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from patchmem import evalkit
from patchmem.errors import DimensionError, ParameterError, PhantomSpecError
from patchmem.evalkit import (
    BenchConfig,
    PhantomSpec,
    _edges,
    check_complexity,
    dice,
    gen_phantom,
    hd95,
    report_by_region,
)
from patchmem.grids import LabelVolume
from patchmem.propagator import partition_regions


def report_row(report, region, class_label):
    """The one row of a MetricsReport for this region and class."""
    (row,) = [r for r in report.rows if (r.region, r.class_label) == (region, class_label)]
    return row


def random_blob_pair(rng, h=24, w=24):
    """Two overlapping-ish random discs as label maps with class 1."""
    def blob():
        cy, cx = rng.uniform(6, h - 6), rng.uniform(6, w - 6)
        r = rng.uniform(2.5, 5.5)
        yy, xx = np.mgrid[0:h, 0:w]
        out = np.zeros((h, w), dtype=np.uint8)
        out[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = 1
        return out
    return blob(), blob()


def boundary_loops(mask):
    h, w = mask.shape
    out = np.zeros_like(mask, dtype=bool)
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ny, nx = y + dy, x + dx
                if not (0 <= ny < h and 0 <= nx < w) or not mask[ny, nx]:
                    out[y, x] = True
                    break
    return out


def hd95_loops(pred, truth, label, spacing):
    """HD95 by Python loops over one frame; NaN if either mask is empty."""
    if not (pred == label).any() or not (truth == label).any():
        return math.nan
    a = boundary_loops(pred == label)
    b = boundary_loops(truth == label)
    pa = [(y * spacing[0], x * spacing[1]) for y, x in np.argwhere(a)]
    pb = [(y * spacing[0], x * spacing[1]) for y, x in np.argwhere(b)]
    pooled = []
    for src, dst in ((pa, pb), (pb, pa)):
        for sy, sx in src:
            pooled.append(min(math.hypot(sy - dy, sx - dx) for dy, dx in dst))
    pooled.sort()
    return pooled[math.ceil(0.95 * len(pooled)) - 1]


class TestDice:
    def test_hand_computed(self):
        pred = np.array([[1, 1, 0], [0, 1, 0]])
        truth = np.array([[1, 0, 0], [0, 1, 1]])
        # classes 1 and 0 overlap in 2 pixels of 3 and 3; class 2 is absent
        got = dice(pred, truth, (1, 0, 2))
        assert got.dtype == np.float64 and got.shape == (3,)
        assert got.tolist() == pytest.approx([2 * 2 / 6, 2 * 2 / 6, 1.0])
        # a stack pools its frames: overlap 4 of 6 and 6
        assert dice(np.stack([pred, pred]), np.stack([truth, truth]), (1,)).tolist() \
            == pytest.approx([2 * 4 / 12])
        assert dice(pred, truth, ()).shape == (0,)

    def test_empty_conventions(self):
        empty = np.zeros((4, 4), dtype=np.uint8)
        full = np.ones((4, 4), dtype=np.uint8)
        assert dice(empty, empty, (1,)).tolist() == [1.0]
        # class 0 fills one side, class 1 the other, class 2 neither
        assert dice(full, empty, (0, 1, 2)).tolist() == [0.0, 0.0, 1.0]
        assert dice(empty, full, (0, 1, 2)).tolist() == [0.0, 0.0, 1.0]

    def test_symmetric(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            a, b = random_blob_pair(rng)
            assert np.array_equal(dice(a, b, (0, 1)), dice(b, a, (0, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dice(np.zeros((3, 3)), np.zeros((3, 4)), (1,))
        with pytest.raises(DimensionError):
            dice(np.zeros(3), np.zeros(3), (1,))
        for classes in (1, [[1]]):
            with pytest.raises(ParameterError):
                dice(np.zeros((3, 3)), np.zeros((3, 3)), classes)


def class_boundary(labels, c):
    """Class c's boundary pixels in an (F, H, W) label stack, from hd95's
    edge pass."""
    return _edges(labels) & (labels == c)


class TestBoundary:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(81)
        for _ in range(30):
            labels = rng.integers(0, 4, size=(2, 12, 14))
            for c in range(4):
                got = class_boundary(labels, c)
                for f in range(len(labels)):
                    assert np.array_equal(got[f], boundary_loops(labels[f] == c))

    def test_border_touching_mask(self):
        labels = np.ones((1, 5, 5), dtype=np.uint8)
        want = np.ones((5, 5), dtype=bool)
        want[1:4, 1:4] = False
        assert np.array_equal(class_boundary(labels, 1)[0], want)
        assert not class_boundary(labels, 0).any()

    def test_matches_binary_erosion(self):
        plus = ndimage.generate_binary_structure(2, 1)
        rng = np.random.default_rng(85)
        for _ in range(60):
            shape = tuple(int(n) for n in rng.integers(1, 40, size=2))
            # few classes of random weight, so some fill most of the frame
            labels = rng.choice(4, size=shape, p=rng.dirichlet(np.ones(4) * 0.5))
            labels[:, 0] = labels[:, 0].max()  # one class runs the whole left border
            for c in range(4):
                mask = labels == c
                want = mask & ~ndimage.binary_erosion(mask, structure=plus, border_value=0)
                assert np.array_equal(class_boundary(labels[None], c)[0], want)

    @pytest.mark.parametrize("shape", [(4, 12, 14), (2, 3, 1, 9), (3, 2, 7), (2, 1, 5),
                                       (3, 6, 2), (0, 5, 5)])
    def test_stack_is_frame_by_frame(self, shape):
        rng = np.random.default_rng(86)
        stack = rng.integers(0, 4, size=shape, dtype=np.uint8)
        got = _edges(stack.reshape(-1, *shape[-2:])).reshape(shape)
        assert got.shape == stack.shape
        for i in np.ndindex(shape[:-2]):
            assert np.array_equal(got[i], _edges(stack[i][None])[0])
            for c in range(4):
                assert np.array_equal(got[i] & (stack[i] == c),
                                      boundary_loops(stack[i] == c))


class TestHd95:
    def test_identical_masks(self):
        rng = np.random.default_rng(82)
        a, _ = random_blob_pair(rng)
        got = hd95(a, a, (1,))
        assert got.dtype == np.float64 and got.tolist() == [0.0]

    def test_single_pixels_with_spacing(self):
        a = np.zeros((6, 6), dtype=np.uint8)
        b = np.zeros((6, 6), dtype=np.uint8)
        a[2, 0] = 1
        b[2, 3] = 1
        assert hd95(a, b, (1,), spacing_mm=(1.3, 1.1))[0] == pytest.approx(3 * 1.1)

    def test_nearest_rank_frozen(self):
        # pred is a 20 px line, truth its first pixel: pooled distances are
        # [0, 0, 1, ..., 19], n = 21, rank ceil(0.95 * 21) = 20 -> 18.0
        pred = np.zeros((3, 24), dtype=np.uint8)
        truth = np.zeros((3, 24), dtype=np.uint8)
        pred[0, 0:20] = 1
        truth[0, 0] = 1
        assert hd95(pred, truth, (1,)).tolist() == [18.0]

    def test_matches_brute_force(self):
        for spacing in [(1.3, 1.3), (1.25, 1.7)]:
            rng = np.random.default_rng(83)
            for _ in range(15):
                a, b = random_blob_pair(rng)
                (got,) = hd95(a, b, (1,), spacing_mm=spacing)
                want = hd95_loops(a, b, 1, spacing)
                assert got == pytest.approx(want, abs=1e-9)

    def test_empty_mask_is_undefined(self):
        rng = np.random.default_rng(84)
        a, _ = random_blob_pair(rng)
        empty = np.zeros_like(a)
        # class 0 is on both sides, class 1 on one only
        for got in (hd95(a, empty, (0, 1)), hd95(empty, a, (0, 1))):
            assert np.isfinite(got[0]) and np.isnan(got[1])

    def test_input_validation(self):
        with pytest.raises(DimensionError):
            hd95(np.zeros(3), np.zeros(3), (1,))
        with pytest.raises(DimensionError):
            hd95(np.zeros((3, 3)), np.zeros((3, 4)), (1,))
        with pytest.raises(DimensionError):
            hd95(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)), (1,))
        with pytest.raises(ParameterError):
            hd95(np.zeros((3, 3)), np.zeros((3, 3)), (1,), spacing_mm=(0.0, 1.0))
        for classes in (1, [[1]]):
            with pytest.raises(ParameterError):
                hd95(np.zeros((3, 3)), np.zeros((3, 3)), classes)

    @pytest.mark.parametrize("spacing", [
        (float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("-inf")), (True, 1.0),
        (1.0,), (1.0, 1.0, 1.0), "11", (1.0, "1"), (-1.0, 1.0),
    ])
    def test_spacing_is_two_finite_positive_numbers(self, spacing):
        a = np.zeros((5, 5), dtype=np.uint8)
        a[1:3, 1:3] = 1
        with pytest.raises(ParameterError):
            hd95(a, a, (1,), spacing_mm=spacing)
        with pytest.raises(ParameterError):
            hd95(a[None], a[None], (1,), spacing_mm=spacing)


def frame_stack_cases():
    """(pred, truth) stacks of class-1 masks with the cases a stack must keep
    apart: empty frames on either side or both, masks on the border, frames
    of one and two rows, and disc pairs of random placement."""
    rng = np.random.default_rng(87)
    cases = []
    discs = np.stack([np.stack(random_blob_pair(rng)) for _ in range(5)], axis=1)
    discs[0, 1] = 0              # empty prediction
    discs[1, 3] = 0              # empty truth
    discs[:, 4] = 0              # both empty
    discs[0, 2, :, :3] = 1       # runs along the left and top border
    discs[1, 2, :2, :] = 1
    cases.append((discs[0], discs[1]))
    for h in (1, 2):
        thin = (rng.random((2, 4, h, 17)) < 0.4).astype(np.uint8)
        thin[0, 0] = 0
        cases.append((thin[0], thin[1]))
    full = np.ones((2, 3, 6, 5), dtype=np.uint8)  # every pixel on the border or inside
    full[1, :, 2:4, 1:3] = 0
    cases.append((full[0], full[1]))
    return cases


class TestHd95Stack:
    @pytest.mark.parametrize("spacing", [(1.0, 1.0), (1.25, 1.7), (2.5, 0.6)])
    def test_equals_frame_by_frame(self, spacing):
        for pred, truth in frame_stack_cases():
            (got,) = hd95(pred, truth, (1,), spacing_mm=spacing)
            assert got.shape == (len(pred),)
            for i, value in enumerate(got):
                assert np.array_equal([value], hd95(pred[i], truth[i], (1,), spacing_mm=spacing),
                                      equal_nan=True)
                want = hd95_loops(pred[i], truth[i], 1, spacing)
                assert value == pytest.approx(want, abs=1e-9, nan_ok=True)

    def test_covers_empty_frames(self):
        pred, truth = frame_stack_cases()[0]
        (got,) = hd95(pred, truth, (1,))
        assert np.isnan(got[[1, 3, 4]]).all()
        assert np.isfinite(got[[0, 2]]).all()

    def test_shaped_by_the_classes_and_leading_axes(self):
        pred, truth = frame_stack_cases()[0]
        grid_p, grid_t = pred[:4].reshape(2, 2, 24, 24), truth[:4].reshape(2, 2, 24, 24)
        got = hd95(grid_p, grid_t, (1, 0), spacing_mm=(1.3, 1.1))
        flat = hd95(pred[:4], truth[:4], (1, 0), spacing_mm=(1.3, 1.1))
        assert got.shape == (2, 2, 2)
        assert np.array_equal(got, flat.reshape(2, 2, 2), equal_nan=True)
        assert hd95(pred[:0], truth[:0], (1, 0)).shape == (2, 0)
        assert hd95(pred, truth, ()).shape == (0, len(pred))
        # one (H, W) frame is a stack with no leading axes
        one = hd95(pred[0], truth[0], (1, 0), spacing_mm=(1.3, 1.1))
        assert one.shape == (2,) and np.array_equal(one, flat[:, 0])

    def test_other_labels_are_background(self):
        pred, truth = frame_stack_cases()[0]
        relabelled = np.where(pred == 1, 2, 3 * (pred == 0)).astype(np.uint8)
        truth2 = np.where(truth == 1, 2, 0).astype(np.uint8)
        assert np.array_equal(hd95(relabelled, truth2, (2,)), hd95(pred, truth, (1,)),
                              equal_nan=True)


@st.composite
def label_stack_pairs(draw):
    """Pred and truth (F, H, W) stacks of labels 0-3, with some classes
    erased from some frames of one side, and an anisotropic spacing."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    sides = [draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 3))) for _ in "pt"]
    for side in sides:
        for f, c in draw(st.sets(st.tuples(st.integers(0, shape[0] - 1), st.integers(1, 3)))):
            side[f][side[f] == c] = 0
    spacing = tuple(draw(st.floats(0.25, 4.0)) for _ in "yx")
    return sides[0], sides[1], spacing


class TestHd95Classes:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=label_stack_pairs())
    def test_equals_each_class_alone(self, case):
        pred, truth, spacing = case
        got = hd95(pred, truth, (1, 2, 3), spacing)
        assert got.shape == (3, len(pred))
        for c, values in zip((1, 2, 3), got):
            assert np.array_equal(values, hd95(pred, truth, (c,), spacing)[0], equal_nan=True)
            for f, value in enumerate(values):
                want = hd95_loops(pred[f], truth[f], c, spacing)
                assert value == pytest.approx(want, abs=1e-9, nan_ok=True)

    @pytest.mark.parametrize("block", [1, 300, 1000])
    def test_edge_chunks_do_not_change_values(self, monkeypatch, block):
        pred, truth = frame_stack_cases()[0]
        want = hd95(pred, truth, (1, 0), spacing_mm=(1.25, 1.7))
        monkeypatch.setattr(evalkit, "_EDGE_BLOCK_PIXELS", block)
        assert np.array_equal(hd95(pred, truth, (1, 0), spacing_mm=(1.25, 1.7)), want,
                              equal_nan=True)


def hd95_brute(pred, truth, classes, spacing):
    """hd95 by brute force, as it was computed before its row sweep: per
    class and frame, (ya - yb)**2 + (xa - xb)**2 over every pair of
    boundary pixels at (row * dy, col * dx), the minimum per pixel in both
    directions, then the nearest-rank 95th percentile of the pooled square
    roots. The same float64 operations, so the same values bit for bit."""
    dy, dx = spacing
    *lead, h, w = pred.shape
    pred, truth = pred.reshape(-1, h, w), truth.reshape(-1, h, w)
    edges = _edges(pred), _edges(truth)
    values = np.full((len(classes), len(pred)), np.nan)
    for i, c in enumerate(classes):
        for f in range(len(pred)):
            pa, pb = (np.argwhere(e[f] & (side[f] == c)) for e, side in zip(edges, (pred, truth)))
            if not len(pa) or not len(pb):
                continue
            ya, xa = pa[:, :1] * dy, pa[:, 1:] * dx
            yb, xb = pb[:, 0] * dy, pb[:, 1] * dx
            sq = (ya - yb) ** 2 + (xa - xb) ** 2
            pooled = np.sort(np.sqrt(np.concatenate((sq.min(axis=1), sq.min(axis=0)))))
            values[i, f] = pooled[math.ceil(0.95 * pooled.size) - 1]
    return values.reshape(len(classes), *lead)


@st.composite
def rectangle_stacks(draw):
    """Pred and truth (F, H, W) stacks, F 0-3 and H, W 1-40, of up to three
    rectangles of labels 1-3 per frame on background 0, some frames noise;
    classes with 0, repeats and absent labels; a spacing either way round."""
    shape = (draw(st.integers(0, 3)), draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    _, h, w = shape
    sides = []
    for _ in "pt":
        stack = np.zeros(shape, dtype=np.uint8)
        for frame in stack:
            if draw(st.integers(0, 4)) == 0:
                frame[:] = draw(hnp.arrays(np.uint8, (h, w), elements=st.integers(0, 3)))
                continue
            for _ in range(draw(st.integers(0, 3))):
                r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
                r1, c1 = draw(st.integers(r0 + 1, h)), draw(st.integers(c0 + 1, w))
                frame[r0:r1, c0:c1] = draw(st.integers(1, 3))
        sides.append(stack)
    classes = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=5)))
    spacing = tuple(draw(st.floats(0.25, 4.0)) for _ in "yx")
    return sides[0], sides[1], classes, spacing


def far_apart(h=64, w=48):
    """Two frames whose masks lie far apart in rows, columns or both, with
    a shared mask beside them, so most pixels are near and a few far."""
    pred = np.zeros((2, h, w), dtype=np.uint8)
    truth = np.zeros((2, h, w), dtype=np.uint8)
    for side in (pred, truth):
        side[:, 20:30, 20:30] = 2
    pred[0, 1:4, 2:5] = 1
    truth[0, h - 4:h - 1, w - 6:w - 2] = 1
    pred[1, 2:9, 1:3] = 1
    truth[1, 1:4, w - 3:w] = 1
    truth[1, h - 3:h, 0:2] = 1
    return pred, truth


class TestHd95Exact:
    """The row sweep gives hd95_brute's values bit for bit."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=rectangle_stacks())
    def test_equals_brute_force(self, case):
        pred, truth, classes, spacing = case
        got = hd95(pred, truth, classes, spacing)
        assert np.array_equal(got, hd95_brute(pred, truth, classes, spacing), equal_nan=True)

    @pytest.mark.parametrize("spacing", [(0.7, 1.9), (1.9, 0.7), (1.3, 1.3)])
    @pytest.mark.parametrize("case", ["far apart", "one row", "one column", "no frames"])
    def test_shapes_and_far_masks(self, case, spacing):
        rng = np.random.default_rng(88)
        if case == "far apart":
            pred, truth = far_apart()
        else:
            shape = {"one row": (3, 1, 33), "one column": (3, 33, 1), "no frames": (0, 9, 9)}[case]
            pred, truth = ((rng.random(shape) < 0.3) * rng.integers(1, 3, shape) for _ in "pt")
        classes = (1, 0, 2, 1, 3)
        got = hd95(pred, truth, classes, spacing)
        want = hd95_brute(pred, truth, classes, spacing)
        assert got.shape == (len(classes), len(pred))
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got[0], got[3], equal_nan=True)

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_sweep_rows_do_not_change_values(self, monkeypatch, rows):
        # fewer rows send more pixels to the brute force, by blocks of one pair
        pred, truth = far_apart()
        want = hd95(pred, truth, (1, 2, 0), (1.25, 1.7))
        monkeypatch.setattr(evalkit, "_SWEEP_ROWS", rows)
        monkeypatch.setattr(evalkit, "_HD_BLOCK_PAIRS", 1)
        assert np.array_equal(hd95(pred, truth, (1, 2, 0), (1.25, 1.7)), want, equal_nan=True)


def small_phantom_spec(**overrides):
    base = dict(z_count=6, t_count=4, height=48, width=48,
                lv_radius_px=8.0, myo_thickness_px=3.0, rv_offset_px=12.0,
                noise_sigma=0.0, distractor=False, seed=3)
    base.update(overrides)
    return PhantomSpec(**base)


@pytest.fixture(scope="module")
def perfect():
    _, truth = gen_phantom(small_phantom_spec())
    part = partition_regions(truth.z_count)
    return truth, part


class TestReportByRegion:
    def test_sixteen_rows_in_order(self, perfect):
        truth, part = perfect
        report = report_by_region(truth, truth, part)
        assert len(report.rows) == 16
        regions = [r.region for r in report.rows]
        assert regions == (["basal"] * 4 + ["middle"] * 4
                           + ["apex"] * 4 + ["whole"] * 4)
        assert [r.class_label for r in report.rows[:4]] == ["LV", "Myo", "RV", "Avg"]

    def test_perfect_prediction_scores(self, perfect):
        truth, part = perfect
        report = report_by_region(truth, truth, part)
        for row in report.rows:
            assert row.dice == 1.0
            if row.hd95_mm is not None:
                assert row.hd95_mm == 0.0

    def test_missing_class_scores_zero(self, perfect):
        truth, part = perfect
        wiped = truth.labels.copy()
        wiped[wiped == 3] = 0
        report = report_by_region(
            LabelVolume(wiped, spacing_mm=truth.spacing_mm), truth, part)
        assert report_row(report, "whole", "RV").dice == 0.0
        assert report_row(report, "whole", "LV").dice == 1.0
        # RV frames all lose their HD since the predicted boundary is gone
        rv = report_row(report, "whole", "RV")
        assert rv.hd95_mm is None
        assert rv.n_excluded_hd == rv.n_frames

    def test_avg_row_is_class_mean(self, perfect):
        truth, part = perfect
        wiped = truth.labels.copy()
        wiped[wiped == 3] = 0
        report = report_by_region(
            LabelVolume(wiped, spacing_mm=truth.spacing_mm), truth, part)
        for region in ("basal", "middle", "apex", "whole"):
            rows = [report_row(report, region, c) for c in ("LV", "Myo", "RV")]
            avg = report_row(report, region, "Avg")
            assert avg.dice == pytest.approx(np.mean([r.dice for r in rows]))
            defined = [r.hd95_mm for r in rows if r.hd95_mm is not None]
            assert avg.hd95_mm == pytest.approx(np.mean(defined))
            assert avg.n_excluded_hd == sum(r.n_excluded_hd for r in rows)

    def test_csv_layout(self, perfect, tmp_path):
        truth, part = perfect
        report = report_by_region(truth, truth, part, method="dense")
        out = tmp_path / "metrics.csv"
        report.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "region", "class", "dice", "hd95_mm",
                           "n_frames", "n_excluded_hd"]
        assert len(rows) == 17
        assert rows[1][0] == "dense"
        assert rows[1][3] == "1.000000"

    def test_equals_per_frame_oracle(self, perfect):
        truth, part = perfect
        labels = truth.labels.copy()
        basal = list(part.basal)
        labels[basal] = np.where(labels[basal] == 3, 0, labels[basal])  # no RV on either side
        truth = LabelVolume(labels, spacing_mm=truth.spacing_mm)
        moved = np.roll(labels, (1, -2), axis=(2, 3))
        moved[labels.shape[0] - 1, 1:] = 0   # no prediction on a slice's late phases
        moved[0, 0][moved[0, 0] == 1] = 0    # one frame loses its LV
        pred = LabelVolume(moved, spacing_mm=truth.spacing_mm)
        report = report_by_region(pred, truth, part, method="m")

        regions = {"basal": part.basal, "middle": part.middle, "apex": part.apex,
                   "whole": tuple(range(truth.z_count))}
        want_rows = 0
        for region, slices in regions.items():
            dices, hd_means, excluded = [], [], 0
            for label, cname in ((1, "LV"), (2, "Myo"), (3, "RV")):
                p, t = moved[list(slices)] == label, labels[list(slices)] == label
                d = 2 * (p & t).sum() / (p.sum() + t.sum()) if p.any() or t.any() else 1.0
                frames = [hd95(moved[z, ti], labels[z, ti], (label,), truth.spacing_mm)[0]
                          for z in slices for ti in range(truth.t_count)]
                defined = [h for h in frames if not math.isnan(h)]
                row = report_row(report, region, cname)
                assert row.method == "m"
                assert row.dice == d
                assert row.n_frames == len(frames)
                assert row.n_excluded_hd == len(frames) - len(defined)
                assert row.hd95_mm == (float(np.mean(defined)) if defined else None)
                dices.append(d)
                excluded += row.n_excluded_hd
                if defined:
                    hd_means.append(float(np.mean(defined)))
                want_rows += 1
            avg = report_row(report, region, "Avg")
            assert avg.dice == float(np.mean(dices))
            assert avg.hd95_mm == float(np.mean(hd_means))
            assert avg.n_excluded_hd == excluded
            want_rows += 1
        assert len(report.rows) == want_rows
        assert any(r.n_excluded_hd for r in report.rows)
        rv = report_row(report, "basal", "RV")
        assert (rv.dice, rv.hd95_mm, rv.n_excluded_hd) == (1.0, None, rv.n_frames)

    def test_one_hd95_call_and_one_dice_call_per_region(self, perfect, monkeypatch):
        truth, part = perfect
        calls = []
        for name in ("dice", "hd95"):
            def counted(*args, _fn=getattr(evalkit, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(evalkit, name, counted)
        report_by_region(truth, truth, part)
        assert sorted(calls) == ["dice"] * 4 + ["hd95"]

    def test_input_validation(self, perfect):
        truth, part = perfect
        with pytest.raises(ParameterError):
            report_by_region(truth.labels, truth, part)
        with pytest.raises(DimensionError):
            report_by_region(truth, truth, partition_regions(9))


class TestPhantom:
    def test_deterministic(self):
        spec = small_phantom_spec(noise_sigma=0.03, distractor=True)
        vol_a, lab_a = gen_phantom(spec)
        vol_b, lab_b = gen_phantom(spec)
        assert np.array_equal(vol_a.intensities, vol_b.intensities)
        assert np.array_equal(lab_a.labels, lab_b.labels)

    def test_shapes_and_ranges(self):
        spec = small_phantom_spec(noise_sigma=0.05, distractor=True)
        vol, lab = gen_phantom(spec)
        assert vol.intensities.shape == (6, 4, 48, 48)
        assert lab.labels.shape == (6, 4, 48, 48)
        assert vol.intensities.min() >= 0.0 and vol.intensities.max() <= 1.0
        assert set(np.unique(lab.labels)) <= {0, 1, 2, 3}
        assert vol.spacing_mm == (1.3, 1.3)

    def test_contraction_shrinks_lv(self):
        _, lab = gen_phantom(small_phantom_spec(t_count=4, contraction_frac=0.3))
        ed = (lab.labels[0, 0] == 1).sum()
        es = (lab.labels[0, 2] == 1).sum()  # sin^2(pi/2) = 1 at t = T/2
        assert es < ed

    def test_static_spec_is_phase_invariant(self):
        spec = small_phantom_spec(contraction_frac=0.0,
                                  longaxis_shorten_frac=0.0)
        vol, lab = gen_phantom(spec)
        for t in range(1, spec.t_count):
            assert np.array_equal(lab.labels[:, t], lab.labels[:, 0])
            assert np.array_equal(vol.intensities[:, t], vol.intensities[:, 0])

    def test_shortening_empties_apical_slices(self):
        spec = small_phantom_spec(z_count=9, t_count=4,
                                  longaxis_shorten_frac=2.0 / 9.0)
        _, lab = gen_phantom(spec)
        # ceil(2/9 * 9) = 2 slices gone at peak contraction (t = 2)
        empty_es = [z for z in range(9) if not lab.labels[z, 2].any()]
        assert empty_es == [7, 8]
        empty_ed = [z for z in range(9) if not lab.labels[z, 0].any()]
        assert empty_ed == []

    def test_distractor_is_bright_but_unlabeled(self):
        spec = small_phantom_spec(height=64, width=64, distractor=True)
        vol, lab = gen_phantom(spec)
        plain, _ = gen_phantom(small_phantom_spec(height=64, width=64))
        blob = vol.intensities[0, 0] != plain.intensities[0, 0]
        assert blob.any()
        assert np.allclose(vol.intensities[0, 0][blob], 0.85)
        assert (lab.labels[0, 0][blob] == 0).all()

    def test_geometry_must_fit(self):
        with pytest.raises(PhantomSpecError):
            gen_phantom(small_phantom_spec(lv_radius_px=40.0))

    @pytest.mark.parametrize("overrides", [
        {"t_count": 1},
        {"height": 8},
        {"contraction_frac": 1.0},
        {"noise_sigma": -0.1},
        {"myo_thickness_px": 0.0},
        {"lv_radius_px": 40.0},
    ])
    def test_invalid_specs(self, overrides):
        with pytest.raises(PhantomSpecError):
            small_phantom_spec(**overrides)


class TestCheckComplexity:
    def test_counters_match_closed_forms(self):
        configs = [
            BenchConfig(t=2, h=12, w=12, patch=6, k=2),
            BenchConfig(t=1, h=12, w=12, patch=4, k=1, scales=(3, 4)),
            BenchConfig(t=1, h=12, w=12, patch=6, k=2, scales=(3,)),
        ]
        report = check_complexity(configs, reps=1)
        assert report.all_match
        assert [r.scale for r in report.rows] == [4, 4, 3, 3]
        first = report.rows[0]
        # (12, 12, 6) has a 3 x 3 patch grid
        assert first.predicted_patch_pairs == 2 * 9 * 9
        assert first.predicted_pixel_pairs == 9 * 2 * 36 ** 2
        assert first.predicted_dense_pairs == 2 * 144 ** 2
        lifted = report.rows[2]
        assert lifted.scale == 3
        assert lifted.predicted_patch_pairs == 0
        assert lifted.measured_patch_pairs == 0
        # scale 3 alone selects its own top-K on the doubled (24, 24, 12) map,
        # as propagate --scales 3 does
        alone = report.rows[3]
        assert (alone.h, alone.w, alone.patch) == (24, 24, 12)
        assert alone.predicted_patch_pairs == alone.measured_patch_pairs == 1 * 9 * 9
        assert alone.predicted_pixel_pairs == 9 * 2 * 144 ** 2

    def test_k_beyond_bank_rejected(self):
        with pytest.raises(ParameterError):
            check_complexity([BenchConfig(t=1, h=12, w=12, patch=6, k=10)],
                             reps=1)

    def test_csv_schema(self, tmp_path):
        report = check_complexity([BenchConfig(t=1, h=12, w=12, patch=6, k=2)],
                                  reps=1)
        out = tmp_path / "bench.csv"
        report.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["T", "H", "W", "P", "K", "scale",
                           "predicted_patch_pairs", "measured_patch_pairs",
                           "predicted_pixel_pairs", "measured_pixel_pairs",
                           "predicted_dense_pairs", "measured_dense_pairs",
                           "plmm_ms", "dense_ms"]
        assert len(rows) == 2
        assert rows[1][:6] == ["1", "12", "12", "6", "2", "4"]
