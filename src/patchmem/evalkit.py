"""Metrics, the synthetic 4D phantom, and complexity accounting.

Both metrics take two (..., H, W) label stacks of the same shape and a
sequence of classes, and return a float64 array with a leading axis of
one entry per class. ``dice`` gives one value per class, over all voxels
pooled, by counting them. ``hd95`` gives one value per class and frame,
shaped (len(classes), ...), in millimetres (anisotropic in-plane spacing
allowed), from one edge pass per side and an exact row sweep over sorted
boundary keys; it is NaN, undefined, where either mask of the frame is
empty. ``report_by_region`` scores the whole study with one ``hd95`` call
and one ``dice`` call per region, averages each region's defined HD95
values over its frames and counts the excluded ones.

The phantom is a fully analytic short-axis heart: an LV disc inside a
myocardial ring, with an RV crescent attached on one side. Contraction
scales the geometry through the cycle, through-plane shortening removes the
apical slices around end-systole, and an optional bright off-heart blob
provides false-match pressure. Labels are exact (no noise); intensities get
Gaussian noise and are clipped to [0, 1]. Everything is deterministic under
the seed.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, DimensionError, LayoutError, ParameterError, PhantomSpecError
from .grids import (CLASS_NAMES, CineVolume, FeatureGrid, LabelVolume, _checked_spacing,
                    checked_fields)
from .matcher import OpCounter, dense_readout, plmm_forward
from .patcher import layout_shape, make_layout
from .pyramid import lift_topk

# row offsets of hd95's row sweep, 0 to +-11; a boundary pixel not settled
# by then goes to the brute force. Of 4 to 24, 12 and 16 scored the
# benchmark's studies fastest
_SWEEP_ROWS = 12
# point pairs per block of that brute force: 512 KiB per int64 or float64
# temporary
_HD_BLOCK_PAIRS = 1 << 16
# pixels per chunk of hd95's edge pass: one 4-phase slice of 128 x 128 frames
_EDGE_BLOCK_PIXELS = 1 << 16


def _checked_inputs(pred, truth, classes):
    """Two (..., H, W) label stacks of one shape, and the classes as a tuple."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise DimensionError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.ndim < 2:
        raise DimensionError(
            f"metrics take (..., H, W) label stacks, got shape {pred.shape}")
    if np.ndim(classes) != 1:
        raise ParameterError(f"classes must be a sequence of labels, got {classes!r}")
    return pred, truth, tuple(classes)


def dice(pred, truth, classes):
    """Dice overlap of each class between two (..., H, W) label stacks.

    Returns a float64 array of one value per class of ``classes``, each
    over all voxels pooled. Both masks empty gives 1.0, one empty 0.0.
    Masks are counted with ``np.count_nonzero`` and intersected in place.
    """
    pred, truth, classes = _checked_inputs(pred, truth, classes)
    values = np.empty(len(classes))
    for i, c in enumerate(classes):
        a = pred == c
        b = truth == c
        total = np.count_nonzero(a) + np.count_nonzero(b)
        a &= b
        values[i] = 2.0 * np.count_nonzero(a) / total if total else 1.0
    return values


def _edges(labels):
    """Pixels of an (F, H, W) label stack on a class boundary.

    A pixel is on one if its label differs from a 4-neighbour's or it lies
    on the image border; its class is its own label. So for any class c,
    ``_edges(labels) & (labels == c)`` holds the pixels of class c with a
    4-neighbour outside it, the border counting as outside.
    """
    edge = np.ones(labels.shape, dtype=bool)
    inner = edge[:, 1:-1, 1:-1]
    rows = labels[:, 1:, 1:-1] != labels[:, :-1, 1:-1]
    np.logical_or(rows[:, 1:], rows[:, :-1], out=inner)
    cols = labels[:, 1:-1, 1:] != labels[:, 1:-1, :-1]
    inner |= cols[:, :, 1:]
    inner |= cols[:, :, :-1]
    return edge


def _edge_pixels(labels, classes):
    """Flat indices, ascending, and labels of the pixels of an (F, H, W)
    label stack on the boundary of one of ``classes``.

    The edge pass runs over chunks of whole frames of about
    _EDGE_BLOCK_PIXELS pixels, so its temporaries do not grow with the
    stack.
    """
    f_count, h, w = labels.shape
    step = max(1, _EDGE_BLOCK_PIXELS // max(1, h * w))
    index = [np.empty(0, dtype=np.intp)]
    label = [np.empty(0, dtype=labels.dtype)]
    for start in range(0, f_count, step):
        chunk = labels[start:start + step]
        idx = np.flatnonzero(_edges(chunk))
        lab = chunk.reshape(-1)[idx]
        keep = np.zeros(len(lab), dtype=bool)
        for c in classes:
            keep |= lab == c
        index.append(idx[keep] + start * h * w)
        label.append(lab[keep])
    return np.concatenate(index), np.concatenate(label)


def _boundary_keys(labels, classes):
    """Keys ((i * F + f) * H + row) * W + col, ascending, of the boundary
    pixels of class classes[i] in frame f of an (F, H, W) label stack."""
    idx, lab = _edge_pixels(labels, classes)
    keys = [idx[lab == c] + i * labels.size for i, c in enumerate(classes)]
    return np.concatenate(keys) if keys else idx


class _Points(NamedTuple):
    """Boundary pixels of one side of ``hd95``, in the order of their keys.

    A point of class classes[i] in frame f, row r and column c is in group
    g = i * F + f. Its key is (g * (H + _SWEEP_ROWS) + r) * W + c, its flat
    index in the stack of the groups' frames, each followed by _SWEEP_ROWS
    empty rows: every row less than _SWEEP_ROWS away from a point is a row
    of the point's own group or empty. ``line`` is key // W, and (y, x) is
    (r * dy, c * dx) in millimetres, as a brute force would score them.
    """

    key: np.ndarray
    line: np.ndarray
    group: np.ndarray
    row: np.ndarray
    y: np.ndarray
    x: np.ndarray


def _points(keys, group, both, shape, dy, dx):
    """The _Points of the _boundary_keys of an (F, H, W) stack, whose
    groups are ``group``, in the groups where ``both`` is True."""
    _, h, w = shape
    keep = both[group]
    group = group[keep]
    line, col = np.divmod(keys[keep], w)
    row = line - group * h
    line += group * _SWEEP_ROWS
    return _Points(line * w + col, line, group, row, row * dy, col * dx)


def _nearest_sq(pa, pb, w, dy):
    """Squared distance from each point of ``pa`` to the nearest point of
    ``pb`` in its group, which has some, as a pair scores in float64:
    (ya - yb)**2 + (xa - xb)**2.

    A row sweep: at row offsets 0, then +-1, +-2 and so on, one
    ``searchsorted`` of the point's key, shifted by the offset, in pb's
    keys gives the nearest pb points left and right of its column in that
    row. Within a row the score grows with the distance in columns, since
    rounding is monotone, so those two hold the row's minimum. Every point
    of a row d rows away scores at least its y term (ya - yb)**2, which
    grows with d, so a point whose best score is at most the y term of the
    next rows up and down is done: no point farther away can score lower.
    The points still open after _SWEEP_ROWS offsets, such as a stray blob
    far from the other mask, go to _nearest_sq_brute.
    """
    # pb's lines and x with a sentinel at each end, so that position i of
    # ``searchsorted`` has its left neighbour at i and its right at i + 1;
    # the sentinels' line is below any line a point asks for
    b_line = np.concatenate(([-_SWEEP_ROWS], pb.line, [-_SWEEP_ROWS]))
    b_x = np.concatenate(([0.0], pb.x, [0.0]))
    out = np.empty(len(pa.key))
    todo = np.arange(len(pa.key))
    key, line, row, y, x = pa.key, pa.line, pa.row, pa.y, pa.x
    best = np.full(len(key), np.inf)
    for k in range(_SWEEP_ROWS):
        for off in ((0,) if k == 0 else (k, -k)):
            at = np.searchsorted(pb.key, key + off * w)
            # the y term of every point of that row, the same float
            yy = y - (row + off) * dy
            yy *= yy
            on = line + off
            for i in (at, at + 1):
                sq = x - b_x[i]
                sq *= sq
                sq += yy
                np.minimum(best, sq, out=best, where=b_line[i] == on)
        up = y - (row + (k + 1)) * dy
        up *= up
        down = y - (row - (k + 1)) * dy
        down *= down
        done = best <= np.minimum(up, down, out=up)
        out[todo[done]] = best[done]
        keep = ~done
        todo = todo[keep]
        if not len(todo):
            return out
        key, line, row, y, x, best = (v[keep] for v in (key, line, row, y, x, best))
    first = np.searchsorted(pb.group, pa.group[todo])
    count = np.searchsorted(pb.group, pa.group[todo], side="right") - first
    out[todo] = _nearest_sq_brute(y, x, first, count, pb.y, pb.x)
    return out


def _nearest_sq_brute(y, x, first, count, yb, xb):
    """Squared distance from each point (y[i], x[i]) to the nearest of the
    points (yb, xb)[first[i]:first[i] + count[i]], every count positive.

    Brute force over all pairs, in blocks of whole points of about
    _HD_BLOCK_PAIRS pairs each, scored as ``_nearest_sq`` scores them.
    """
    out = np.empty(len(y))
    ends = np.cumsum(count)
    lo = 0
    while lo < len(y):
        before = ends[lo] - count[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, before + _HD_BLOCK_PAIRS, side="right")))
        n = count[lo:hi]
        # pair j of the block is point pa[j] against point pb[j]; the pairs
        # of point i start at seg[i - lo]
        seg = ends[lo:hi] - n - before
        pa = np.repeat(np.arange(lo, hi), n)
        pb = np.repeat(first[lo:hi] - seg, n)
        pb += np.arange(len(pb))
        sq = y[pa] - yb[pb]
        sq *= sq
        xx = x[pa] - xb[pb]
        xx *= xx
        sq += xx
        out[lo:hi] = np.minimum.reduceat(sq, seg)
        lo = hi
    return out


def hd95(pred, truth, classes, spacing_mm=(1.0, 1.0)):
    """95th-percentile symmetric boundary distance in millimetres.

    ``pred`` and ``truth`` are two (..., H, W) label stacks of the same
    shape. Per frame and class, distances from every boundary pixel of one
    mask to the nearest boundary pixel of the other are pooled in both
    directions; the nearest-rank 95th percentile of the pooled list is the
    value. Returns a float64 array shaped (len(classes), ...): one value
    per class of ``classes``, in its order, and frame. If either mask of a
    frame is empty the distance is undefined and the value is NaN.

    One edge pass over each side, in chunks of frames, finds the boundary
    pixels of every class at once. Nearest distances are exact, the same
    floats as a brute force over all pairs: a row sweep over the whole
    study per direction (see _nearest_sq) scores only the nearest pixels
    left and right of a point in each row, and only rows near enough to
    beat the best so far. Two boundaries that follow each other closely,
    the common case, cost O(n log n) for n boundary pixels; a pixel that
    _SWEEP_ROWS row offsets do not settle costs a brute force over its
    group, O(|A|) or O(|B|), in blocks of bounded memory. The percentiles
    of all classes and frames come from one sort of the pooled squared
    distances, by group and then distance.
    """
    pred, truth, classes = _checked_inputs(pred, truth, classes)
    dy, dx = _checked_spacing(spacing_mm)
    *lead, h, w = pred.shape
    shape = (math.prod(lead), h, w)
    n_groups = len(classes) * shape[0]
    keys_a = _boundary_keys(pred.reshape(shape), classes)
    keys_b = _boundary_keys(truth.reshape(shape), classes)
    group_a, group_b = keys_a // (h * w), keys_b // (h * w)
    count_a = np.bincount(group_a, minlength=n_groups)
    count_b = np.bincount(group_b, minlength=n_groups)
    # an empty mask has no boundary pixels
    both = (count_a > 0) & (count_b > 0)
    pa = _points(keys_a, group_a, both, shape, dy, dx)
    pb = _points(keys_b, group_b, both, shape, dy, dx)
    sq = np.concatenate((_nearest_sq(pa, pb, w, dy), _nearest_sq(pb, pa, w, dy)))
    # by group, then distance: a stable sort of the groups, which are small
    # integers, after a sort of the distances
    group = np.concatenate((pa.group, pb.group)).astype(np.min_scalar_type(n_groups))
    order = np.argsort(sq)
    order = order[np.argsort(group[order], kind="stable")]
    pooled = (count_a + count_b)[both]
    rank = np.ceil(0.95 * pooled).astype(np.intp)  # nearest-rank percentile
    values = np.full(n_groups, np.nan)
    values[both] = np.sqrt(sq[order[np.cumsum(pooled) - pooled + rank - 1]])
    return values.reshape(len(classes), *lead)


@dataclass
class MetricRow:
    method: str
    region: str
    class_label: str
    dice: float
    hd95_mm: float | None
    n_frames: int
    n_excluded_hd: int


@dataclass
class MetricsReport:
    """Per-class, per-region metric rows plus per-region class averages."""

    rows: list

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "region", "class", "dice", "hd95_mm",
                             "n_frames", "n_excluded_hd"])
            for r in self.rows:
                writer.writerow([
                    r.method, r.region, r.class_label,
                    f"{r.dice:.6f}",
                    "" if r.hd95_mm is None else f"{r.hd95_mm:.6f}",
                    r.n_frames, r.n_excluded_hd,
                ])

    def format_table(self):
        lines = [f"{'region':<8} {'class':<5} {'dice':>8} {'hd95_mm':>9} "
                 f"{'frames':>7} {'hd_excl':>8}"]
        for r in self.rows:
            hd = "-" if r.hd95_mm is None else f"{r.hd95_mm:9.3f}"
            lines.append(f"{r.region:<8} {r.class_label:<5} {r.dice:8.4f} "
                         f"{hd:>9} {r.n_frames:7d} {r.n_excluded_hd:8d}")
        return "\n".join(lines)


def report_by_region(pred, truth, partition, method="plmm"):
    """Score a predicted LabelVolume against the truth, region by region.

    Dice pools all voxels of a region's frames per class; HD95 is averaged
    over the region's frames where defined. Regions are basal, middle, apex,
    and whole (all slices), each with per-class rows plus an Avg row; each
    is a contiguous range of slices, as ``partition_regions`` makes them,
    and so a slice of the study. The HD95 of every frame and class comes
    from one ``hd95`` call over the whole study, and each region's Dice
    from one ``dice`` call over its slices; the region rows, Avg included,
    read slices of those arrays.
    """
    if not isinstance(pred, LabelVolume) or not isinstance(truth, LabelVolume):
        raise ParameterError("report_by_region expects LabelVolume inputs")
    if pred.labels.shape != truth.labels.shape:
        raise DimensionError(
            f"prediction {pred.labels.shape} and truth {truth.labels.shape} disagree")
    if pred.spacing_mm != truth.spacing_mm:
        raise DataError(
            f"prediction spacing {pred.spacing_mm} mm and truth spacing "
            f"{truth.spacing_mm} mm disagree")
    if partition.z_count != truth.z_count:
        raise DimensionError(
            f"partition covers {partition.z_count} slices, volume has {truth.z_count}")
    classes = tuple(CLASS_NAMES)
    # hds[i, z, t]: the HD95 of class classes[i] in frame (z, t), NaN if undefined
    hds = hd95(pred.labels, truth.labels, classes, truth.spacing_mm)
    regions = [
        ("basal", partition.basal),
        ("middle", partition.middle),
        ("apex", partition.apex),
        ("whole", tuple(range(truth.z_count))),
    ]
    rows = []
    for region_name, slices in regions:
        z_range = slice(slices[0], slices[-1] + 1)
        dices = dice(pred.labels[z_range], truth.labels[z_range], classes)
        n_frames = len(slices) * truth.t_count
        region_hds = hds[:, z_range].reshape(len(classes), n_frames)
        defined = ~np.isnan(region_hds)
        hd_means = [float(np.mean(v[d])) if d.any() else None
                    for v, d in zip(region_hds, defined)]
        excluded = (n_frames - defined.sum(axis=1)).tolist()
        rows += [MetricRow(method, region_name, cname, float(d), hd, n_frames, n)
                 for cname, d, hd, n in zip(CLASS_NAMES.values(), dices, hd_means, excluded)]
        known = [hd for hd in hd_means if hd is not None]
        rows.append(MetricRow(method, region_name, "Avg", float(np.mean(dices)),
                              float(np.mean(known)) if known else None, n_frames,
                              sum(excluded)))
    return MetricsReport(rows=rows)


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters of the analytic 4D phantom.

    Geometry is specified at end-diastole; contraction_frac scales it down
    toward end-systole by 1 - c * sin^2(pi * t / T), and
    longaxis_shorten_frac empties ceil(frac * Z) apical slices around
    end-systole. The distractor is a static bright blob away from the heart.
    """

    z_count: int = 9
    t_count: int = 10
    height: int = 128
    width: int = 128
    spacing_mm: tuple[float, float] = (1.3, 1.3)
    lv_radius_px: float = 20.0
    myo_thickness_px: float = 7.0
    rv_offset_px: float = 30.0
    contraction_frac: float = 0.3
    longaxis_shorten_frac: float = 2.0 / 9.0
    noise_sigma: float = 0.03
    distractor: bool = True
    seed: int = 7

    def __post_init__(self):
        checked_fields(self, PhantomSpecError)
        _checked_spacing(self.spacing_mm)
        if self.z_count < 1 or self.t_count < 2:
            raise PhantomSpecError(
                f"need z_count >= 1 and t_count >= 2, got ({self.z_count}, {self.t_count})")
        if self.height < 16 or self.width < 16:
            raise PhantomSpecError("frame dims must be at least 16")
        if not 0.0 <= self.contraction_frac < 1.0:
            raise PhantomSpecError(
                f"contraction_frac must lie in [0, 1), got {self.contraction_frac}")
        if not 0.0 <= self.longaxis_shorten_frac <= 1.0:
            raise PhantomSpecError(
                f"longaxis_shorten_frac must lie in [0, 1], got {self.longaxis_shorten_frac}")
        if self.noise_sigma < 0.0:
            raise PhantomSpecError("noise_sigma must be non-negative")
        if self.lv_radius_px <= 0 or self.myo_thickness_px <= 0 or self.rv_offset_px <= 0:
            raise PhantomSpecError("geometry radii must be positive")
        _check_margins(self)


def _phantom_centers(spec):
    cy = 0.5 * (spec.height - 1)
    cx = 0.5 * (spec.width - 1)
    outer = spec.lv_radius_px + spec.myo_thickness_px
    dist_c = (cy + 1.6 * outer, cx + 1.6 * outer)
    dist_r = 0.4 * spec.lv_radius_px
    return cy, cx, outer, dist_c, dist_r


def _check_margins(spec):
    cy, cx, outer, dist_c, dist_r = _phantom_centers(spec)
    margin = 2.0
    checks = [
        cy - outer, spec.height - 1 - (cy + outer) ,
        cx - outer, spec.width - 1 - (cx + outer),
        cx - spec.rv_offset_px - spec.lv_radius_px,
    ]
    if spec.distractor:
        checks += [
            dist_c[0] - dist_r, spec.height - 1 - (dist_c[0] + dist_r),
            dist_c[1] - dist_r, spec.width - 1 - (dist_c[1] + dist_r),
        ]
    if min(checks) < margin:
        raise PhantomSpecError(
            "phantom geometry does not fit inside the frame with a 2 px margin")


def gen_phantom(spec=PhantomSpec()):
    """Generate the phantom's cine volume and its exact label volume."""
    z_count, t_count = spec.z_count, spec.t_count
    h, w = spec.height, spec.width
    cy, cx, outer, dist_c, dist_r = _phantom_centers(spec)
    n_short = math.ceil(spec.longaxis_shorten_frac * z_count) \
        if spec.longaxis_shorten_frac > 0 else 0

    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    d_lv = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    blob = np.zeros((h, w), dtype=bool)
    if spec.distractor:
        blob = np.sqrt((yy - dist_c[0]) ** 2 + (xx - dist_c[1]) ** 2) <= dist_r
    # intensity of background, LV, myocardium and RV; the blob is 0.85 over all
    shade = np.array([0.15, 0.9, 0.45, 0.9])
    background = np.where(blob, 0.85, shade[0])

    labels = np.zeros((z_count, t_count, h, w), dtype=np.uint8)
    # an apical slice lost to through-plane shortening keeps the background
    intens = np.broadcast_to(background, labels.shape).copy()

    for tau in range(t_count):
        pf = math.sin(math.pi * tau / t_count) ** 2
        s = 1.0 - spec.contraction_frac * pf
        r_lv = spec.lv_radius_px * s
        r_outer = outer * s
        rv_off = spec.rv_offset_px * s
        r_rv = spec.lv_radius_px * s
        d_rv = np.sqrt((yy - cy) ** 2 + (xx - (cx - rv_off)) ** 2)

        lab2d = np.zeros((h, w), dtype=np.uint8)
        lab2d[d_rv <= r_rv] = 3
        lab2d[d_lv <= r_outer] = 2
        lab2d[d_lv <= r_lv] = 1
        img2d = shade[lab2d]
        img2d[blob] = 0.85

        visible = np.arange(z_count) < z_count - n_short * pf
        labels[visible, tau] = lab2d
        intens[visible, tau] = img2d

    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        intens = intens + rng.normal(0.0, spec.noise_sigma, size=intens.shape)
    intens = np.clip(intens, 0.0, 1.0)
    return (CineVolume(intens, spacing_mm=spec.spacing_mm),
            LabelVolume(labels, spacing_mm=spec.spacing_mm))


@dataclass(frozen=True)
class BenchConfig:
    """One complexity measurement point.

    Every size is a positive int (bools rejected), the patch must tile the
    (h, w) map, k must not exceed the t * N memory patches, and scales is a
    non-empty list drawn from (3, 4); anything else raises ParameterError.
    """

    t: int
    h: int
    w: int
    patch: int
    k: int
    scales: tuple[int, ...] = (4,)

    def __post_init__(self):
        checked_fields(self, ParameterError)
        for name in ("t", "h", "w", "patch", "k"):
            if getattr(self, name) < 1:
                raise ParameterError(
                    f"{name} must be a positive integer, got {getattr(self, name)}")
        if not self.scales or any(s not in (3, 4) for s in self.scales):
            raise ParameterError(
                f"scales must be a non-empty subset of (3, 4), got {self.scales!r}")
        try:
            n_h, n_w = layout_shape(self.h, self.w, self.patch)
        except LayoutError as exc:
            raise ParameterError(str(exc)) from None
        if self.k > self.t * n_h * n_w:
            raise ParameterError(
                f"k must be at most T*N = {self.t * n_h * n_w}, got {self.k}")


@dataclass
class BenchRow:
    t: int
    h: int
    w: int
    patch: int
    k: int
    scale: int
    predicted_patch_pairs: int
    measured_patch_pairs: int
    predicted_pixel_pairs: int
    measured_pixel_pairs: int
    predicted_dense_pairs: int
    measured_dense_pairs: int
    plmm_ms: float
    dense_ms: float

    @property
    def counts_match(self):
        return (self.predicted_patch_pairs == self.measured_patch_pairs
                and self.predicted_pixel_pairs == self.measured_pixel_pairs
                and self.predicted_dense_pairs == self.measured_dense_pairs)


@dataclass
class ComplexityReport:
    rows: list

    @property
    def all_match(self):
        return all(r.counts_match for r in self.rows)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "T", "H", "W", "P", "K", "scale",
                "predicted_patch_pairs", "measured_patch_pairs",
                "predicted_pixel_pairs", "measured_pixel_pairs",
                "predicted_dense_pairs", "measured_dense_pairs",
                "plmm_ms", "dense_ms",
            ])
            for r in self.rows:
                writer.writerow([
                    r.t, r.h, r.w, r.patch, r.k, r.scale,
                    r.predicted_patch_pairs, r.measured_patch_pairs,
                    r.predicted_pixel_pairs, r.measured_pixel_pairs,
                    r.predicted_dense_pairs, r.measured_dense_pairs,
                    f"{r.plmm_ms:.3f}", f"{r.dense_ms:.3f}",
                ])


def default_bench_grid():
    """The stock measurement grid: eleven configurations, two with a
    scale-3 pass attached."""
    return [
        BenchConfig(t=2, h=24, w=24, patch=6, k=4, scales=(3, 4)),
        BenchConfig(t=1, h=24, w=24, patch=6, k=4),
        BenchConfig(t=3, h=24, w=24, patch=6, k=4),
        BenchConfig(t=2, h=24, w=24, patch=6, k=1),
        BenchConfig(t=2, h=24, w=24, patch=6, k=2),
        BenchConfig(t=2, h=24, w=24, patch=4, k=4),
        BenchConfig(t=2, h=24, w=24, patch=8, k=4),
        BenchConfig(t=2, h=36, w=36, patch=6, k=4, scales=(3, 4)),
        BenchConfig(t=2, h=48, w=48, patch=6, k=4),
        BenchConfig(t=3, h=48, w=48, patch=6, k=4),
        BenchConfig(t=2, h=60, w=60, patch=6, k=4),
    ]


# Random inputs of check_complexity: key and value channels, generator seed.
_BENCH_KEY_CHANNELS = 8
_BENCH_VALUE_CHANNELS = 4
_BENCH_SEED = 0


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return float(np.median(times))


def check_complexity(configs=None, reps=5):
    """Run the matcher over a config grid and compare counters to closed forms.

    Each config runs its scales coarsest first, scale 3 at doubled dims and
    patch size. A pass that selects its own top-K predicts T*N^2 patch pairs
    and N*K*(P^2)^2 pixel pairs; the dense path predicts T*(H*W)^2. Scale 3
    after scale 4 lifts scale 4's selection, as propagation does: zero patch
    pairs, N*K*((2P)^2)^2 pixel pairs. Inputs are standard normal,
    _BENCH_KEY_CHANNELS of keys and _BENCH_VALUE_CHANNELS of values, drawn
    from _BENCH_SEED. Wall times are medians over the given repetitions.
    """
    if reps < 1:
        raise ParameterError(f"reps must be at least 1, got {reps}")
    if configs is None:
        configs = default_bench_grid()
    rng = np.random.default_rng(_BENCH_SEED)
    rows = []
    for cfg in configs:
        prev = None  # scale 4's top-K table and layout, which scale 3 lifts
        for scale in sorted(set(cfg.scales), reverse=True):
            f = 2 if scale == 3 else 1
            h, w, p = f * cfg.h, f * cfg.w, f * cfg.patch
            layout = make_layout(h, w, p)
            lifted = None if prev is None else lift_topk(*prev, layout)
            q = FeatureGrid(rng.standard_normal((_BENCH_KEY_CHANNELS, h, w)))
            mk = [FeatureGrid(rng.standard_normal((_BENCH_KEY_CHANNELS, h, w)))
                  for _ in range(cfg.t)]
            mv = [FeatureGrid(rng.standard_normal((_BENCH_VALUE_CHANNELS, h, w)))
                  for _ in range(cfg.t)]

            counter = OpCounter()
            res = plmm_forward(q, mk, mv, p, cfg.k, counter=counter, topk_override=lifted)
            dense_counter = OpCounter()
            dense_readout(q, mk, mv, counter=dense_counter)
            plmm_ms = _median_ms(
                lambda: plmm_forward(q, mk, mv, p, cfg.k, topk_override=lifted), reps)
            dense_ms = _median_ms(lambda: dense_readout(q, mk, mv), reps)
            n, hw = layout.n_patches, h * w
            rows.append(BenchRow(
                t=cfg.t, h=h, w=w, patch=p, k=cfg.k, scale=scale,
                predicted_patch_pairs=0 if lifted is not None else cfg.t * n * n,
                measured_patch_pairs=counter.patch_pairs,
                predicted_pixel_pairs=n * cfg.k * (p ** 2) ** 2,
                measured_pixel_pairs=counter.pixel_pairs,
                predicted_dense_pairs=cfg.t * hw * hw,
                measured_dense_pairs=dense_counter.pixel_pairs,
                plmm_ms=plmm_ms, dense_ms=dense_ms,
            ))
            prev = (res.topk, layout)
    return ComplexityReport(rows=rows)
