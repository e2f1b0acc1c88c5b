"""4D mask propagation over a cine volume.

One annotated frame (the anchor: middle slice z0 at phase 0) is pushed
through the whole (Z, T) grid with small, region-dependent memory banks,
one phase tau at a time in ascending order:

* temporal step: the anchor's slice advances to phase tau; the query at
  (z0, tau) matches against the anchor and the previous phase
  (z0, tau-1), never more than two frames.
* spatial sweeps: slices of phase tau are segmented outward from z0 toward
  the base and toward the apex. Basal and middle queries match against the
  anchor plus the adjacent slice one step closer to z0 at the same phase.
  Apex queries additionally see their own slice at earlier phases (tau-1,
  tau-2, ...), up to apex_t_max entries in total, because apical anatomy
  can vanish through the cycle and the adjacent slice alone is a weak
  guide there.

Slice continuity (the z chain) and temporal continuity (the same-slice
history) can be ablated independently via continuity_mode.

Frames are resampled to an admissible working resolution before matching
(dims divisible by 16 whose stride-16 grid the patch size tiles exactly);
predicted masks are resampled back to the input resolution. Predicted
frames re-enter memory through their soft (pre-argmax) maps, pooled to the
two matching strides; the anchor always contributes its exact one-hot seed.

Precision is chosen once, at the engine's two inputs: each frame and the
one-hot seed are converted to _MATCH_DTYPE, float32, before they are
resampled. Nothing after that converts: resampling, the encoder, both
matchers, decoding, the soft maps and value pooling follow their inputs'
dtype (``grids.real_array``), so working images, keys, readouts, soft maps
and value pyramids are all float32.

Because the bank policy is fixed, the whole schedule is planned before the
first match (``plan_visits``), and the plan says when each frame is used
for the last time. The engine evicts on that count: a frame's key pyramid
is freed after its last use as query or memory, and its value pyramid
after its last use as memory, or never pooled when no bank holds it. The
working image is encoded and dropped, and a segmented frame's soft map is
dropped once its labels are in the output volume. Peak memory then follows
the frames the policy keeps live (at most six on a nine-slice grid in the
default mode, whatever T), not Z x T.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    ParameterError,
    PartitionError,
    SchedulingError,
)
from .featurizer import (STRIDES, EncoderConfig, decode, encode_key, encode_value,
                         scale_patches)
from .grids import (
    CineVolume,
    LabelVolume,
    SoftLabelMap,
    checked_fields,
    one_hot,
    renormalized,
    resize_bilinear,
)
from .matcher import dense_readout, plmm_forward
from .patcher import make_layout
from .pyramid import match_multiscale

# Largest working side, explicit or derived from the patch size: the engine
# resamples each frame to it and decodes soft maps at it, so one 4-class
# float32 map of a 2048 x 2048 frame takes 64 MB.
MAX_WORKING_SIDE = 2048

# The dtype the frames and the seed are converted to, so of every working
# image, key, match, soft map and value pyramid; a fixed choice of the engine.
_MATCH_DTYPE = np.float32

# The values the matcher and continuity_mode settings may take, and the
# default region fractions; PropagationConfig, partition_regions and the
# command line all read them here.
MATCHERS = ("plmm", "dense")
CONTINUITY_MODES = ("both", "spatial-only", "temporal-only")
DEFAULT_REGION_FRACTIONS = (1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class RegionPartition:
    """Contiguous basal / middle / apex slice index ranges."""

    basal: tuple
    middle: tuple
    apex: tuple

    @property
    def z_count(self):
        return len(self.basal) + len(self.middle) + len(self.apex)


def _checked_fractions(fractions):
    """(basal, apex) as floats, each in (0, 1); NaN and infinities fail."""
    bf, af = float(fractions[0]), float(fractions[1])
    if not (0.0 < bf < 1.0 and 0.0 < af < 1.0):
        raise ParameterError(f"region fractions must lie in (0, 1), got {fractions}")
    return bf, af


def partition_regions(z_count, fractions=DEFAULT_REGION_FRACTIONS):
    """Split slice indices into basal, middle, and apex thirds.

    The basal region takes the first ceil(Z * basal_frac) slices, the apex
    the last ceil(Z * apex_frac); whatever remains in between is the middle.
    An empty middle is an error.
    """
    if z_count < 1:
        raise ParameterError(f"z_count must be positive, got {z_count}")
    bf, af = _checked_fractions(fractions)
    n_basal = math.ceil(z_count * bf)
    n_apex = math.ceil(z_count * af)
    if n_basal + n_apex >= z_count:
        raise PartitionError(
            f"fractions {fractions} leave no middle slices for Z={z_count}")
    return RegionPartition(
        basal=tuple(range(0, n_basal)),
        middle=tuple(range(n_basal, z_count - n_apex)),
        apex=tuple(range(z_count - n_apex, z_count)),
    )


@dataclass(frozen=True)
class PropagationConfig:
    """Knobs of the 4D scheduler and its matcher.

    Attributes:
        z0: annotated slice at phase 0; defaults to Z // 2, must fall in
            the middle region.
        patch: scale-4 patch size P; see ``featurizer.scale_patches``.
        k: memory patches kept per query patch (clamped to the bank's
            total patch count when memory is small).
        scales: active pyramid scales, a non-empty subset of STRIDES.
        region_fractions: (basal, apex) slice fractions, each in (0, 1).
        apex_t_max: bank capacity for apex queries (2 disables the
            same-slice history, 3 is the default single extra phase).
        continuity_mode: one of CONTINUITY_MODES, "both",
            "spatial-only" or "temporal-only"; see ``plan_visits``.
        matcher: one of MATCHERS, "plmm" for patch-level matching,
            "dense" for the all-pairs reference.
        working_side: fixed working resolution (at most MAX_WORKING_SIDE
            and admissible: ``working_side_for`` returns it unchanged);
            None picks the smallest admissible size per axis, and the
            engine refuses a derived side over MAX_WORKING_SIDE before
            the run allocates anything.
        encoder: key encoder settings.
    """

    z0: int | None = None
    patch: int = 6
    k: int = 4
    scales: tuple[int, ...] = (3, 4)
    region_fractions: tuple[float, float] = DEFAULT_REGION_FRACTIONS
    apex_t_max: int = 3
    continuity_mode: str = "both"
    matcher: str = "plmm"
    working_side: int | None = None
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        checked_fields(self, ParameterError)
        if self.patch < 2 or self.patch % 2:
            raise ParameterError(f"patch must be even and >= 2, got {self.patch}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "scales",
                           tuple(sorted(scale_patches(self.scales, self.patch))))
        if self.apex_t_max < 2:
            raise ParameterError(f"apex_t_max must be >= 2, got {self.apex_t_max}")
        if self.continuity_mode not in CONTINUITY_MODES:
            raise ParameterError(f"unknown continuity mode {self.continuity_mode!r}")
        if self.matcher not in MATCHERS:
            raise ParameterError(f"unknown matcher {self.matcher!r}")
        object.__setattr__(self, "region_fractions",
                           _checked_fractions(self.region_fractions))
        if self.working_side is not None:
            if self.working_side > MAX_WORKING_SIDE:
                raise ParameterError(
                    f"working side {self.working_side} exceeds the largest "
                    f"supported, {MAX_WORKING_SIDE}")
            if working_side_for(self.working_side, self.patch) != self.working_side:
                raise ParameterError(
                    f"working_side {self.working_side} is not admissible for "
                    f"patch {self.patch}")


@dataclass
class PropagationResult:
    """Everything a full 4D run produces.

    provenance maps each frame to the ordered list of memory frames its
    bank held (empty for the given anchor); its keys are in execution
    order, anchor first.
    """

    masks: LabelVolume
    provenance: dict
    work_dims: tuple


def working_side_for(side, patch):
    """Smallest admissible working size >= side for this patch size.

    Admissible means divisible by the scale-4 stride s = STRIDES[4] with a
    stride-s grid the patch tiles: grid = S / s satisfies grid >= P and
    (grid - P) % (P / 2) == 0. So a side S is admissible exactly when
    ``working_side_for(S, patch) == S``. The grid is the least P + n P/2
    that reaches ceil(S / s): s (P + ceil(max(0, ceil(S / s) - P) / (P/2)) P/2).
    """
    stride, half = STRIDES[4], patch // 2
    steps = -(-max(0, -(-side // stride) - patch) // half)
    return stride * (patch + steps * half)


def plan_visits(partition, z0, t_count, apex_t_max, continuity_mode):
    """The schedule: every frame after the anchor (z0, 0), in visit order.

    Returns a list of (query, bank ids) pairs; each bank lists its memory
    frames anchor first, duplicates dropped. The plan depends only on the
    grid shape and the settings, never on image content; of the partition
    it reads only which slices are apex slices, and its slice count:

    * "both": phase by phase (ascending), the temporal step to (z0, tau),
      then one sweep toward the base and one toward the apex, with
      same-slice history in the banks of slices in partition.apex (up to
      apex_t_max frames in total).
    * "spatial-only": the same visits, but apex banks drop the history.
    * "temporal-only": one sweep at phase 0, then slice by slice each
      slice's own chain in time, anchored at its phase-0 frame.
    """
    z_count = partition.z_count
    plan = []

    def visit(query, ids):
        plan.append((query, list(dict.fromkeys(ids))))

    def chain(z, t):
        visit((z, t), [(z, 0), (z, t - 1)])

    def sweep(tau, history):
        for step in (-1, 1):
            z = z0 + step
            while 0 <= z < z_count:
                ids = [(z0, 0), (z - step, tau)]
                if history and z in partition.apex:
                    ids += [(z, t) for t in range(tau - 1, -1, -1)][:apex_t_max - 2]
                visit((z, tau), ids)
                z += step

    if continuity_mode == "temporal-only":
        sweep(0, history=False)
        for z in range(z_count):
            for t in range(1, t_count):
                chain(z, t)
    else:
        for tau in range(t_count):
            if tau:
                chain(z0, tau)
            sweep(tau, history=continuity_mode == "both")
    return plan


def _release(fids, uses, cache):
    """Count one use of each frame; drop its cache entry after the last."""
    for fid in fids:
        uses[fid] -= 1
        if uses[fid] <= 0:
            cache.pop(fid, None)


def _labels(scores):
    """The uint8 (H, W) class of each pixel's highest score in finite
    (C, H, W) scores, ties to the lower class: argmax(axis=0), by a running
    maximum over the classes, C whole-map passes in place of argmax's
    walk over each pixel's C strided scores."""
    labels = np.zeros(scores.shape[1:], dtype=np.uint8)
    best = scores[0].copy()
    for c in range(1, len(scores)):
        labels[scores[c] > best] = c
        np.maximum(best, scores[c], out=best)
    return labels


class PropagationEngine:
    """Runs the plan one frame at a time, keeping only state a later step needs.

    A frame's key pyramid lives from its first use to its last planned use as
    query or memory; its value pyramid from its segmentation to its last
    planned use as memory. Labels go to the output volume at input
    resolution as soon as a frame is segmented.
    """

    def __init__(self, volume, cfg):
        if not isinstance(volume, CineVolume):
            raise ParameterError("volume must be a CineVolume")
        self.volume = volume
        self.cfg = cfg
        z = volume.z_count
        self.partition = partition_regions(z, cfg.region_fractions)
        self.z0 = z // 2 if cfg.z0 is None else cfg.z0
        if self.z0 not in self.partition.middle:
            raise PartitionError(
                f"z0={self.z0} is not a middle-region slice "
                f"(middle = {self.partition.middle})")

        if cfg.working_side is not None:
            self.work_h = self.work_w = cfg.working_side
        else:
            self.work_h = working_side_for(volume.height, cfg.patch)
            self.work_w = working_side_for(volume.width, cfg.patch)
            side = max(self.work_h, self.work_w)
            if side > MAX_WORKING_SIDE:
                raise ParameterError(f"working side {side} for patch {cfg.patch} exceeds "
                                     f"the largest supported, {MAX_WORKING_SIDE}")

        self.plan = plan_visits(self.partition, self.z0, volume.t_count,
                                cfg.apex_t_max, cfg.continuity_mode)
        self._key_uses = Counter()
        self._value_uses = Counter()
        for query, ids in self.plan:
            self._key_uses.update([query, *ids])
            self._value_uses.update(ids)
        self._keys = {}
        self._values = {}
        self.masks = np.zeros((z, volume.t_count, volume.height, volume.width),
                              dtype=np.uint8)
        self.provenance = {}  # in segmentation order

    def keys_of(self, z, t):
        fid = (z, t)
        if fid not in self._keys:
            frame = self.volume.frame(z, t).astype(_MATCH_DTYPE, copy=False)
            img = resize_bilinear(frame, self.work_h, self.work_w)
            np.clip(img, 0.0, 1.0, out=img)
            self._keys[fid] = encode_key(img, self.cfg.encoder)
        return self._keys[fid]

    def _finish(self, fid, labels, soft, provenance):
        """Record a segmented frame; pool its values only if a bank needs them."""
        self.masks[fid] = labels
        self.provenance[fid] = provenance
        if self._value_uses[fid] > 0:
            self._values[fid] = encode_value(soft)

    def _check_unsegmented(self, fid):
        if fid in self.provenance:
            raise SchedulingError(f"frame {fid} was already segmented")

    # seeding --------------------------------------------------------------

    def seed_anchor(self, seed_labels):
        """Install the annotated mask, labels 0..grids.MAX_LABEL, at (z0, 0)."""
        seed_labels = np.asarray(seed_labels)
        if seed_labels.shape != (self.volume.height, self.volume.width):
            raise DimensionError(
                f"seed mask shape {seed_labels.shape} does not match frames "
                f"({self.volume.height}, {self.volume.width})")
        fid = (self.z0, 0)
        self._check_unsegmented(fid)
        soft = one_hot(seed_labels).probabilities.astype(_MATCH_DTYPE)
        work = renormalized(resize_bilinear(soft, self.work_h, self.work_w))
        self._finish(fid, seed_labels, SoftLabelMap(work), provenance=[])

    # bank assembly and matching --------------------------------------------

    def build_bank(self, frame_ids):
        """(frame id, key pyramid, value pyramid) of the listed frames, in order."""
        bank = []
        for fid in frame_ids:
            if fid not in self._values:
                raise SchedulingError(
                    f"frame {fid} has no mask yet or no planned use left; "
                    "cannot serve as memory")
            bank.append((fid, self.keys_of(*fid), self._values[fid]))
        return bank

    def segment_frame(self, query, bank):
        """Segment one frame against an assembled bank, a list of
        (frame id, key pyramid, value pyramid) triples.

        Writes its labels at input resolution to the output volume, records
        its provenance, and frees every pyramid this step used for the last
        time.
        """
        if not bank:
            raise SchedulingError(f"empty memory bank for query {query}")
        self._check_unsegmented(query)
        ids, mem_keys, mem_values = zip(*bank)
        cfg = self.cfg
        q_keys = self.keys_of(*query)

        def at(s):
            return q_keys[s], [m[s] for m in mem_keys], [m[s] for m in mem_values]

        if cfg.matcher == "dense":
            readouts = {s: dense_readout(*at(s)) for s in cfg.scales}
        else:
            # both scales tile into the same patch count, so K clamps alike
            n = make_layout(q_keys[4].height, q_keys[4].width, cfg.patch).n_patches
            k_eff = min(cfg.k, len(bank) * n)
            if len(cfg.scales) > 1:
                readouts = match_multiscale(q_keys, mem_keys, mem_values, cfg.patch, k_eff)
            else:  # one scale, its own top-K
                ((s, patch),) = scale_patches(cfg.scales, cfg.patch).items()
                readouts = {s: plmm_forward(*at(s), patch=patch, k=k_eff).readout}

        soft = decode(readouts)
        full = renormalized(resize_bilinear(soft.probabilities, self.volume.height,
                                            self.volume.width))
        self._finish(query, _labels(full), soft, provenance=list(ids))
        _release([query, *ids], self._key_uses, self._keys)
        _release(ids, self._value_uses, self._values)

    # output -----------------------------------------------------------------

    def collect_result(self):
        missing = self.volume.z_count * self.volume.t_count - len(self.provenance)
        if missing:
            raise SchedulingError(f"{missing} frames were never segmented")
        return PropagationResult(
            masks=LabelVolume(self.masks, spacing_mm=self.volume.spacing_mm),
            provenance=dict(self.provenance),
            work_dims=(self.work_h, self.work_w),
        )


def run_4d(volume, seed_labels, cfg=PropagationConfig()):
    """Propagate the anchor mask to every (z, t) frame.

    Runs the plan of ``plan_visits`` for cfg.continuity_mode. Every frame is
    segmented exactly once; the anchor keeps the seed mask verbatim.
    """
    engine = PropagationEngine(volume, cfg)
    engine.seed_anchor(seed_labels)
    for query, bank_ids in engine.plan:
        engine.segment_frame(query, engine.build_bank(bank_ids))
    return engine.collect_result()
