"""4D mask propagation over a cine volume.

One annotated frame (the anchor: middle slice z0 at phase t0) is pushed
through the whole (Z, T) grid with small, region-dependent memory banks:

* temporal pass: the anchor's slice is propagated forward in time; each
  query at (z0, t) matches against the anchor and the previous phase
  (z0, t-1), never more than two frames.
* spatial passes: for each phase tau in ascending order, slices are
  segmented outward from z0 toward the base and toward the apex. Basal and
  middle queries match against the anchor plus the adjacent slice one step
  closer to z0 at the same phase. Apex queries additionally see their own
  slice at earlier phases (tau-1, tau-2, ...), up to apex_t_max entries in
  total, because apical anatomy can vanish through the cycle and the
  adjacent slice alone is a weak guide there.

Slice continuity (the z chain) and temporal continuity (the same-slice
history) can be ablated independently via continuity_mode.

Frames are resampled to an admissible working resolution before matching
(dims divisible by 16 whose stride-16 grid the patch size tiles exactly);
predicted masks are resampled back to the input resolution. Predicted
frames re-enter memory through their soft (pre-argmax) maps; the anchor
always contributes its exact one-hot seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    LabelError,
    ParameterError,
    PartitionError,
    SchedulingError,
    StateError,
)
from .featurizer import EncoderConfig, decode, encode_key, encode_value
from .grids import CineVolume, LabelVolume, SoftLabelMap, one_hot, resize_bilinear
from .matcher import dense_readout, plmm_forward
from .patcher import make_layout
from .pyramid import match_multiscale

REGION_BASAL = "basal"
REGION_MIDDLE = "middle"
REGION_APEX = "apex"


@dataclass(frozen=True)
class RegionPartition:
    """Contiguous basal / middle / apex slice index ranges."""

    basal: tuple
    middle: tuple
    apex: tuple

    def region_of(self, z):
        if z in self.basal:
            return REGION_BASAL
        if z in self.middle:
            return REGION_MIDDLE
        if z in self.apex:
            return REGION_APEX
        raise ParameterError(f"slice {z} is outside the partition")

    @property
    def z_count(self):
        return len(self.basal) + len(self.middle) + len(self.apex)


def partition_regions(z_count, fractions=(1.0 / 3.0, 1.0 / 3.0)):
    """Split slice indices into basal, middle, and apex thirds.

    The basal region takes the first ceil(Z * basal_frac) slices, the apex
    the last ceil(Z * apex_frac); whatever remains in between is the middle.
    An empty middle is an error.
    """
    if z_count < 1:
        raise ParameterError(f"z_count must be positive, got {z_count}")
    bf, af = float(fractions[0]), float(fractions[1])
    if not (0.0 < bf < 1.0 and 0.0 < af < 1.0):
        raise ParameterError(f"region fractions must lie in (0, 1), got {fractions}")
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


@dataclass
class BankEntry:
    """One memory frame: its index plus encoded key and value pyramids."""

    z: int
    t: int
    keys: object
    values: object

    @property
    def frame_id(self):
        return (self.z, self.t)


@dataclass(frozen=True)
class PropagationConfig:
    """Knobs of the 4D scheduler and its matcher.

    Attributes:
        z0: annotated slice; defaults to Z // 2, must fall in the middle
            region.
        t0: annotated phase; the scheduler propagates forward only, so a
            full run requires t0 == 0.
        patch: scale-4 patch size P; scale 3 uses 2 * P.
        k: memory patches kept per query patch (clamped to the bank's
            total patch count when memory is small).
        scales: active pyramid scales, a non-empty subset of (3, 4).
        region_fractions: (basal, apex) slice fractions.
        apex_t_max: bank capacity for apex queries (2 disables the
            same-slice history, 3 is the default single extra phase).
        continuity_mode: "both", "spatial-only", or "temporal-only".
        matcher: "plmm" for patch-level matching, "dense" for the
            all-pairs reference.
        working_side: fixed working resolution (must be admissible);
            None picks the smallest admissible size per axis.
        encoder: key encoder settings.
    """

    z0: int | None = None
    t0: int = 0
    patch: int = 6
    k: int = 4
    scales: tuple = (3, 4)
    region_fractions: tuple = (1.0 / 3.0, 1.0 / 3.0)
    apex_t_max: int = 3
    continuity_mode: str = "both"
    matcher: str = "plmm"
    working_side: int | None = None
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        if self.patch < 2 or self.patch % 2:
            raise ParameterError(f"patch must be even and >= 2, got {self.patch}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        scales = tuple(sorted(set(self.scales)))
        if not scales or any(s not in (3, 4) for s in scales):
            raise ParameterError(f"scales must be a non-empty subset of (3, 4), got {self.scales}")
        object.__setattr__(self, "scales", scales)
        if self.apex_t_max < 2:
            raise ParameterError(f"apex_t_max must be >= 2, got {self.apex_t_max}")
        if self.continuity_mode not in ("both", "spatial-only", "temporal-only"):
            raise ParameterError(f"unknown continuity mode {self.continuity_mode!r}")
        if self.matcher not in ("plmm", "dense"):
            raise ParameterError(f"unknown matcher {self.matcher!r}")
        if self.t0 < 0:
            raise ParameterError(f"t0 must be >= 0, got {self.t0}")


@dataclass
class PropagationResult:
    """Everything a full 4D run produces.

    provenance maps each frame to the ordered list of memory frames its
    bank held (empty for the given anchor); order is the execution order,
    anchor first.
    """

    masks: LabelVolume
    provenance: dict
    order: list
    work_dims: tuple
    config: PropagationConfig


def working_side_for(side, patch):
    """Smallest admissible working size >= side for this patch size.

    Admissible means divisible by 16 with a stride-16 grid the patch tiles:
    grid = S / 16 satisfies grid >= P and (grid - P) % (P / 2) == 0.
    """
    grid = patch
    while 16 * grid < side:
        grid += patch // 2
    return 16 * grid


def _is_admissible(side, patch):
    if side % 16:
        return False
    grid = side // 16
    return grid >= patch and (grid - patch) % (patch // 2) == 0


class PropagationEngine:
    """Stateful scheduler: per-frame caches, bank assembly, one-frame segmentation."""

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
        if not 0 <= cfg.t0 < volume.t_count:
            raise ParameterError(f"t0={cfg.t0} outside 0..{volume.t_count - 1}")
        self.t0 = cfg.t0

        if cfg.working_side is not None:
            if not _is_admissible(cfg.working_side, cfg.patch):
                raise ParameterError(
                    f"working_side {cfg.working_side} is not admissible for "
                    f"patch {cfg.patch}")
            self.work_h = self.work_w = cfg.working_side
        else:
            self.work_h = working_side_for(volume.height, cfg.patch)
            self.work_w = working_side_for(volume.width, cfg.patch)

        self._frames = {}
        self._keys = {}
        self._values = {}
        self.soft = {}
        self.provenance = {}
        self.order = []

    # frame-level caches ---------------------------------------------------

    def work_frame(self, z, t):
        fid = (z, t)
        if fid not in self._frames:
            img = resize_bilinear(self.volume.frame(z, t), self.work_h, self.work_w)
            self._frames[fid] = np.clip(img, 0.0, 1.0)
        return self._frames[fid]

    def keys_of(self, z, t):
        fid = (z, t)
        if fid not in self._keys:
            self._keys[fid] = encode_key(self.work_frame(z, t), self.cfg.encoder)
        return self._keys[fid]

    def values_of(self, z, t):
        fid = (z, t)
        if fid not in self._values:
            if fid not in self.soft:
                raise SchedulingError(
                    f"frame {fid} has no mask yet; cannot serve as memory")
            self._values[fid] = encode_value(SoftLabelMap(self.soft[fid]))
        return self._values[fid]

    # seeding --------------------------------------------------------------

    def seed_anchor(self, seed_labels, num_classes=3):
        """Install the annotated mask at (z0, t0)."""
        seed_labels = np.asarray(seed_labels)
        if seed_labels.shape != (self.volume.height, self.volume.width):
            raise DimensionError(
                f"seed mask shape {seed_labels.shape} does not match frames "
                f"({self.volume.height}, {self.volume.width})")
        if not np.issubdtype(seed_labels.dtype, np.integer):
            raise LabelError("seed mask must be integer-typed")
        self.seed_labels = seed_labels.astype(np.uint8)
        soft = one_hot(seed_labels, num_classes).probabilities
        work = np.clip(resize_bilinear(soft, self.work_h, self.work_w), 0.0, 1.0)
        work /= np.maximum(work.sum(axis=0, keepdims=True), 1e-12)
        self.install_soft(self.z0, self.t0, work, provenance=[])

    def install_soft(self, z, t, soft_work, provenance):
        fid = (z, t)
        if fid in self.soft:
            raise SchedulingError(f"frame {fid} was already segmented")
        self.soft[fid] = soft_work
        self.provenance[fid] = list(provenance)
        self.order.append(fid)

    # bank assembly and matching --------------------------------------------

    def build_bank(self, frame_ids):
        """Encode the listed frames, duplicates dropped and order kept."""
        return [BankEntry(z=z, t=t, keys=self.keys_of(z, t), values=self.values_of(z, t))
                for z, t in dict.fromkeys(frame_ids)]

    def segment_frame(self, query, bank):
        """Segment one frame against an assembled bank (a list of BankEntry).

        Returns (hard labels, soft map), both at working resolution, and
        records the result plus provenance in the engine state.
        """
        if not bank:
            raise StateError(f"empty memory bank for query {query}")
        z, t = query
        cfg = self.cfg
        q_keys = self.keys_of(z, t)
        mem_keys = [e.keys for e in bank]
        mem_values = [e.values for e in bank]

        def at(scale):
            name = f"scale{scale}"
            return (getattr(q_keys, name), [getattr(m, name) for m in mem_keys],
                    [getattr(m, name) for m in mem_values])

        readouts = {}
        if cfg.matcher == "dense":
            for s in cfg.scales:
                readouts[s] = dense_readout(*at(s))
        else:
            # both scales tile into the same patch count, so K clamps alike
            n = make_layout(q_keys.scale4.height, q_keys.scale4.width, cfg.patch).n_patches
            k_eff = min(cfg.k, len(bank) * n)
            if cfg.scales == (3, 4):
                res = match_multiscale(q_keys, mem_keys, mem_values, cfg.patch, k_eff)
                readouts = {3: res.readout3, 4: res.readout4}
            else:  # one scale, its own top-K; scale 3 uses patch 2P
                (s,) = cfg.scales
                readouts[s] = plmm_forward(*at(s), patch=cfg.patch * (2 if s == 3 else 1),
                                           k=k_eff).readout

        soft = decode(readouts.get(3), readouts.get(4))
        self.install_soft(z, t, soft.probabilities, provenance=[e.frame_id for e in bank])
        return soft.argmax_labels(), soft

    # passes -----------------------------------------------------------------

    def temporal_bank_ids(self, t):
        return [(self.z0, self.t0), (self.z0, t - 1)]

    def z_bank_ids(self, z, tau, step, allow_apex_history):
        """Bank frame ids for a z-pass query at slice z, phase tau."""
        z_adj = z - step  # one step back toward z0
        ids = [(self.z0, self.t0), (z_adj, tau)]
        if allow_apex_history and self.partition.region_of(z) == REGION_APEX:
            t_hist = tau - 1
            while t_hist >= self.t0 and len(ids) < self.cfg.apex_t_max:
                ids.append((z, t_hist))
                t_hist -= 1
        return ids

    def run_temporal_pass(self):
        for t in range(self.t0 + 1, self.volume.t_count):
            self.segment_frame((self.z0, t), self.build_bank(self.temporal_bank_ids(t)))

    def run_z_pass(self, tau, direction, allow_apex_history):
        if direction not in ("base", "apex"):
            raise ParameterError(f"direction must be 'base' or 'apex', got {direction!r}")
        step = -1 if direction == "base" else 1
        z = self.z0 + step
        while 0 <= z < self.volume.z_count:
            bank = self.build_bank(self.z_bank_ids(z, tau, step, allow_apex_history))
            self.segment_frame((z, tau), bank)
            z += step

    # output -----------------------------------------------------------------

    def soft_to_labels(self, soft_work):
        """Resample a working-resolution soft map back and take the argmax."""
        full = resize_bilinear(soft_work, self.volume.height, self.volume.width)
        full = np.clip(full, 0.0, 1.0)
        full /= np.maximum(full.sum(axis=0, keepdims=True), 1e-12)
        return full.argmax(axis=0).astype(np.uint8)

    def collect_result(self):
        z_count, t_count = self.volume.z_count, self.volume.t_count
        expected = {(z, t) for z in range(z_count) for t in range(t_count)}
        missing = expected - set(self.soft)
        if missing:
            raise SchedulingError(f"{len(missing)} frames were never segmented")
        masks = np.zeros((z_count, t_count, self.volume.height, self.volume.width),
                         dtype=np.uint8)
        for (z, t), soft_work in self.soft.items():
            if (z, t) == (self.z0, self.t0):
                masks[z, t] = self.seed_labels
            else:
                masks[z, t] = self.soft_to_labels(soft_work)
        return PropagationResult(
            masks=LabelVolume(masks, spacing_mm=self.volume.spacing_mm),
            provenance=dict(self.provenance),
            order=list(self.order),
            work_dims=(self.work_h, self.work_w),
            config=self.cfg,
        )


def run_4d(volume, seed_labels, cfg=PropagationConfig()):
    """Propagate the anchor mask to every (z, t) frame.

    The schedule depends on continuity_mode:

    * "both" (default): temporal pass along z0, then per phase (ascending)
      one pass toward the base and one toward the apex, with same-slice
      history in apex banks.
    * "spatial-only": identical schedule but apex banks drop the
      same-slice history.
    * "temporal-only": one spatial sweep at t0 gives every slice a starting
      mask; each slice then propagates forward in time on its own, anchored
      at its own t0 frame.

    Every frame is segmented exactly once; the anchor keeps the seed mask
    verbatim.
    """
    if cfg.t0 != 0:
        raise SchedulingError(
            "run_4d propagates forward in time only, so full coverage "
            "requires t0 == 0")
    engine = PropagationEngine(volume, cfg)
    engine.seed_anchor(seed_labels)

    if cfg.continuity_mode in ("both", "spatial-only"):
        engine.run_temporal_pass()
        allow_hist = cfg.continuity_mode == "both"
        for tau in range(engine.t0, volume.t_count):
            engine.run_z_pass(tau, "base", allow_apex_history=allow_hist)
            engine.run_z_pass(tau, "apex", allow_apex_history=allow_hist)
    else:  # temporal-only
        engine.run_z_pass(engine.t0, "base", allow_apex_history=False)
        engine.run_z_pass(engine.t0, "apex", allow_apex_history=False)
        for z in range(volume.z_count):
            for t in range(engine.t0 + 1, volume.t_count):
                bank = engine.build_bank([(z, engine.t0), (z, t - 1)])
                engine.segment_frame((z, t), bank)

    return engine.collect_result()
