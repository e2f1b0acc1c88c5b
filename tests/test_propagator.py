"""Region partition, memory bank policy, and 4D scheduling."""

import numpy as np
import pytest
from scipy import ndimage

from patchmem.errors import (
    DimensionError,
    LabelError,
    ParameterError,
    PartitionError,
    SchedulingError,
    StateError,
)
from patchmem.evalkit import PhantomSpec, gen_phantom, report_by_region
from patchmem.featurizer import EncoderConfig
from patchmem.grids import CineVolume
from patchmem import propagator
from patchmem.propagator import (
    PropagationConfig,
    PropagationEngine,
    partition_regions,
    run_4d,
    working_side_for,
)


def smooth_volume(z, t, h=48, w=48, seed=11):
    rng = np.random.default_rng(seed)
    frames = np.empty((z, t, h, w))
    for zi in range(z):
        for ti in range(t):
            base = ndimage.gaussian_filter(rng.random((h, w)), 3.0)
            frames[zi, ti] = (base - base.min()) / (base.max() - base.min())
    return CineVolume(frames)


def disc_seed(h=48, w=48):
    labels = np.zeros((h, w), dtype=np.uint8)
    yy, xx = np.mgrid[0:h, 0:w]
    labels[(yy - h / 2) ** 2 + (xx - w / 2) ** 2 < 64] = 1
    labels[(yy - h / 2) ** 2 + (xx - w / 4) ** 2 < 16] = 2
    return labels


FAST = PropagationConfig(patch=6, k=2, scales=(4,))


def seeded_engine(vol, cfg=FAST):
    engine = PropagationEngine(vol, cfg)
    engine.seed_anchor(disc_seed())
    return engine


def run_steps(engine, steps):
    """Segment the given plan steps in order; their provenance by frame."""
    for query, ids in steps:
        engine.segment_frame(query, engine.build_bank(ids))
    return {query: engine.provenance[query] for query, _ in steps}


def temporal_chain(engine):
    """The plan steps that advance the anchor's slice, in visit order."""
    return [(q, ids) for q, ids in engine.plan if q[0] == engine.z0]


def phase_sweep(engine, tau, direction):
    """The plan steps of one sweep at phase tau, in visit order."""
    step = -1 if direction == "base" else 1
    return [(q, ids) for q, ids in engine.plan
            if q[1] == tau and (q[0] - engine.z0) * step > 0]


class TestPartition:
    def test_nine_slices_in_thirds(self):
        part = partition_regions(9)
        assert part.basal == (0, 1, 2)
        assert part.middle == (3, 4, 5)
        assert part.apex == (6, 7, 8)
        assert part.z_count == 9

    def test_ten_slices_rounds_outer_regions_up(self):
        part = partition_regions(10)
        assert part.basal == (0, 1, 2, 3)
        assert part.middle == (4, 5)
        assert part.apex == (6, 7, 8, 9)

    def test_region_of(self):
        part = partition_regions(9)
        assert part.region_of(0) == "basal"
        assert part.region_of(4) == "middle"
        assert part.region_of(8) == "apex"
        with pytest.raises(ParameterError):
            part.region_of(9)

    def test_empty_middle_rejected(self):
        with pytest.raises(PartitionError):
            partition_regions(3, (0.45, 0.45))

    def test_bad_fractions_rejected(self):
        with pytest.raises(ParameterError):
            partition_regions(9, (0.0, 0.3))
        with pytest.raises(ParameterError):
            partition_regions(9, (0.3, 1.0))
        with pytest.raises(ParameterError):
            partition_regions(0)


class TestLabels:
    """The engine's label rule against argmax(axis=0)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_argmax_on_random_maps(self, dtype):
        rng = np.random.default_rng(5)
        for h, w in [(1, 1), (7, 13), (64, 48)]:
            scores = rng.random((4, h, w)).astype(dtype)
            labels = propagator._labels(scores)
            assert labels.dtype == np.uint8
            assert np.array_equal(labels, scores.argmax(axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tied", [(0, 1), (1, 3), (2, 3), (0, 2, 3), (1, 2, 3),
                                      (0, 1, 2, 3)])
    def test_ties_go_to_the_first_class(self, dtype, tied):
        # the tied classes share the top score at every pixel; the others
        # score lower, at every pixel or at every other one
        rng = np.random.default_rng(6)
        scores = rng.random((4, 9, 10)).astype(dtype) * 0.5
        top = (0.5 + rng.random((9, 10)) * 0.5).astype(dtype)
        for c in tied:
            scores[c] = top
        scores[:, ::2] = np.where(np.isin(np.arange(4), tied)[:, None, None],
                                  scores[:, ::2], top[::2] - 0.25)
        labels = propagator._labels(scores)
        assert labels.dtype == np.uint8
        assert np.array_equal(labels, scores.argmax(axis=0))
        assert (labels == min(tied)).all()


class TestMemoryBank:
    """Banks are planned frame ids; their caps are set where the plan makes them."""

    def test_anchor_survives_eviction(self):
        plan = dict(seeded_engine(smooth_volume(3, 5)).plan)
        assert plan[(2, 4)][0] == (1, 0)
        assert plan[(1, 4)][0] == (1, 0)

    def test_eviction_is_fifo_after_anchor(self):
        # the apex history keeps the newest phases of the slice
        engine = seeded_engine(smooth_volume(3, 5),
                               PropagationConfig(patch=6, k=2, scales=(4,), apex_t_max=4))
        assert dict(engine.plan)[(2, 4)] == [(1, 0), (1, 4), (2, 3), (2, 2)]

    def test_duplicates_ignored(self):
        # at the anchor phase the adjacent slice of z0 +- 1 is the anchor itself
        engine = seeded_engine(smooth_volume(3, 2))
        plan = dict(engine.plan)
        assert plan[(0, 0)] == plan[(2, 0)] == [(1, 0)]
        assert [e.frame_id for e in engine.build_bank(plan[(0, 0)])] == [(1, 0)]

    def test_capacity_one_cannot_evict(self):
        # at the smallest cap, 2, an apex bank has no room for history
        engine = seeded_engine(smooth_volume(3, 5),
                               PropagationConfig(patch=6, k=2, scales=(4,), apex_t_max=2))
        assert dict(engine.plan)[(2, 4)] == [(1, 0), (1, 4)]

    def test_capacity_must_be_positive(self):
        for cap in (0, 1):
            with pytest.raises(ParameterError):
                PropagationConfig(apex_t_max=cap)

    def test_first_temporal_bank_holds_one_frame(self):
        # at t = 1 the previous phase is the anchor itself
        engine = seeded_engine(smooth_volume(3, 2))
        bank = engine.build_bank(dict(engine.plan)[(1, 1)])
        assert [e.frame_id for e in bank] == [(1, 0)]


class TestPropagationConfig:
    def test_defaults(self):
        cfg = PropagationConfig()
        assert cfg.scales == (3, 4)
        assert cfg.apex_t_max == 3

    def test_scales_normalized(self):
        assert PropagationConfig(scales=(4, 3, 3)).scales == (3, 4)

    def test_json_lists_stored_as_tuples(self):
        cfg = PropagationConfig(scales=[4], region_fractions=[0.25, 0.5])
        assert cfg.scales == (4,) and cfg.region_fractions == (0.25, 0.5)

    @pytest.mark.parametrize("kwargs,message", [
        ({"k": "4"}, "k must be an integer, got '4'"),
        ({"region_fractions": [0.3]},
         "region_fractions must be a list of 2 finite numbers, got [0.3]"),
        ({"scales": [3, True]}, "scales must be a list of integers, got [3, True]"),
        ({"working_side": 2.5}, "working_side must be an integer or null, got 2.5"),
        ({"matcher": 1}, "matcher must be a string, got 1"),
    ])
    def test_type_errors_read_for_a_user(self, kwargs, message):
        with pytest.raises(ParameterError) as err:
            PropagationConfig(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("kwargs", [
        {"patch": 5},
        {"patch": 0},
        {"k": 0},
        {"scales": ()},
        {"scales": (2,)},
        {"apex_t_max": 1},
        {"continuity_mode": "none"},
        {"matcher": "exact"},
        {"k": "4"},
        {"k": True},
        {"patch": 6.0},
        {"scales": 3},
        {"scales": (3, "4")},
        {"region_fractions": (0.3,)},
        {"region_fractions": (0.3, float("nan"))},
        {"apex_t_max": 2.5},
        {"working_side": "288"},
        {"z0": 1.0},
        {"continuity_mode": None},
        {"encoder": {"key_channels": 64}},
    ])
    def test_invalid_settings(self, kwargs):
        with pytest.raises(ParameterError):
            PropagationConfig(**kwargs)


class TestWorkingResolution:
    @pytest.mark.parametrize("side,patch,want", [
        (48, 6, 96),
        (96, 6, 96),
        (97, 6, 144),
        (128, 6, 144),
        (200, 6, 240),
        (100, 4, 128),
    ])
    def test_smallest_admissible(self, side, patch, want):
        assert working_side_for(side, patch) == want

    def test_override_must_be_admissible(self):
        vol = smooth_volume(3, 2)
        cfg = PropagationConfig(patch=6, scales=(4,), working_side=100)
        with pytest.raises(ParameterError):
            run_4d(vol, disc_seed(), cfg)

    @pytest.mark.parametrize("overrides", [
        dict(patch=6, working_side=2064),
        dict(patch=1_000_000, working_side=None),
    ], ids=["explicit", "derived-from-patch"])
    def test_side_over_the_bound_is_refused(self, overrides):
        # 2064 is admissible for patch 6; patch 10^6 derives a side of 1.6e7
        cfg = PropagationConfig(scales=(4,), **overrides)
        with pytest.raises(ParameterError, match="working side"):
            PropagationEngine(smooth_volume(3, 2), cfg)

    def test_work_dims_reported(self):
        vol = smooth_volume(3, 2)
        result = run_4d(vol, disc_seed(), FAST)
        assert result.work_dims == (96, 96)


class TestEngineGuards:
    def test_seed_shape_mismatch(self):
        engine = PropagationEngine(smooth_volume(3, 2), FAST)
        with pytest.raises(DimensionError):
            engine.seed_anchor(np.zeros((32, 32), dtype=np.uint8))

    def test_seed_must_be_integer(self):
        engine = PropagationEngine(smooth_volume(3, 2), FAST)
        with pytest.raises(LabelError):
            engine.seed_anchor(np.zeros((48, 48)))

    def test_z0_outside_middle(self):
        vol = smooth_volume(9, 2)
        with pytest.raises(PartitionError):
            PropagationEngine(vol, PropagationConfig(z0=0, scales=(4,)))

    def test_frame_cannot_be_segmented_twice(self):
        engine = PropagationEngine(smooth_volume(3, 2), FAST)
        engine.seed_anchor(disc_seed())
        with pytest.raises(SchedulingError):
            engine.seed_anchor(disc_seed())
        query, ids = engine.plan[0]
        run_steps(engine, [(query, ids)])
        with pytest.raises(SchedulingError):
            engine.segment_frame(query, engine.build_bank([(1, 0)]))

    def test_memory_requires_a_mask(self):
        engine = PropagationEngine(smooth_volume(3, 2), FAST)
        engine.seed_anchor(disc_seed())
        with pytest.raises(SchedulingError):
            engine.build_bank([(0, 1)])

    def test_empty_bank_rejected(self):
        engine = PropagationEngine(smooth_volume(3, 2), FAST)
        engine.seed_anchor(disc_seed())
        with pytest.raises(StateError):
            engine.segment_frame((0, 0), [])


class TestTemporalPass:
    def test_provenance_chain(self):
        engine = seeded_engine(smooth_volume(3, 4))
        z0 = 1
        prov = run_steps(engine, temporal_chain(engine))
        assert engine.provenance[(z0, 0)] == []
        assert prov == {(z0, 1): [(z0, 0)],
                        (z0, 2): [(z0, 0), (z0, 1)],
                        (z0, 3): [(z0, 0), (z0, 2)]}

    def test_anchor_mask_kept_verbatim(self):
        engine = seeded_engine(smooth_volume(3, 2))
        anchor_values = engine.build_bank([(1, 0)])[0].values[4].data.copy()
        run_steps(engine, temporal_chain(engine))
        assert np.array_equal(engine.masks[1, 0], disc_seed())
        assert np.array_equal(engine.build_bank([(1, 0)])[0].values[4].data,
                              anchor_values)
        assert engine.masks[1, 1].shape == (48, 48)


class TestRun4d:
    def test_full_coverage_and_order(self):
        vol = smooth_volume(3, 2)
        result = run_4d(vol, disc_seed(), FAST)
        assert result.masks.labels.shape == (3, 2, 48, 48)
        expected = {(z, t) for z in range(3) for t in range(2)}
        assert set(result.order) == expected
        assert len(result.order) == len(expected)
        assert result.order[0] == (1, 0)
        assert set(result.provenance) == expected

    def test_anchor_seed_verbatim(self):
        vol = smooth_volume(3, 2)
        seed = disc_seed()
        result = run_4d(vol, seed, FAST)
        assert np.array_equal(result.masks.labels[1, 0], seed)

    def test_deterministic(self):
        vol = smooth_volume(3, 2)
        a = run_4d(vol, disc_seed(), FAST)
        b = run_4d(vol, disc_seed(), FAST)
        assert np.array_equal(a.masks.labels, b.masks.labels)

    def test_large_k_is_clamped(self):
        vol = smooth_volume(3, 2)
        cfg = PropagationConfig(patch=6, k=500, scales=(4,))
        result = run_4d(vol, disc_seed(), cfg)
        assert result.masks.labels.shape == (3, 2, 48, 48)


class TestContinuityModes:
    def test_both_gives_apex_history(self):
        vol = smooth_volume(3, 3)
        result = run_4d(vol, disc_seed(), FAST)
        # apex slice 2 at phase 2: anchor, adjacent slice, own history
        assert result.provenance[(2, 2)] == [(1, 0), (1, 2), (2, 1)]
        assert result.provenance[(2, 0)] == [(1, 0)]
        # basal banks never exceed two frames
        assert result.provenance[(0, 2)] == [(1, 0), (1, 2)]

    def test_apex_t_max_bounds_bank(self):
        vol = smooth_volume(3, 5)
        cfg = PropagationConfig(patch=6, k=2, scales=(4,), apex_t_max=4)
        result = run_4d(vol, disc_seed(), cfg)
        assert result.provenance[(2, 4)] == [(1, 0), (1, 4), (2, 3), (2, 2)]
        for (z, t), prov in result.provenance.items():
            part_cap = 4 if z == 2 else 2
            assert len(prov) <= part_cap

    def test_spatial_only_drops_history(self):
        vol = smooth_volume(3, 3)
        cfg = PropagationConfig(patch=6, k=2, scales=(4,),
                                continuity_mode="spatial-only")
        result = run_4d(vol, disc_seed(), cfg)
        assert result.provenance[(2, 2)] == [(1, 0), (1, 2)]
        for prov in result.provenance.values():
            assert len(prov) <= 2

    def test_temporal_only_chains_each_slice(self):
        vol = smooth_volume(3, 3)
        cfg = PropagationConfig(patch=6, k=2, scales=(4,),
                                continuity_mode="temporal-only")
        result = run_4d(vol, disc_seed(), cfg)
        # one spatial sweep at t0
        assert result.provenance[(0, 0)] == [(1, 0)]
        assert result.provenance[(2, 0)] == [(1, 0)]
        # then every slice advances on its own frames only
        for z in range(3):
            assert result.provenance[(z, 1)] == [(z, 0)]
            assert result.provenance[(z, 2)] == [(z, 0), (z, 1)]


class TestPropagateZ:
    """The spatial sweeps of one phase, run step by step from the plan."""

    def test_anchor_phase_pass(self):
        engine = seeded_engine(smooth_volume(3, 2))
        prov = run_steps(engine, phase_sweep(engine, 0, "apex"))
        assert prov == {(2, 0): [(1, 0)]}
        assert engine.masks.dtype == np.uint8

    def test_later_phase_needs_apex_history(self):
        engine = seeded_engine(smooth_volume(3, 2))
        run_steps(engine, temporal_chain(engine))
        # continuity "both" wants (2, 0) in the apex bank, so it must exist
        with pytest.raises(SchedulingError):
            run_steps(engine, phase_sweep(engine, 1, "apex"))
        run_steps(engine, phase_sweep(engine, 0, "apex"))
        prov = run_steps(engine, phase_sweep(engine, 1, "apex"))
        assert prov == {(2, 1): [(1, 0), (1, 1), (2, 0)]}

    def test_spatial_only_pass_skips_history(self):
        engine = seeded_engine(smooth_volume(3, 2), PropagationConfig(
            patch=6, k=2, scales=(4,), continuity_mode="spatial-only"))
        run_steps(engine, temporal_chain(engine))
        prov = run_steps(engine, phase_sweep(engine, 1, "apex"))
        assert prov == {(2, 1): [(1, 0), (1, 1)]}

    def test_missing_anchor_rejected(self):
        engine = PropagationEngine(smooth_volume(3, 2), FAST)
        with pytest.raises(SchedulingError):
            run_steps(engine, phase_sweep(engine, 0, "apex"))

    def test_matches_run_4d_on_anchor_phase(self):
        # sweeps at t0 depend only on the exact one-hot seed, so they must
        # reproduce the full scheduler frame for frame
        vol = smooth_volume(3, 2)
        full = run_4d(vol, disc_seed(), FAST)
        engine = seeded_engine(vol)
        run_steps(engine, phase_sweep(engine, 0, "base") + phase_sweep(engine, 0, "apex"))
        for z in (0, 2):
            assert np.array_equal(engine.masks[z, 0], full.masks.labels[z, 0])


class TestPlan:
    MODES = ("both", "spatial-only", "temporal-only")

    def test_visit_order_per_mode(self):
        def order(mode):
            engine = PropagationEngine(smooth_volume(3, 3), PropagationConfig(
                patch=6, k=2, scales=(4,), continuity_mode=mode))
            return [q for q, _ in engine.plan]

        # phase by phase: the anchor slice's step, then both sweeps
        assert order("both") == order("spatial-only") == [
            (0, 0), (2, 0), (1, 1), (0, 1), (2, 1), (1, 2), (0, 2), (2, 2)]
        assert order("temporal-only") == [(0, 0), (2, 0),
                                          (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("apex_t_max", [2, 3, 4])
    def test_each_pyramid_is_encoded_once(self, monkeypatch, mode, apex_t_max):
        calls = {"key": 0, "value": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(propagator, "encode_key", counted("key", propagator.encode_key))
        monkeypatch.setattr(propagator, "encode_value",
                            counted("value", propagator.encode_value))
        cfg = PropagationConfig(patch=6, k=2, scales=(4,), apex_t_max=apex_t_max,
                                continuity_mode=mode)
        result = run_4d(smooth_volume(5, 4), disc_seed(), cfg)
        memory = {fid for bank in result.provenance.values() for fid in bank}
        assert calls == {"key": 5 * 4, "value": len(memory)}

    @pytest.mark.parametrize("mode", MODES)
    def test_nothing_left_after_run(self, monkeypatch, mode):
        engines = []
        collect = PropagationEngine.collect_result

        def keep(self):
            engines.append(self)
            return collect(self)

        monkeypatch.setattr(PropagationEngine, "collect_result", keep)
        run_4d(smooth_volume(5, 3), disc_seed(),
               PropagationConfig(patch=6, k=2, scales=(4,), continuity_mode=mode))
        (engine,) = engines
        assert engine._keys == {} and engine._values == {}
        # the label volume is the only array the engine holds
        arrays = [name for name, v in vars(engine).items() if isinstance(v, np.ndarray)]
        assert arrays == ["masks"]

    @pytest.mark.parametrize("t_count", [4, 8, 16])
    # peak live frames as a function of (Z, T): phase-major plans hold a
    # constant; temporal-only runs slice by slice beside the phase-0 sweep
    @pytest.mark.parametrize("mode,peak", [
        ("both", lambda z, t: 6),
        ("spatial-only", lambda z, t: 3),
        ("temporal-only", lambda z, t: z + 1),
    ])
    def test_live_pyramids_bounded_by_policy(self, monkeypatch, t_count, mode, peak):
        live = []
        segment = PropagationEngine.segment_frame

        def count_live(self, query, bank):
            segment(self, query, bank)
            live.append(len(set(self._keys) | set(self._values)))

        monkeypatch.setattr(PropagationEngine, "segment_frame", count_live)
        run_4d(smooth_volume(9, t_count), disc_seed(),
               PropagationConfig(patch=6, k=2, scales=(4,), continuity_mode=mode))
        assert max(live) == peak(9, t_count)


class TestMatchPrecision:
    @pytest.mark.parametrize("matcher,scales", [
        ("plmm", (3, 4)), ("plmm", (3,)), ("dense", (3, 4))])
    def test_every_match_sees_float32(self, monkeypatch, matcher, scales):
        # a float64 volume and a uint8 seed go in; every key and value
        # pyramid a matcher receives, the anchor's one-hot values included,
        # is float32
        seen = []

        def spy_on(name):
            match = getattr(propagator, name)

            def spy(query, memory_keys, memory_values, *args, **kwargs):
                seen.append([query, *memory_keys, *memory_values])
                return match(query, memory_keys, memory_values, *args, **kwargs)
            monkeypatch.setattr(propagator, name, spy)

        for name in ("match_multiscale", "plmm_forward", "dense_readout"):
            spy_on(name)
        volume = smooth_volume(5, 3)
        assert volume.intensities.dtype == np.float64
        run_4d(volume, disc_seed(),
               PropagationConfig(patch=6, k=2, scales=scales, matcher=matcher))
        grids = [grid for inputs in seen for item in inputs
                 for grid in (item.values() if isinstance(item, dict) else [item])]
        assert len(seen) == 14 * (2 if matcher == "dense" and len(scales) == 2 else 1)
        assert {grid.data.dtype for grid in grids} == {np.dtype(np.float32)}

    def test_float32_engine_agrees_with_float64(self, monkeypatch):
        # criterion 07's phantom and settings, plmm; both runs measured 0
        # differing voxels and equal Dice, so the bounds leave room only for
        # rounding on another BLAS
        volume, truth = gen_phantom(PhantomSpec())
        seed_mask = truth.labels[4, 0]
        cfg = PropagationConfig(working_side=288, encoder=EncoderConfig(key_channels=64))
        dtypes = set()
        match = propagator.match_multiscale

        def spy(query, memory_keys, memory_values, *args, **kwargs):
            dtypes.add((query[3].data.dtype, memory_values[0][3].data.dtype))
            return match(query, memory_keys, memory_values, *args, **kwargs)

        monkeypatch.setattr(propagator, "match_multiscale", spy)
        runs = {}
        for dtype in (np.float32, np.float64):
            monkeypatch.setattr(propagator, "_MATCH_DTYPE", dtype)
            result = run_4d(volume, seed_mask, cfg)
            report = report_by_region(result.masks, truth, partition_regions(9))
            (dice,) = [r.dice for r in report.rows
                       if (r.region, r.class_label) == ("whole", "Avg")]
            runs[dtype] = result.masks.labels, dice
        assert dtypes == {(np.dtype(d), np.dtype(d)) for d in (np.float32, np.float64)}
        (single, dice32), (double, dice64) = runs[np.float32], runs[np.float64]
        assert int((single != double).sum()) <= 1e-4 * double.size
        assert abs(dice32 - dice64) <= 1e-4
