"""Handcrafted key encoding, value pooling, and decoding."""

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from patchmem.errors import DimensionError, ParameterError
from patchmem.featurizer import (
    BLUR_SIGMAS,
    PROJECTION_SEED,
    STRIDES,
    EncoderConfig,
    _blur_pool_operators,
    _box_mean3,
    _nonlinear_channels,
    _standardize,
    decode,
    encode_key,
    encode_value,
    pooled_raw_channels,
    projection_factor,
    projection_matrix,
)
from patchmem.grids import (
    FeatureGrid,
    SoftLabelMap,
    downsample_avg,
    one_hot,
    resize_bilinear,
)
from patchmem.matcher import (
    dense_readout,
    patch_affinity,
    plmm_forward,
    topk_select,
)
from patchmem.patcher import make_layout, unfold


def raw_channel_names():
    """Channel names of the raw bank, in the order pooled_raw_channels stacks them."""
    names = ["intensity"]
    names += [f"blur{int(s) if float(s).is_integer() else s}" for s in BLUR_SIGMAS]
    return names + ["gradmag", "localstd", "row", "col"]


def checkerboard(h, w, cell=8):
    yy, xx = np.mgrid[0:h, 0:w]
    return (((yy // cell) + (xx // cell)) % 2).astype(np.float64) * 0.8 + 0.1


def box_mean3(image):
    """The encoder's 3x3 local mean written out: pad by reflection, add three
    rows, then three columns of that, then divide by 9."""
    p = np.pad(image, 1, mode="symmetric")
    rows = p[:-2] + p[1:-1] + p[2:]
    return (rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]) / 9


def stacked_feature_bank(image):
    """The raw channel bank at frame resolution, a list of channels joined by np.stack."""
    h, w = image.shape
    channels = [image]
    for sigma in BLUR_SIGMAS:
        channels.append(ndimage.gaussian_filter(image, sigma=sigma, mode="reflect"))
    gy, gx = np.gradient(image)
    channels.append(np.sqrt(gy * gy + gx * gx))
    mean = box_mean3(image)
    mean_sq = box_mean3(image * image)
    channels.append(np.sqrt(np.maximum(mean_sq - mean * mean, 0.0)))
    channels.append(np.repeat(np.arange(h, dtype=np.float64)[:, None], w, axis=1) / (h - 1))
    channels.append(np.repeat(np.arange(w, dtype=np.float64)[None, :], h, axis=0) / (w - 1))
    return np.stack(channels, axis=0)


def full_bank_encode_key(image, key_channels):
    """encode_key by way of the full-resolution bank: stacked_feature_bank,
    downsample_avg, standardize, project."""
    bank = stacked_feature_bank(image)
    proj = projection_matrix(key_channels)
    out = {}
    for scale, stride in STRIDES.items():
        std = _standardize(downsample_avg(bank, stride).data)
        c, gh, gw = std.shape
        out[scale] = (proj @ std.reshape(c, gh * gw)).reshape(key_channels, gh, gw)
    return out


def pixel_sqdists(keys, pixels):
    """(n, n) squared distances between the key vectors of ``pixels``, flat
    indices into a (C, H, W) key grid, by explicit differences in float64."""
    x = keys.reshape(len(keys), -1)[:, pixels].T.astype(np.float64)
    d = x[:, None, :] - x[None, :, :]
    return (d * d).sum(axis=2)


def assert_same_sqdists(got, want, rtol):
    """Squared distances between 300 fixed pixels of each scale (all of them
    if fewer) of ``got`` lie within ``rtol`` of ``want``'s, pair by pair."""
    for scale in STRIDES:
        keys = got[scale].data
        n = keys.shape[1] * keys.shape[2]
        pixels = np.random.default_rng(n).choice(n, min(n, 300), replace=False)
        d_got, d_want = pixel_sqdists(keys, pixels), pixel_sqdists(want[scale], pixels)
        off = ~np.eye(len(pixels), dtype=bool)
        assert d_want[off].min() > 0
        assert (np.abs(d_got - d_want)[off] <= rtol * d_want[off]).all()
        assert (d_got[~off] == 0).all()


class TestRawFeatureBank:
    def test_channel_names_and_count(self):
        names = raw_channel_names()
        assert names == ["intensity", "blur1", "blur2", "blur4",
                         "gradmag", "localstd", "row", "col"]
        raw = pooled_raw_channels(checkerboard(32, 48))
        assert raw[4].shape == (8, 2, 3)
        assert raw[3].shape == (8, 4, 6)

    @pytest.mark.parametrize("shape", [(288, 288), (576, 576), (20, 33)])
    def test_bitwise_equal_to_stacked_channels(self, shape):
        # gradient magnitude and local std, the channels not linear in the
        # frame, keep the stacked formula's operations at frame resolution
        img = np.random.default_rng(shape[1]).random(shape)
        assert np.array_equal(_nonlinear_channels(img), stacked_feature_bank(img)[4:6])

    @pytest.mark.parametrize("dtype, bound", [(np.float32, 1.2e-7), (np.float64, 3.1e-15)])
    def test_box_mean_close_to_uniform_filter(self, dtype, bound):
        # ndimage keeps a running sum in float64 and rounds once to the
        # frame's dtype; the encoder adds in the frame's dtype, in fixed order
        for shape in [(288, 288), (576, 576), (20, 33), (1, 5)]:
            img = np.random.default_rng(shape[0] + shape[1]).random(shape).astype(dtype)
            got = _box_mean3(img, np.empty_like(img), np.empty_like(img))
            assert got.dtype == dtype
            assert np.array_equal(got, box_mean3(img))
            want = ndimage.uniform_filter(img, size=3, mode="reflect")
            assert np.abs(got - want).max() <= bound

    @pytest.mark.parametrize("shape", [(288, 288), (576, 576), (48, 80)])
    def test_close_to_pooled_full_bank(self, shape):
        img = np.random.default_rng(shape[0] + shape[1]).random(shape)
        bank = stacked_feature_bank(img)
        for name, raw in pooled_raw_channels(img).items():
            want = downsample_avg(bank, STRIDES[name]).data
            assert np.abs(raw - want).max() <= 1e-12
            assert np.array_equal(raw[4:6], want[4:6])

    def test_constant_image_channels(self):
        names = raw_channel_names()
        for raw in pooled_raw_channels(np.full((32, 32), 0.5)).values():
            assert np.allclose(raw[names.index("intensity")], 0.5, atol=1e-12)
            for blur in ("blur1", "blur2", "blur4"):
                assert np.allclose(raw[names.index(blur)], 0.5, atol=1e-12)
            assert np.allclose(raw[names.index("gradmag")], 0.0, atol=1e-12)
            assert np.allclose(raw[names.index("localstd")], 0.0, atol=1e-9)

    def test_coordinate_channels_monotone(self):
        names = raw_channel_names()
        for name, raw in pooled_raw_channels(checkerboard(32, 48)).items():
            rows = raw[names.index("row")]
            cols = raw[names.index("col")]
            # pooled coordinates are cell centres, symmetric about 0.5
            half = (STRIDES[name] - 1) / 2
            assert np.isclose(rows[0, 0], half / 31, atol=1e-15)
            assert np.isclose(rows[0, 0] + rows[-1, 0], 1.0, atol=1e-15)
            assert np.isclose(cols[0, 0], half / 47, atol=1e-15)
            assert (np.diff(rows, axis=0) > 0).all()
            assert (np.diff(cols, axis=1) > 0).all()
            assert np.array_equal(rows, np.broadcast_to(rows[:, :1], rows.shape))
            assert np.array_equal(cols, np.broadcast_to(cols[:1], cols.shape))

    def test_blur_preserves_mass_roughly_and_smooths(self):
        img = checkerboard(64, 64, cell=8)
        names = raw_channel_names()
        raw = pooled_raw_channels(img)[3]
        intensity = raw[names.index("intensity")]
        for blur in ("blur1", "blur2", "blur4"):
            ch = raw[names.index(blur)]
            assert abs(ch.mean() - intensity.mean()) < 1e-2
            assert ch.var() < intensity.var()
        # heavier blur smooths more
        assert (raw[names.index("blur4")].var()
                < raw[names.index("blur1")].var())

    def test_horizontal_flip_commutes_on_symmetric_channels(self):
        img = checkerboard(32, 48, cell=8) + 0.05 * np.random.default_rng(71).random((32, 48))
        img = np.clip(img, 0.0, 1.0)
        raw_a = pooled_raw_channels(img)
        raw_b = pooled_raw_channels(img[:, ::-1])
        names = raw_channel_names()
        for scale in STRIDES:
            for name in ("intensity", "blur1", "blur2", "blur4", "gradmag", "localstd"):
                c = names.index(name)
                assert np.abs(raw_a[scale][c, :, ::-1] - raw_b[scale][c]).max() < 1e-6


class TestBlurPoolOperators:
    @pytest.mark.parametrize("h, w, stride", [
        (288, 288, 8), (288, 288, 16), (576, 576, 8), (48, 80, 8), (48, 80, 16), (16, 32, 16),
    ])
    def test_each_operator_is_gaussian_filter_then_pool(self, h, w, stride):
        img = np.random.default_rng(h + w + stride).random((h, w))
        rows_op = _blur_pool_operators(h, stride)
        cols_op = _blur_pool_operators(w, stride)
        assert rows_op.shape == (1 + len(BLUR_SIGMAS), h // stride, h)
        assert np.abs(rows_op[0] @ img @ cols_op[0].T
                      - downsample_avg(img[None], stride).data[0]).max() <= 1e-14
        for c, sigma in enumerate(BLUR_SIGMAS, start=1):
            blurred = ndimage.gaussian_filter(img, sigma=sigma, mode="reflect")
            want = downsample_avg(blurred[None], stride).data[0]
            assert np.abs(rows_op[c] @ img @ cols_op[c].T - want).max() <= 1e-12

    @pytest.mark.parametrize("n", [48, 288, 576])
    @pytest.mark.parametrize("stride", [8, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_ndimage_operators(self, n, stride, dtype):
        eye = np.eye(n)
        pool = eye.reshape(n // stride, stride, n).mean(axis=1)
        want = [pool] + [pool @ ndimage.gaussian_filter1d(eye, sigma, axis=0, mode="reflect")
                         for sigma in BLUR_SIGMAS]
        got = _blur_pool_operators(n, stride, dtype)
        assert got.dtype == dtype
        assert np.array_equal(got, np.stack(want).astype(dtype))

    def test_cached_and_read_only(self):
        ops = _blur_pool_operators(48, 8)
        assert _blur_pool_operators(48, 8) is ops
        assert not ops.flags.writeable
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 1.0


class TestEncoderConfig:
    @pytest.mark.parametrize("value", [0, -1, "a", 2.5, True, None, 4097, 10 ** 8])
    def test_key_channels_checked(self, value):
        with pytest.raises(ParameterError, match="key_channels"):
            EncoderConfig(key_channels=value)


class TestEncodeKey:
    def test_pyramid_dims(self):
        # the default 32 projected channels span 8 dimensions: 8 key channels
        pyr = encode_key(checkerboard(48, 64))
        assert pyr[4].data.shape == (8, 3, 4)
        assert pyr[3].data.shape == (8, 6, 8)

    @pytest.mark.parametrize("key_channels", [1, 4, 8, 32, 64, 128])
    def test_key_width_is_projection_rank(self, key_channels):
        width = min(key_channels, 8)
        assert projection_factor(key_channels).shape == (width, 8)
        pyr = encode_key(checkerboard(48, 64), EncoderConfig(key_channels=key_channels))
        assert pyr[4].data.shape == (width, 3, 4)
        assert pyr[3].data.shape == (width, 6, 8)

    def test_deterministic(self):
        img = checkerboard(32, 32)
        a = encode_key(img)
        b = encode_key(img)
        assert np.array_equal(a[4].data, b[4].data)
        assert np.array_equal(a[3].data, b[3].data)

    def test_affine_intensity_invariance(self):
        # standardization cancels a positive affine intensity map, provided
        # every channel keeps enough spatial variance to clear the clamp
        rng = np.random.default_rng(7)
        img = ndimage.gaussian_filter(rng.random((64, 64)), 2.0)
        img = (img - img.min()) / (img.max() - img.min()) * 0.5 + 0.2
        a = encode_key(img)
        b = encode_key(img * 1.3 + 0.02)
        assert np.abs(a[4].data - b[4].data).max() < 1e-9
        assert np.abs(a[3].data - b[3].data).max() < 1e-9

    def test_dims_must_divide_by_16(self):
        with pytest.raises(DimensionError):
            encode_key(checkerboard(40, 32))

    @pytest.mark.parametrize("shape", [(32,), (2, 32, 32), (0, 32), (32, 0)])
    def test_frame_must_be_a_nonempty_map(self, shape):
        with pytest.raises(DimensionError):
            encode_key(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(288, 288), (576, 576), (48, 80)])
    def test_matches_full_bank_oracle(self, shape):
        # the matchers read keys only through squared distances, and those
        # of the 8-channel keys are the 64-channel oracle's
        img = np.random.default_rng(shape[0] * shape[1]).random(shape)
        got = encode_key(img, EncoderConfig(key_channels=64))
        want = full_bank_encode_key(img, 64)
        assert got[4].data.dtype == got[3].data.dtype == np.float64
        assert_same_sqdists(got, want, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(288, 288), (576, 576), (48, 80)])
    def test_float32_frame_gives_float32_keys(self, shape):
        # float32 rounding of the bank and its standardization moves a
        # distance by at most 2.8e-5 of itself on these frames (6.9e-14 in
        # float64)
        img = np.random.default_rng(shape[0] * shape[1]).random(shape)
        assert _nonlinear_channels(img.astype(np.float32)).dtype == np.float32
        got = encode_key(img.astype(np.float32), EncoderConfig(key_channels=64))
        want = full_bank_encode_key(img, 64)
        for scale in STRIDES:
            assert got[scale].data.dtype == np.float32
        assert_same_sqdists(got, want, rtol=1e-4)

    def test_peak_memory_at_576(self):
        # only the two nonlinear channels and their temporaries are
        # frame-sized, 2.7 MB each; the eight-channel bank alone would be 21 MB
        img = np.random.default_rng(76).random((576, 576))
        cfg = EncoderConfig(key_channels=64)
        tracemalloc.start()
        try:
            encode_key(img, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_projection_matrix_shape_and_scaling(self):
        mat = projection_matrix(EncoderConfig().key_channels)
        assert mat.shape == (32, 8)
        # rows have variance ~ 1/C_raw so squared distances gain ~ C_k/C_raw
        assert np.isclose(mat.var(), 1.0 / 8.0, rtol=0.2)

    def test_projection_matrix_memoized_read_only(self):
        mat = projection_matrix(64)
        assert projection_matrix(64) is mat
        assert not mat.flags.writeable
        fresh = np.random.default_rng(PROJECTION_SEED).standard_normal((64, 8)) / np.sqrt(8)
        assert np.array_equal(mat, fresh)

    @pytest.mark.parametrize("key_channels", [4, 64])
    def test_projection_factor_memoized_read_only(self, key_channels):
        r = projection_factor(key_channels)
        assert projection_factor(key_channels) is r
        assert not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 1.0
        # upper triangular, with the metric of the full projection
        assert np.array_equal(r, np.triu(r))
        p = projection_matrix(key_channels)
        assert np.abs(r.T @ r - p.T @ p).max() <= 1e-14 * np.abs(p.T @ p).max()


class TestFactorKeysMatchAsFullKeys:
    """Keys projected by R give the matchers the distances that keys
    projected by the full P give, so the same top-K tables and readouts."""

    def test_same_topk_and_readouts(self):
        # in float64 the scores differ by about 1e-15 of their range and the
        # readouts by under 6e-14, while the K-th and (K+1)-th scores of a
        # row lie at least 3.8e-5 of the range apart
        rng = np.random.default_rng(79)
        frames = [ndimage.gaussian_filter(rng.random((192, 192)), 3.0) for _ in range(3)]
        cfg = EncoderConfig(key_channels=64)
        for scale, patch in ((4, 4), (3, 6)):
            r_keys = [encode_key(f, cfg)[scale] for f in frames]
            p_keys = [FeatureGrid(full_bank_encode_key(f, 64)[scale]) for f in frames]
            assert (r_keys[0].channels, p_keys[0].channels) == (8, 64)
            values = [FeatureGrid(rng.random((3,) + r_keys[0].data.shape[1:]))
                      for _ in frames[1:]]
            layout = make_layout(r_keys[0].height, r_keys[0].width, patch)
            scores = [patch_affinity(unfold(keys[0], layout),
                                     [unfold(k, layout) for k in keys[1:]])
                      for keys in (r_keys, p_keys)]
            assert np.abs(scores[0] - scores[1]).max() <= 1e-13 * np.abs(scores[1]).max()
            topk = [topk_select(sc, 4) for sc in scores]
            assert np.array_equal(topk[0].ids, topk[1].ids)
            for match in (lambda keys: plmm_forward(keys[0], keys[1:], values, patch, 4).readout,
                          lambda keys: dense_readout(keys[0], keys[1:], values)):
                got, want = match(r_keys).data, match(p_keys).data
                assert np.abs(got - want).max() <= 1e-12


def soft_map(labels, dtype):
    """The one-hot SoftLabelMap of ``labels`` with probabilities in ``dtype``."""
    return SoftLabelMap(one_hot(labels).probabilities.astype(dtype))


class TestEncodeValue:
    # a soft map's pyramid keeps its dtype; class fractions of 8x8 and
    # 16x16 cells are exact in float32 too
    def test_pooled_cells_are_class_fractions(self):
        labels = np.zeros((32, 32), dtype=np.uint8)
        labels[:16, :] = 1
        labels[20:24, 0:8] = 2
        for dtype in (np.float64, np.float32):
            pyr = encode_value(soft_map(labels, dtype))
            assert pyr[4].data.dtype == pyr[3].data.dtype == dtype
            # brute-force fraction for one 16x16 cell at scale 4
            cell = labels[0:16, 0:16]
            want = [(cell == c).mean() for c in range(4)]
            assert np.allclose(pyr[4].data[:, 0, 0], want, atol=1e-12)
            cell3 = labels[16:24, 0:8]
            want3 = [(cell3 == c).mean() for c in range(4)]
            assert np.allclose(pyr[3].data[:, 2, 0], want3, atol=1e-12)

    def test_normalization_preserved(self):
        rng = np.random.default_rng(72)
        labels = rng.integers(0, 4, size=(48, 48)).astype(np.uint8)
        for dtype in (np.float64, np.float32):
            pyr = encode_value(soft_map(labels, dtype))
            assert pyr[4].data.dtype == pyr[3].data.dtype == dtype
            assert np.allclose(pyr[4].data.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(pyr[3].data.sum(axis=0), 1.0, atol=1e-12)

    def test_requires_soft_label_map(self):
        with pytest.raises(ParameterError):
            encode_value(np.zeros((4, 32, 32)))

    def test_dims_the_strides_do_not_divide_are_refused(self):
        # 40 is a multiple of stride 8 but not of stride 16
        labels = np.zeros((40, 40), dtype=np.uint8)
        with pytest.raises(DimensionError):
            encode_value(soft_map(labels, np.float32))


def where_decode_reference(readout3, readout4):
    """decode's fusion with fresh temporaries and np.where, the bitwise
    oracle of the in-place form."""
    ups = [resize_bilinear(r.data, r.height * stride, r.width * stride)
           for r, stride in ((readout3, 8), (readout4, 16)) if r is not None]
    fused = ups[0] if len(ups) == 1 else 0.5 * (ups[0] + ups[1])
    fused = np.clip(fused, 0.0, 1.0)
    sums = fused.sum(axis=0, keepdims=True)
    uniform = 1.0 / fused.shape[0]
    return np.where(sums > 1e-12, fused / np.maximum(sums, 1e-12), uniform)


class TestDecode:
    @pytest.mark.parametrize("scales", [(3,), (4,), (3, 4)])
    def test_bitwise_equal_to_where_form(self, scales):
        # the soft map has the readouts' dtype
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(75)
            # values outside [0, 1] exercise the clip; the negative corner
            # block clips to all-zero pixels, which must decode to uniform
            d3 = (rng.random((4, 6, 6)) * 1.4 - 0.2).astype(dtype)
            d3[:, :2, :2] = -0.5
            d4 = (rng.random((4, 3, 3)) * 1.4 - 0.2).astype(dtype)
            d4[:, :1, :1] = -0.5
            grids = {3: FeatureGrid(d3), 4: FeatureGrid(d4)}
            readouts = {s: grids[s] for s in scales}
            before3, before4 = d3.copy(), d4.copy()
            got = decode(readouts).probabilities
            want = where_decode_reference(readouts.get(3), readouts.get(4))
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)
            assert np.array_equal(got[:, 0, 0], np.full(4, 0.25))
            assert np.array_equal(d3, before3) and np.array_equal(d4, before4)
            # the dict's order does not matter: scales are fused finest first
            reverse = {s: readouts[s] for s in reversed(scales)}
            assert np.array_equal(decode(reverse).probabilities, got)

    def test_all_zero_pixels_decode_to_uniform(self):
        zeros = FeatureGrid(np.zeros((4, 2, 2)))
        soft = decode({3: zeros})
        assert np.array_equal(soft.probabilities, np.full((4, 16, 16), 0.25))
        assert np.array_equal(zeros.data, np.zeros((4, 2, 2)))

    def test_single_scale_is_plain_upsample(self):
        rng = np.random.default_rng(73)
        probs = rng.random((4, 2, 2))
        probs /= probs.sum(axis=0, keepdims=True)
        soft = decode({4: FeatureGrid(probs)})
        assert soft.probabilities.shape == (4, 32, 32)
        assert np.allclose(soft.probabilities.sum(axis=0), 1.0, atol=1e-12)

    def test_both_scales_average(self):
        rng = np.random.default_rng(74)
        p4 = rng.random((4, 2, 2))
        p4 /= p4.sum(axis=0, keepdims=True)
        p3 = rng.random((4, 4, 4))
        p3 /= p3.sum(axis=0, keepdims=True)
        soft = decode({3: FeatureGrid(p3), 4: FeatureGrid(p4)})
        only3 = decode({3: FeatureGrid(p3)})
        only4 = decode({4: FeatureGrid(p4)})
        fused = 0.5 * (only3.probabilities + only4.probabilities)
        fused /= fused.sum(axis=0, keepdims=True)
        assert np.allclose(soft.probabilities, fused, atol=1e-9)

    def test_needs_at_least_one_scale(self):
        with pytest.raises(ParameterError):
            decode({})

    @pytest.mark.parametrize("scales", [(2,), (3, 5)])
    def test_scales_outside_the_pyramid_rejected(self, scales):
        grid = FeatureGrid(np.full((2, 2, 2), 0.5))
        with pytest.raises(ParameterError):
            decode({s: grid for s in scales})

    def test_incompatible_scales_rejected(self):
        # a scale-3 readout must be the scale-4 map doubled, with its channels
        p4 = FeatureGrid(np.full((2, 2, 2), 0.5))
        for shape3 in ((2, 6, 6), (2, 4, 6), (3, 4, 4)):
            with pytest.raises(DimensionError, match="different maps"):
                decode({3: FeatureGrid(np.full(shape3, 0.5)), 4: p4})
