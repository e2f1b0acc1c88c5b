"""Container types, resampling, and the CGRID file format."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from patchmem.errors import (
    ContainerError,
    ContainerFormatError,
    DataError,
    DimensionError,
    LabelError,
    ParameterError,
    TruncationError,
    UnsupportedDtypeError,
)
from patchmem.grids import (
    CARDIAC_LABELS,
    MAGIC,
    CineVolume,
    FeatureGrid,
    LabelVolume,
    SoftLabelMap,
    downsample_avg,
    load_container,
    one_hot,
    resize_bilinear,
    save_container,
)


def bilinear_reference(image, out_h, out_w):
    """Loop-based bilinear resampler with the half-pixel convention.

    Written independently of the library so it can act as an oracle.
    """
    in_h, in_w = image.shape
    out = np.zeros((out_h, out_w), dtype=np.float64)
    for oy in range(out_h):
        sy = (oy + 0.5) * in_h / out_h - 0.5
        sy = min(max(sy, 0.0), in_h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, in_h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = (ox + 0.5) * in_w / out_w - 0.5
            sx = min(max(sx, 0.0), in_w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, in_w - 1)
            fx = sx - x0
            top = image[y0, x0] * (1 - fx) + image[y0, x1] * fx
            bot = image[y1, x0] * (1 - fx) + image[y1, x1] * fx
            out[oy, ox] = top * (1 - fy) + bot * fy
    return out


def four_corner_reference(image, out_h, out_w):
    """The 2-d four-corner bilinear formula, the bitwise oracle of the
    separable resize. It runs in float32 for a float32 image, with the
    weights rounded once from float64, and in float64 for any other."""
    image = np.asarray(image)
    dtype = np.float32 if image.dtype == np.float32 else np.float64
    image = image.astype(dtype, copy=False)
    in_h, in_w = image.shape[-2], image.shape[-1]
    src_r = (np.arange(out_h, dtype=np.float64) + 0.5) * (in_h / out_h) - 0.5
    src_c = (np.arange(out_w, dtype=np.float64) + 0.5) * (in_w / out_w) - 0.5
    src_r = np.clip(src_r, 0.0, in_h - 1.0)
    src_c = np.clip(src_c, 0.0, in_w - 1.0)
    r0 = np.floor(src_r).astype(np.intp)
    c0 = np.floor(src_c).astype(np.intp)
    r1 = np.minimum(r0 + 1, in_h - 1)
    c1 = np.minimum(c0 + 1, in_w - 1)
    wr = (src_r - r0).astype(dtype).reshape(-1, 1)
    wc = (src_c - c0).astype(dtype).reshape(1, -1)
    top = image[..., r0, :]
    bot = image[..., r1, :]
    tl, tr = top[..., c0], top[..., c1]
    bl, br = bot[..., c0], bot[..., c1]
    return (1.0 - wr) * ((1.0 - wc) * tl + wc * tr) + wr * ((1.0 - wc) * bl + wc * br)


# the two real dtypes that resampling and soft maps keep; float32 results
# sit within float32 rounding of the float64 ones
DTYPES = [np.float64, np.float32]
ATOL = {np.float64: 1e-12, np.float32: 1e-6}


class TestFeatureGrid:
    def test_shape_and_props(self):
        g = FeatureGrid(np.zeros((3, 4, 5)))
        assert (g.channels, g.height, g.width) == (3, 4, 5)

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            FeatureGrid(np.zeros((4, 5)))

    def test_rejects_nan(self):
        data = np.zeros((1, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            FeatureGrid(data)

    def test_float32_kept_other_dtypes_held_as_float64(self):
        single = np.random.default_rng(3).random((2, 4, 4)).astype(np.float32)
        assert FeatureGrid(single).data is single
        assert downsample_avg(FeatureGrid(single), 2).data.dtype == np.float32
        for data in (single.astype(np.float16), np.ones((2, 4, 4), dtype=np.int64),
                     single.tolist()):
            assert FeatureGrid(data).data.dtype == np.float64


class TestCineVolume:
    def test_valid(self):
        v = CineVolume(np.random.default_rng(0).random((2, 3, 4, 4)))
        assert v.z_count == 2 and v.t_count == 3
        assert v.frame(1, 2).shape == (4, 4)

    def test_needs_two_phases(self):
        with pytest.raises(DimensionError):
            CineVolume(np.zeros((2, 1, 4, 4)))

    def test_range_enforced(self):
        bad = np.zeros((1, 2, 4, 4))
        bad[0, 0, 0, 0] = 1.5
        with pytest.raises(DataError):
            CineVolume(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_rejected_anywhere(self, value, dtype):
        for index in [(0, 0, 0, 0), (1, 1, 2, 3), (0, 1, 3, 0)]:
            bad = np.full((2, 2, 4, 4), 0.5, dtype=dtype)
            bad[index] = value
            with pytest.raises(DataError, match="non-finite"):
                CineVolume(bad)

    def test_spacing_positive(self):
        for spacing in [(0.0, 1.0), (float("nan"), 1.0), (1.0, float("inf"))]:
            with pytest.raises(ParameterError):
                CineVolume(np.zeros((1, 2, 4, 4)), spacing_mm=spacing)

    def test_float32_kept_and_checked(self):
        data = np.random.default_rng(1).random((2, 3, 4, 4)).astype(np.float32)
        v = CineVolume(data)
        assert v.intensities is data
        # frames are views of the stored array, in its dtype
        assert v.frame(1, 2).dtype == np.float32
        assert np.shares_memory(v.frame(1, 2), data)
        assert np.array_equal(v.frame(1, 2), data[1, 2])
        wide = CineVolume(data.astype(np.float16))
        assert wide.intensities.dtype == wide.frame(1, 2).dtype == np.float64
        for bad_value, error in [(np.float32(1.5), DataError), (np.float32("nan"), DataError)]:
            bad = data.copy()
            bad[0, 0, 0, 0] = bad_value
            with pytest.raises(error):
                CineVolume(bad)

    def test_loaded_volume_and_its_frames_are_float32(self, tmp_path):
        cine = CineVolume(np.random.default_rng(2).random((2, 3, 8, 8)))
        path = tmp_path / "cine.cgrid"
        save_container(cine, path)
        back = load_container(path)
        assert back.intensities.dtype == np.float32
        # the payload is the float64 volume rounded once to float32
        stored = cine.intensities.astype("<f4")
        for z in range(2):
            for t in range(3):
                frame = back.frame(z, t)
                assert frame.dtype == np.float32
                assert np.array_equal(frame, stored[z, t])


class TestLabelVolume:
    def test_valid(self):
        lv = LabelVolume(np.zeros((2, 2, 4, 4), dtype=np.uint8))
        assert lv.z_count == 2

    def test_uint8_kept_other_integers_converted(self):
        labels = np.zeros((1, 2, 4, 4), dtype=np.uint8)
        assert LabelVolume(labels).labels is labels
        wide = LabelVolume(labels.astype(np.int64)).labels
        assert wide.dtype == np.uint8 and np.array_equal(wide, labels)

    def test_rejects_out_of_range_label(self):
        bad = np.zeros((1, 2, 4, 4), dtype=np.uint8)
        bad[0, 0, 0, 0] = 4
        with pytest.raises(LabelError):
            LabelVolume(bad)

    def test_spacing_finite_and_positive(self):
        for spacing in [(-1.0, 1.0), (1.0, float("nan")), (float("inf"), 1.0)]:
            with pytest.raises(ParameterError):
                LabelVolume(np.zeros((1, 2, 4, 4), dtype=np.uint8),
                            spacing_mm=spacing)


class TestSoftLabelMap:
    def test_one_hot_round_trip(self):
        for dtype in DTYPES:
            rng = np.random.default_rng(3)
            labels = rng.integers(0, 4, size=(10, 12)).astype(np.uint8)
            probs = one_hot(labels, num_classes=3).probabilities.astype(dtype)
            soft = SoftLabelMap(probs)
            assert soft.probabilities is probs
            assert soft.probabilities.shape == (4, 10, 12)
            assert np.array_equal(soft.probabilities.argmax(axis=0), labels)

    def test_other_dtypes_held_as_float64(self):
        probs = np.zeros((2, 3, 3), dtype=np.float16)
        probs[0] = 1
        assert SoftLabelMap(probs).probabilities.dtype == np.float64
        assert SoftLabelMap(probs.astype(np.uint8)).probabilities.dtype == np.float64

    def test_rows_must_normalize(self):
        for dtype in DTYPES:
            probs = np.zeros((2, 3, 3), dtype=dtype)
            probs[0] = 0.7
            probs[1] = 0.2
            with pytest.raises(DataError):
                SoftLabelMap(probs)

    @staticmethod
    def _uniform(dtype):
        """A valid (3, 4, 5) map: every column is [0.5, 0.25, 0.25]."""
        probs = np.empty((3, 4, 5), dtype=dtype)
        probs[0] = 0.5
        probs[1:] = 0.25
        return probs

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0, 0), (1, 2, 3), (2, 3, 4)])
    def test_non_finite_rejected(self, dtype, bad, where):
        probs = self._uniform(dtype)
        probs[where] = bad
        with pytest.raises(DataError, match="non-finite"):
            SoftLabelMap(probs)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_negative_rejected(self, dtype):
        probs = self._uniform(dtype)
        probs[2, 1, 1] = -2e-9
        with pytest.raises(DataError, match="negative"):
            SoftLabelMap(probs)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("offset, ok", [(2e-5, False), (-2e-5, False),
                                            (5e-6, True), (-5e-6, True)])
    def test_column_sum_tolerance(self, dtype, offset, ok):
        probs = self._uniform(dtype)
        probs[0, 2, 3] += offset
        assert abs(float(probs[:, 2, 3].sum()) - (1.0 + offset)) < 1e-6
        if ok:
            assert SoftLabelMap(probs).probabilities is probs
        else:
            with pytest.raises(DataError, match="sum to 1"):
                SoftLabelMap(probs)


class TestResizeBilinear:
    def test_identity_when_same_size(self):
        for dtype in DTYPES:
            rng = np.random.default_rng(1)
            img = rng.random((7, 9)).astype(dtype)
            out = resize_bilinear(img, 7, 9)
            assert out.dtype == dtype
            assert np.array_equal(out, img)

    def test_matches_reference_resampler(self):
        for dtype in DTYPES:
            rng = np.random.default_rng(2)
            for _ in range(10):
                in_h, in_w = rng.integers(2, 12, size=2)
                out_h, out_w = rng.integers(2, 20, size=2)
                img = rng.random((in_h, in_w)).astype(dtype)
                got = resize_bilinear(img, out_h, out_w)
                want = bilinear_reference(img.astype(np.float64), out_h, out_w)
                assert got.dtype == dtype
                assert np.allclose(got, want, rtol=0, atol=ATOL[dtype])

    def test_channel_stack(self):
        for dtype in DTYPES:
            rng = np.random.default_rng(4)
            stack = rng.random((3, 5, 5)).astype(dtype)
            out = resize_bilinear(stack, 10, 10)
            assert out.shape == (3, 10, 10) and out.dtype == dtype
            for c in range(3):
                assert np.array_equal(out[c], resize_bilinear(stack[c], 10, 10))

    def test_constant_preserved(self):
        for dtype in DTYPES:
            img = np.full((4, 4), 0.37, dtype=dtype)
            out = resize_bilinear(img, 13, 6)
            assert out.dtype == dtype
            assert np.allclose(out, img[0, 0], rtol=0, atol=ATOL[dtype])

    def test_other_dtypes_resampled_in_float64(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = resize_bilinear(img, 8, 8)
        assert out.dtype == np.float64
        assert np.array_equal(out, resize_bilinear(img.astype(np.float64), 8, 8))

    @pytest.mark.parametrize("in_shape, out_hw", [
        ((7, 9), (7, 9)),
        ((5, 6), (13, 17)),
        ((13, 17), (5, 6)),
        ((3, 5, 7), (11, 4)),
        ((2, 9, 9), (9, 9)),
        ((1, 1), (4, 5)),
        ((1, 8), (3, 3)),
        ((2, 8, 1), (5, 2)),
        ((6, 6), (1, 1)),
        # every resize a benchmark study makes, at working sides 288 and 576
        ((128, 128), (288, 288)),
        ((4, 128, 128), (288, 288)),
        ((4, 36, 36), (288, 288)),
        ((4, 18, 18), (288, 288)),
        ((4, 288, 288), (128, 128)),
        ((256, 256), (576, 576)),
        ((4, 256, 256), (576, 576)),
        ((4, 72, 72), (576, 576)),
        ((4, 36, 36), (576, 576)),
        ((4, 576, 576), (256, 256)),
    ])
    def test_bitwise_equal_to_four_corner_formula(self, in_shape, out_hw):
        for dtype in DTYPES:
            rng = np.random.default_rng(sum(in_shape) + sum(out_hw))
            img = rng.random(in_shape).astype(dtype)
            before = img.copy()
            got = resize_bilinear(img, *out_hw)
            assert got.dtype == dtype
            assert np.array_equal(got, four_corner_reference(img, *out_hw))
            assert np.array_equal(img, before)
            assert not np.shares_memory(got, img)

    def test_peak_holds_output_plus_one_plane(self):
        # decode's scale-3 upsampling at working side 576: past the output,
        # one plane of bottom rows and the column pass of one plane, with
        # 256 KiB for index arrays and ufunc buffers
        for dtype in DTYPES:
            img = np.random.default_rng(6).random((4, 72, 72)).astype(dtype)
            tracemalloc.start()
            try:
                out = resize_bilinear(img, 576, 576)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            itemsize = np.dtype(dtype).itemsize
            plane = 576 * 576 * itemsize
            column_pass = 2 * 72 * 576 * itemsize
            assert out.nbytes == 4 * plane
            assert peak <= out.nbytes + plane + column_pass + (256 << 10)

    def test_bitwise_equal_on_non_contiguous_input(self):
        for dtype in DTYPES:
            rng = np.random.default_rng(5)
            base = rng.random((3, 20, 30)).astype(dtype)
            before = base.copy()
            for view in (base.transpose(0, 2, 1), base[:, ::2, 1::3], base[1].T):
                got = resize_bilinear(view, 17, 9)
                assert np.array_equal(got, four_corner_reference(view, 17, 9))
                assert not np.shares_memory(got, base)
            assert np.array_equal(base, before)


class TestDownsampleAvg:
    def test_matches_block_means(self):
        rng = np.random.default_rng(5)
        grid = FeatureGrid(rng.random((2, 8, 12)))
        out = downsample_avg(grid, 4)
        assert out.data.shape == (2, 2, 3)
        for c in range(2):
            for i in range(2):
                for j in range(3):
                    block = grid.data[c, 4 * i:4 * i + 4, 4 * j:4 * j + 4]
                    assert np.isclose(out.data[c, i, j], block.mean())
        # float32 at working-resolution shapes, against float64 block means;
        # integer data keeps every partial sum exact, and factor^2 is a power of 2
        for shape in ((4, 576, 576), (2, 288, 288)):
            for factor in (8, 16):
                c, h, w = shape
                for data, exact in ((rng.random(shape, dtype=np.float32), False),
                                    (rng.integers(0, 16, shape).astype(np.float32), True)):
                    want = data.astype(np.float64).reshape(
                        c, h // factor, factor, w // factor, factor).mean(axis=(2, 4))
                    got = downsample_avg(data, factor).data
                    assert got.dtype == np.float32
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-6
                    assert np.array_equal(got, want) or not exact

    def test_divisibility_enforced(self):
        with pytest.raises(DimensionError):
            downsample_avg(FeatureGrid(np.zeros((1, 9, 8))), 4)


def read_header(path):
    raw = open(path, "rb").read()
    assert raw[:len(MAGIC)] == MAGIC
    (hlen,) = struct.unpack("<Q", raw[len(MAGIC):len(MAGIC) + 8])
    header = json.loads(raw[len(MAGIC) + 8:len(MAGIC) + 8 + hlen])
    payload = raw[len(MAGIC) + 8 + hlen:]
    return header, payload


class TestContainerFormat:
    def test_label_volume_layout(self, tmp_path):
        path = tmp_path / "labels.cgrid"
        labels = np.zeros((1, 2, 8, 8), dtype=np.uint8)
        labels[0, 0, :2, :2] = 1
        save_container(LabelVolume(labels), path)
        header, payload = read_header(path)
        assert header["order"] == "ZTYX"
        assert header["dtype"] == "u8"
        assert header["dims"] == [1, 2, 8, 8]
        assert header["labels"] == CARDIAC_LABELS
        assert len(payload) == 128

    def test_byte_determinism(self, tmp_path):
        rng = np.random.default_rng(6)
        vol = CineVolume(rng.random((2, 2, 8, 8)), spacing_mm=(1.25, 1.5))
        p1, p2 = tmp_path / "a.cgrid", tmp_path / "b.cgrid"
        save_container(vol, p1)
        save_container(vol, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_round_trip_all_kinds(self, tmp_path):
        rng = np.random.default_rng(7)
        cine = CineVolume(rng.random((2, 3, 8, 8)), spacing_mm=(1.1, 0.9))
        labels = LabelVolume(
            rng.integers(0, 4, size=(2, 3, 8, 8)).astype(np.uint8),
            spacing_mm=(1.1, 0.9))
        mask2d = rng.integers(0, 4, size=(5, 7)).astype(np.uint8)
        for i, obj in enumerate([cine, labels, mask2d]):
            path = tmp_path / f"obj{i}.cgrid"
            save_container(obj, path)
            back = load_container(path)
            if isinstance(obj, CineVolume):
                assert isinstance(back, CineVolume)
                assert np.allclose(back.intensities, obj.intensities, atol=1e-6)
                assert back.spacing_mm == obj.spacing_mm
            elif isinstance(obj, LabelVolume):
                assert isinstance(back, LabelVolume)
                assert np.array_equal(back.labels, obj.labels)
            else:
                assert isinstance(back, np.ndarray) and back.dtype == np.uint8
                assert np.array_equal(back, obj)

    @pytest.mark.parametrize("obj", [
        FeatureGrid(np.zeros((2, 4, 4))),
        np.zeros((4, 4)),
        np.zeros((4, 4), dtype=bool),
        np.zeros((2, 4, 4), dtype=np.uint8),
    ], ids=["feature-grid", "float-map", "bool-map", "3-d-array"])
    def test_only_the_three_kinds_are_saved(self, tmp_path, obj):
        with pytest.raises(ParameterError):
            save_container(obj, tmp_path / "x.cgrid")

    @pytest.mark.parametrize("order, dtype, dims", [
        ("CYX", "f32", [2, 4, 4]),
        ("YX", "f32", [4, 4]),
        ("CYX", "u8", [2, 4, 4]),
        ("ZTYX", "f64", [1, 2, 4, 4]),
    ])
    def test_only_the_three_kinds_are_loaded(self, tmp_path, order, dtype, dims):
        path = tmp_path / "x.cgrid"
        blob = json.dumps({"dims": dims, "order": order, "dtype": dtype,
                           "spacing_mm": [1.0, 1.0]}).encode()
        size = int(np.prod(dims)) * (8 if dtype == "f64" else 4 if dtype == "f32" else 1)
        path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + bytes(size))
        with pytest.raises(ContainerError):
            load_container(path)

    def test_header_length_checked_before_reading(self, tmp_path):
        path = tmp_path / "long.cgrid"
        path.write_bytes(MAGIC + struct.pack("<Q", 2 ** 64 - 1) + b"{}")
        with pytest.raises(ContainerFormatError, match="header truncated"):
            load_container(path)

    def test_load_peak_holds_one_payload(self, tmp_path):
        # a 9 x 25 x 128^2 study: the payload is read into the array the
        # volume keeps, and the volume's checks allocate nothing of its size
        path = tmp_path / "study.cgrid"
        data = np.random.default_rng(8).random((9, 25, 128, 128), dtype=np.float32)
        save_container(CineVolume(data), path)
        payload = data.nbytes
        del data
        tracemalloc.start()
        try:
            back = load_container(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.intensities.nbytes == payload
        assert peak <= 1.3 * payload

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.cgrid"
        path.write_bytes(b"NOTRID\n" + b"\x00" * 32)
        with pytest.raises(ContainerFormatError):
            load_container(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.cgrid"
        save_container(np.zeros((4, 4), dtype=np.uint8), path)
        raw = open(path, "rb").read()
        path.write_bytes(raw[:-3])
        with pytest.raises(TruncationError):
            load_container(path)

    def test_unknown_dtype_rejected(self, tmp_path):
        path = tmp_path / "dtype.cgrid"
        save_container(CineVolume(np.zeros((1, 2, 4, 4))), path)
        header, payload = read_header(path)
        header["dtype"] = "f64"
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)
        with pytest.raises(UnsupportedDtypeError):
            load_container(path)

    def test_dims_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "dims.cgrid"
        save_container(LabelVolume(np.zeros((1, 2, 4, 4), dtype=np.uint8)), path)
        header, payload = read_header(path)
        header["dims"] = [1, 2, 4, 5]
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)
        with pytest.raises(TruncationError):
            load_container(path)
