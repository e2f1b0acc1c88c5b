"""Dense array containers, resampling primitives, and the CGRID file format.

All in-memory real arrays are float64; files store them as little-endian
float32. Axis order is fixed: volumes are (Z, T, Y, X), feature grids are
(C, Y, X), single maps are (Y, X).

CGRID layout, byte for byte:

    bytes 0..5    ASCII magic ``CGRID\\n``
    bytes 6..13   u64 little-endian header length L
    bytes 14..    UTF-8 JSON header of length L
    rest          raw row-major payload

The JSON header always carries ``dims``, ``order`` (``ZTYX``, ``CYX`` or
``YX``), ``dtype`` (``f32`` or ``u8``) and ``spacing_mm`` ([dy, dx]); label
volumes additionally carry a ``labels`` legend.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
import typing
from pathlib import Path

import numpy as np

from .errors import (
    ContainerFormatError,
    DataError,
    DimensionError,
    LabelError,
    ParameterError,
    TruncationError,
    UnsupportedDtypeError,
)

MAGIC = b"CGRID\n"
CARDIAC_LABELS = {"1": "LV", "2": "Myo", "3": "RV"}
MAX_LABEL = 3

_DTYPE_TO_NUMPY = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


class FeatureGrid:
    """A (C, H, W) real-valued feature map."""

    def __init__(self, data):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3:
            raise DimensionError(
                f"feature grid must have shape (C, H, W), got {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1 or data.shape[2] < 1:
            raise DimensionError(f"feature grid has empty axis: {data.shape}")
        if not np.isfinite(data).all():
            raise DataError("feature grid contains non-finite values")
        self.data = data

    @property
    def channels(self):
        return self.data.shape[0]

    @property
    def height(self):
        return self.data.shape[1]

    @property
    def width(self):
        return self.data.shape[2]


def _checked_spacing(spacing_mm):
    """Return (dy, dx) as floats from a pair of finite, positive reals.

    bool is a subclass of int and an int past the float range would overflow
    when converted, so both are rejected.
    """
    pair = tuple(spacing_mm) if isinstance(spacing_mm, (tuple, list)) else ()
    if len(pair) != 2 or any(isinstance(s, bool) or not isinstance(s, numbers.Real)
                             or not 0 < s <= sys.float_info.max for s in pair):
        raise ParameterError(
            f"spacing must be two finite, positive numbers, got {spacing_mm!r}")
    return float(pair[0]), float(pair[1])


_WORDS = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
          bool: ("true or false", "booleans"), str: ("a string", "strings")}


def _conformed(value, hint):
    """value, with lists stored as tuples; ValueError if it lacks the annotated type."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (tuple, list)):
            raise ValueError
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(kinds):
            raise ValueError
        return tuple(_conformed(v, k) for v, k in zip(value, kinds))
    if type(None) in args:
        return None if value is None else _conformed(value, args[0])
    if hint is float:
        ok = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, numbers.Integral if hint is int else hint)
    if not ok or (isinstance(value, bool) and hint is not bool):
        raise ValueError
    return value


def _described(hint):
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        count = "" if args[-1] is Ellipsis else f"{len(args)} "
        return f"a list of {count}{_WORDS[args[0]][1]}"
    if type(None) in args:
        return f"{_described(args[0])} or null"
    return _WORDS[hint][0] if hint in _WORDS else f"of type {hint.__name__}"


def checked_fields(obj, error):
    """Check every field of a dataclass instance against its annotation.

    Annotations may be int, float, bool, str, a class, ``X | None``,
    ``tuple[X, ...]`` or ``tuple[X, X]``. Booleans are not integers or reals
    here, reals must be finite, and lists are stored back as tuples (frozen
    dataclasses included). A mismatch raises ``error`` naming the field.
    """
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        try:
            checked = _conformed(value, hints[f.name])
        except ValueError:
            raise error(f"{f.name} must be {_described(hints[f.name])}, "
                        f"got {value!r}") from None
        object.__setattr__(obj, f.name, checked)


class CineVolume:
    """A (Z, T, H, W) stack of intensity frames normalized to [0, 1].

    A float32 array, as a CGRID file stores it, is kept at that precision;
    anything else is held as float64.

    Args:
        intensities: array of shape (Z, T, H, W) with values in [0, 1].
        spacing_mm: in-plane pixel spacing (dy, dx) in millimetres.
    """

    def __init__(self, intensities, spacing_mm=(1.0, 1.0)):
        intensities = np.asarray(intensities)
        if intensities.dtype != np.float32:
            intensities = intensities.astype(np.float64, copy=False)
        if intensities.ndim != 4:
            raise DimensionError(
                f"cine volume must have shape (Z, T, H, W), got {intensities.shape}")
        z, t, h, w = intensities.shape
        if z < 1:
            raise DimensionError("cine volume needs at least one slice")
        if t < 2:
            raise DimensionError("cine volume needs at least two phases")
        if h < 1 or w < 1:
            raise DimensionError(f"cine volume has empty frame axis: {intensities.shape}")
        if not np.isfinite(intensities).all():
            raise DataError("cine volume contains non-finite values")
        if intensities.min() < 0.0 or intensities.max() > 1.0:
            raise DataError("cine volume intensities must lie in [0, 1]")
        self.intensities = intensities
        self.spacing_mm = _checked_spacing(spacing_mm)

    @property
    def z_count(self):
        return self.intensities.shape[0]

    @property
    def t_count(self):
        return self.intensities.shape[1]

    @property
    def height(self):
        return self.intensities.shape[2]

    @property
    def width(self):
        return self.intensities.shape[3]

    def frame(self, z, t):
        """Return the (H, W) float64 image at slice z, phase t.

        A float32 volume's frame is widened, which is exact.
        """
        return self.intensities[z, t].astype(np.float64, copy=False)


class LabelVolume:
    """A (Z, T, H, W) stack of uint8 label maps with classes 0..3."""

    def __init__(self, labels, spacing_mm=(1.0, 1.0)):
        labels = np.asarray(labels)
        if labels.ndim != 4:
            raise DimensionError(
                f"label volume must have shape (Z, T, H, W), got {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise LabelError(f"label volume must be integer-typed, got {labels.dtype}")
        if labels.size and (labels.min() < 0 or labels.max() > MAX_LABEL):
            raise LabelError(
                f"label values must lie in 0..{MAX_LABEL}, "
                f"got range {labels.min()}..{labels.max()}")
        self.spacing_mm = _checked_spacing(spacing_mm)
        self.labels = labels.astype(np.uint8)

    @property
    def z_count(self):
        return self.labels.shape[0]

    @property
    def t_count(self):
        return self.labels.shape[1]

    @property
    def height(self):
        return self.labels.shape[2]

    @property
    def width(self):
        return self.labels.shape[3]

    def frame(self, z, t):
        return self.labels[z, t]


class SoftLabelMap:
    """Per-pixel class probabilities of shape (L + 1, H, W).

    Channel 0 is background; every pixel's channel vector sums to 1
    within 1e-5.
    """

    def __init__(self, probabilities):
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.ndim != 3:
            raise DimensionError(
                f"soft label map must have shape (L+1, H, W), got {probabilities.shape}")
        if probabilities.shape[0] < 2:
            raise DimensionError("soft label map needs background plus one class")
        if not np.isfinite(probabilities).all():
            raise DataError("soft label map contains non-finite values")
        if probabilities.min() < -1e-9:
            raise DataError("soft label map has negative probabilities")
        sums = probabilities.sum(axis=0)
        if np.abs(sums - 1.0).max() > 1e-5:
            raise DataError("soft label map columns must sum to 1 within 1e-5")
        self.probabilities = probabilities

    @property
    def num_classes(self):
        """Foreground class count L (channels minus background)."""
        return self.probabilities.shape[0] - 1

    @property
    def height(self):
        return self.probabilities.shape[1]

    @property
    def width(self):
        return self.probabilities.shape[2]


def one_hot(labels, num_classes):
    """Expand an integer (H, W) label map into a SoftLabelMap.

    Args:
        labels: 2-d integer array with values in 0..num_classes.
        num_classes: foreground class count L; output has L + 1 channels.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise DimensionError(f"label map must be 2-d, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise LabelError(f"label map must be integer-typed, got {labels.dtype}")
    if num_classes < 1:
        raise ParameterError("num_classes must be at least 1")
    if labels.size and (labels.min() < 0 or labels.max() > num_classes):
        raise LabelError(
            f"labels exceed class range 0..{num_classes}: "
            f"{labels.min()}..{labels.max()}")
    probs = np.zeros((num_classes + 1,) + labels.shape, dtype=np.float64)
    for c in range(num_classes + 1):
        probs[c] = labels == c
    return SoftLabelMap(probs)


def resize_bilinear(image, out_h, out_w):
    """Bilinear resampling with half-pixel center alignment.

    Source coordinates follow the area-style convention
    ``src = (dst + 0.5) * (in / out) - 0.5`` with edge clamping, so constant
    images stay constant and equal input/output sizes reproduce the input
    exactly. Accepts an (H, W) map or a (C, H, W) grid; channels are
    resampled independently.

    The resize is separable and runs plane by plane: columns are
    interpolated first, on the input rows, then rows, on whole-row gathers.
    Each output element goes through the same floating-point operations in
    the same order as the 2-d formula
    ``(1-wr)*((1-wc)*tl + wc*tr) + wr*((1-wc)*bl + wc*br)``, so the result
    is bitwise equal to it. The output is always a fresh array.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise DimensionError(f"resize expects 2-d or 3-d input, got {image.shape}")
    if out_h < 1 or out_w < 1:
        raise ParameterError(f"output size must be positive, got {(out_h, out_w)}")
    in_h, in_w = image.shape[-2], image.shape[-1]

    src_r = (np.arange(out_h, dtype=np.float64) + 0.5) * (in_h / out_h) - 0.5
    src_c = (np.arange(out_w, dtype=np.float64) + 0.5) * (in_w / out_w) - 0.5
    src_r = np.clip(src_r, 0.0, in_h - 1.0)
    src_c = np.clip(src_c, 0.0, in_w - 1.0)

    r0 = np.floor(src_r).astype(np.intp)
    c0 = np.floor(src_c).astype(np.intp)
    r1 = np.minimum(r0 + 1, in_h - 1)
    c1 = np.minimum(c0 + 1, in_w - 1)
    wr = (src_r - r0).reshape(-1, 1)
    wc = src_c - c0

    # one plane at a time through reused buffers, so past the output the
    # largest temporary is one plane of bottom rows; columns before rows: a
    # row-first order would not be bitwise equal
    out = np.empty(image.shape[:-2] + (out_h, out_w), dtype=np.float64)
    cols = np.empty((in_h, out_w), dtype=np.float64)
    right = np.empty_like(cols)
    bot = np.empty((out_h, out_w), dtype=np.float64)
    for src, dst in zip(image.reshape(-1, in_h, in_w), out.reshape(-1, out_h, out_w)):
        np.take(src, c0, axis=1, out=cols, mode="clip")
        cols *= 1.0 - wc
        np.take(src, c1, axis=1, out=right, mode="clip")
        right *= wc
        cols += right
        np.take(cols, r0, axis=0, out=dst, mode="clip")
        dst *= 1.0 - wr
        np.take(cols, r1, axis=0, out=bot, mode="clip")
        bot *= wr
        dst += bot
    return out


def downsample_avg(grid, factor):
    """Average-pool a FeatureGrid (or raw (C, H, W) array) by an integer factor.

    Both spatial dims must be divisible by the factor; pooling windows never
    straddle the border, so the global sum is preserved exactly up to float
    rounding.
    """
    data = grid.data if isinstance(grid, FeatureGrid) else np.asarray(grid, dtype=np.float64)
    if data.ndim != 3:
        raise DimensionError(f"downsample expects (C, H, W), got {data.shape}")
    if factor < 1:
        raise ParameterError(f"factor must be >= 1, got {factor}")
    c, h, w = data.shape
    if h % factor or w % factor:
        raise DimensionError(
            f"dims ({h}, {w}) are not divisible by pooling factor {factor}")
    pooled = data.reshape(c, h // factor, factor, w // factor, factor).mean(axis=(2, 4))
    return FeatureGrid(pooled)


def _header_bytes(header):
    # sort_keys plus fixed separators keeps saves byte-deterministic
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_container(obj, path):
    """Serialize a container to a CGRID file.

    Accepts CineVolume, LabelVolume, FeatureGrid, or a bare 2-d array
    (integer arrays are stored as u8 label maps, real arrays as f32 maps).
    Writing is byte-deterministic: the same object always produces the
    same file.
    """
    if isinstance(obj, CineVolume):
        header = {
            "dims": [int(d) for d in obj.intensities.shape],
            "order": "ZTYX",
            "dtype": "f32",
            "spacing_mm": [obj.spacing_mm[0], obj.spacing_mm[1]],
        }
        payload = obj.intensities.astype("<f4").tobytes()
    elif isinstance(obj, LabelVolume):
        header = {
            "dims": [int(d) for d in obj.labels.shape],
            "order": "ZTYX",
            "dtype": "u8",
            "spacing_mm": [obj.spacing_mm[0], obj.spacing_mm[1]],
            "labels": CARDIAC_LABELS,
        }
        payload = obj.labels.astype("u1").tobytes()
    elif isinstance(obj, FeatureGrid):
        header = {
            "dims": [int(d) for d in obj.data.shape],
            "order": "CYX",
            "dtype": "f32",
            "spacing_mm": [1.0, 1.0],
        }
        payload = obj.data.astype("<f4").tobytes()
    elif isinstance(obj, np.ndarray) and obj.ndim == 2:
        if np.issubdtype(obj.dtype, np.integer):
            if obj.size and (obj.min() < 0 or obj.max() > 255):
                raise LabelError("2-d integer map does not fit in u8")
            header = {
                "dims": [int(d) for d in obj.shape],
                "order": "YX",
                "dtype": "u8",
                "spacing_mm": [1.0, 1.0],
            }
            payload = obj.astype("u1").tobytes()
        else:
            header = {
                "dims": [int(d) for d in obj.shape],
                "order": "YX",
                "dtype": "f32",
                "spacing_mm": [1.0, 1.0],
            }
            payload = obj.astype("<f4").tobytes()
    else:
        raise ParameterError(f"cannot serialize object of type {type(obj).__name__}")

    blob = _header_bytes(header)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(payload)


def load_container(path):
    """Read a CGRID file back into its typed container.

    Dispatch is driven by the header: ZTYX u8 gives a LabelVolume, ZTYX f32 a
    CineVolume, CYX f32 a FeatureGrid, and YX either a uint8 or float64 2-d
    array.
    """
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 8:
        raise ContainerFormatError(f"file too short for a CGRID header: {path}")
    if raw[: len(MAGIC)] != MAGIC:
        raise ContainerFormatError(f"bad magic in {path}")
    header_len = int.from_bytes(raw[len(MAGIC): len(MAGIC) + 8], "little")
    header_start = len(MAGIC) + 8
    if len(raw) < header_start + header_len:
        raise ContainerFormatError(f"header truncated in {path}")
    # ValueError covers bad UTF-8, bad JSON and integers past Python's digit
    # limit; RecursionError covers deeply nested arrays or objects
    try:
        header = json.loads(raw[header_start: header_start + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ContainerFormatError(f"header is not valid JSON in {path}: {exc}") from exc

    if not isinstance(header, dict):
        raise ContainerFormatError(f"header is not a JSON object in {path}")
    for key in ("dims", "order", "dtype", "spacing_mm"):
        if key not in header:
            raise ContainerFormatError(f"header missing required key {key!r} in {path}")
    dims = header["dims"]
    order = header["order"]
    dtype_name = header["dtype"]
    spacing = header["spacing_mm"]
    if not isinstance(dtype_name, str) or dtype_name not in _DTYPE_TO_NUMPY:
        raise UnsupportedDtypeError(f"unsupported dtype {dtype_name!r} in {path}")
    if order not in ("ZTYX", "CYX", "YX"):
        raise ContainerFormatError(f"unsupported axis order {order!r} in {path}")
    # bool is a subclass of int, json parses NaN and Infinity as floats, and
    # an int past the float range would overflow when converted
    if not isinstance(dims, list) or len(dims) != len(order) or any(
            type(d) is not int or d < 1 for d in dims):
        raise ContainerFormatError(f"dims {dims!r} do not match order {order!r} in {path}")
    if (not isinstance(spacing, list) or len(spacing) != 2
            or any(type(s) not in (int, float) or not 0 < s <= sys.float_info.max
                   for s in spacing)):
        raise ContainerFormatError(f"bad spacing_mm {spacing!r} in {path}")

    np_dtype = _DTYPE_TO_NUMPY[dtype_name]
    expected = math.prod(dims) * np_dtype.itemsize
    payload = raw[header_start + header_len:]
    if len(payload) != expected:
        raise TruncationError(
            f"payload is {len(payload)} bytes but header implies {expected} in {path}")
    data = np.frombuffer(payload, dtype=np_dtype).reshape(dims)

    if order == "ZTYX":
        if dtype_name == "u8":
            return LabelVolume(data, spacing_mm=tuple(spacing))
        return CineVolume(data.astype(np.float32), spacing_mm=tuple(spacing))
    if order == "CYX":
        if dtype_name != "f32":
            raise UnsupportedDtypeError(
                f"feature grids must be f32, got {dtype_name!r} in {path}")
        return FeatureGrid(data.astype(np.float64))
    # order == "YX": a bare 2-d map, used for seed masks
    if dtype_name == "u8":
        return data.astype(np.uint8).copy()
    return data.astype(np.float64)
