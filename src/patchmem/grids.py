"""Dense array containers, resampling primitives, and the CGRID file format.

Real arrays follow one dtype rule (``real_array``): float32 data stays
float32, as a cine volume loaded from a file and everything the
propagation engine resamples, encodes and pools is, and anything else is
held as float64. Cine volumes and their frames, feature grids, soft label
maps, resampling and pooling all obey it. Axis order is fixed: volumes are
(Z, T, Y, X), feature grids are (C, Y, X), single maps are (Y, X).

CGRID layout, byte for byte:

    bytes 0..5    ASCII magic ``CGRID\\n``
    bytes 6..13   u64 little-endian header length L
    bytes 14..    UTF-8 JSON header of length L
    rest          raw row-major payload

The JSON header always carries ``dims``, ``order``, ``dtype`` and
``spacing_mm`` ([dy, dx]). There are three kinds of file: a cine volume
(``ZTYX``, ``f32``, little-endian), a label volume (``ZTYX``, ``u8``, with a
``labels`` legend) and a 2-d seed mask (``YX``, ``u8``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import sys
import typing

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


def real_array(data):
    """``data`` as a float32 array if it is one, without a copy; else as float64."""
    data = np.asarray(data)
    return data if data.dtype == np.float32 else data.astype(np.float64, copy=False)


class FeatureGrid:
    """A (C, H, W) real-valued feature map.

    float32 data is kept as float32, without a copy; anything else is held
    as float64 (see ``real_array``).
    """

    def __init__(self, data):
        data = real_array(data)
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

    A float32 array, as a CGRID file stores it, is kept as it is, without a
    copy; anything else is held as float64.

    Args:
        intensities: array of shape (Z, T, H, W) with values in [0, 1].
        spacing_mm: in-plane pixel spacing (dy, dx) in millimetres.
    """

    def __init__(self, intensities, spacing_mm=(1.0, 1.0)):
        intensities = real_array(intensities)
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
        # min and max propagate NaN, so their finiteness covers every entry
        # without a volume-sized mask
        lo, hi = intensities.min(), intensities.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DataError("cine volume contains non-finite values")
        if lo < 0.0 or hi > 1.0:
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
        """The (H, W) image at slice z, phase t: a view of the stored array."""
        return self.intensities[z, t]


class LabelVolume:
    """A (Z, T, H, W) stack of uint8 label maps with classes 0..3.

    A uint8 array is kept as it is, without a copy.
    """

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
        self.labels = labels.astype(np.uint8, copy=False)

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
    within 1e-5. float32 probabilities are kept as float32, without a
    copy; anything else is held as float64 (see ``real_array``).
    """

    def __init__(self, probabilities):
        probabilities = real_array(probabilities)
        if probabilities.ndim != 3:
            raise DimensionError(
                f"soft label map must have shape (L+1, H, W), got {probabilities.shape}")
        if probabilities.shape[0] < 2:
            raise DimensionError("soft label map needs background plus one class")
        # min and max carry any NaN, and |sum - 1| is largest at the
        # smallest or the largest sum, where the subtraction rounds alike
        lo, hi = probabilities.min(), probabilities.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DataError("soft label map contains non-finite values")
        if lo < -1e-9:
            raise DataError("soft label map has negative probabilities")
        sums = probabilities.sum(axis=0)
        if max(sums.max() - 1.0, 1.0 - sums.min()) > 1e-5:
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


def renormalized(scores):
    """Clip (C, H, W) class scores to [0, 1] and divide each pixel by its sum.

    Works in place and returns ``scores``. A pixel whose clipped scores are
    all zero becomes uniform.
    """
    np.clip(scores, 0.0, 1.0, out=scores)
    sums = scores.sum(axis=0, keepdims=True)
    scores /= np.maximum(sums, 1e-12)
    scores[:, sums[0] <= 1e-12] = 1.0 / scores.shape[0]
    return scores


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

    The weights, buffers and output follow ``real_array(image)``: a float32
    image is resampled in float32 with its weights rounded once from
    float64, anything else in float64.
    """
    image = real_array(image)
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
    dtype = image.dtype
    wr = (src_r - r0).astype(dtype).reshape(-1, 1)
    wc = (src_c - c0).astype(dtype)

    # one plane at a time through reused buffers, so past the output the
    # largest temporary is one plane of bottom rows; columns before rows: a
    # row-first order would not be bitwise equal
    out = np.empty(image.shape[:-2] + (out_h, out_w), dtype=dtype)
    cols = np.empty((in_h, out_w), dtype=dtype)
    right = np.empty_like(cols)
    bot = np.empty((out_h, out_w), dtype=dtype)
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
    rounding. The result has the input's dtype under ``real_array``.

    The summation order is fixed, and pooled keys and values depend on it
    bit for bit: first each window's ``factor`` rows are added as whole
    contiguous rows, in row order; then each window's ``factor`` columns of
    that row sum are added; then the total is divided once by factor^2.
    Adding whole rows first keeps the inner loop on contiguous memory, which
    makes this several times faster than a mean over both window axes.
    """
    data = grid.data if isinstance(grid, FeatureGrid) else real_array(grid)
    if data.ndim != 3:
        raise DimensionError(f"downsample expects (C, H, W), got {data.shape}")
    if factor < 1:
        raise ParameterError(f"factor must be >= 1, got {factor}")
    c, h, w = data.shape
    if h % factor or w % factor:
        raise DimensionError(
            f"dims ({h}, {w}) are not divisible by pooling factor {factor}")
    rows = data.reshape(c, h // factor, factor, w).sum(axis=2)
    pooled = rows.reshape(c, h // factor, w // factor, factor).sum(axis=3)
    pooled /= factor * factor
    return FeatureGrid(pooled)


# The three kinds of CGRID file, by (axis order, header dtype): a
# CineVolume, a LabelVolume and a 2-d seed mask, with their payload dtypes
_KINDS = {
    ("ZTYX", "f32"): np.dtype("<f4"),
    ("ZTYX", "u8"): np.dtype("u1"),
    ("YX", "u8"): np.dtype("u1"),
}


def _kind_of(obj):
    """(kind, payload array, spacing) of a container to save."""
    if isinstance(obj, CineVolume):
        return ("ZTYX", "f32"), obj.intensities, obj.spacing_mm
    if isinstance(obj, LabelVolume):
        return ("ZTYX", "u8"), obj.labels, obj.spacing_mm
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and np.issubdtype(obj.dtype, np.integer):
        if obj.size and (obj.min() < 0 or obj.max() > 255):
            raise LabelError("2-d integer map does not fit in u8")
        return ("YX", "u8"), obj, (1.0, 1.0)
    raise ParameterError(f"cannot serialize object of type {type(obj).__name__}")


def save_container(obj, path):
    """Serialize a CineVolume, a LabelVolume or a 2-d integer mask to a CGRID file.

    Writing is byte-deterministic: the same object always produces the
    same file.
    """
    (order, dtype_name), data, spacing = _kind_of(obj)
    header = {"dims": [int(d) for d in data.shape], "order": order,
              "dtype": dtype_name, "spacing_mm": list(spacing)}
    if isinstance(obj, LabelVolume):
        header["labels"] = CARDIAC_LABELS
    # sort_keys plus fixed separators keeps saves byte-deterministic
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + len(blob).to_bytes(8, "little") + blob)
        # converts only what is not stored as is: a float64 volume, say
        np.asarray(data, dtype=_KINDS[order, dtype_name]).tofile(fh)


def _checked_header(blob, path):
    """((order, dtype), dims, spacing) of a header, or a ContainerError."""
    # ValueError covers bad UTF-8, bad JSON and integers past Python's digit
    # limit; RecursionError covers deeply nested arrays or objects
    try:
        header = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ContainerFormatError(f"header is not valid JSON in {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerFormatError(f"header is not a JSON object in {path}")
    for key in ("dims", "order", "dtype", "spacing_mm"):
        if key not in header:
            raise ContainerFormatError(f"header missing required key {key!r} in {path}")
    dims, order, dtype_name, spacing = (
        header[key] for key in ("dims", "order", "dtype", "spacing_mm"))
    if order not in ("ZTYX", "YX"):
        raise ContainerFormatError(f"unsupported axis order {order!r} in {path}")
    if not isinstance(dtype_name, str) or (order, dtype_name) not in _KINDS:
        raise UnsupportedDtypeError(
            f"unsupported dtype {dtype_name!r} for order {order} in {path}")
    # bool is a subclass of int
    if not isinstance(dims, list) or len(dims) != len(order) or any(
            type(d) is not int or d < 1 for d in dims):
        raise ContainerFormatError(f"dims {dims!r} do not match order {order!r} in {path}")
    try:
        spacing = _checked_spacing(spacing)
    except ParameterError as exc:
        raise ContainerFormatError(f"bad spacing_mm in {path}: {exc}") from exc
    return (order, dtype_name), dims, spacing


def load_container(path):
    """Read a CGRID file back into its typed container.

    ZTYX f32 gives a CineVolume, ZTYX u8 a LabelVolume and YX u8 a 2-d uint8
    mask. The header length and the payload size are checked against the
    file's size before either is read, and the payload is read once, into
    the array the container keeps.
    """
    lead = len(MAGIC) + 8
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(lead)
        if len(head) < lead:
            raise ContainerFormatError(f"file too short for a CGRID header: {path}")
        if head[:len(MAGIC)] != MAGIC:
            raise ContainerFormatError(f"bad magic in {path}")
        header_len = int.from_bytes(head[len(MAGIC):], "little")
        if header_len > size - lead:
            raise ContainerFormatError(f"header truncated in {path}")
        kind, dims, spacing = _checked_header(fh.read(header_len), path)
        expected = math.prod(dims) * _KINDS[kind].itemsize
        if size - lead - header_len != expected:
            raise TruncationError(f"payload is {size - lead - header_len} bytes "
                                  f"but header implies {expected} in {path}")
        data = np.empty(dims, dtype=_KINDS[kind])
        if fh.readinto(data) != expected:
            raise TruncationError(f"payload shorter than its header implies in {path}")
    if kind == ("YX", "u8"):
        return data
    if kind == ("ZTYX", "u8"):
        return LabelVolume(data, spacing_mm=spacing)
    return CineVolume(data, spacing_mm=spacing)
