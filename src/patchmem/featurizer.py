"""Handcrafted feature encoders for the key and value pathways.

The key pathway turns one grayscale frame into a two-scale pyramid of
compact feature grids. The channel bank is deliberately simple and fully
deterministic: the raw intensity, Gaussian blurs at a few widths, a
finite-difference gradient magnitude, a 3x3 local standard deviation, and
normalized row/column coordinates, each average-pooled to strides 8 and 16.
Blurs use truncated Gaussian taps (radius ``int(4 sigma + 0.5)``); blurs
and the 3x3 local mean reflect at the border (``d c b a | a b c d``).
Intensity, blurs and coordinates are linear in the frame, and so is
pooling: along an axis, "blur, then pool" is one (n/stride, n) matrix, built
once per axis length and stride, so these channels are computed at each
stride directly by two small matrix products and no frame-sized copy of
them exists. Only gradient magnitude and local std are computed at frame
resolution and then pooled. The pooled bank is standardized per channel
per frame and projected by a seeded random (key_channels, RAW_CHANNELS)
matrix P shared by all frames and both scales. The matchers read keys only
through squared distances, and ||P d|| = ||R d|| for R the triangular
factor of P = QR, so the encoder applies R: keys have min(key_channels,
RAW_CHANNELS) channels, and ``key_channels`` picks the metric
R^T R = P^T P. Every step runs in the frame's dtype: a float32 frame gives
float32 keys, any other frame float64 keys (see ``grids.real_array``).

The value pathway carries class probabilities: a soft label map is
area-averaged to the same two strides. Decoding reverses that with bilinear
upsampling, averages whatever scales are active, clamps, and renormalizes.
Both follow their inputs' dtype in the same way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .grids import (
    FeatureGrid,
    SoftLabelMap,
    checked_fields,
    downsample_avg,
    real_array,
    renormalized,
    resize_bilinear,
)

_VAR_CLAMP = 1e-6
BLUR_SIGMAS = (1.0, 2.0, 4.0)
# intensity, the blurs, gradient magnitude, local std, row and column
RAW_CHANNELS = 3 + len(BLUR_SIGMAS) + 2
PROJECTION_SEED = 1234
# Largest key_channels: P is drawn in full, (key_channels, RAW_CHANNELS)
# float64, before its triangular factor is taken; 4096 rows are 256 KB.
MAX_KEY_CHANNELS = 4096
# Feature stride of each pyramid scale. A pyramid is a {scale: FeatureGrid}
# dict; scale 3 is exactly twice the size of scale 4 in both dims.
STRIDES = {4: 16, 3: 8}


def scale_patches(scales, patch):
    """{scale: patch size} for scale-4 patch size P: P * STRIDES[4] / STRIDES[s]
    at scale s, so a patch covers one image region at every scale.
    ParameterError unless ``scales`` is a non-empty subset of STRIDES."""
    if not scales or any(s not in STRIDES for s in scales):
        raise ParameterError(
            f"scales must be a non-empty subset of {tuple(sorted(STRIDES))}, got {scales!r}")
    return {s: patch * STRIDES[4] // STRIDES[s] for s in scales}


@dataclass(frozen=True)
class EncoderConfig:
    """Settings for the handcrafted key encoder.

    Attributes:
        key_channels: the row count of the random projection P, which fixes
            the key metric; keys have min(key_channels, RAW_CHANNELS)
            channels (see ``projection_factor``). At most
            MAX_KEY_CHANNELS.
    """

    key_channels: int = 32

    def __post_init__(self):
        checked_fields(self, ParameterError)
        if not 1 <= self.key_channels <= MAX_KEY_CHANNELS:
            raise ParameterError(
                f"key_channels must lie in 1..{MAX_KEY_CHANNELS}, got {self.key_channels}")


def _gaussian_matrix(n, sigma):
    """The (n, n) matrix of a 1-d Gaussian blur with a reflect border.

    Taps at offsets -r..r, r = int(4 sigma + 0.5), are exp(-x^2 / (2 sigma^2))
    normalized to sum 1; row i holds the weight of each input sample in
    output sample i, taps that fold onto one sample summed.
    """
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * offsets ** 2)
    taps = taps / taps.sum()
    rows = np.arange(n)[:, None]
    cols = np.mod(rows + offsets, 2 * n)
    cols = np.where(cols < n, cols, 2 * n - 1 - cols)  # fold: d c b a | a b c d
    mat = np.zeros((n, n))
    np.add.at(mat, (rows, cols), taps)
    return mat


@functools.lru_cache(maxsize=16)
def _blur_pool_operators(n, stride, dtype=np.float64):
    """Read-only (1 + len(BLUR_SIGMAS), n // stride, n) pooling operators.

    Entry 0 average-pools an axis of length n by ``stride``; entry c pools
    after the Gaussian blur of BLUR_SIGMAS[c - 1] (``_gaussian_matrix``). So
    blurring an image and pooling it is ``rows[c] @ image @ cols[c].T``.
    Built in float64 and rounded once to ``dtype``.
    """
    ops = np.empty((1 + len(BLUR_SIGMAS), n // stride, n), dtype=np.float64)
    ops[0] = np.eye(n).reshape(n // stride, stride, n).mean(axis=1)
    for c, sigma in enumerate(BLUR_SIGMAS, start=1):
        np.matmul(ops[0], _gaussian_matrix(n, sigma), out=ops[c])
    ops = ops.astype(dtype, copy=False)
    ops.flags.writeable = False
    return ops


def _box_mean3(image, out, tmp):
    """3x3 mean of an (H, W) frame with a reflect border, into ``out``.

    The summation order is fixed, since keys depend on it bit for bit: each
    row is the sum of three whole rows, ``(x[y-1] + x[y]) + x[y+1]``, into
    ``tmp``; then each column of that is ``(t[:, x-1] + t[:, x]) + t[:, x+1]``,
    into ``out``; then one division by 9. Border samples reflect onto
    themselves (x[-1] is x[0]). Runs in the buffers' dtype; ``out`` may be
    ``image``, but ``tmp`` must be a third buffer.
    """
    np.add(image[:-1], image[1:], out=tmp[1:])
    np.add(image[0], image[0], out=tmp[0])
    tmp[:-1] += image[1:]
    tmp[-1] += image[-1]
    np.add(tmp[:, :-1], tmp[:, 1:], out=out[:, 1:])
    np.add(tmp[:, 0], tmp[:, 0], out=out[:, 0])
    out[:, :-1] += tmp[:, 1:]
    out[:, -1] += tmp[:, -1]
    out /= 9
    return out


def _nonlinear_channels(image):
    """Gradient magnitude and 3x3 local standard deviation of an (H, W) frame.

    Returns a (2, H, W) array of the image's dtype, computed in place with
    the operations of ``sqrt(gy*gy + gx*gx)`` and
    ``sqrt(maximum(mean_sq - mean*mean, 0))`` in their order, the means by
    ``_box_mean3``. The gradient's two buffers are reused for the means.
    """
    out = np.empty((2,) + image.shape, dtype=image.dtype)
    gy, gx = np.gradient(image)
    gy *= gy
    gx *= gx
    gy += gx
    np.sqrt(gy, out=out[0])
    mean = _box_mean3(image, gy, out[1])
    mean_sq = _box_mean3(np.multiply(image, image, out=gx), gx, out[1])
    mean *= mean
    mean_sq -= mean
    np.maximum(mean_sq, 0.0, out=mean_sq)
    np.sqrt(mean_sq, out=out[1])
    return out


def pooled_raw_channels(image):
    """The unprojected channel bank of one frame, pooled to both strides.

    Args:
        image: (H, W) array with values in [0, 1], dims multiples of 16.

    Returns:
        {scale: (RAW_CHANNELS, H/stride, W/stride)} arrays, one per scale of
        STRIDES, float32 for a float32 image and float64 for any other.
        Channels in order: intensity, one Gaussian blur per entry of
        BLUR_SIGMAS, gradient magnitude, 3x3 local standard deviation, then
        the row and column coordinates.
    """
    image = real_array(image)
    if image.ndim != 2:
        raise DimensionError(f"encoder expects an (H, W) frame, got {image.shape}")
    h, w = image.shape
    if not h or not w or h % STRIDES[4] or w % STRIDES[4]:
        raise DimensionError(
            f"frame dims ({h}, {w}) must be positive multiples of {STRIDES[4]}")
    dtype = image.dtype
    nonlinear = _nonlinear_channels(image)
    linear = 1 + len(BLUR_SIGMAS)
    out = {}
    for scale, stride in STRIDES.items():
        rows_op = _blur_pool_operators(h, stride, dtype)
        cols_op = _blur_pool_operators(w, stride, dtype)
        gh, gw = h // stride, w // stride
        raw = np.empty((RAW_CHANNELS, gh, gw), dtype=dtype)
        left = (rows_op.reshape(linear * gh, h) @ image).reshape(linear, gh, w)
        np.matmul(left, cols_op.transpose(0, 2, 1), out=raw[:linear])
        raw[linear:linear + 2] = downsample_avg(nonlinear, stride).data
        raw[-2] = (rows_op[0] @ (np.arange(h, dtype=dtype) / (h - 1)))[:, None]
        raw[-1] = cols_op[0] @ (np.arange(w, dtype=dtype) / (w - 1))
        out[scale] = raw
    return out


@functools.lru_cache(maxsize=16)
def projection_matrix(key_channels):
    """The fixed random projection shared by every frame and both scales.

    Drawn once per channel count; the array is read-only.
    """
    rng = np.random.default_rng(PROJECTION_SEED)
    mat = rng.standard_normal((key_channels, RAW_CHANNELS))
    mat /= np.sqrt(RAW_CHANNELS)
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=16)
def projection_factor(key_channels):
    """R of the QR decomposition of P = ``projection_matrix(key_channels)``.

    An upper-triangular (min(key_channels, RAW_CHANNELS), RAW_CHANNELS)
    array, read-only. Q has orthonormal columns, so R d and P d have the
    same length for every d: keys projected by R have the squared distances
    of keys projected by P, in at most RAW_CHANNELS channels. Built by
    modified Gram-Schmidt on P's columns, a few vector products where
    LAPACK's QR would page in half a megabyte of library code.
    """
    cols = np.array(projection_matrix(key_channels))
    mat = np.zeros((min(key_channels, RAW_CHANNELS), RAW_CHANNELS))
    for j, row in enumerate(mat):
        unit = cols[:, j] / np.sqrt(cols[:, j] @ cols[:, j])
        row[j:] = unit @ cols[:, j:]
        cols[:, j:] -= np.outer(unit, row[j:])
    mat.flags.writeable = False
    return mat


def _standardize(data):
    """Zero-mean unit-variance per channel, variance clamped at 1e-6."""
    mean = data.mean(axis=(1, 2), keepdims=True)
    var = data.var(axis=(1, 2), keepdims=True)
    return (data - mean) / np.sqrt(np.maximum(var, _VAR_CLAMP))


def encode_key(image, cfg=EncoderConfig()):
    """Encode one frame into a two-scale key pyramid, {scale: FeatureGrid}.

    The frame dims must be divisible by 16. The standardized bank is
    projected by ``projection_factor(cfg.key_channels)``, so keys have
    min(cfg.key_channels, RAW_CHANNELS) channels. The keys have the dtype of
    ``pooled_raw_channels``: float32 for a float32 frame, else float64.
    Identical inputs produce bit-identical outputs.
    """
    proj = projection_factor(cfg.key_channels)
    grids = {}
    for scale, raw in pooled_raw_channels(image).items():
        std = _standardize(raw)
        c, gh, gw = std.shape
        projected = (proj.astype(std.dtype, copy=False) @ std.reshape(c, gh * gw)).reshape(
            len(proj), gh, gw)
        grids[scale] = FeatureGrid(projected)
    return grids


def encode_value(labels_soft):
    """Area-average a soft label map down to the matching strides.

    Returns a {scale: FeatureGrid} pyramid of the map's dtype. Pooling
    preserves normalization exactly, so each pooled cell is still a
    probability vector. Map dims that a stride does not divide are refused
    by ``downsample_avg`` with a DimensionError.
    """
    if not isinstance(labels_soft, SoftLabelMap):
        raise ParameterError("encode_value expects a SoftLabelMap")
    grids = {}
    for scale, stride in STRIDES.items():
        g = downsample_avg(labels_soft.probabilities, stride)
        if np.abs(g.data.sum(axis=0) - 1.0).max() > 1e-5:
            raise DimensionError("pooled value grid lost probability normalization")
        grids[scale] = g
    return grids


def decode(readouts):
    """Fuse per-scale readouts back into a full-resolution soft label map.

    ``readouts`` maps one or more scales of STRIDES to their readout grids,
    which must imply one map: the same channels and the same size once
    multiplied by their strides. Each is bilinearly upsampled by its stride
    to full resolution, finest scale first; the scales are averaged,
    clamped to [0, 1], and renormalized per pixel
    (``grids.renormalized``). The map has the readouts' dtype.
    """
    if not readouts or not readouts.keys() <= STRIDES.keys():
        raise ParameterError(
            f"decode needs readouts at one or more of the scales {sorted(STRIDES)}, "
            f"got {sorted(readouts)}")
    maps = {(r.channels, r.height * STRIDES[s], r.width * STRIDES[s])
            for s, r in readouts.items()}
    if len(maps) > 1:
        raise DimensionError(f"per-scale readouts imply different maps: {sorted(maps)}")
    ((_, out_h, out_w),) = maps
    # resize_bilinear returns fresh arrays, so fusing in place touches no input
    ups = [resize_bilinear(readouts[s].data, out_h, out_w) for s in sorted(readouts)]
    fused = ups[0]
    for up in ups[1:]:
        fused += up
    if len(ups) > 1:
        fused *= 1.0 / len(ups)
    return SoftLabelMap(renormalized(fused))
