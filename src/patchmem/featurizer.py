"""Handcrafted feature encoders for the key and value pathways.

The key pathway turns one grayscale frame into a two-scale pyramid of
compact feature grids. The channel bank is deliberately simple and fully
deterministic: the raw intensity, Gaussian blurs at a few widths, a
finite-difference gradient magnitude, a 3x3 local standard deviation, and
normalized row/column coordinates. The bank is average-pooled to strides 8
and 16, standardized per channel per frame, and projected to a fixed
channel count with a seeded random linear map shared by all frames and
both scales.

The value pathway carries class probabilities: a soft label map is
area-averaged to the same two strides. Decoding reverses that with bilinear
upsampling, averages whatever scales are active, clamps, and renormalizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DimensionError, ParameterError
from .grids import FeatureGrid, SoftLabelMap, checked_fields, downsample_avg, resize_bilinear
from .pyramid import FeaturePyramid

STRIDE_SCALE4 = 16
STRIDE_SCALE3 = 8
_VAR_CLAMP = 1e-6
BLUR_SIGMAS = (1.0, 2.0, 4.0)
# intensity, the blurs, gradient magnitude, local std, row and column
RAW_CHANNELS = 3 + len(BLUR_SIGMAS) + 2
PROJECTION_SEED = 1234


@dataclass(frozen=True)
class EncoderConfig:
    """Settings for the handcrafted key encoder.

    Attributes:
        key_channels: output channel count after projection.
    """

    key_channels: int = 32

    def __post_init__(self):
        checked_fields(self, ParameterError)
        if self.key_channels < 1:
            raise ParameterError(
                f"key_channels must be positive, got {self.key_channels}")


def raw_feature_bank(image):
    """Compute the unprojected channel bank for one frame.

    Args:
        image: (H, W) array with values in [0, 1].

    Returns:
        (RAW_CHANNELS, H, W) float64 array. Channels in order: intensity,
        one Gaussian blur per entry of BLUR_SIGMAS, gradient magnitude,
        3x3 local standard deviation, then the row and column coordinates.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DimensionError(f"encoder expects an (H, W) frame, got {image.shape}")
    h, w = image.shape
    if h < 2 or w < 2:
        raise DimensionError("frame too small to featurize")

    bank = np.empty((RAW_CHANNELS, h, w), dtype=np.float64)
    bank[0] = image
    for c, sigma in enumerate(BLUR_SIGMAS, start=1):
        ndimage.gaussian_filter(image, sigma=sigma, mode="reflect", output=bank[c])

    gy, gx = np.gradient(image)
    np.sqrt(gy * gy + gx * gx, out=bank[-4])

    mean = ndimage.uniform_filter(image, size=3, mode="reflect")
    mean_sq = ndimage.uniform_filter(image * image, size=3, mode="reflect")
    np.sqrt(np.maximum(mean_sq - mean * mean, 0.0), out=bank[-3])

    bank[-2] = np.arange(h, dtype=np.float64)[:, None] / (h - 1)
    bank[-1] = np.arange(w, dtype=np.float64)[None, :] / (w - 1)
    return bank


def projection_matrix(key_channels):
    """The fixed random projection shared by every frame and both scales."""
    rng = np.random.default_rng(PROJECTION_SEED)
    mat = rng.standard_normal((key_channels, RAW_CHANNELS))
    return mat / np.sqrt(RAW_CHANNELS)


def _standardize(grid):
    """Zero-mean unit-variance per channel, variance clamped at 1e-6."""
    data = grid.data
    mean = data.mean(axis=(1, 2), keepdims=True)
    var = data.var(axis=(1, 2), keepdims=True)
    return (data - mean) / np.sqrt(np.maximum(var, _VAR_CLAMP))


def encode_key(image, cfg=EncoderConfig()):
    """Encode one frame into a two-scale key pyramid.

    The frame dims must be divisible by 16. Identical inputs produce
    bit-identical outputs.
    """
    bank = raw_feature_bank(image)
    h, w = bank.shape[1], bank.shape[2]
    if h % STRIDE_SCALE4 or w % STRIDE_SCALE4:
        raise DimensionError(
            f"frame dims ({h}, {w}) must be divisible by {STRIDE_SCALE4}")
    proj = projection_matrix(cfg.key_channels)
    grids = {}
    for name, stride in (("scale4", STRIDE_SCALE4), ("scale3", STRIDE_SCALE3)):
        pooled = downsample_avg(bank, stride)
        std = _standardize(pooled)
        c, gh, gw = std.shape
        projected = (proj @ std.reshape(c, gh * gw)).reshape(cfg.key_channels, gh, gw)
        grids[name] = FeatureGrid(projected)
    return FeaturePyramid(scale4=grids["scale4"], scale3=grids["scale3"])


def encode_value(labels_soft):
    """Area-average a soft label map down to the two matching strides.

    Pooling preserves normalization exactly, so each pooled cell is still a
    probability vector.
    """
    if not isinstance(labels_soft, SoftLabelMap):
        raise ParameterError("encode_value expects a SoftLabelMap")
    h, w = labels_soft.height, labels_soft.width
    if h % STRIDE_SCALE4 or w % STRIDE_SCALE4:
        raise DimensionError(
            f"soft map dims ({h}, {w}) must be divisible by {STRIDE_SCALE4}")
    g3 = downsample_avg(labels_soft.probabilities, STRIDE_SCALE3)
    g4 = downsample_avg(labels_soft.probabilities, STRIDE_SCALE4)
    for g in (g3, g4):
        sums = g.data.sum(axis=0)
        if np.abs(sums - 1.0).max() > 1e-5:
            raise DimensionError("pooled value grid lost probability normalization")
    return FeaturePyramid(scale4=g4, scale3=g3)


def decode(readout3, readout4):
    """Fuse per-scale readouts back into a full-resolution soft label map.

    Either readout may be None (single-scale mode) but not both. Both are
    bilinearly upsampled to full resolution (stride 8 and 16 respectively),
    averaged when both are present, clamped to [0, 1], and renormalized
    per pixel.
    """
    if readout3 is None and readout4 is None:
        raise ParameterError("decode needs at least one scale")
    if readout3 is not None and readout4 is not None:
        if readout3.channels != readout4.channels:
            raise DimensionError(
                f"scale channel mismatch: {readout3.channels} vs {readout4.channels}")
        if (readout3.height * STRIDE_SCALE3 != readout4.height * STRIDE_SCALE4
                or readout3.width * STRIDE_SCALE3 != readout4.width * STRIDE_SCALE4):
            raise DimensionError("per-scale readout dims imply different resolutions")
    if readout3 is not None:
        out_h = readout3.height * STRIDE_SCALE3
        out_w = readout3.width * STRIDE_SCALE3
    else:
        out_h = readout4.height * STRIDE_SCALE4
        out_w = readout4.width * STRIDE_SCALE4

    ups = []
    if readout3 is not None:
        ups.append(resize_bilinear(readout3.data, out_h, out_w))
    if readout4 is not None:
        ups.append(resize_bilinear(readout4.data, out_h, out_w))
    # resize_bilinear returns fresh arrays, so fusing in place touches no input
    fused = ups[0]
    if len(ups) == 2:
        fused += ups[1]
        fused *= 0.5
    np.clip(fused, 0.0, 1.0, out=fused)
    sums = fused.sum(axis=0, keepdims=True)
    fused /= np.maximum(sums, 1e-12)
    # degenerate all-zero pixels fall back to uniform
    fused[:, sums[0] <= 1e-12] = 1.0 / fused.shape[0]
    return SoftLabelMap(fused)

