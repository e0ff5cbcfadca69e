"""Heatmap post-processing: normalization, bilinear upsampling, and overlay
through the jet colormap, which is computed from its formula at import.
These take a tap-resolution heatmap to a full-resolution rendering."""

from __future__ import annotations

import math

import numpy as np

from .utility import _checked_int

# The jet lookup table, (256, 3) RGB in [0,1]. Read-only, so no caller can
# change the colours of another caller's renderings.
JET = np.round(np.clip(1.5 - np.abs(np.arange(256)[:, None] * (4.0 / 255.0)
                                    - np.array([3.0, 2.0, 1.0])), 0.0, 1.0), 6)
JET.setflags(write=False)


def normalize_minmax(h: np.ndarray) -> np.ndarray:
    """Affine rescale to [0,1]; a constant map becomes all zeros. A NaN or
    infinite value raises."""
    h = np.asarray(h, dtype=np.float64)
    lo = float(np.min(h))
    hi = float(np.max(h))
    if not (math.isfinite(lo) and math.isfinite(hi)):  # min and max propagate NaN
        raise ValueError("h: non-finite values are not allowed")
    if hi == lo:
        return np.zeros_like(h)
    return (h - lo) / (hi - lo)


def upsample_bilinear(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of a 2-D map, or of each map in a
    stack (n, h, w); the result is C-contiguous either way.

    Source corners land exactly on destination corners; a dimension of 1
    (either side) degenerates to constant replication along that axis. A
    NaN or infinite source value raises.
    """
    src = np.asarray(src, dtype=np.float64)
    if src.ndim not in (2, 3):
        raise ValueError(f"source map must be 2-D or a stack (n, h, w), got shape {src.shape}")
    if src.shape[-2] < 1 or src.shape[-1] < 1:
        raise ValueError(f"source dims must be >= 1, got {src.shape[-2:]}")
    if not np.isfinite(src).all():
        raise ValueError("src: non-finite values are not allowed")
    out_h, out_w = _checked_int("out_h", out_h, 1), _checked_int("out_w", out_w, 1)

    def axis_coords(n_src: int, n_out: int) -> np.ndarray:
        if n_out == 1 or n_src == 1:
            return np.zeros(n_out)
        return np.arange(n_out) * ((n_src - 1) / (n_out - 1))

    ys = axis_coords(src.shape[-2], out_h)
    xs = axis_coords(src.shape[-1], out_w)
    y0 = np.minimum(np.floor(ys).astype(np.intp), src.shape[-2] - 1)
    x0 = np.minimum(np.floor(xs).astype(np.intp), src.shape[-1] - 1)
    y1 = np.minimum(y0 + 1, src.shape[-2] - 1)
    x1 = np.minimum(x0 + 1, src.shape[-1] - 1)
    wy = (ys - y0)[:, None]
    wx = xs - x0

    # Each output pixel is (s[y0,x0](1-wx) + s[y0,x1]wx)(1-wy) +
    # (s[y1,x0](1-wx) + s[y1,x1]wx)wy; the row terms are computed once per
    # source row and then gathered. take() writes C order, so every map of a
    # stack is laid out as the single-map call lays it out.
    across = src.take(x0, axis=-1) * (1.0 - wx) + src.take(x1, axis=-1) * wx
    return across.take(y0, axis=-2) * (1.0 - wy) + across.take(y1, axis=-2) * wy


def apply_colormap(h: np.ndarray) -> np.ndarray:
    """Map a [0,1] heatmap (H, W) through the jet table to RGB planes
    (3, H, W). Values are binned by round-half-up to the 256 entries."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"heatmap must be 2-D, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("heatmap values must be finite")
    if np.min(h) < 0.0 or np.max(h) > 1.0:
        raise ValueError("heatmap values must lie in [0,1]; normalize first")
    idx = np.clip(np.floor(h * 255.0 + 0.5).astype(np.intp), 0, 255)
    return np.moveaxis(JET[idx], -1, 0)


def overlay(pixels: np.ndarray, h: np.ndarray, alpha: float = 0.35) -> np.ndarray:
    """Blend (1 - alpha) * image + alpha * colormap(h): alpha 0 keeps the
    image, 1 shows only the rendered heatmap. Accepts 1- or 3-channel pixel
    planes (C, H, W) and always returns 3 channels."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 3 or pixels.shape[0] not in (1, 3):
        raise ValueError(f"expected pixel planes (1|3, H, W), got shape {pixels.shape}")
    if pixels.shape[1:] != np.shape(h):
        raise ValueError(f"heatmap resolution {np.shape(h)} does not match "
                         f"image {pixels.shape[1:]}")
    return _blend(pixels, apply_colormap(h), alpha)


def _blend(pixels: np.ndarray, colored: np.ndarray, alpha: float) -> np.ndarray:
    """The overlay of already coloured planes: (1 - alpha) * pixels +
    alpha * colored, clipped to [0,1]. Callers that also write the
    colormap itself colour the heatmap once and blend with this."""
    return np.clip((1.0 - alpha) * pixels + alpha * colored, 0.0, 1.0)
