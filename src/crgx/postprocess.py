"""Heatmap post-processing: normalization, bilinear upsampling, and overlay
through the jet colormap, which is computed from its formula at import.
These take a tap-resolution heatmap to a full-resolution rendering."""

from __future__ import annotations

import math

import numpy as np

from ._rules import _checked_array, _checked_int, _checked_unit
from .imgio import Image

# The jet lookup table, (256, 3) RGB in [0,1]. Read-only, so no caller can
# change the colours of another caller's renderings.
JET = np.round(np.clip(1.5 - np.abs(np.arange(256)[:, None] * (4.0 / 255.0)
                                    - np.array([3.0, 2.0, 1.0])), 0.0, 1.0), 6)
JET.setflags(write=False)


def normalize_minmax(h: np.ndarray) -> np.ndarray:
    """Affine rescale of a 1- or 2-D map to [0,1]; a constant map becomes
    all zeros. A map whose range max - min overflows float64 raises
    `ValueError`."""
    h = _checked_array("h", h, (1, 2))
    lo = float(h.min())
    span = float(h.max()) - lo
    if span == 0.0:
        return np.zeros_like(h)
    if span == math.inf:  # h is finite, so only the subtraction overflowed
        raise ValueError("h's range overflows float64: max(h) - min(h) exceeds "
                         "the float range")
    return (h - lo) / span


def upsample_bilinear(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of a 2-D map, or of each map in a
    stack (n, h, w); the result is C-contiguous either way.

    Source corners land exactly on destination corners; a dimension of 1
    (either side) degenerates to constant replication along that axis.
    """
    src = _checked_array("src", src, (2, 3))
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
    h = _checked_array("h", h, 2)
    if h.min() < 0.0 or h.max() > 1.0:
        raise ValueError("heatmap values must lie in [0,1]; normalize first")
    idx = np.clip(np.floor(h * 255.0 + 0.5).astype(np.intp), 0, 255)
    return np.moveaxis(JET[idx], -1, 0)


def overlay(pixels: np.ndarray, h: np.ndarray, alpha: float = 0.35) -> np.ndarray:
    """Blend (1 - alpha) * image + alpha * colormap(h): alpha 0 keeps the
    image, 1 shows only the rendered heatmap. `pixels` follows `Image`'s
    rule: 1- or 3-channel planes (C, H, W) with values in [0,1]. The result
    always has 3 channels. `alpha` is a real number (not a bool) in [0,1]."""
    alpha = _checked_unit("alpha", alpha)
    pixels = Image(pixels).pixels
    colored = apply_colormap(h)
    if pixels.shape[1:] != colored.shape[1:]:
        raise ValueError(f"heatmap resolution {colored.shape[1:]} does not match "
                         f"image {pixels.shape[1:]}")
    return _blend(pixels, colored, alpha)


def _blend(pixels: np.ndarray, colored: np.ndarray, alpha: float) -> np.ndarray:
    """The overlay of already coloured planes: (1 - alpha) * pixels +
    alpha * colored, clipped to [0,1]. Callers that also write the
    colormap itself colour the heatmap once and blend with this."""
    return np.clip((1.0 - alpha) * pixels + alpha * colored, 0.0, 1.0)
