"""Small seeded models whose internals are cheap enough to enumerate.

Three architectures share one contract: a tap layer whose output is exposed
as a stack of maps (n_maps x d positions), plus an affine head that maps
the tap to class logits. Plain values have one implementation: `_tap_stack`
runs any number of images to the tap in numpy and `head_batch` maps tap
stacks to logits, so `forward` is `head_batch` on a single stack.
Because the head is affine in the tap, y = J·A + b, its derivatives need
no tape: `head_linear` gives J·A and `head_transpose` maps logit-space
vectors back through Jᵀ, which is all `cam` needs for closed-form gradients
and curvature terms. `forward_with_tap` builds the same head on a tape with
the tap as the independent input; the suites and the oracle tests take
gradients and HVPs against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .utility import _checked_int

ARCHS = ("cnn-relu", "cnn-smooth", "mlp-smooth")
TAP_LAYER = "act"  # every architecture taps its activation layer

_MLP_MAPS = 4
_MLP_SPATIAL = (4, 4)
_CONV_CHANNELS = 4
_KERNEL = 3
# Array cells one batched numpy call works on: `_tap_stack` builds im2col
# columns for this many cells at a time, and the game layer chunks masked
# activations, coalition flags and permutation prefixes by it.
_BATCH_CELLS = 1 << 16
_MAX_WEIGHT_BYTES = 1 << 30  # `build_model` refuses larger models before any draw


def _chunk_rows(cells_per_row: int) -> int:
    return max(1, _BATCH_CELLS // cells_per_row)


def _checked_grid(spatial, d: int) -> tuple[int, int]:
    """`spatial` as an (h, w) pair of ints that covers d positions: each
    size an integer of at least 1 (`_checked_int`), and h * w == d."""
    try:
        h, w = spatial
    except (TypeError, ValueError):
        raise ValueError(f"spatial must be (h, w), got {spatial!r}") from None
    grid = (_checked_int("spatial[0]", h, 1), _checked_int("spatial[1]", w, 1))
    if grid[0] * grid[1] != d:
        raise ValueError(f"spatial {grid} does not cover {d} positions")
    return grid


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class ActivationStack:
    """Tap-layer output as maps: one row per map, one column per position."""

    maps: np.ndarray          # (n_maps, d)
    spatial: tuple[int, int]  # (h, w) with h*w == d

    def __post_init__(self):
        _, d = self.maps.shape
        object.__setattr__(self, "spatial", _checked_grid(self.spatial, d))

    @property
    def d(self) -> int:
        return self.maps.shape[1]


class TapRun(NamedTuple):
    logits: np.ndarray
    activations: ActivationStack
    tape: ad.Tape


def _init_tensor(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Uniform [-0.5, 0.5) scaled by 1/sqrt(fan_in), drawn in place.

    numpy's `uniform(low, high)` is `low + (high - low) * next_double`, which
    for a range of 1.0 is `next_double - 0.5`, so this consumes the same
    stream and gives the bits of `rng.uniform(-0.5, 0.5, shape) /
    np.sqrt(fan_in)` without its affine pass and temporary."""
    w = rng.random(shape)
    w -= 0.5
    w /= np.sqrt(fan_in)
    return w


def _tensor_specs(arch: str, num_classes: int, in_shape: tuple[int, int, int]):
    """Ordered (name, shape, fan_in) table; the order fixes RNG draw order."""
    cin, h, w = in_shape
    if arch in ("cnn-relu", "cnn-smooth"):
        fan_conv = cin * _KERNEL * _KERNEL
        return [
            ("conv_w", (_CONV_CHANNELS, cin, _KERNEL, _KERNEL), fan_conv),
            ("conv_b", (_CONV_CHANNELS,), fan_conv),
            ("fc_w", (num_classes, _CONV_CHANNELS), _CONV_CHANNELS),
            ("fc_b", (num_classes,), _CONV_CHANNELS),
        ]
    if arch == "mlp-smooth":
        n_in = cin * h * w
        hidden = _MLP_MAPS * _MLP_SPATIAL[0] * _MLP_SPATIAL[1]
        return [
            ("fc1_w", (hidden, n_in), n_in),
            ("fc1_b", (hidden,), n_in),
            ("fc2_w", (num_classes, hidden), hidden),
            ("fc2_b", (num_classes,), hidden),
        ]
    raise ValueError(f"unknown architecture {arch!r}; expected one of {ARCHS}")


@dataclass(eq=False)  # holds arrays: equal and hashed by identity
class ToyModel:
    """A tiny classifier with a designated tap layer."""

    arch: str
    num_classes: int
    seed: int
    in_shape: tuple[int, int, int]
    weights: dict[str, np.ndarray] = field(repr=False)

    # -- forward paths ------------------------------------------------------

    def _tap_stack(self, images: np.ndarray) -> np.ndarray:
        """Plain-numpy run of n images up to and including the tap,
        (n, *in_shape) -> (n, n_maps, d). Row i is bit-identical to the
        call on image i alone."""
        images = ad.as_tensor(images)
        if images.ndim != 4 or images.shape[1:] != self.in_shape:
            raise ValueError(f"image shape {images.shape[1:]} does not match "
                             f"model input {self.in_shape}")
        if not np.all(np.isfinite(images)):
            raise ValueError("image: non-finite values are not allowed")
        n = len(images)
        if self.arch in ("cnn-relu", "cnn-smooth"):
            # valid cross-correlation as im2col: rows ordered (channel,
            # kernel row, kernel col) like conv_w, one column per position;
            # the columns of at most _BATCH_CELLS cells are copied at a time
            # into one reused buffer
            w = self.weights["conv_w"]
            kernel = w.reshape(len(w), -1)
            h, wd = self.tap_spatial()
            out = np.empty((n, len(w), h * wd))
            step = _chunk_rows(kernel.shape[1] * h * wd)
            windows = sliding_window_view(images, w.shape[2:], axis=(2, 3))
            windows = windows.transpose(0, 1, 4, 5, 2, 3)
            buffer = np.empty((min(step, n),) + windows.shape[1:])
            for start in range(0, n, step):
                cols = buffer[:min(step, n - start)]
                np.copyto(cols, windows[start:start + step])
                z = np.matmul(kernel, cols.reshape(len(cols), kernel.shape[1], -1),
                              out=out[start:start + step])
                z += self.weights["conv_b"].reshape(-1, 1)
                if self.arch == "cnn-relu":
                    np.maximum(z, 0.0, out=z)
                else:
                    z *= ad._sigmoid_fw(z)
            return out
        flat = images.reshape(n, -1, 1)
        z = np.matmul(self.weights["fc1_w"], flat)[..., 0] + self.weights["fc1_b"]
        return np.tanh(z).reshape(n, _MLP_MAPS, -1)

    def head(self, x):
        """Logits of one tap stack as a node graph, for differentiation.

        Its value is bit-identical to a row of `head_batch`: the same
        pooling sum and the same matrix-vector product."""
        w_out, b_out = self._head_params()
        if self.arch in ("cnn-relu", "cnn-smooth"):
            return ad.add(ad.matmul(w_out, ad.mean(x, axis=1)), b_out)
        flat = ad.reshape(x, (w_out.shape[1],))
        return ad.add(ad.matmul(w_out, flat), b_out)

    def _head_params(self) -> tuple[np.ndarray, np.ndarray]:
        if self.arch in ("cnn-relu", "cnn-smooth"):
            return self.weights["fc_w"], self.weights["fc_b"]
        return self.weights["fc2_w"], self.weights["fc2_b"]

    @property
    def head_bias(self) -> np.ndarray:
        return self._head_params()[1]

    def head_linear(self, stacks: np.ndarray) -> np.ndarray:
        """The head before its bias, J·A, of n tap stacks:
        (n, n_maps, d) -> (n, num_classes).

        The pooling sums each contiguous row the way `head` does, and the
        stacked matmul runs the same matrix-vector product per row (a single
        `pooled @ w.T` GEMM would not be bit-equal).
        """
        stacks = np.asarray(stacks, dtype=np.float64)
        h, w = self.tap_spatial()
        n_maps = _MLP_MAPS if self.arch == "mlp-smooth" else _CONV_CHANNELS
        if stacks.ndim != 3 or stacks.shape[1:] != (n_maps, h * w):
            raise ValueError(f"head: expected (n, {n_maps}, {h * w}) stacks, "
                             f"got {stacks.shape}")
        if self.arch in ("cnn-relu", "cnn-smooth"):
            pooled = np.sum(stacks, axis=2) * (1.0 / stacks.shape[2])
        else:
            pooled = stacks.reshape(len(stacks), -1)
        return np.matmul(self._head_params()[0], pooled[:, :, None])[..., 0]

    def head_batch(self, stacks: np.ndarray) -> np.ndarray:
        """Logits of n tap stacks, (n, n_maps, d) -> (n, num_classes).
        Row i is bit-identical to the value of `head(stacks[i])`."""
        return self.head_linear(stacks) + self.head_bias

    def head_transpose(self, g: np.ndarray) -> np.ndarray:
        """The head's transpose map Jᵀ: per-image logit-space vectors
        (n, num_classes) to tap-space (n, n_maps, d). For the CNNs, Jᵀg is
        Wᵀg / d broadcast over positions (a read-only view). The stacked
        matmul maps each row on its own, so row i is bit-identical to the
        call on g[i] alone (one (n, K) @ W GEMM would not be)."""
        w_out = self._head_params()[0]
        back = np.matmul(np.asarray(g, dtype=np.float64)[:, None, :], w_out)[:, 0]
        h, w = self.tap_spatial()
        if self.arch in ("cnn-relu", "cnn-smooth"):
            return np.broadcast_to((back * (1.0 / (h * w)))[:, :, None], back.shape + (h * w,))
        return back.reshape(len(back), _MLP_MAPS, h * w)

    def tap_spatial(self) -> tuple[int, int]:
        if self.arch in ("cnn-relu", "cnn-smooth"):
            _, h, w = self.in_shape
            return (h - _KERNEL + 1, w - _KERNEL + 1)
        return _MLP_SPATIAL

    def forward(self, image: np.ndarray) -> np.ndarray:
        """Image to logits, no taping."""
        return self.head_batch(self._tap_stack(ad.as_tensor(image)[None]))[0]

    def forward_with_tap(self, image: np.ndarray) -> TapRun:
        """Image to logits with the head taped against the tap stack.

        The tape's input "tap" is the activation stack treated as a free
        variable; gradient/hvp against it differentiate the head only.
        """
        stack = self._tap_stack(ad.as_tensor(image)[None])[0]
        outs, tape = ad.forward(lambda tap: {"logits": self.head(tap)}, {"tap": stack})
        activations = ActivationStack(maps=stack, spatial=self.tap_spatial())
        return TapRun(logits=outs["logits"], activations=activations, tape=tape)


def build_model(arch: str, num_classes: int, seed: int,
                in_shape: tuple[int, int, int] = (3, 6, 6)) -> ToyModel:
    """Construct a model with seeded uniform weights.

    Each tensor draws uniform [-0.5, 0.5) scaled by 1/sqrt(fan_in) from one
    generator in a fixed order, so identical (arch, num_classes, seed,
    in_shape) always yields bit-identical weights. Weights of more than
    `_MAX_WEIGHT_BYTES` (1 GiB) raise `ValueError` before any is drawn.
    """
    num_classes = _checked_int("num_classes", num_classes, 2)
    seed = _checked_int("seed", seed, 0)
    if np.ndim(in_shape) != 1 or len(in_shape) != 3 or in_shape[0] not in (1, 3):
        raise ValueError(f"in_shape must be (channels in {{1,3}}, h, w), got {in_shape!r}")
    in_shape = tuple(_checked_int(f"in_shape[{i}]", v, 1) for i, v in enumerate(in_shape))
    if arch in ("cnn-relu", "cnn-smooth") and (in_shape[1] < _KERNEL or in_shape[2] < _KERNEL):
        raise ValueError(f"{arch} needs at least a {_KERNEL}x{_KERNEL} input, got {in_shape}")
    specs = _tensor_specs(arch, num_classes, in_shape)
    size = 8 * sum(math.prod(shape) for _, shape, _ in specs)
    if size > _MAX_WEIGHT_BYTES:
        raise ValueError(f"{arch} with {num_classes} classes on in_shape {in_shape} needs "
                         f"{size} bytes of weights, more than the {_MAX_WEIGHT_BYTES} allowed")
    rng = np.random.default_rng(seed)
    weights = {name: _init_tensor(rng, shape, fan_in) for name, shape, fan_in in specs}
    return ToyModel(arch=arch, num_classes=num_classes, seed=seed,
                    in_shape=in_shape, weights=weights)
