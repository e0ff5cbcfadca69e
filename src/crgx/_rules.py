"""The rules for the arguments of the API, one function per kind of
argument: integers, arrays, fractions, class indices, (h, w) grids,
names and the labels of result records. Every module takes its rules from
here, the autodiff engine too, so this module imports nothing from the
package."""

from __future__ import annotations

import numbers

import numpy as np


def _checked_int(name: str, value, floor: int) -> int:
    """`value` as an int, the one rule for every integer argument of the
    API: a Python or numpy integer (a bool is not one) of at least `floor`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise ValueError(f"{name} must be at least {floor}, got {value!r}")
    return int(value)


def _checked_array(name: str, value, ndim) -> np.ndarray:
    """`value` as a float64 array, the one rule for every array argument of
    the API: real numbers (a bool or complex value is not one), a rank in
    `ndim` (an int, a tuple of ints, or None where the caller checks the
    whole shape), at least one value, and no NaN or infinity."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting, say
        array = None
    if array is None or array.dtype.kind not in "iuf":
        got = (f"a {type(value).__name__} numpy cannot convert" if array is None
               else f"dtype {array.dtype}")
        raise ValueError(f"{name} must be an array of real numbers, got {got}")
    ranks = (ndim,) if isinstance(ndim, int) else ndim
    if ranks is not None and array.ndim not in ranks:
        raise ValueError(f"{name} must be {' or '.join(f'{k}-D' for k in ranks)}, "
                         f"got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must hold at least one value, got an empty array")
    array = np.asarray(array, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"{name}: non-finite values are not allowed")
    return array


def _checked_unit(name: str, value) -> float:
    """`value` as a float, the one rule for a fraction argument: a real
    number (a bool is not one) in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0,1], got {value}")
    return float(value)


def _check_class(target_class: int, n_classes: int) -> None:
    if not 0 <= target_class < n_classes:
        raise ValueError(f"target_class {target_class} out of range for {n_classes} classes")


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


def _checked_name(what: str, value, choices: tuple[str, ...]) -> str:
    """`value` as a plain str, the one rule for every name argument of the
    API (a CAM method, a utility kind, an architecture, a grid view): a str,
    numpy's `np.str_` included, that is one of `choices`."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {what} {value!r}; expected one of {choices}")
    return str(value)


def _checked_label(what: str, value) -> str:
    """`value` as a plain str, the one rule for the label a result record
    keeps of what made it (a method, a utility, an architecture): a str,
    numpy's `np.str_` included."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a str, got {value!r}")
    return str(value)
