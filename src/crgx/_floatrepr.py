"""Shortest round-trip text of float64 arrays, exactly as `json.dumps`
writes each element.

The digits come from Ryu (Adams, 2018, "Ryū: fast float-to-string
conversion", PLDI) run over numpy uint64 lanes: the shortest decimal in the
rounding interval, nearest to the value, which is what `repr` (and so json)
prints. Only Ryu's common case is vectorised. A lane that could need its
trailing-zero bookkeeping (e2 >= 0 with q <= 21, e2 < 0 with q <= 1 or mv
divisible by 2^q), and every ±0.0, NaN and ±inf, is written by
`json.dumps(float(v))`, so correctness never rests on how much the fast path
covers. The text follows `repr`: exponent form when the decimal point sits at
<= -4 or > 16, and at least two exponent digits; the integral values that
`repr` ends in `.0` all fall back.
"""

from __future__ import annotations

import functools
import json

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)


@functools.cache
def _ryu_table() -> np.ndarray:
    """Ryu's parameters per biased exponent, a read-only (8, 2048) uint64
    array: rows 0-3 the 32-bit limbs of the 125-bit multiplier, rows 4-5
    the product's shift j as j - 64 and 128 - j, row 6 the fast-path mask,
    row 7 e10 (int64 bits). A lane takes the fast path iff mv & mask != 0:
    the mask is 0 where every lane falls back (and for NaN and inf),
    2^q - 1 where mv divisible by 2^q does, and 2^62 - 1 where none does."""
    biased = np.arange(2048, dtype=np.int64)
    e2 = np.maximum(biased, 1) - 1077           # 1023 bias, 52 mantissa bits, 2 bound bits
    up = e2 >= 0
    q = np.where(up, ((e2 * 78913) >> 18) - (e2 > 3),           # log10Pow2(e2)
                 ((-e2 * 732923) >> 20) - (-e2 > 1))            # log10Pow5(-e2)
    power = np.where(up, q, -e2 - q)            # the multiplier holds 5^power
    bits = ((power * 1217359) >> 19) + 1        # pow5bits: the bit length of 5^power
    shift = np.where(up, q - e2 + 124 + bits, q - bits + 125)
    fives = [5 ** k for k in range(power.max() + 1)]
    direct = b"".join(((f << 125) >> f.bit_length()).to_bytes(16, "little") for f in fives)
    inverse = b"".join(((1 << (f.bit_length() + 124)) // f + 1).to_bytes(16, "little")
                       for f in fives)
    limbs = np.frombuffer(direct + inverse, "<u4").reshape(2, -1, 4)[up.astype(np.intp), power].T
    fast = np.where(up, q > 21, q > 1) & (biased < 2047)
    # mv < 2^55, so a mask of 2^62 - 1 lets every nonzero lane through
    mask = np.where(fast, (1 << np.where(up, 62, np.minimum(q, 62))) - 1, 0)
    table = np.vstack([limbs, [shift - 64, 128 - shift, mask, np.where(up, q, q + e2)]],
                      dtype=np.int64).view(np.uint64)
    table.setflags(write=False)
    return table


def _mul_shift(m, a0, a1, a2, a3, right, left):
    """floor(m * a / 2^(64 + right)) per lane, for m < 2^56, a = a3:a2:a1:a0
    in 32-bit limbs, 0 < right < 64 and left = 64 - right (a result that
    fits 64 bits)."""
    lo, hi = m & _M32, m >> 32
    acc = (lo * a0) >> 32
    column = []
    for a, b in (a1, a0), (a2, a1), (a3, a2):      # bits 32-63, 64-95, 96-127
        x, y = lo * a, hi * b
        acc += (x & _M32) + (y & _M32)
        column.append(acc & _M32)
        acc = (acc >> 32) + (x >> 32) + (y >> 32)
    acc += hi * a3                                  # floor(m * a / 2^128)
    return ((column[1] | column[2] << 32) >> right) | (acc << left)


def _interval(values: np.ndarray):
    """Ryu's rounding interval per lane: (fast, e10, vp, vr, vm), the value
    being vr x 10^e10 and the shortest decimals lying in (vm, vp), where
    `fast` is set."""
    bits = values.view(np.uint64)
    biased = bits >> 52 & 0x7FF
    mantissa = bits & (1 << 52) - 1
    mv = (mantissa | np.minimum(biased, 1) << 52) << 2
    a0, a1, a2, a3, right, left, mask, e10 = _ryu_table().take(biased.astype(np.intp), axis=1)
    mm = mv - 1 - ((mantissa != 0) | (biased <= 1))
    return ((mv & mask) != 0, e10.astype(np.int64),
            *(_mul_shift(m, a0, a1, a2, a3, right, left) for m in (mv + 2, mv, mm)))


def _shortest(values: np.ndarray):
    """Ryu's common case per lane: (fast, normal, length, point), the value
    being 0.d1d2...d17 x 10^point for the 17 digits of `normal`, of which
    the first `length` are significant; valid where `fast` is set."""
    fast, e10, vp, vr, vm = _interval(values)
    # drop digits while vp // 10 > vm // 10, rounding the rest half up
    removed = np.zeros(len(values), dtype=np.intp)
    p, m = vp // 10, vm // 10
    more = fast & (p > m)
    while more.any():
        removed += more
        p //= 10
        m //= 10
        more &= p > m
    scale = _POW10[removed]
    kept = vr // scale
    rest = vr - kept * scale
    output = kept + ((kept == vm // scale) | (rest >= scale - rest))
    length = np.searchsorted(_POW10, output, side="right")
    normal = output * _POW10.take(17 - length, mode="clip")
    return fast, normal, length, e10 + removed + length


def _digits(normal: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each lane of `normal` < 10^17, (17, n), most
    significant first."""
    digits = np.empty((17, len(normal)), dtype=np.uint8)
    for k in range(16, -1, -1):
        ahead = normal // 10
        digits[k] = normal - ahead * 10
        normal = ahead
    digits += ord("0")
    return digits


def float_texts(values: np.ndarray) -> list[str]:
    """The text `json.dumps` writes for each element of a 1-D float64
    array."""
    fast, normal, length, point = _shortest(values)
    fixed = (point > -4) & (point <= 16)
    k = np.arange(17)[:, None]
    texts = np.empty(len(values), dtype=object)
    # each layout is one byte matrix, a row per byte position and a column
    # per lane; its 0 bytes are padding, and a comma (which no float's text
    # holds) ends each lane
    for lanes in np.flatnonzero(fast & ~fixed), np.flatnonzero(fast & fixed):
        if not lanes.size:
            continue
        digits, n, p = _digits(normal[lanes]), length[lanes], point[lanes]
        if fixed[lanes[0]]:     # sign, "0.000", digits with a "." after the p-th
            # no ".0": an integral value below 1e16 has mv divisible by 2^q
            rows = np.empty((41, len(lanes)), dtype=np.uint8)
            rows[1] = (p <= 0) * ord("0")
            rows[2] = (p <= 0) * ord(".")
            rows[3:6] = (k[:3] < -p) * ord("0")
            rows[6:40:2] = digits * (k < n)
            rows[7:40:2] = (k == p - 1) * ord(".")
        else:                   # sign, digit, ".", digits, "e", sign, exponent
            e = np.abs(p - 1)
            rows = np.empty((25, len(lanes)), dtype=np.uint8)
            rows[1] = digits[0]
            rows[2] = (n > 1) * ord(".")
            rows[3:19] = digits[1:] * (k[1:] < n)
            rows[19] = ord("e")
            rows[20] = np.where(p > 0, ord("+"), ord("-"))
            rows[21] = (e >= 100) * (e // 100 + ord("0"))
            rows[22] = e // 10 % 10 + ord("0")
            rows[23] = e % 10 + ord("0")
        rows[0] = np.signbit(values[lanes]) * ord("-")
        rows[-1] = ord(",")
        part = rows.T.tobytes().translate(None, b"\0").decode("ascii").split(",")[:-1]
        if len(part) == len(values):
            return part         # one layout and no fallback: nothing to merge
        texts[lanes] = part
    for i in np.flatnonzero(~fast).tolist():
        texts[i] = json.dumps(float(values[i]))
    return texts.tolist()
