"""Cooperative games over feature positions and their Shapley values.

A game has any number d of players. The utility table holds U(S) at index
sum_{j in S} 2^j, a (2,)*d hypercube with player j on axis d-1-j
(`_faces`); what enumerates it stops at d = 20. Exact values and the axiom
audit read a (g, 2^d) stack of same-d tables in blocked scans: the faces of
several players, or pairs, of every table are written into one buffer and
reduced in one call per block (`_scan`). Four routes to an
attribution vector live here: exact enumeration, permutation-sampling
Monte Carlo, and the first- and second-order closed forms that contract a
gradient (and optionally a Hessian-vector product) against an activation
stack. Every game scores coalitions through one batched utility, (n, d)
bool -> (n,) float64: a table lookup, or for `SpatialGame` the model's
numpy kernels. Games build no tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .cam import shapley_weights
from .utility import UtilitySpec, compute_utility, compute_utility_batch
from .zoo import ToyModel, _chunk_rows

_ENUM_LIMIT = 20
AXIOM_TOL = 1e-9  # relative tolerance of every axiom_suite check
# Batches follow zoo's cell budget `_BATCH_CELLS`: SpatialGame evaluates
# rows x n_maps x d masked activations at a time, utility_table builds
# coalitions x d membership flags, _scan writes tables x players x face
# differences, shapley_mc builds permutations x d x d prefix flags, and its
# permutation stream words x lanes PCG64 outputs.


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class ShapleyVector:
    """Per-player attribution plus how it was obtained."""

    values: np.ndarray
    method: str                      # "exact" | "mc" | "first-order" | "second-order"
    samples: int | None = None
    stderr: np.ndarray | None = None


class CooperativeGame:
    """d players and a batched utility over coalitions.

    A coalition is a boolean membership array of length d. The utility is
    one callable from an (n, d) bool array of coalitions to their (n,)
    values, e.g. `CooperativeGame(d, lambda masks: masks @ w)` for an
    additive game with weights w; it must be deterministic and side-effect
    free. `utility_batch` is the only caller. Table games index the table,
    spatial games run the model head on chunks of masked stacks. U(empty)
    and U(full) are evaluated once at construction.
    """

    _table: np.ndarray | None = None

    def __init__(self, d: int, utility: Callable[[np.ndarray], np.ndarray]):
        if not isinstance(d, (int, np.integer)):
            raise ValueError(f"d must be an integer, got {d!r}")
        if d < 1:
            raise ValueError(f"a game needs at least one player, got d={d}")
        self.d = int(d)
        self._utility = utility
        ends = self.utility_batch(np.array([[False] * self.d, [True] * self.d]))
        self.u_empty, self.u_full = float(ends[0]), float(ends[1])

    @classmethod
    def from_table(cls, table: np.ndarray) -> "CooperativeGame":
        """Game backed by a dense utility table indexed by coalition bitmask."""
        table = np.array(table, dtype=np.float64)
        if table.ndim != 1:
            raise ValueError(f"utility table must be 1-D, got shape {table.shape}")
        if not np.isfinite(table).all():
            raise ValueError("utility table values must be finite")
        d = int(table.size).bit_length() - 1
        if table.size == 0 or table.size != 1 << d:
            raise ValueError(f"table size {table.size} is not a power of two")
        powers = 1 << np.arange(d, dtype=np.int64)
        game = cls(d, lambda masks: table[masks @ powers])
        game._table = table
        return game

    def utility_batch(self, masks: np.ndarray) -> np.ndarray:
        """Utilities of the n coalitions in an (n, d) membership array."""
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.d:
            raise ValueError(f"coalition masks must have shape (n, {self.d}), "
                             f"got {masks.shape}")
        values = np.asarray(self._utility(masks), dtype=np.float64)
        if values.shape != (len(masks),):
            # a scalar here would broadcast across every coalition
            raise ValueError(f"the utility must return shape ({len(masks)},) for "
                             f"{len(masks)} coalitions, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("the utility returned non-finite values")
        return values

    def utility_table(self) -> np.ndarray:
        """All 2^d utilities, indexed by bitmask. Cached after the first call."""
        if self._table is not None:
            return self._table
        if self.d > _ENUM_LIMIT:
            raise ValueError(f"enumerating 2^{self.d} coalitions is over the "
                             f"d={_ENUM_LIMIT} limit")
        n = 1 << self.d
        powers = 1 << np.arange(self.d, dtype=np.int64)
        step = _chunk_rows(self.d)
        table = np.empty(n, dtype=np.float64)
        for lo in range(0, n, step):
            coalitions = np.arange(lo, min(lo + step, n), dtype=np.int64)
            table[lo:lo + len(coalitions)] = self.utility_batch(
                (coalitions[:, None] & powers) != 0)
        self._table = table
        return table


@lru_cache(maxsize=None)
def _coalition_weights(d: int) -> np.ndarray:
    """w[k] = k! (d-1-k)! / d! via log-factorials, for k = |S| of the
    coalition a player joins."""
    w = np.exp([math.lgamma(k + 1.0) + math.lgamma(d - k) - math.lgamma(d + 1.0)
                for k in range(d)])
    w.setflags(write=False)                       # shared by every caller
    return w


@lru_cache(maxsize=None)
def _subset_weights(d: int) -> np.ndarray:
    """_coalition_weights(d)[|S|] for each coalition S of the other d - 1
    players, in table order: the (2^(d-1),) weights of a player's face."""
    w = _coalition_weights(d)[np.bitwise_count(np.arange(1 << (d - 1)))]
    w.setflags(write=False)
    return w


def _faces(table: np.ndarray, *players: int) -> np.ndarray:
    """The utility table, or a (g, 2^d) stack of tables, with a length-2
    axis for each of `players`, given in descending order, and the players
    above, between and below them merged into ascending axes: for one
    player j, shape (..., 2^(d-1-j), 2, 2^j)."""
    shape = list(table.shape)
    for p in players:                   # split the last axis around bit p
        shape[-1:] = [shape[-1] >> (p + 1), 2, 1 << p]
    return table.reshape(shape)


def _scan(tables: np.ndarray, players: list[tuple[int, ...]], weights=None) -> np.ndarray:
    """Reduce the face of each of `players` in every table of a (g, 2^d)
    stack, (g, len(players)) out: for (j,) the marginals U(S + j) - U(S),
    for a pair (i, j), i < j, U(S + i) - U(S + j), over the coalitions S
    without them, to sum(weights * face) or, without weights, max |face|.
    Faces go into blocks of one buffer, at most _BATCH_CELLS cells or one
    face per table; each block reduces once over its contiguous last axis,
    as np.sum or np.max of each face alone would."""
    g, n = len(tables), len(players)
    size = tables.shape[1] >> len(players[0]) if n else 1
    block = min(n, _chunk_rows(g * size))
    buf = np.empty((g, block, size))
    out = np.empty((g, n))
    for lo in range(0, n, max(block, 1)):
        part = buf[:, :min(block, n - lo)]
        for k, p in enumerate(players[lo:lo + block]):
            f = _faces(tables, *p[::-1])
            a, b = ((f[..., 1, :], f[..., 0, :]) if len(p) == 1 else
                    (f[..., 0, :, 1, :], f[..., 1, :, 0, :]))
            np.subtract(a, b, out=part[:, k].reshape(a.shape))
        if weights is None:
            np.max(np.abs(part, out=part), axis=-1, out=out[:, lo:lo + block])
        else:
            np.sum(np.multiply(part, weights, out=part), axis=-1, out=out[:, lo:lo + block])
    return out


# a finite table can still have marginals or sums past float64's range:
# they come out as inf or NaN, which the check below refuses
@np.errstate(over="ignore", invalid="ignore")
def _exact(tables: np.ndarray) -> np.ndarray:
    """Exact Shapley values of a (g, 2^d) stack of tables, (g, d)."""
    d = tables.shape[1].bit_length() - 1
    values = _scan(tables, [(j,) for j in range(d)], _subset_weights(d))
    if not (np.isfinite(values).all() and np.isfinite(np.sum(values, axis=-1)).all()
            and np.isfinite(tables[:, -1] - tables[:, 0]).all()):
        raise ValueError("exact Shapley values overflow float64: the utility "
                         "table's differences or sums exceed the float range")
    return values


def shapley_exact(game: CooperativeGame) -> ShapleyVector:
    """Exact Shapley values by full coalition enumeration (one utility
    evaluation per coalition, reused across players)."""
    d = game.d
    if d > _ENUM_LIMIT:
        raise ValueError(f"exact Shapley needs 2^{d} = {1 << d} utility evaluations; "
                         f"refusing beyond d={_ENUM_LIMIT}")
    table = game.utility_table()
    if table[0] != game.u_empty or table[-1] != game.u_full:
        raise RuntimeError("the table's U(empty) or U(full) differs from its value at "
                           "construction; the utility callback is not deterministic")
    return ShapleyVector(values=_exact(table[None])[0], method="exact")


# The Monte Carlo permutation stream. Permutation i of shapley_mc(seed) is
# numpy's default_rng(SeedSequence((seed, i))).permutation(d): SeedSequence
# hashes the entropy words into a 4-word pool, PCG64 is seeded from
# generate_state(4, uint64), and Generator.permutation runs Fisher-Yates on
# masked-rejection draws from next_uint32. For 0 <= seed, i < 2^32 the
# entropy is the two words (seed, i), and for d <= 64 the functions below
# compute the same numbers for many i at once, one lane per permutation.
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U16, _U32 = np.uint32(16), np.uint64(32)
_LO32 = np.uint64(_M32)


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The xor and multiplier of n successive SeedSequence hashmix calls,
    as a (2, n) uint32 array."""
    consts = []
    for _ in range(n):
        consts.append((init, init * mult & _M32))
        init = consts[-1][1]
    return np.array(consts, np.uint32).T


_POOL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
# mix round src hashes pool[src] into the three other words in order; a zero
# column at src gives one (4, n) step per round
_ROUNDS = np.stack([np.insert(_POOL[:, 4 + 3 * src:7 + 3 * src], src, 0, axis=1)
                    for src in range(4)])[..., None]
# generate_state(4, uint64) hashes 8 words, word k from pool[k % 4]
_STATE = _hash_constants(0x8B51F9DD, 0x58F38DED, 8).reshape(2, 2, 4, 1)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    v = (v ^ consts[0]) * consts[1]
    return v ^ (v >> _U16)


@lru_cache(maxsize=None)
def _skip_ahead(k: int) -> tuple[np.ndarray, ...]:
    """PCG64 skip-ahead constants for outputs t = 1..k. Seeding leaves the
    state at M*s + (M+1)*inc and each output steps once more, so output t
    reads state A_t*s + B_t*inc with A_t = M^(t+1), B_t = sum_{u<t+2} M^u
    (mod 2^128). With inc = 2*seq + 1 that is A_t*s + 2B_t*seq + B_t.
    Returns the multipliers (A_t, 2B_t) as (2, k, 1) uint64 arrays of the
    high limb, the low limb and its two 32-bit halves, then B_t's high and
    low limbs as (k, 1) arrays."""
    power, total, rows = _PCG_MULT, 1 + _PCG_MULT, []
    for _ in range(k):
        power = power * _PCG_MULT & _M128
        total = (total + power) & _M128
        rows.append((power, 2 * total & _M128, total))
    limbs = np.array([[[v >> 64, v & _M64] for v in col] for col in zip(*rows)],
                     dtype=np.uint64)[..., None]
    hi, lo = limbs[:2, :, 0], limbs[:2, :, 1]
    consts = (hi, lo, lo & _LO32, lo >> _U32, limbs[2, :, 0], limbs[2, :, 1])
    for a in consts:                              # shared by every caller
        a.setflags(write=False)
    return consts


def _lane_words(seed: int, lanes: np.ndarray, n_out: int) -> np.ndarray:
    """The first 2 * n_out uint32 words next_uint32 returns from
    default_rng(SeedSequence((seed, i))) for each i in the uint32 array
    lanes; shape (2 * n_out, len(lanes))."""
    n = len(lanes)
    pool = np.zeros((4, n), np.uint32)
    pool[0] = seed
    pool[1] = lanes
    pool = _hashmix(pool, _POOL[:, :4, None])
    for src in range(4):
        r = pool * _MIX_L - _hashmix(pool[src], _ROUNDS[src]) * _MIX_R
        r ^= r >> _U16
        r[src] = pool[src]
        pool = r
    w = _hashmix(pool, _STATE).astype(np.uint64).reshape(8, n)
    # generate_state(4, uint64): little-endian word pairs, as (s, seq) x (hi, lo)
    g = (w[0::2] | (w[1::2] << _U32)).reshape(2, 2, 1, n)
    x_hi, x_lo = g[:, 0], g[:, 1]
    c_hi, c_lo, c0, c1, b_hi, b_lo = _skip_ahead(n_out)
    # A_t*s + 2B_t*seq + B_t mod 2^128 in uint64 limbs; the high limb takes
    # the high half of each low-limb product, built from 32-bit halves
    x0, x1 = x_lo & _LO32, x_lo >> _U32
    t = c1 * x0 + ((c0 * x0) >> _U32)
    u = c0 * x1 + (t & _LO32)
    hi = c1 * x1 + (t >> _U32) + (u >> _U32) + c_lo * x_hi + c_hi * x_lo
    lo = c_lo * x_lo
    low = lo[0] + lo[1]
    high = hi[0] + hi[1] + b_hi + (low < lo[0])
    low += b_lo
    high += low < b_lo
    # XSL-RR output; next_uint32 hands out the low half first
    x = high ^ low
    rot = high >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    words = np.empty((n_out, 2, n), np.uint32)
    words[:, 0] = out
    words[:, 1] = out >> _U32
    return words.reshape(2 * n_out, n)


@lru_cache(maxsize=None)
def _interval_masks(d: int) -> tuple[np.ndarray, np.ndarray, tuple[bool, ...]]:
    """For i = d-1..1: i and the mask random_interval(i) draws under, as
    (d-1, 1) uint8 columns (d <= 64, so six bits hold both), and whether
    the draw can be rejected (i is not all ones)."""
    tops = np.arange(d - 1, 0, -1, dtype=np.uint8)[:, None]
    masks = np.array([(1 << int(i).bit_length()) - 1 for i in tops.ravel()], np.uint8)[:, None]
    tops.setflags(write=False)                    # shared by every caller
    masks.setflags(write=False)
    return tops, masks, tuple((masks != tops).ravel().tolist())


def _fisher_yates(words: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's shuffle of arange(d) in each lane of a (W, n) word array:
    for i = d-1..1, j is the first unread word masked to i's bit length
    that is <= i, and a[i], a[j] swap. Returns the (n, d) permutations and
    the lanes that ran out of words (their rows are not valid)."""
    w, n = words.shape
    lanes = np.arange(n)
    tops, masks, rejects = _interval_masks(d)
    low = np.zeros((w + 1, n), np.uint8)          # row w: a zero word past the end
    low[:w] = words & np.uint32(63)
    # (positions, rows * lanes): one long inner loop, not one per row
    ok = ((low.reshape(-1) & masks) <= tops).reshape(d - 1, w + 1, n)
    rows = np.arange(w + 1)[:, None]
    rows[w] = w + 1                               # the zero word matches any cursor
    used = np.empty((d - 1, n), np.intp)          # the word row each position draws
    cur = np.zeros(n, np.intp)                    # each lane's next unread row
    for p in range(d - 1):
        if rejects[p]:
            (ok[p] & (rows >= cur)).argmax(0, out=used[p])
        else:
            np.minimum(cur, w, out=used[p])
        np.add(used[p], 1, out=cur)
    # j as a flat index into the (d, n) permutations
    j = (low.reshape(-1).take(used * n + lanes) & masks).astype(np.intp) * n + lanes
    perms = np.repeat(np.arange(d, dtype=np.int64), n).reshape(d, n)
    flat = perms.reshape(-1)
    for p, i in enumerate(range(d - 1, 0, -1)):
        pj = flat.take(j[p])
        flat[j[p]] = perms[i]
        perms[i] = pj
    return perms.T, cur > w


def _lane_permutations(seed: int, lanes: np.ndarray, d: int, n_words: int) -> np.ndarray:
    """Permutations of the lanes from n_words words each, recomputing a lane
    that rejections ran dry with twice as many words."""
    perms, dry = _fisher_yates(_lane_words(seed, lanes, (n_words + 1) // 2), d)
    if dry.any():
        perms[dry] = _lane_permutations(seed, lanes[dry], d, 2 * n_words)
    return perms


def _permutations(seed, lo: int, hi: int, d: int) -> np.ndarray:
    """Row i - lo is default_rng(SeedSequence((seed, i))).permutation(d) for
    lo <= i < hi. Entropy outside two uint32 words, and d > 64, go to numpy.
    The lanes draw 2d + 4 words each, all at once: `shapley_mc` bounds
    hi - lo by the cell budget of those words."""
    stop = lo
    if isinstance(seed, (int, np.integer)) and 0 <= seed <= _M32 and d <= 64:
        stop = min(hi, max(lo, 1 << 32))
    perms = np.empty((hi - lo, d), dtype=np.int64)
    if stop > lo:
        # 2d + 4 words leave a lane short with probability below 1e-4 for any d
        perms[:stop - lo] = _lane_permutations(
            int(seed), np.arange(lo, stop).astype(np.uint32), d, 2 * d + 4)
    for i in range(stop, hi):
        perms[i - lo] = np.random.default_rng(np.random.SeedSequence((seed, i))).permutation(d)
    return perms


def shapley_mc(game: CooperativeGame, samples: int, seed: int) -> ShapleyVector:
    """Monte Carlo Shapley estimate from uniform permutations with replacement.

    Permutation i is default_rng(SeedSequence((seed, i))).permutation(game.d),
    so the estimate depends only on (seed, samples), not on execution order.
    For 0 <= seed, i < 2^32 and d <= 64 that stream is computed over numpy
    lanes, block by block, bit for bit; other entropy and larger d go through
    numpy's generator. The d prefix coalitions of a block of permutations go
    through one `utility_batch` call; each permutation's marginals are then
    added in permutation order, so the result is bit-identical to walking
    the permutations one coalition at a time. Standard errors are per-player
    sample standard deviations over sqrt(n) (zero when n == 1).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    d = game.d
    sums = np.zeros(d)
    sumsq = np.zeros(d)
    steps = np.arange(1, d + 1)
    block = _chunk_rows(max(d * d, 2 * d + 4))  # prefix masks; lane words
    for lo in range(0, samples, block):
        perms = _permutations(seed, lo, min(lo + block, samples), d)
        # prefix k of a permutation holds the players it ranks below k
        prefixes = np.argsort(perms, axis=1)[:, None, :] < steps[:, None]
        u = game.utility_batch(prefixes.reshape(-1, d)).reshape(len(perms), d)
        deltas = np.empty_like(u)
        np.put_along_axis(deltas, perms, np.diff(u, axis=1, prepend=game.u_empty), axis=1)
        # accumulate adds row after row, the order of one permutation at a
        # time (a sum or reduce may add pairwise)
        sums = np.add.accumulate(np.vstack([sums, deltas]), axis=0)[-1]
        sumsq = np.add.accumulate(np.vstack([sumsq, deltas * deltas]), axis=0)[-1]
    values = sums / samples
    if samples > 1:
        var = np.maximum(sumsq - samples * values * values, 0.0) / (samples - 1)
        stderr = np.sqrt(var / samples)
    else:
        stderr = np.zeros(d)
    return ShapleyVector(values=values, method="mc", samples=samples, stderr=stderr)


def _taylor(weights: np.ndarray, maps: np.ndarray, method: str) -> ShapleyVector:
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 2 or weights.shape != maps.shape:
        raise ValueError(f"weights shape {weights.shape} does not match "
                         f"(maps x positions) stack shape {maps.shape}")
    return ShapleyVector(values=np.sum(weights * maps, axis=0), method=method)


def shapley_first_order(grad: np.ndarray, maps: np.ndarray) -> ShapleyVector:
    """First-order Shapley estimate of an (n_maps, d) stack A:
    value(j) = sum_i grad[i, j] * A[i, j].

    Exact whenever the utility is linear in the stack.
    """
    return _taylor(shapley_weights(grad), maps, "first-order")


def shapley_second_order(grad: np.ndarray, hvp_full: np.ndarray,
                         maps: np.ndarray) -> ShapleyVector:
    """Second-order Shapley estimate with the curvature correction:
    value(j) = sum_i W[i, j] * A[i, j], W = grad - hvp_full / 2 from
    `cam.shapley_weights`, hvp_full being the Hessian applied to the stack.

    Exact for utilities quadratic in the stack (the Hessian is constant, so
    the Taylor expansion terminates).
    """
    return _taylor(shapley_weights(grad, hvp_full), maps, "second-order")


class SpatialGame(CooperativeGame):
    """Game induced by masking tap positions of a model on one image.

    Player j covers position j in every map; absent players are zeroed
    (the ablation baseline). U(S) re-runs the head on the masked stack: the
    utility is `ToyModel.head_batch` then `compute_utility_batch` on chunks
    of at most _BATCH_CELLS masked activations, the batched form of
    `forward` and `compute_utility`.
    """

    def __init__(self, model: ToyModel, image: np.ndarray, spec: UtilitySpec):
        self.model = model
        self.spec = spec
        self.maps = maps = model._tap_stack(np.asarray(image, dtype=np.float64)[None])[0]
        chunk = _chunk_rows(maps.size)

        def utility(masks: np.ndarray) -> np.ndarray:
            out = np.empty(len(masks), dtype=np.float64)
            for lo in range(0, len(masks), chunk):
                part = masks[lo:lo + chunk]
                out[lo:lo + len(part)] = compute_utility_batch(
                    model.head_batch(maps * part[:, None, :]), spec)
            return out

        super().__init__(maps.shape[1], utility)
        # forward is the same kernel on the unmasked stack, and multiplying
        # by an all-ones mask is exact, so anything but equality is a defect
        direct = compute_utility(model.forward(image), spec)
        if self.u_full != direct:
            raise RuntimeError(f"unmasked spatial utility {self.u_full!r} does not "
                               f"reproduce the forward pass value {direct!r}")


def make_spatial_game(model: ToyModel, image: np.ndarray, spec: UtilitySpec) -> SpatialGame:
    return SpatialGame(model, image, spec)


@np.errstate(over="ignore", invalid="ignore")
def _audit(tables: np.ndarray, spans: np.ndarray, vals: np.ndarray) -> list[dict]:
    """`axiom_suite` reports for a (g, 2^d) stack of same-d tables, their
    (g,) spans U(full) - U(empty) and (g, d) attribution vectors, with one
    scan of every player, one of every pair and one exact scan of the
    doubled tables for the whole stack."""
    d = vals.shape[1]
    doubled = 2.0 * tables
    # |a - b| <= 2 max(|a|, |b|): with the doubled table finite, every
    # difference a scan takes is finite too
    if not np.isfinite(doubled).all():
        raise ValueError("linearity check overflows float64: 2 * table leaves the float range")
    detect = 1e-12 * (1.0 + np.max(np.abs(tables), axis=-1, keepdims=True))
    i, j = np.triu_indices(d, 1)
    pairs = list(zip(i.tolist(), j.tolist()))
    dummy = _scan(tables, [(p,) for p in range(d)]) <= detect
    symmetric = _scan(tables, pairs) <= detect
    lhs = _exact(doubled)
    rhs = 2.0 * vals
    gaps = np.abs(np.sum(vals, axis=-1) - spans)
    span_tol = AXIOM_TOL * (1.0 + np.abs(spans))
    lin_err = np.max(np.abs(lhs - rhs), axis=-1)
    eff = gaps <= span_tol
    dum = (~dummy | (np.abs(vals) <= span_tol[:, None])).all(axis=-1)
    sym = (~symmetric | (np.abs(vals[:, i] - vals[:, j])
                         <= AXIOM_TOL * (1.0 + np.abs(vals[:, i])))).all(axis=-1)
    lin = lin_err <= AXIOM_TOL * (1.0 + np.max(np.abs(lhs), axis=-1))
    return [{"efficiency": {"gap": float(gaps[k]), "pass": bool(eff[k])},
             "dummy": {"players": np.flatnonzero(dummy[k]).tolist(), "pass": bool(dum[k])},
             "symmetry": {"pairs": [p for p, s in zip(pairs, symmetric[k]) if s],
                          "pass": bool(sym[k])},
             "linearity": {"max_err": float(lin_err[k]), "pass": bool(lin[k])},
             "pass": bool(eff[k] and dum[k] and sym[k] and lin[k])}
            for k in range(len(vals))]


def axiom_suite(game: CooperativeGame, values) -> dict:
    """Audit an attribution vector against the four Shapley axioms.

    Dummy and symmetry detection enumerate the utility table, so this
    inherits the d <= 20 enumeration limit. Linearity is checked against the
    doubled game (homogeneity).
    Returns a per-axiom report; no exceptions for failed axioms.
    """
    vals = values.values if isinstance(values, ShapleyVector) else np.asarray(values, np.float64)
    if vals.shape != (game.d,):
        raise ValueError(f"values must have shape ({game.d},), got {vals.shape}")
    return _audit(game.utility_table()[None], np.array([game.u_full - game.u_empty]),
                  vals[None])[0]
