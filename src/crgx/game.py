"""Cooperative games over feature positions and their Shapley values.

Coalitions are bitmasks over d players (d <= 20 for anything that
enumerates). Four routes to an attribution vector live here: exact
enumeration, permutation-sampling Monte Carlo, and the first- and
second-order closed forms that contract a gradient (and optionally a
Hessian-vector product) against an activation stack. Every game scores
coalitions through one batched utility, (n, d) bool -> (n,) float64: a
table lookup, or for `SpatialGame` the model's numpy kernels. Games build
no tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .utility import UtilitySpec, compute_utility, compute_utility_batch
from .zoo import ActivationStack, ToyModel

_ENUM_LIMIT = 20
# Array cells one batched numpy call works on: SpatialGame evaluates
# rows x n_maps x d masked activations at a time, utility_table builds
# coalitions x d membership flags, shapley_mc builds permutations x d x d
# prefix flags, and its permutation stream words x lanes PCG64 outputs.
_BATCH_CELLS = 1 << 16


def _chunk_rows(cells_per_row: int) -> int:
    return max(1, _BATCH_CELLS // cells_per_row)


@dataclass(frozen=True)
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
        if d < 1:
            raise ValueError(f"a game needs at least one player, got d={d}")
        if d > 63:
            raise ValueError(f"coalitions are 64-bit masks; d={d} does not fit")
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
        d = int(table.size).bit_length() - 1
        if table.size != 1 << d:
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


def _coalition_weights(d: int) -> np.ndarray:
    """w[k] = k! (d-1-k)! / d! via log-factorials, for k = |S| of the
    coalition a player joins."""
    k = np.arange(d, dtype=np.float64)
    logw = np.array([math.lgamma(ki + 1.0) + math.lgamma(d - ki) - math.lgamma(d + 1.0)
                     for ki in k])
    return np.exp(logw)


def shapley_exact(game: CooperativeGame) -> ShapleyVector:
    """Exact Shapley values by full coalition enumeration (one utility
    evaluation per coalition, reused across players)."""
    d = game.d
    if d > _ENUM_LIMIT:
        raise ValueError(f"exact Shapley needs 2^{d} = {1 << d} utility evaluations; "
                         f"refusing beyond d={_ENUM_LIMIT}")
    table = game.utility_table()
    masks = np.arange(1 << d, dtype=np.int64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    weights = _coalition_weights(d)
    values = np.empty(d, dtype=np.float64)
    for j in range(d):
        bit = 1 << j
        absent = masks[(masks & bit) == 0]
        marginals = table[absent + bit] - table[absent]
        values[j] = float(np.sum(weights[sizes[absent]] * marginals))
    span = game.u_full - game.u_empty
    if abs(float(np.sum(values)) - span) > 1e-9 * (1.0 + abs(span)):
        raise RuntimeError("exact Shapley values do not add up to U(full) - U(empty); "
                           "the utility callback is not deterministic")
    return ShapleyVector(values=values, method="exact")


# The Monte Carlo permutation stream. Permutation i of shapley_mc(seed) is
# numpy's default_rng(SeedSequence((seed, i))).permutation(d): SeedSequence
# hashes the entropy words into a 4-word pool, PCG64 is seeded from
# generate_state(4, uint64), and Generator.permutation runs Fisher-Yates on
# masked-rejection draws from next_uint32. For 0 <= seed, i < 2^32 the
# entropy is the two words (seed, i), and the functions below compute the
# same numbers for many i at once, one numpy lane per permutation.
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
    lo <= i < hi. Entropy outside two uint32 words goes to numpy itself."""
    stop = lo
    if isinstance(seed, (int, np.integer)) and 0 <= seed <= _M32:
        stop = min(hi, max(lo, 1 << 32))
    perms = np.empty((hi - lo, d), dtype=np.int64)
    # 2d + 4 words leave a lane short with probability below 1e-4 for any d
    n_words = 2 * d + 4
    step = _chunk_rows(n_words)
    for a in range(lo, stop, step):
        b = min(a + step, stop)
        perms[a - lo:b - lo] = _lane_permutations(
            int(seed), np.arange(a, b).astype(np.uint32), d, n_words)
    for i in range(stop, hi):
        perms[i - lo] = np.random.default_rng(np.random.SeedSequence((seed, i))).permutation(d)
    return perms


def shapley_mc(game: CooperativeGame, samples: int, seed: int) -> ShapleyVector:
    """Monte Carlo Shapley estimate from uniform permutations with replacement.

    Permutation i is default_rng(SeedSequence((seed, i))).permutation(game.d),
    so the estimate depends only on (seed, samples), not on execution order.
    For 0 <= seed, i < 2^32 that stream is computed over numpy lanes, block
    by block, and matches numpy 2.x bit for bit; other entropy goes through
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
    block = _chunk_rows(d * d)
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


def _stack_array(stack) -> np.ndarray:
    maps = stack.maps if isinstance(stack, ActivationStack) else np.asarray(stack, dtype=np.float64)
    if maps.ndim != 2:
        raise ValueError(f"activation stack must be 2-D (maps x positions), got {maps.shape}")
    return maps


def shapley_first_order(grad: np.ndarray, stack) -> ShapleyVector:
    """First-order Shapley estimate: value(j) = sum_i grad[i, j] * A[i, j].

    Exact whenever the utility is linear in the stack.
    """
    maps = _stack_array(stack)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != maps.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match stack {maps.shape}")
    values = np.sum(grad * maps, axis=0)
    return ShapleyVector(values=values, method="first-order")


def shapley_second_order(grad: np.ndarray, hvp_full: np.ndarray, stack) -> ShapleyVector:
    """Second-order Shapley estimate with the curvature correction:
    value(j) = sum_i (grad - hvp_full / 2)[i, j] * A[i, j], where hvp_full is
    the Hessian of the utility applied to the full stack.

    Exact for utilities quadratic in the stack (the Hessian is constant, so
    the Taylor expansion terminates).
    """
    maps = _stack_array(stack)
    grad = np.asarray(grad, dtype=np.float64)
    hvp_full = np.asarray(hvp_full, dtype=np.float64)
    if grad.shape != maps.shape or hvp_full.shape != maps.shape:
        raise ValueError(f"gradient {grad.shape} / hvp {hvp_full.shape} do not "
                         f"match stack {maps.shape}")
    values = np.sum((grad - 0.5 * hvp_full) * maps, axis=0)
    return ShapleyVector(values=values, method="second-order")


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


def axiom_suite(game: CooperativeGame, values, pair=None, tol: float = 1e-9) -> dict:
    """Audit an attribution vector against the four Shapley axioms.

    Dummy and symmetry detection enumerate the utility table, so this
    inherits the d <= 20 enumeration limit. `pair` is an optional
    (other_game, alpha, beta) triple for the linearity axiom; by default the
    vector is checked against the doubled game (homogeneity).
    Returns a per-axiom report; no exceptions for failed axioms.
    """
    vals = values.values if isinstance(values, ShapleyVector) else np.asarray(values, np.float64)
    d = game.d
    if vals.shape != (d,):
        raise ValueError(f"values must have shape ({d},), got {vals.shape}")
    table = game.utility_table()
    masks = np.arange(1 << d, dtype=np.int64)
    scale = 1.0 + float(np.max(np.abs(table)))
    detect_tol = 1e-12 * scale

    span = game.u_full - game.u_empty
    eff_gap = abs(float(np.sum(vals)) - span)
    efficiency = {"gap": eff_gap, "pass": bool(eff_gap <= tol * (1.0 + abs(span)))}

    dummy_players, dummy_ok = [], True
    for j in range(d):
        bit = 1 << j
        absent = masks[(masks & bit) == 0]
        if float(np.max(np.abs(table[absent + bit] - table[absent]))) <= detect_tol:
            dummy_players.append(j)
            dummy_ok = dummy_ok and abs(vals[j]) <= tol * (1.0 + abs(span))
    dummy = {"players": dummy_players, "pass": bool(dummy_ok)}

    sym_pairs, sym_ok = [], True
    for i in range(d):
        for j in range(i + 1, d):
            bi, bj = 1 << i, 1 << j
            rest = masks[(masks & (bi | bj)) == 0]
            if float(np.max(np.abs(table[rest + bi] - table[rest + bj]))) <= detect_tol:
                sym_pairs.append((i, j))
                sym_ok = sym_ok and abs(vals[i] - vals[j]) <= tol * (1.0 + abs(vals[i]))
    symmetry = {"pairs": sym_pairs, "pass": bool(sym_ok)}

    if pair is None:
        other, alpha, beta = game, 2.0, 0.0
    else:
        other, alpha, beta = pair
    if other.d != d:
        raise ValueError(f"linearity pair has d={other.d}, expected {d}")
    other_table = other.utility_table()
    combined = CooperativeGame.from_table(alpha * table + beta * other_table)
    lhs = shapley_exact(combined).values
    rhs = alpha * vals + beta * shapley_exact(other).values
    lin_err = float(np.max(np.abs(lhs - rhs)))
    linearity = {"max_err": lin_err,
                 "pass": bool(lin_err <= tol * (1.0 + float(np.max(np.abs(lhs)))))}

    report = {"efficiency": efficiency, "dummy": dummy, "symmetry": symmetry,
              "linearity": linearity}
    report["pass"] = all(section["pass"] for section in
                         (efficiency, dummy, symmetry, linearity))
    return report
