"""Cooperative games over feature positions and their Shapley values.

Coalitions are bitmasks over d players (d <= 20 for anything that
enumerates). Four routes to an attribution vector live here: exact
enumeration, permutation-sampling Monte Carlo, and the first- and
second-order closed forms that contract a gradient (and optionally a
Hessian-vector product) against an activation stack. Games only evaluate
plain values and build no tape; `SpatialGame` scores coalitions with the
model's numpy kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .utility import UtilitySpec, compute_utility, compute_utility_batch
from .zoo import ActivationStack, ToyModel

_ENUM_LIMIT = 20
# Array cells one batched numpy call works on: SpatialGame evaluates
# rows x n_maps x d masked activations at a time, utility_table builds
# coalitions x d membership flags, and shapley_mc builds permutations x d x d
# prefix flags.
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
    """d players and a utility over coalitions.

    A coalition is a boolean membership array of length d; `utility_batch`
    evaluates an (n, d) array of them in one call. A plain game wraps a
    scalar callback, called once per row: it receives one membership array
    and must be a deterministic, side-effect-free function of it.
    Subclasses replace that loop with a batched kernel (`SpatialGame` runs
    the model head on chunks of masked stacks, table games index the
    table; they pass None for the callback). U(empty) and U(full) are
    evaluated once at construction.
    """

    _table: np.ndarray | None = None

    def __init__(self, d: int, utility: Callable[[np.ndarray], float] | None):
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
        """Game backed by a dense utility table indexed by coalition mask."""
        return _TableGame(table)

    def utility(self, mask: np.ndarray) -> float:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.d,):
            raise ValueError(f"coalition mask must have shape ({self.d},), got {mask.shape}")
        return float(self._rows(mask[None])[0])

    def utility_batch(self, masks: np.ndarray) -> np.ndarray:
        """Utilities of the n coalitions in an (n, d) membership array."""
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.d:
            raise ValueError(f"coalition masks must have shape (n, {self.d}), "
                             f"got {masks.shape}")
        return self._rows(masks)

    def _rows(self, masks: np.ndarray) -> np.ndarray:
        """Utilities of a checked (n, d) bool array, one callback per row."""
        return np.array([float(self._utility(row)) for row in masks], dtype=np.float64)

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
            table[lo:lo + len(coalitions)] = self._rows((coalitions[:, None] & powers) != 0)
        self._table = table
        return table


class _TableGame(CooperativeGame):
    """Game whose utility is a dense table indexed by coalition bitmask."""

    def __init__(self, table: np.ndarray):
        table = np.array(table, dtype=np.float64)
        if table.ndim != 1:
            raise ValueError(f"utility table must be 1-D, got shape {table.shape}")
        d = int(table.size).bit_length() - 1
        if table.size != 1 << d:
            raise ValueError(f"table size {table.size} is not a power of two")
        self._table = table
        self._powers = 1 << np.arange(d, dtype=np.int64)
        super().__init__(d, None)

    def _rows(self, masks: np.ndarray) -> np.ndarray:
        return self._table[masks @ self._powers]


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


def shapley_mc(game: CooperativeGame, samples: int, seed: int) -> ShapleyVector:
    """Monte Carlo Shapley estimate from uniform permutations with replacement.

    Permutation i draws from its own generator seeded by (seed, i), so the
    estimate depends only on (seed, samples), not on execution order. The d
    prefix coalitions of a block of permutations go through one
    `utility_batch` call; each permutation's marginals are then added in
    permutation order, so the result is bit-identical to walking the
    permutations one coalition at a time. Standard errors are per-player
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
        seeds = (np.random.SeedSequence((seed, i)) for i in range(lo, min(lo + block, samples)))
        perms = np.array([np.random.default_rng(s).permutation(d) for s in seeds])
        # prefix k of a permutation holds the players it ranks below k
        prefixes = np.argsort(perms, axis=1)[:, None, :] < steps[:, None]
        u = game.utility_batch(prefixes.reshape(-1, d)).reshape(len(perms), d)
        deltas = np.empty_like(u)
        np.put_along_axis(deltas, perms, np.diff(u, axis=1, prepend=game.u_empty), axis=1)
        for delta in deltas:
            sums += delta
            sumsq += delta * delta
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
    (the ablation baseline). U(S) re-runs the head on the masked stack.
    Every coalition, a single one included, goes through one batched
    kernel, `ToyModel.head_batch` then `compute_utility_batch`, on chunks
    of at most _BATCH_CELLS masked activations: the kernel `forward` and
    `compute_utility` run on one row.
    """

    def __init__(self, model: ToyModel, image: np.ndarray, spec: UtilitySpec):
        self.model = model
        self.spec = spec
        self.maps = model._tap_stack(np.asarray(image, dtype=np.float64)[None])[0]
        self._chunk = _chunk_rows(self.maps.size)
        super().__init__(self.maps.shape[1], None)
        # forward is the same kernel on the unmasked stack, and multiplying
        # by an all-ones mask is exact, so anything but equality is a defect
        direct = compute_utility(model.forward(image), spec)
        if self.u_full != direct:
            raise RuntimeError(f"unmasked spatial utility {self.u_full!r} does not "
                               f"reproduce the forward pass value {direct!r}")

    def _rows(self, masks: np.ndarray) -> np.ndarray:
        out = np.empty(len(masks), dtype=np.float64)
        for lo in range(0, len(masks), self._chunk):
            part = masks[lo:lo + self._chunk]
            logits = self.model.head_batch(self.maps * part[:, None, :])
            out[lo:lo + len(part)] = compute_utility_batch(logits, self.spec)
        return out


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
