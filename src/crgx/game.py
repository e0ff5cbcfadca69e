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
numpy kernels. Each coalition is scored at most once, except U(empty) and
U(full) of an enumerated game: the constructor scores both, and
`utility_table()` scores them again to check that the utility is
deterministic. Once a game holds its table (a `from_table` game from the
start, any other after `utility_table()`), the read-only table answers
every later query, the prefix coalitions of Monte Carlo included. Games
build no tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .cam import shapley_weights
from .utility import UtilitySpec, _checked_int, compute_utility, compute_utility_batch
from .zoo import ToyModel, _chunk_rows

_ENUM_LIMIT = 20
AXIOM_TOL = 1e-9  # relative tolerance of every axiom_suite check
# Batches follow zoo's cell budget `_BATCH_CELLS`: SpatialGame evaluates
# rows x n_maps x d masked activations at a time, utility_table builds
# coalitions x d membership flags, _scan writes tables x players x face
# differences, and shapley_mc builds permutations x d x d prefix flags
# (or, on a game with a table, permutations x d bitmasks).


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
    free. U(empty) and U(full) are evaluated at construction, and
    `utility_table()` scores them a second time as table entries 0 and
    2^d - 1, raising `RuntimeError` if either differs: an audited game runs
    2 + 2^d utility rows. Once the game holds its utility table (a
    `from_table` game from the start, any other after `utility_table()`),
    the table is read-only and answers every query; the utility is not
    called again.
    """

    _table: np.ndarray | None = None

    def __init__(self, d: int, utility: Callable[[np.ndarray], np.ndarray]):
        self.d = _checked_int("d", d, 1)
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
        table.setflags(write=False)
        powers = _powers(d)
        game = cls(d, lambda masks: table[masks @ powers])
        game._table = table
        return game

    def utility_batch(self, masks: np.ndarray) -> np.ndarray:
        """Utilities of the n coalitions in an (n, d) membership array,
        read off the table once the game holds one."""
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.d:
            raise ValueError(f"coalition masks must have shape (n, {self.d}), "
                             f"got {masks.shape}")
        if self._table is not None:
            return self._table[masks @ _powers(self.d)]
        values = np.asarray(self._utility(masks), dtype=np.float64)
        if values.shape != (len(masks),):
            # a scalar here would broadcast across every coalition
            raise ValueError(f"the utility must return shape ({len(masks)},) for "
                             f"{len(masks)} coalitions, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("the utility returned non-finite values")
        return values

    def utility_table(self) -> np.ndarray:
        """All 2^d utilities, indexed by bitmask, as one read-only array.
        Enumerated on the first call; the game keeps it and answers every
        later query from it, so a table whose ends differ from U(empty)
        and U(full) raises RuntimeError and is not kept."""
        if self._table is not None:
            return self._table
        if self.d > _ENUM_LIMIT:
            raise ValueError(f"enumerating 2^{self.d} coalitions is over the "
                             f"d={_ENUM_LIMIT} limit")
        n = 1 << self.d
        powers = _powers(self.d)
        step = _chunk_rows(self.d)
        table = np.empty(n, dtype=np.float64)
        for lo in range(0, n, step):
            coalitions = np.arange(lo, min(lo + step, n), dtype=np.int64)
            table[lo:lo + len(coalitions)] = self.utility_batch(
                (coalitions[:, None] & powers) != 0)
        if table[0] != self.u_empty or table[-1] != self.u_full:
            raise RuntimeError("the table's U(empty) or U(full) differs from its value at "
                               "construction; the utility callback is not deterministic")
        table.setflags(write=False)
        self._table = table
        return table

    def prefix_utilities(self, perms: np.ndarray) -> np.ndarray:
        """U of the d prefix coalitions of each of n permutations, (n, d):
        entry k is the utility of the first k + 1 players of the row. A game
        with a table gathers them by bitmask; otherwise they go through
        `utility_batch` as (n * d, d) membership masks."""
        if self._table is not None:
            return self._table[np.cumsum(1 << perms, axis=1)]
        n, d = perms.shape
        # prefix k of a permutation holds the players it ranks below k
        prefixes = np.argsort(perms, axis=1)[:, None, :] < np.arange(1, d + 1)[:, None]
        return self.utility_batch(prefixes.reshape(-1, d)).reshape(n, d)


@lru_cache(maxsize=None)
def _powers(d: int) -> np.ndarray:
    """2^j for each player j: a coalition's table index is masks @ _powers(d)."""
    powers = 1 << np.arange(d, dtype=np.int64)
    powers.setflags(write=False)
    return powers


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


def _scan(tables: np.ndarray, players: Sequence[tuple[int, ...]], weights=None) -> np.ndarray:
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
    return ShapleyVector(values=_exact(game.utility_table()[None])[0], method="exact")


def shapley_mc(game: CooperativeGame, samples: int, seed: int) -> ShapleyVector:
    """Monte Carlo Shapley estimate from uniform permutations with replacement.

    Permutation i is the stable argsort of row i of
    `PCG64(seed).random_raw((samples, game.d))`: d raw 64-bit words ranked,
    ties (probability below d^2 / 2^65) broken by player index. A block of
    permutations draws its rows in one `random_raw` call, and split calls
    return the same words as one, so the estimate depends only on (seed,
    samples). The d prefix utilities of a block's permutations come from
    one `game.prefix_utilities` call, a gather from the table on a game
    that holds one; each permutation's marginals are then added in
    permutation order, so the result is bit-identical to walking the
    permutations one coalition at a time. Standard errors are per-player
    sample standard deviations over sqrt(n) (zero when n == 1).
    """
    samples, d = _checked_int("samples", samples, 1), game.d
    bits = np.random.PCG64(_checked_int("seed", seed, 0))
    sums = np.zeros(d)
    sumsq = np.zeros(d)
    block = _chunk_rows(d * d)                    # prefix masks
    for lo in range(0, samples, block):
        perms = np.argsort(bits.random_raw((min(block, samples - lo), d)), axis=1,
                           kind="stable")
        u = game.prefix_utilities(perms)
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
    (the ablation baseline). The image is tapped once, into `maps`. U(S)
    re-runs the head on the masked stack: the utility is
    `ToyModel.head_batch` then `compute_utility_batch` on chunks of at most
    _BATCH_CELLS masked activations, the batched form of `forward` and
    `compute_utility`. After `utility_table()` the table answers instead.
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
        # forward is this head on the same stack, and multiplying by an
        # all-ones mask is exact, so anything but equality is a defect
        direct = compute_utility(model.head_batch(maps[None])[0], spec)
        if self.u_full != direct:
            raise RuntimeError(f"unmasked spatial utility {self.u_full!r} does not "
                               f"reproduce the forward pass value {direct!r}")


def make_spatial_game(model: ToyModel, image: np.ndarray, spec: UtilitySpec) -> SpatialGame:
    return SpatialGame(model, image, spec)


@lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """The player pairs i < j of a d-player game: read-only index arrays
    i and j, and the pairs as tuples in the same order."""
    i, j = np.triu_indices(d, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j, tuple(zip(i.tolist(), j.tolist()))


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
    i, j, pairs = _pairs(d)
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
