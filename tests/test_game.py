"""Game core: exact enumeration vs closed forms, MC convergence, axioms,
spatial games over model taps."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crgx import autodiff as ad
from crgx import game, suites, zoo
from crgx.cam import shapley_weights
from crgx.utility import (UTILITY_KINDS, UtilitySpec, compute_utility,
                          compute_utility_batch, utility_node)


def rel_gap(approx, exact):
    return float(np.max(np.abs(approx - exact) / (1.0 + np.abs(exact))))


def test_two_player_table_game():
    # U{} = 0, U{1} = 1, U{2} = 2, U{1,2} = 4: marginals average to (1.5, 2.5)
    g = game.CooperativeGame.from_table([0.0, 1.0, 2.0, 4.0])
    sv = game.shapley_exact(g)
    np.testing.assert_allclose(sv.values, [1.5, 2.5], rtol=0, atol=1e-12)
    assert sv.method == "exact"


def test_exact_efficiency_on_random_games():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(2, 9))
        g = game.CooperativeGame.from_table(rng.normal(size=1 << d))
        sv = game.shapley_exact(g)
        span = g.u_full - g.u_empty
        assert abs(float(np.sum(sv.values)) - span) <= 1e-9 * (1.0 + abs(span))


def test_exact_guard_above_enumeration_limit():
    # utility_table holds the one limit: a callback game over 20 players
    g = game.CooperativeGame(21, lambda masks: masks.sum(axis=1).astype(np.float64))
    with pytest.raises(ValueError) as caught:
        game.shapley_exact(g)
    assert str(caught.value) == "enumerating 2^21 coalitions is over the d=20 limit"


def test_exact_values_of_a_held_table_above_the_enumeration_limit():
    # a game that holds its table enumerates nothing, so no limit applies;
    # axiom_suite audits the same table
    w = np.arange(1.0, 22.0)
    coalitions = np.arange(1 << 21)
    table = np.zeros(1 << 21)
    for j in range(21):
        table += w[j] * ((coalitions >> j) & 1)
    held = game.CooperativeGame.from_table(table)
    sv = game.shapley_exact(held)
    assert np.allclose(sv.values, w, rtol=0.0, atol=1e-9)
    assert game.axiom_suite(held, sv)["pass"]


def test_additive_game_mc_is_exact_with_zero_stderr():
    g = game.CooperativeGame.from_table([0.0, 3.0, 5.0, 8.0])
    sv = game.shapley_mc(g, samples=100, seed=11)
    assert np.array_equal(sv.values, [3.0, 5.0])
    assert np.array_equal(sv.stderr, [0.0, 0.0])
    assert sv.samples == 100


def test_mc_depends_only_on_seed_and_samples():
    rng = np.random.default_rng(4)
    g = game.CooperativeGame.from_table(rng.normal(size=32))
    a = game.shapley_mc(g, 500, seed=7)
    b = game.shapley_mc(g, 500, seed=7)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.stderr.tobytes() == b.stderr.tobytes()
    c = game.shapley_mc(g, 500, seed=8)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("seed", range(5))
def test_mc_converges_within_four_stderr(seed):
    rng = np.random.default_rng(100 + seed)
    g = game.CooperativeGame.from_table(rng.normal(size=64))
    exact = game.shapley_exact(g).values
    sv = game.shapley_mc(g, samples=20000, seed=seed)
    assert np.all(np.abs(sv.values - exact) <= 4.0 * sv.stderr + 1e-12)


def scalar_mc(utility, d, u_empty, samples, seed):
    """Reference estimator: one permutation and one coalition at a time."""
    sums = np.zeros(d)
    sumsq = np.zeros(d)
    mask = np.zeros(d, dtype=bool)
    bits = np.random.PCG64(seed)
    for _ in range(samples):
        perm = np.argsort(bits.random_raw(d), kind="stable")
        mask[:] = False
        prev = u_empty
        for j in perm:
            mask[j] = True
            u = float(utility(mask.copy()))
            delta = u - prev
            prev = u
            sums[j] += delta
            sumsq[j] += delta * delta
    values = sums / samples
    if samples > 1:
        var = np.maximum(sumsq - samples * values * values, 0.0) / (samples - 1)
        stderr = np.sqrt(var / samples)
    else:
        stderr = np.zeros(d)
    return values, stderr


def taped_utility(model, maps, spec):
    """U(mask) as the value of the taped head and utility_node: the graph
    that gradients and HVPs differentiate. Values are memoized per mask: a
    d-player game has only 2^d coalitions, and the MC oracle asks for each
    of them many times."""
    cache = {}

    def utility(mask):
        key = mask.tobytes()
        if key not in cache:
            outs, _ = ad.forward(lambda tap: utility_node(model.head(tap), spec),
                                 {"tap": maps * mask})
            cache[key] = float(outs["out"])
        return cache[key]
    return utility


def spatial_mc_case():
    model = zoo.build_model("cnn-smooth", 3, 2, in_shape=(3, 5, 5))
    image = np.random.default_rng(52).uniform(0.0, 1.0, (3, 5, 5))
    spec = UtilitySpec(2, "rest")
    sg = game.make_spatial_game(model, image, spec)
    return sg, taped_utility(model, sg.maps, spec)


def table_mc_case():
    table = np.random.default_rng(6).normal(size=1 << 6)
    powers = 1 << np.arange(6, dtype=np.int64)
    return (game.CooperativeGame.from_table(table),
            lambda mask: float(table[int(np.dot(mask.astype(np.int64), powers))]))


@pytest.mark.parametrize("case", [spatial_mc_case, table_mc_case],
                         ids=["spatial-d9", "table-d6"])
def test_mc_is_bit_identical_to_scalar_oracle(case):
    g, utility = case()
    block = game._chunk_rows(g.d * g.d)
    # block + 2 adds two rows after a block boundary, where the order of
    # the per-permutation sums shows
    for samples in (1, block - 1, block, block + 1, block + 2):
        sv = game.shapley_mc(g, samples, seed=21)
        values, stderr = scalar_mc(utility, g.d, g.u_empty, samples, seed=21)
        assert sv.values.tobytes() == values.tobytes()
        assert sv.stderr.tobytes() == stderr.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mc_on_few_players_is_bit_identical_to_scalar_oracle(d):
    # few players make long blocks; two rows past the first block boundary
    # show the sum order, and the second block's words follow the first's
    table = np.random.default_rng(30 + d).normal(size=1 << d)
    powers = 1 << np.arange(d, dtype=np.int64)
    g = game.CooperativeGame.from_table(table)
    samples = game._chunk_rows(d * d) + 2
    sv = game.shapley_mc(g, samples, seed=13)
    values, stderr = scalar_mc(lambda mask: table[int(np.dot(mask.astype(np.int64), powers))],
                               d, g.u_empty, samples, seed=13)
    assert sv.values.tobytes() == values.tobytes()
    assert sv.stderr.tobytes() == stderr.tobytes()


def drawn_permutations(d, samples, seed):
    """The permutations shapley_mc draws, read off the prefix coalitions it
    scores: a player is in d - k of a permutation's d prefixes when it
    comes k-th."""
    seen = []

    def utility(masks):
        seen.append(masks.copy())
        return masks.sum(axis=1).astype(np.float64)

    g = game.CooperativeGame(d, utility)
    seen.clear()                                  # U(empty) and U(full)
    game.shapley_mc(g, samples, seed)
    prefixes = np.concatenate(seen).reshape(samples, d, d)
    return np.argsort(d - prefixes.sum(axis=1), axis=1)


def test_mc_permutations_are_a_known_answer():
    # the stable argsort of PCG64(2024)'s raw words, four rows of five;
    # PCG64's raw output and SeedSequence have numpy's own known-answer files
    want = [[1, 2, 0, 3, 4], [1, 0, 4, 2, 3], [4, 2, 3, 0, 1], [4, 0, 3, 2, 1]]
    assert drawn_permutations(5, 4, 2024).tolist() == want
    words = np.random.PCG64(2024).random_raw((4, 5))
    assert np.argsort(words, axis=1, kind="stable").tolist() == want


def test_mc_permutations_are_uniform_over_the_six_orders():
    # chi-square over the 3! orders of 6000 draws; the threshold is the
    # 0.999 quantile of chi-square with 5 degrees of freedom
    perms = drawn_permutations(3, 6000, 0)
    orders = {p: k for k, p in enumerate(itertools.permutations(range(3)))}
    counts = np.bincount([orders[tuple(p)] for p in perms.tolist()], minlength=6)
    chi2 = float(np.sum((counts - 1000.0) ** 2 / 1000.0))
    assert chi2 <= 20.515, (counts, chi2)


def test_mc_takes_numpy_integers():
    g = game.CooperativeGame.from_table(np.random.default_rng(8).normal(size=8))
    a = game.shapley_mc(g, 300, seed=5)
    b = game.shapley_mc(g, np.uint64(300), seed=np.uint64(5))
    assert a.values.tobytes() == b.values.tobytes()
    assert a.stderr.tobytes() == b.stderr.tobytes()
    assert b.samples == 300 and type(b.samples) is int


def test_mc_beyond_64_players_is_bit_identical_to_scalar_oracle():
    w = np.random.default_rng(65).normal(size=65)

    def additive(masks):
        return np.where(masks, w, 0.0).sum(axis=1)

    g = game.CooperativeGame(65, additive)
    samples = 2 * game._chunk_rows(65 * 65) + 3          # three blocks
    sv = game.shapley_mc(g, samples, seed=3)
    values, stderr = scalar_mc(lambda mask: additive(mask[None])[0], 65, g.u_empty,
                               samples, seed=3)
    assert sv.values.tobytes() == values.tobytes()
    assert sv.stderr.tobytes() == stderr.tobytes()


def test_spatial_game_with_100_players_samples():
    model = zoo.build_model("cnn-smooth", 3, 4, in_shape=(3, 12, 12))
    image = np.random.default_rng(12).uniform(0.0, 1.0, (3, 12, 12))
    sg = game.make_spatial_game(model, image, UtilitySpec(2, "rest"))
    assert sg.d == 100
    assert sg.u_full == compute_utility(model.forward(image), sg.spec)
    sv = game.shapley_mc(sg, 4, seed=0)
    span = sg.u_full - sg.u_empty
    assert abs(float(np.sum(sv.values)) - span) <= 1e-9 * (1.0 + abs(span))


def test_single_sample_mc_has_zero_stderr():
    g = game.CooperativeGame.from_table([0.0, 1.0, 2.0, 4.0])
    sv = game.shapley_mc(g, samples=1, seed=0)
    assert np.array_equal(sv.stderr, [0.0, 0.0])


def test_bilinear_first_order_overshoots_and_second_order_corrects():
    # U = x1 * x2 at x = (1, 1): gradient route says (1, 1), the exact value
    # is (0.5, 0.5), and the curvature term restores it.
    x = np.array([1.0, 1.0])
    g = game.CooperativeGame(2, lambda masks: np.prod(np.where(masks, x, 0.0), axis=1))
    exact = game.shapley_exact(g)
    outs, tape = ad.forward(lambda z: ad.mul(ad.index(z, 0), ad.index(z, 1)), {"z": x})
    grad = ad.gradient(tape, "out", "z")
    hv = ad.hvp(tape, "out", "z", x)
    first = suites._elementwise(shapley_weights(grad)[None], x[None])
    second = suites._elementwise(shapley_weights(grad, hv)[None], x[None])
    np.testing.assert_allclose(first, [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(exact.values, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(second, exact.values, atol=1e-12)


@pytest.mark.parametrize("d", [4, 8])
def test_second_order_exact_on_random_quadratics(d):
    rng = np.random.default_rng(d)
    b = rng.normal(size=d)
    m = rng.normal(size=(d, d))
    m = (m + m.T) / 2.0
    x = rng.normal(size=d)

    def util(masks):
        xm = x * masks
        return xm @ b + 0.5 * np.sum(xm * (xm @ m), axis=1)

    g = game.CooperativeGame(d, util)
    exact = game.shapley_exact(g).values
    outs, tape = ad.forward(
        lambda z: ad.add(ad.matmul(b, z), ad.mul(0.5, ad.matmul(z, ad.matmul(m, z)))),
        {"z": x})
    grad = ad.gradient(tape, "out", "z")
    hv = ad.hvp(tape, "out", "z", x)
    second = suites._elementwise(shapley_weights(grad, hv)[None], x[None])
    assert rel_gap(second, exact) <= 1e-9


def test_first_order_exact_on_linear_utilities():
    rng = np.random.default_rng(3)
    d = 6
    a = rng.normal(size=d)
    x = rng.normal(size=d)
    g = game.CooperativeGame(d, lambda masks: (x * masks) @ a)
    exact = game.shapley_exact(g).values
    outs, tape = ad.forward(lambda z: ad.matmul(a, z), {"z": x})
    grad = ad.gradient(tape, "out", "z")
    first = suites._elementwise(shapley_weights(grad)[None], x[None])
    assert rel_gap(first, exact) <= 1e-12


# -- spatial games ----------------------------------------------------------


def spatial_fixture(arch="cnn-relu", kind="pre-softmax", c=1, seed=0):
    model = zoo.build_model(arch, 3, seed)
    image = np.random.default_rng(seed + 50).uniform(0.0, 1.0, (3, 6, 6))
    spec = UtilitySpec(c, kind)
    return model, image, game.make_spatial_game(model, image, spec)


def test_empty_coalition_is_bias_utility():
    # All tap positions zeroed: GAP gives zeros, so the logit is the FC bias.
    model, image, sg = spatial_fixture()
    assert sg.u_empty == model.weights["fc_b"][1]


def test_full_coalition_reproduces_forward():
    # bit for bit, for every arch and utility: the game checks U(full)
    # against the head on its own tap stack, not against forward
    for arch in zoo.ARCHS:
        for kind in UTILITY_KINDS:
            for seed in range(3):
                model, image, sg = spatial_fixture(arch, kind, c=seed % 3, seed=seed)
                assert sg.u_full == compute_utility(model.forward(image), sg.spec)


def test_spatial_player_count_is_tap_positions():
    _, _, sg = spatial_fixture()
    assert sg.d == 16


def test_spatial_first_order_matches_exact_for_linear_head():
    model, image, sg = spatial_fixture()
    exact = game.shapley_exact(sg).values
    run = model.forward_with_tap(image)
    with run.tape:
        u = utility_node(run.tape.outputs["logits"], sg.spec)
    grad = ad.gradient(run.tape, u, "tap")
    first = suites._elementwise(shapley_weights(grad), run.activations.maps)
    assert rel_gap(first, exact) <= 1e-9


@pytest.mark.parametrize("kind", UTILITY_KINDS)
@pytest.mark.parametrize("arch", zoo.ARCHS)
def test_spatial_batch_rows_are_bit_identical_to_scalar_head(arch, kind):
    rng = np.random.default_rng(8)
    for num_classes in (2, 3, 5, 10):
        model = zoo.build_model(arch, num_classes, num_classes)
        image = rng.uniform(0.0, 1.0, model.in_shape)
        spec = UtilitySpec(num_classes - 1, kind)
        sg = game.make_spatial_game(model, image, spec)
        masks = np.vstack([np.zeros(sg.d, dtype=bool), np.ones(sg.d, dtype=bool),
                           rng.uniform(size=(40, sg.d)) < 0.5])
        utility = taped_utility(model, sg.maps, spec)
        scalar = np.array([utility(m) for m in masks])
        assert sg.utility_batch(masks).tobytes() == scalar.tobytes()
        assert [sg.utility_batch(m[None])[0] for m in masks] == scalar.tolist()


def test_utility_batch_rows_match_scalar_on_extreme_logits():
    rng = np.random.default_rng(5)
    for num_classes in (2, 3, 5, 10):
        logits = rng.normal(scale=300.0, size=(50, num_classes))
        for kind in UTILITY_KINDS:
            spec = UtilitySpec(0, kind)
            scalar = np.array([compute_utility(row, spec) for row in logits])
            assert compute_utility_batch(logits, spec).tobytes() == scalar.tobytes()


def test_table_batch_indexes_the_table():
    table = np.random.default_rng(2).normal(size=32)
    g = game.CooperativeGame.from_table(table)
    masks = np.random.default_rng(3).uniform(size=(20, 5)) < 0.5
    batch = g.utility_batch(masks)
    assert batch.tolist() == [g.utility_batch(m[None])[0] for m in masks]
    assert batch.tolist() == [table[int(m @ (1 << np.arange(5)))] for m in masks]


def test_spatial_table_memory_stays_chunked():
    # d=16: the table is 512 KiB; a (2^16, 16) int64 membership temporary
    # alone would be 8 MiB
    _, _, sg = spatial_fixture(kind="rest")
    tracemalloc.start()
    try:
        sg.utility_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_spatial_exact_efficiency():
    _, _, sg = spatial_fixture(kind="post-softmax")
    sv = game.shapley_exact(sg)
    span = sg.u_full - sg.u_empty
    assert abs(float(np.sum(sv.values)) - span) <= 1e-9 * (1.0 + abs(span))


# -- each coalition scored once ---------------------------------------------


def spatial_cases():
    """(arch, d) for CNN taps of 2x2, 3x3 and 4x4 and the 4x4 MLP tap."""
    for arch in zoo.ARCHS:
        for d in ((16,) if arch == "mlp-smooth" else (4, 9, 16)):
            yield pytest.param(arch, d, id=f"{arch}-d{d}")


@pytest.mark.parametrize("kind", UTILITY_KINDS)
@pytest.mark.parametrize("arch, d", spatial_cases())
def test_spatial_game_answers_the_same_bits_after_its_table(arch, d, kind):
    side = 6 if arch == "mlp-smooth" else math.isqrt(d) + 2
    model = zoo.build_model(arch, 3, d, in_shape=(3, side, side))
    image = np.random.default_rng(d).uniform(0.0, 1.0, model.in_shape)
    sg = game.make_spatial_game(model, image, UtilitySpec(1, kind))
    assert sg.d == d
    masks = np.random.default_rng(1).uniform(size=(30, d)) < 0.5
    # one block and a row past it, where a table could change the sum order
    samples = (5, game._chunk_rows(d * d) + 1)
    before = [game.shapley_mc(sg, n, seed=3) for n in samples] + [sg.utility_batch(masks)]
    table = sg.utility_table()
    after = [game.shapley_mc(sg, n, seed=3) for n in samples] + [sg.utility_batch(masks)]
    for a, b in zip(before[:-1], after[:-1]):
        assert a.values.tobytes() == b.values.tobytes()
        assert a.stderr.tobytes() == b.stderr.tobytes()
    assert before[-1].tobytes() == after[-1].tobytes()
    assert after[-1].tobytes() == table[masks @ (1 << np.arange(d))].tobytes()


@pytest.mark.parametrize("d", range(1, 13))
def test_table_and_callback_games_sample_the_same_bits(d):
    powers = 1 << np.arange(d, dtype=np.int64)
    block = game._chunk_rows(d * d)
    for seed in (0, 7):
        table = np.random.default_rng([d, seed]).normal(size=1 << d)
        with_table = game.CooperativeGame.from_table(table)
        callback = game.CooperativeGame(d, lambda m: table[m @ powers])
        for samples in (1, 6, block, 2 * block + 3):
            a = game.shapley_mc(with_table, samples, seed)
            b = game.shapley_mc(callback, samples, seed)
            assert a.values.tobytes() == b.values.tobytes()
            assert a.stderr.tobytes() == b.stderr.tobytes()


def test_an_audited_spatial_game_scores_each_coalition_once(monkeypatch):
    taps, rows = [], []
    tap_stack, utility = zoo.ToyModel._tap_stack, game.compute_utility_batch

    def counted_tap(self, images):
        taps.append(len(images))
        return tap_stack(self, images)

    def counted_utility(logits, spec):
        rows.append(len(logits))
        return utility(logits, spec)

    monkeypatch.setattr(zoo.ToyModel, "_tap_stack", counted_tap)
    monkeypatch.setattr(game, "compute_utility_batch", counted_utility)
    model = zoo.build_model("cnn-smooth", 3, 4, in_shape=(3, 5, 5))
    image = np.random.default_rng(4).uniform(0.0, 1.0, model.in_shape)
    sg = game.make_spatial_game(model, image, UtilitySpec(0, "rest"))
    exact = game.shapley_exact(sg)
    assert game.axiom_suite(sg, exact)["pass"]
    mc = game.shapley_mc(sg, 2 * game._chunk_rows(81) + 1, seed=8)    # three blocks
    assert np.sum(mc.values) == pytest.approx(sg.u_full - sg.u_empty, abs=1e-12)
    assert taps == [1] and sum(rows) == 2 + 512


def bool_mask_game(sg):
    """`sg`'s utility with its coalition masks multiplied in as bools."""
    return game.CooperativeGame(sg.d, lambda masks: compute_utility_batch(
        sg.model.head_batch(sg.maps * masks[:, None, :]), sg.spec))


@pytest.mark.parametrize("kind", UTILITY_KINDS)
@pytest.mark.parametrize("arch", zoo.ARCHS)
def test_float_masks_score_the_bits_of_bool_masks(arch, kind, monkeypatch):
    shape = (3, 6, 6) if arch == "mlp-smooth" else (3, 5, 5)
    model = zoo.build_model(arch, 3, 4, in_shape=shape)
    image = np.random.default_rng(6).uniform(0.0, 1.0, shape)
    sg = game.make_spatial_game(model, image, UtilitySpec(2, kind))
    oracle = bool_mask_game(sg)
    stacks, head = [], zoo.ToyModel.head_batch

    def recorded(self, masked):
        stacks.append(masked.copy())
        return head(self, masked)

    monkeypatch.setattr(zoo.ToyModel, "head_batch", recorded)
    masks = np.random.default_rng(1).uniform(size=(40, sg.d)) < 0.5
    sg.utility_batch(masks)
    monkeypatch.undo()
    assert stacks[0].tobytes() == (sg.maps * masks[:, None, :]).tobytes()
    # the smooth archs tap negative activations, which mask to -0.0
    negative_zeros = np.signbit(stacks[0]) & (stacks[0] == 0.0)
    assert negative_zeros.any() == (arch != "cnn-relu")
    # no table yet, so the prefix coalitions go through the utility
    mc, want = (game.shapley_mc(g, 30, seed=5) for g in (sg, oracle))
    assert mc.values.tobytes() == want.values.tobytes()
    assert mc.stderr.tobytes() == want.stderr.tobytes()
    assert sg.utility_table().tobytes() == oracle.utility_table().tobytes()


def test_utility_tables_are_read_only():
    source = np.random.default_rng(0).normal(size=8)
    _, _, sg = spatial_fixture(kind="rest")
    for g in (game.CooperativeGame.from_table(source),
              game.CooperativeGame(2, lambda masks: masks.sum(axis=1) * 1.5), sg):
        table = g.utility_table()
        assert table is g.utility_table() and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    assert source.flags.writeable                 # from_table keeps its own copy


def test_pair_indices_are_cached_and_read_only():
    for d in (1, 2, 9):
        i, j, pairs = game._pairs(d)
        assert game._pairs(d)[0] is i and isinstance(pairs, tuple)
        assert not i.flags.writeable and not j.flags.writeable
        assert pairs == tuple(itertools.combinations(range(d), 2))
        assert (i.tolist(), j.tolist()) == ([p for p, _ in pairs], [q for _, q in pairs])


# -- axioms -----------------------------------------------------------------


def planted_game(seed=9, d=6):
    """Random table with player 0 a dummy and players 1, 2 interchangeable."""
    rng = np.random.default_rng(seed)
    masks = np.arange(1 << d)
    table = rng.normal(size=1 << d)[masks & ~1]
    b1, b2 = 1 << 1, 1 << 2
    for m in range(1 << d):
        if (m & b1) and not (m & b2):
            table[m] = table[(m & ~b1) | b2]
    return game.CooperativeGame.from_table(table)


def test_axiom_suite_on_planted_structure():
    g = planted_game()
    report = game.axiom_suite(g, game.shapley_exact(g))
    assert report["pass"]
    assert report["dummy"]["players"] == [0]
    assert (1, 2) in report["symmetry"]["pairs"]


def test_axiom_suite_flags_broken_vector():
    g = planted_game()
    bad = game.shapley_exact(g).values.copy()
    bad[0] += 0.5  # no longer zero for the dummy, efficiency broken too
    report = game.axiom_suite(g, bad)
    assert not report["efficiency"]["pass"]
    assert not report["dummy"]["pass"]
    assert not report["pass"]


def test_axiom_suite_flags_a_broken_symmetric_pair():
    g = planted_game()
    bad = game.shapley_exact(g).values.copy()
    bad[1] += 0.5  # players 1 and 2 are interchangeable; the sum is kept
    bad[2] -= 0.5
    report = game.axiom_suite(g, bad)
    assert report["efficiency"]["pass"] and report["dummy"]["pass"]
    assert not report["symmetry"]["pass"] and not report["pass"]


def test_doubling_scales_values():
    g = game.CooperativeGame.from_table([0.0, 1.0, 2.0, 4.0])
    doubled = game.CooperativeGame.from_table([0.0, 2.0, 4.0, 8.0])
    np.testing.assert_allclose(game.shapley_exact(doubled).values,
                               2.0 * game.shapley_exact(g).values, atol=1e-12)


# Reference oracles: each definition read directly off the table, one
# per-player bitmask gather at a time.


def exact_oracle(table, d):
    masks = np.arange(1 << d, dtype=np.int64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    weights = game._coalition_weights(d)
    values = np.empty(d, dtype=np.float64)
    for j in range(d):
        bit = 1 << j
        absent = masks[(masks & bit) == 0]
        marginals = table[absent + bit] - table[absent]
        values[j] = float(np.sum(weights[sizes[absent]] * marginals))
    return values


def dummy_oracle(table, d, detect_tol):
    masks = np.arange(1 << d, dtype=np.int64)
    players = []
    for j in range(d):
        bit = 1 << j
        absent = masks[(masks & bit) == 0]
        if float(np.max(np.abs(table[absent + bit] - table[absent]))) <= detect_tol:
            players.append(j)
    return players


def symmetry_oracle(table, d, detect_tol):
    masks = np.arange(1 << d, dtype=np.int64)
    pairs = []
    for i in range(d):
        for j in range(i + 1, d):
            bi, bj = 1 << i, 1 << j
            rest = masks[(masks & (bi | bj)) == 0]
            if float(np.max(np.abs(table[rest + bi] - table[rest + bj]))) <= detect_tol:
                pairs.append((i, j))
    return pairs


def axiom_oracle(g, vals, tol=1e-9):
    d, table = g.d, g.utility_table()
    detect_tol = 1e-12 * (1.0 + float(np.max(np.abs(table))))
    span = g.u_full - g.u_empty
    eff_gap = abs(float(np.sum(vals)) - span)
    efficiency = {"gap": eff_gap, "pass": bool(eff_gap <= tol * (1.0 + abs(span)))}
    players = dummy_oracle(table, d, detect_tol)
    dummy = {"players": players,
             "pass": all(abs(vals[j]) <= tol * (1.0 + abs(span)) for j in players)}
    pairs = symmetry_oracle(table, d, detect_tol)
    symmetry = {"pairs": pairs, "pass": all(abs(vals[i] - vals[j]) <= tol * (1.0 + abs(vals[i]))
                                            for i, j in pairs)}
    lhs = exact_oracle(2.0 * table, d)
    rhs = 2.0 * vals
    lin_err = float(np.max(np.abs(lhs - rhs)))
    linearity = {"max_err": lin_err,
                 "pass": bool(lin_err <= tol * (1.0 + float(np.max(np.abs(lhs)))))}
    report = {"efficiency": efficiency, "dummy": dummy, "symmetry": symmetry,
              "linearity": linearity}
    report["pass"] = all(section["pass"] for section in report.values())
    return report


def oracle_games():
    rng = np.random.default_rng(31)
    for d in range(1, 13):
        table = rng.normal(size=1 << d) * 10.0 ** rng.integers(-6, 6)
        yield pytest.param(game.CooperativeGame.from_table(table), id=f"random-d{d}")
    yield pytest.param(planted_game(), id="planted-d6")
    yield pytest.param(planted_game(seed=4, d=9), id="planted-d9")
    for i in (0, 3, 10, 24):
        yield pytest.param(game.CooperativeGame.from_table(suites._random_table(2024, i)),
                           id=f"axiom-check-{i}")
    for arch in zoo.ARCHS:
        for shape in ((3, 5, 5), (3, 6, 6)):
            model = zoo.build_model(arch, 3, 1, in_shape=shape)
            image = np.random.default_rng(shape[1]).uniform(0.0, 1.0, shape)
            sg = game.make_spatial_game(model, image, UtilitySpec(1, "rest"))
            yield pytest.param(sg, id=f"{arch}-{shape[1]}px-d{sg.d}")


@pytest.mark.parametrize("g", oracle_games())
def test_hypercube_scans_are_bit_identical_to_gather_oracles(g):
    sv = game.shapley_exact(g)
    assert np.array_equal(sv.values, exact_oracle(g.utility_table(), g.d))
    broken = sv.values + np.where(np.arange(g.d) == 0, 0.25, 0.0)
    for vals in (sv.values, broken):
        assert game.axiom_suite(g, vals) == axiom_oracle(g, vals)


def test_hypercube_scans_go_one_axis_at_a_time():
    # d=16: a table is 512 KiB and one player's marginals 256 KiB; the scans
    # write at most _BATCH_CELLS cells (512 KiB) of faces per block, where
    # stacking all (d, 2^(d-1)) marginals at once would take 4 MiB
    _, _, sg = spatial_fixture(kind="rest")
    sv = game.shapley_exact(sg)
    for run in (lambda: game.shapley_exact(sg), lambda: game.axiom_suite(sg, sv)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024


def planted_stack(d, seed=0):
    """Four tables of d players: random, with player d-1 a dummy, with
    players 0 and d-1 interchangeable, and constant (every player a dummy,
    every pair symmetric)."""
    rng = np.random.default_rng(seed)
    masks = np.arange(1 << d)
    top = 1 << (d - 1)
    tables = rng.normal(size=(4, 1 << d)) * 10.0 ** rng.integers(-6, 6, size=(4, 1))
    tables[1] = tables[1][masks & ~top]
    swapped = (masks & ~(1 | top)) | np.where(masks & 1, top, 0) | np.where(masks & top, 1, 0)
    tables[2] = 0.5 * (tables[2] + tables[2][swapped])
    tables[3] = 1.5
    return tables


@pytest.mark.parametrize("d", range(1, 17))
def test_stacked_scans_are_bit_identical_to_gather_oracles(d):
    # with four tables the pair blocks split from d = 11 and the player
    # blocks from d = 12, and faces run from 1 to 2^15 cells, past pairwise
    # summation's steps at 8 and 128
    tables = planted_stack(d)
    detect = 1e-12 * (1.0 + np.max(np.abs(tables), axis=-1))
    values = game._exact(tables)
    dummies = game._scan(tables, [(j,) for j in range(d)]) <= detect[:, None]
    pairs = list(itertools.combinations(range(d), 2))
    symmetric = game._scan(tables, pairs) <= detect[:, None]
    for k, table in enumerate(tables):
        assert np.array_equal(values[k], exact_oracle(table, d))
        assert np.array_equal(np.flatnonzero(dummies[k]), dummy_oracle(table, d, detect[k]))
        assert ([p for p, s in zip(pairs, symmetric[k]) if s]
                == symmetry_oracle(table, d, detect[k]))
    assert d - 1 in np.flatnonzero(dummies[1]) and dummies[3].all() and symmetric[3].all()
    assert d == 1 or symmetric[2][pairs.index((0, d - 1))]


# -- the singleton screen of the axiom audit ----------------------------------


@np.errstate(over="ignore", invalid="ignore")
def unscreened_audit(tables, spans, vals):
    """`game._audit` without the singleton screen: every player and every
    pair of every table goes through `game._scan`."""
    d = vals.shape[1]
    doubled = 2.0 * tables
    if not np.isfinite(doubled).all():
        raise ValueError("linearity check overflows float64: 2 * table leaves the float range")
    detect = 1e-12 * (1.0 + np.max(np.abs(tables), axis=-1, keepdims=True))
    i, j, pairs = game._pairs(d)
    dummy = game._scan(tables, [(p,) for p in range(d)]) <= detect
    symmetric = game._scan(tables, pairs) <= detect
    lhs = game._exact(doubled)
    rhs = 2.0 * vals
    gaps = np.abs(np.sum(vals, axis=-1) - spans)
    span_tol = game.AXIOM_TOL * (1.0 + np.abs(spans))
    lin_err = np.max(np.abs(lhs - rhs), axis=-1)
    eff = gaps <= span_tol
    dum = (~dummy | (np.abs(vals) <= span_tol[:, None])).all(axis=-1)
    sym = (~symmetric | (np.abs(vals[:, i] - vals[:, j])
                         <= game.AXIOM_TOL * (1.0 + np.abs(vals[:, i])))).all(axis=-1)
    lin = lin_err <= game.AXIOM_TOL * (1.0 + np.max(np.abs(lhs), axis=-1))
    return [{"efficiency": {"gap": float(gaps[k]), "pass": bool(eff[k])},
             "dummy": {"players": np.flatnonzero(dummy[k]).tolist(), "pass": bool(dum[k])},
             "symmetry": {"pairs": [p for p, s in zip(pairs, symmetric[k]) if s],
                          "pass": bool(sym[k])},
             "linearity": {"max_err": float(lin_err[k]), "pass": bool(lin[k])},
             "pass": bool(eff[k] and dum[k] and sym[k] and lin[k])}
            for k in range(len(vals))]


SCREEN_KINDS = ("random", "dummies", "pairs", "constant", "masked")


def screened_table(rng, d, kind):
    """One table of d players: "random"; "dummies" or "pairs", with planted
    dummy players or interchangeable pairs; "constant", where no singleton
    decides a flag; or "masked", planted dummies and pairs whose singleton
    entries sit within the detection tolerance while one coalition of two
    players breaks some of them."""
    masks = np.arange(1 << d)
    table = rng.normal(size=1 << d) * 10.0 ** rng.integers(-6, 6)
    if kind == "constant":
        return np.full(1 << d, table[0])
    drop = int(rng.integers(1, 1 << d))           # a nonempty set of dummies
    if kind in ("dummies", "masked"):
        table = table[masks & ~drop]
    if kind in ("pairs", "masked") and d >= 2:
        for _ in range(int(rng.integers(1, 3))):
            bi, bj = (1 << int(p) for p in rng.choice(d, 2, replace=False))
            swapped = ((masks & ~(bi | bj)) | np.where(masks & bi, bj, 0)
                       | np.where(masks & bj, bi, 0))
            table = 0.5 * (table + table[swapped])
    if kind == "masked":
        scale = 1.0 + np.max(np.abs(table))
        # singleton entries off by a tenth of the detection tolerance
        table[1 << np.arange(d)] += rng.uniform(-1e-13, 1e-13, d) * scale
        if d >= 2:
            p = int(rng.choice(np.flatnonzero(drop & (1 << np.arange(d)))))
            q = int(rng.choice([k for k in range(d) if k != p]))
            table[(1 << p) | (1 << q)] += 1e-6 * scale
    return table


@settings(max_examples=150)
@given(st.integers(1, 10), st.lists(st.sampled_from(SCREEN_KINDS), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
@example(4, ["constant"], 0)
@example(6, ["masked", "random", "masked"], 1)
@example(10, ["dummies", "pairs", "masked", "constant"], 2)
def test_screened_audit_equals_the_unscreened_oracle(d, kinds, seed):
    rng = np.random.default_rng(seed)
    tables = np.stack([screened_table(rng, d, kind) for kind in kinds])
    vals = game._exact(tables)
    # a broken value in some tables, so dummy and symmetry can fail too
    broken = rng.uniform(size=len(kinds)) < 0.5
    vals[broken, rng.integers(d)] += 0.5 * (1.0 + np.max(np.abs(tables[broken]), axis=-1))
    spans = tables[:, -1] - tables[:, 0]
    assert game._audit(tables, spans, vals) == unscreened_audit(tables, spans, vals)


def scanned(monkeypatch):
    """Record the players and pairs each `game._scan` call reduces."""
    calls, scan = [], game._scan

    def spy(tables, players, weights=None):
        calls.append(list(players))
        return scan(tables, players, weights)

    monkeypatch.setattr(game, "_scan", spy)
    return calls


def test_the_screen_scans_only_undecided_flags(monkeypatch):
    # random marginals decide every flag from the singletons but the planted
    # dummy's and the planted pair's
    g = planted_game(d=7)
    vals = game.shapley_exact(g).values
    calls = scanned(monkeypatch)
    report = game.axiom_suite(g, vals)
    assert report["dummy"]["players"] == [0] and report["symmetry"]["pairs"] == [(1, 2)]
    assert calls == [[(0,)], [(1, 2)], [(j,) for j in range(7)]]  # the last is exact
    # a constant table decides nothing, so every player and pair is scanned
    calls.clear()
    report = game.axiom_suite(game.CooperativeGame.from_table(np.full(128, 2.0)), np.zeros(7))
    assert calls[:2] == [[(p,) for p in range(7)], list(itertools.combinations(range(7), 2))]
    assert report["dummy"]["players"] == list(range(7)) and len(report["symmetry"]["pairs"]) == 21


def test_exact_values_of_a_cancelling_table():
    # the values sum to 0.5 only up to float rounding: a tolerance on that
    # sum once reported this table game as not deterministic
    table = [0.0, 1e17, -1e17, 0.5]
    values = game.shapley_exact(game.CooperativeGame.from_table(table)).values
    assert np.array_equal(values, exact_oracle(np.array(table), 2))


def test_exact_refuses_a_utility_that_changes_between_calls():
    calls = itertools.count()

    def utility(masks):
        # U(full) grows by one at every call
        return np.where(masks.all(axis=1), float(next(calls)), 0.0)

    g = game.CooperativeGame(3, utility)
    with pytest.raises(RuntimeError, match="not deterministic"):
        game.shapley_exact(g)
    # a table that later queries would read is not kept
    with pytest.raises(RuntimeError, match="not deterministic"):
        game.axiom_suite(g, np.zeros(3))


def test_coalition_weights_sum_to_one():
    for d in (2, 5, 12, 20):
        w = game._coalition_weights(d)
        assert w is game._coalition_weights(d) and not w.flags.writeable
        # summing w over all coalitions a player can join must give 1
        from math import comb
        total = sum(comb(d - 1, k) * w[k] for k in range(d))
        assert abs(total - 1.0) <= 1e-12


def test_subset_weights_are_cached_read_only_and_exact():
    for d in (1, 2, 5, 12):
        w = game._subset_weights(d)
        assert w is game._subset_weights(d) and not w.flags.writeable
        expected = game._coalition_weights(d)[np.bitwise_count(np.arange(1 << (d - 1)))]
        assert w.dtype == expected.dtype and w.tobytes() == expected.tobytes()


def test_game_validation():
    for table in ([0.0, 1.0, 2.0], [1.0]):  # one entry once read as a game of no players
        with pytest.raises(ValueError, match=f"^table size {len(table)} is not a power of two "
                                             "of at least 2$"):
            game.CooperativeGame.from_table(table)
    with pytest.raises(ValueError, match="1-D"):
        game.CooperativeGame.from_table([[0.0, 1.0], [2.0, 4.0]])
    g = game.CooperativeGame.from_table([0.0, 1.0, 2.0, 4.0])
    for masks in (np.ones(2, dtype=bool), np.ones((1, 1, 2), dtype=bool),
                  np.ones((4, 3), dtype=bool)):
        with pytest.raises(ValueError, match="masks"):
            g.utility_batch(masks)


def test_non_finite_utility_is_rejected():
    # the ends are finite, so construction passes; enumeration meets the inf
    g = game.CooperativeGame(2, lambda masks: np.where(masks.sum(axis=1) == 1, np.inf, 0.0))
    with pytest.raises(ValueError, match="non-finite"):
        game.shapley_exact(g)
    with pytest.raises(ValueError, match="non-finite"):
        game.CooperativeGame(3, lambda masks: np.full(len(masks), np.nan))


def overflowing_game(seed):
    """A finite table whose marginal contributions leave the float range."""
    return game.CooperativeGame.from_table(
        np.random.default_rng(seed).uniform(-1.0, 1.0, 16) * 1.2e308)


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_shapley_refuses_overflowing_marginals(seed):
    # these tables once gave [-inf, -inf, -inf, nan] and [inf, x, inf, -inf]
    # as "exact" values: a NaN efficiency gap compared as no gap
    with pytest.raises(ValueError, match="exact Shapley values overflow float64"):
        game.shapley_exact(overflowing_game(seed))


@pytest.mark.parametrize("table", [overflowing_game(0).utility_table(),
                                   overflowing_game(1).utility_table(),
                                   np.array([0.0, 1e200, 0.0, 1e200])],
                         ids=["marginals-0", "marginals-1", "squares"])
def test_monte_carlo_refuses_values_past_float64(table):
    # these once came back as inf or NaN values and standard errors, where
    # shapley_exact on the first two raises
    with pytest.raises(Exception) as caught:
        game.shapley_mc(game.CooperativeGame.from_table(table), 50, 0)
    assert caught.type is ValueError, caught.value
    assert str(caught.value) == ("Monte Carlo Shapley values overflow float64: the utility's "
                                 "differences, sums or squares exceed the float range")


def test_axiom_suite_names_an_overflowing_linearity_table():
    g = overflowing_game(0)
    with pytest.raises(ValueError, match="linearity check overflows float64"):
        game.axiom_suite(g, np.zeros(4))


def test_utility_must_return_one_value_per_coalition():
    # a scalar callback would broadcast one value across every coalition
    with pytest.raises(ValueError, match=r"shape \(2,\) for 2 coalitions, got \(\)"):
        game.CooperativeGame(3, lambda masks: float(np.sum(masks)))
    with pytest.raises(ValueError, match=r"got \(2, 1\)"):
        game.CooperativeGame(3, lambda masks: masks.sum(axis=1, keepdims=True))
    g = game.CooperativeGame(3, lambda masks: masks.sum(axis=1)[:2].astype(np.float64))
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        g.utility_batch(np.ones((4, 3), dtype=bool))


@pytest.mark.parametrize("utility, dtype", [
    (lambda masks: masks.sum(axis=1) + 1j, "complex128"),
    (lambda masks: {"a": 1.0}, "object"),
    (lambda masks: np.array(["0.5"] * len(masks)), "<U3"),
], ids=["complex", "dict", "str"])
def test_utility_must_return_real_numbers(utility, dtype):
    # a complex return once lost its imaginary part with a ComplexWarning,
    # and a dict raised numpy's TypeError
    with pytest.raises(Exception) as caught:
        game.CooperativeGame(2, utility)
    assert caught.type is ValueError, caught.value
    assert str(caught.value) == f"the utility must return real numbers, got dtype {dtype}"


@pytest.mark.parametrize("utility, kind", [
    (None, "NoneType"), ("masks @ w", "str"), (np.arange(8.0), "ndarray"),
], ids=["none", "str", "table"])
def test_utility_must_be_callable(utility, kind):
    # these once ended in "TypeError: ... is not callable" scoring the ends;
    # a table goes through from_table
    with pytest.raises(Exception) as caught:
        game.CooperativeGame(3, utility)
    assert caught.type is ValueError, caught.value
    assert str(caught.value) == f"the utility must be callable, got {kind}"


def test_integer_bool_and_float32_utilities_keep_their_values():
    masks = (np.arange(8)[:, None] & (1 << np.arange(3))) != 0  # table order
    for utility in (lambda m: m.sum(axis=1), lambda m: m.sum(axis=1).astype(np.uint8),
                    lambda m: m.sum(axis=1) > 1, lambda m: m.sum(axis=1).tolist(),
                    lambda m: (m @ np.array([0.1, 0.2, 0.3])).astype(np.float32)):
        table = game.CooperativeGame(3, utility).utility_table()
        assert table.dtype == np.float64
        assert table.tobytes() == np.asarray(utility(masks), dtype=np.float64).tobytes()
