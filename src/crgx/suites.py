"""Self-contained verification suites behind the CLI check subcommands.

Each suite returns a JSON-serializable report dict with a top-level "pass"
flag. Reports carry no timestamps or machine state, so two runs with the
same seeds emit byte-identical files.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from ._rules import _checked_int
from .cam import CamMethod, _assemble, _heatmap_sets, explain_batch, shapley_weights
from .game import (
    AXIOM_TOL,
    CooperativeGame,
    _audit,
    _exact,
    make_spatial_game,
    shapley_exact,
    shapley_mc,
)
from .utility import UtilitySpec
from .zoo import build_model


def _rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return float(np.max(np.abs(actual - expected) / (1.0 + np.abs(expected))))


def _seeded(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


# ------------------------------------------------------------ shapley-verify

def _random_table(seed: int, index: int) -> np.ndarray:
    """One seeded float64 utility table of `axiom_check`, indexed by
    coalition bitmask (2 to 8 players)."""
    rng = _seeded(seed, 0, index)
    d = 2 + index % 7
    table = rng.normal(0.0, 1.0, 1 << d)
    masks = np.arange(1 << d, dtype=np.int64)
    if index % 5 == 0:
        # make player 0 a dummy: the utility ignores its bit entirely
        table = table[masks & ~1]
    if index % 7 == 3 and d >= 3:
        # symmetrize players 1 and 2 by averaging over the bit swap
        b1, b2 = (masks >> 1) & 1, (masks >> 2) & 1
        swapped = (masks & ~6) | (b1 << 2) | (b2 << 1)
        table = 0.5 * (table + table[swapped])
    return table


def _quadratic_case(seed: int, index: int, d: int):
    rng = _seeded(seed, 1, index)
    b = rng.normal(0.0, 1.0, d)
    m = rng.normal(0.0, 1.0, (d, d)) / np.sqrt(d)
    m = 0.5 * (m + m.T)
    a = 0.5 * m  # utility b.x + x.(a x) has gradient b + m x and Hessian m

    def utility(masks: np.ndarray) -> np.ndarray:
        # stacked matmuls run b.x and a x per row as one dot and one GEMV;
        # a plain masks @ a.T GEMM sums in another order and moves last bits
        x = masks.astype(np.float64)[:, None, :]
        u = np.matmul(x, b[:, None]) + np.matmul(x, np.matmul(a, x.transpose(0, 2, 1)))
        return u[:, 0, 0]

    def graph(x):
        return ad.add(ad.sum(ad.mul(b, x)), ad.sum(ad.mul(x, ad.matmul(a, x))))

    return b, m, utility, graph


def axiom_check(seed: int = 2024, n_games: int = 50) -> dict:
    """Exact Shapley vectors audited against the four axioms on random
    table games (d up to 8), with planted dummies and symmetric pairs.
    The seeded tables are audited directly: tables of the same d go
    through as one stack, and each game's report is the one `axiom_suite`
    gives it."""
    seed, n_games = _checked_int("seed", seed, 0), _checked_int("n_games", n_games, 1)
    tables = [_random_table(seed, i) for i in range(n_games)]
    by_game: dict = {}
    for size in {table.size for table in tables}:
        index = [i for i, table in enumerate(tables) if table.size == size]
        stack = np.stack([tables[i] for i in index])
        by_game.update(zip(index, _audit(stack, stack[:, -1] - stack[:, 0], _exact(stack))))
    audits = [by_game[i] for i in range(n_games)]
    n_pass = sum(bool(audit["pass"]) for audit in audits)
    return {
        "n_games": n_games, "n_pass": int(n_pass),
        "planted_dummies": sum(len(audit["dummy"]["players"]) for audit in audits),
        "planted_symmetric_pairs": sum(len(audit["symmetry"]["pairs"]) for audit in audits),
        "worst_efficiency_gap": max([0.0] + [audit["efficiency"]["gap"] for audit in audits]),
        "worst_linearity_err": max([0.0] + [audit["linearity"]["max_err"] for audit in audits]),
        "tol": AXIOM_TOL, "pass": bool(n_pass == n_games),
    }


def _elementwise(weights: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """sum_i W[i, j] * A[i, j] of one (n_maps, d) stack, through the
    assembly that `hirescam` and `shapleycam-h` ship."""
    return _assemble(weights[None], maps[None], CamMethod("hirescam"))[0]


def quadratic_check(seed: int = 2024, n_games: int = 20) -> dict:
    """Curvature-corrected weights are exact on quadratic utilities: the
    taped gradient and HVP, weighted by `cam.shapley_weights` and
    assembled elementwise, must match brute-force enumeration."""
    seed, n_games = _checked_int("seed", seed, 0), _checked_int("n_games", n_games, 1)
    dims = (4, 8, 12)
    worst = 0.0
    for i in range(n_games):
        d = dims[i % len(dims)]
        b, m, utility, graph = _quadratic_case(seed, i, d)
        exact = shapley_exact(CooperativeGame(d, utility))
        ones = np.ones(d)
        _, tape = ad.forward(lambda x: {"y": graph(x)}, {"x": ones})
        grad = ad.gradient(tape, "y", "x")
        hvp_full = ad.hvp(tape, "y", "x", ones)
        estimate = _elementwise(shapley_weights(grad, hvp_full)[None], ones[None])
        worst = max(worst, _rel_err(estimate, exact.values))
    return {
        "n_games": n_games, "dims": list(dims),
        "worst_rel_err": float(worst), "tol": 1e-9,
        "pass": bool(worst <= 1e-9),
    }


def linear_check(seed: int = 2024, n_games: int = 10) -> dict:
    """Gradient-times-activation weights, assembled elementwise, are exact
    on linear utilities."""
    seed, n_games = _checked_int("seed", seed, 0), _checked_int("n_games", n_games, 1)
    worst = 0.0
    for i in range(n_games):
        rng = _seeded(seed, 2, i)
        d = int(rng.integers(3, 13))
        w = rng.normal(0.0, 1.0, d)
        exact = shapley_exact(CooperativeGame(d, lambda masks, w=w: np.matmul(
            masks.astype(np.float64)[:, None, :], w[:, None])[:, 0, 0]))
        ones = np.ones(d)
        _, tape = ad.forward(lambda x: {"y": ad.sum(ad.mul(w, x))}, {"x": ones})
        grad = ad.gradient(tape, "y", "x")
        estimate = _elementwise(shapley_weights(grad)[None], ones[None])
        worst = max(worst, _rel_err(estimate, exact.values))
    return {
        "n_games": n_games, "worst_rel_err": float(worst),
        "tol": 1e-12, "pass": bool(worst <= 1e-12),
    }


def spatial_check(seed: int = 2024) -> dict:
    """The 16-position masking game on the relu CNN: the shipped first-order
    `hirescam` and second-order `shapleycam` heatmaps, from `explain_batch`,
    both reproduce brute-force enumeration. The image is tapped once for
    its class and both heatmaps, and once by the game."""
    seed = _checked_int("seed", seed, 0)
    model = build_model("cnn-relu", num_classes=3, seed=seed % 1000)
    image = _seeded(seed, 4).uniform(0.0, 1.0, model.in_shape)
    stack = model._tap_stack(image[None])
    spec = UtilitySpec(int(np.argmax(model.head_batch(stack)[0])), "pre-softmax")
    game = make_spatial_game(model, image, spec)
    exact = shapley_exact(game).values
    first_err, cam_err = (_rel_err(explain_batch(model, stack, spec, method)[0].pre_relu, exact)
                          for method in ("hirescam", "shapleycam"))
    return {
        "arch": "cnn-relu", "d": int(game.d),
        "first_order_rel_err": float(first_err),
        "shapleycam_rel_err": float(cam_err),
        "tol": 1e-9, "pass": bool(first_err <= 1e-9 and cam_err <= 1e-9),
    }


def mc_check(seed: int = 2024, n_seeds: int = 10, samples: int = 50000) -> dict:
    """Permutation sampling lands within four standard errors of the exact
    vector, coordinate-wise, for every estimator seed."""
    seed, n_seeds = _checked_int("seed", seed, 0), _checked_int("n_seeds", n_seeds, 1)
    # one sample cannot estimate a standard error
    samples = _checked_int("samples", samples, 2)
    worst_sigma = 0.0
    ok = True
    for s in range(n_seeds):
        rng = _seeded(seed, 3, s)
        table = rng.normal(0.0, 1.0, 1 << 6)
        game = CooperativeGame.from_table(table)
        exact = shapley_exact(game)
        estimate = shapley_mc(game, samples=samples, seed=s)
        gap = np.abs(estimate.values - exact.values)
        sigma = np.max(gap / estimate.stderr)
        worst_sigma = max(worst_sigma, float(sigma))
        ok = ok and bool(np.all(gap <= 4.0 * estimate.stderr))
    return {
        "d": 6, "n_seeds": n_seeds, "samples": samples,
        "worst_sigma_ratio": float(worst_sigma), "limit": 4.0,
        "pass": bool(ok),
    }


def shapley_suite(seed: int = 2024, mc_seeds: int = 10, mc_samples: int = 50000) -> dict:
    """Exact-attribution checks: axioms on random tables, second-order
    equality on quadratics and first-order exactness on linear games
    through `cam`'s own weights and assembly, the shipped heatmaps on the
    d=16 spatial oracle, and Monte Carlo convergence."""
    seed = _checked_int("seed", seed, 0)
    mc_seeds = _checked_int("mc_seeds", mc_seeds, 1)
    mc_samples = _checked_int("mc_samples", mc_samples, 2)
    report: dict = {"suite": "shapley-verify", "seed": seed}
    report["mc"] = mc_check(seed, mc_seeds, mc_samples)
    report["axioms"] = axiom_check(seed)
    report["quadratics"] = quadratic_check(seed)
    report["linear"] = linear_check(seed)
    report["spatial"] = spatial_check(seed)
    report["pass"] = bool(all(report[k]["pass"] for k in
                              ("axioms", "quadratics", "linear", "spatial", "mc")))
    return report


# ---------------------------------------------------------------- hvp-check

def _random_smooth_graph(seed: int, index: int):
    """A small random graph built only from smooth ops, plus a probe point
    and direction. Four head shapes keep the Hessians varied."""
    rng = _seeded(seed, 0, index)
    n = int(rng.integers(3, 7))
    m = int(rng.integers(2, 6))
    w1 = rng.normal(0.0, 1.0, (m, n)) / np.sqrt(n)
    b1 = rng.normal(0.0, 0.3, m)
    w2 = rng.normal(0.0, 1.0, m)
    k = int(rng.integers(m))
    kind = index % 4

    def graph(x):
        h = ad.silu(ad.add(ad.matmul(w1, x), b1))
        if kind == 0:
            return ad.logsumexp(ad.tanh(h))
        if kind == 1:
            return ad.sum(ad.mul(ad.softplus(h), w2))
        if kind == 2:
            return ad.index(ad.softmax(h), k)
        return ad.sum(ad.mul(ad.sigmoid(h), ad.tanh(h)))

    x0 = rng.normal(0.0, 1.0, n)
    v = rng.normal(0.0, 1.0, n)
    v = v / max(1.0, float(np.max(np.abs(v))))
    u = rng.normal(0.0, 1.0, n)
    u = u / max(1.0, float(np.max(np.abs(u))))
    return graph, x0, v, u


def _gradient_at(graph, x: np.ndarray) -> np.ndarray:
    _, tape = ad.forward(lambda x: {"y": graph(x)}, {"x": x})
    return ad.gradient(tape, "y", "x")


def hvp_suite(seed: int = 77, graphs: int = 100) -> dict:
    """Hessian-vector products against finite differences of the gradient,
    plus the bilinear symmetry of the Hessian."""
    seed, graphs = _checked_int("seed", seed, 0), _checked_int("graphs", graphs, 1)
    worst_fd = 0.0
    worst_sym = 0.0
    n_pass = 0
    for i in range(graphs):
        graph, x0, v, u = _random_smooth_graph(seed, i)
        _, tape = ad.forward(lambda x: {"y": graph(x)}, {"x": x0})
        hv = ad.hvp(tape, "y", "x", v)
        hu = ad.hvp(tape, "y", "x", u)

        step = 1e-5 * (1.0 + float(np.max(np.abs(x0))))
        fd = (_gradient_at(graph, x0 + step * v) -
              _gradient_at(graph, x0 - step * v)) / (2.0 * step)
        fd_err = _rel_err(hv, fd)

        s1 = float(u @ hv)
        s2 = float(v @ hu)
        sym_err = abs(s1 - s2) / (1.0 + abs(s1))

        worst_fd = max(worst_fd, fd_err)
        worst_sym = max(worst_sym, sym_err)
        n_pass += bool(fd_err <= 1e-4 and sym_err <= 1e-9)

    return {
        "suite": "hvp-check", "seed": seed, "n_graphs": graphs,
        "n_pass": int(n_pass),
        "worst_fd_rel_err": float(worst_fd), "fd_tol": 1e-4,
        "worst_symmetry_err": float(worst_sym), "symmetry_tol": 1e-9,
        "pass": bool(n_pass == graphs),
    }


# ------------------------------------------------------------- theorem-check

THEOREM_ARCHS = ("cnn-smooth", "mlp-smooth")
THEOREM_CLASSES = (2, 3, 5)
THEOREM_METHODS = ("gradcam", "hirescam")
COLLAPSE_METHODS = ("gradcam", "hirescam", "shapleycam", "shapleycam-h")
PROBE_CONFIG = {"arch": "cnn-smooth", "classes": 2, "model_seed": 110,
                "image_seed": 0, "scale": 50.0}


def _probe_model():
    model = build_model(PROBE_CONFIG["arch"], num_classes=PROBE_CONFIG["classes"],
                        seed=PROBE_CONFIG["model_seed"])
    model.weights["fc_w"] *= PROBE_CONFIG["scale"]
    model.weights["fc_b"] *= PROBE_CONFIG["scale"]
    image = np.random.default_rng(PROBE_CONFIG["image_seed"]).uniform(
        0.0, 1.0, model.in_shape)
    return model, image


def _class_heatmaps(model, image: np.ndarray, methods, kinds, ensembles: bool = False):
    """The image's argmax class, from the logits of its one tap stack, and
    the `_heatmap_sets` of that class on the same stack."""
    stack = model._tap_stack(image[None])
    c = int(np.argmax(model.head_batch(stack)[0]))
    return c, _heatmap_sets(model, stack, c, methods, kinds, ensembles)


def theorem_suite(seeds: int = 5) -> dict:
    """Ensemble and residual-decomposition identities over the full model
    matrix, the saturated-softmax probe, and the degenerate-collapse
    equalities on the relu CNN."""
    seeds = _checked_int("seeds", seeds, 1)
    report: dict = {
        "suite": "theorem-check", "seeds": seeds, "archs": list(THEOREM_ARCHS),
        "classes": list(THEOREM_CLASSES), "methods": list(THEOREM_METHODS),
    }

    ens_worst = 0.0
    rest_worst = 0.0
    n_cases = 0
    # every case takes build_model's default (3, 6, 6) input, so a seed's
    # image is the same for every arch and class count
    images = [np.random.default_rng(1000 + s).uniform(0.0, 1.0, (3, 6, 6))
              for s in range(seeds)]
    for arch in THEOREM_ARCHS:
        for n_classes in THEOREM_CLASSES:
            for s, image in enumerate(images):
                model = build_model(arch, num_classes=n_classes, seed=s)
                _, sets = _class_heatmaps(model, image, THEOREM_METHODS,
                                          ("post-softmax", "rest"), ensembles=True)
                for direct, composed in sets.values():
                    ens_err, rest_err = np.max(np.abs(direct[0] - composed[0]), axis=1)
                    ens_worst = max(ens_worst, float(ens_err))
                    rest_worst = max(rest_worst, float(rest_err))
                    n_cases += 1
    report["ensemble"] = {"n_cases": int(n_cases), "worst_err": float(ens_worst),
                          "tol": 1e-8, "pass": bool(ens_worst <= 1e-8)}
    report["rest"] = {"n_cases": int(n_cases), "worst_err": float(rest_worst),
                      "tol": 1e-8, "pass": bool(rest_worst <= 1e-8)}

    model, image = _probe_model()
    c, sets = _class_heatmaps(model, image, ("gradcam",), ("post-softmax", "rest"),
                              ensembles=True)
    direct, composed = sets["gradcam"]
    direct_norm, rest_norm = np.max(np.abs(direct[0]), axis=1)
    ensemble_err, rest_err = np.max(np.abs(direct[0] - composed[0]), axis=1)
    probe = dict(PROBE_CONFIG)
    probe.update({
        "target_class": c,
        "direct_norm": float(direct_norm),
        "rest_norm": float(rest_norm),
        "ensemble_err": float(ensemble_err),
        "rest_err": float(rest_err),
        "pass": bool(direct_norm < 1e-8 and rest_norm > 1e-3
                     and ensemble_err <= 1e-8 and rest_err <= 1e-8),
    })
    report["probe"] = probe

    mean_exact = True
    elementwise_exact = True
    gap_worst = 0.0
    for s in range(seeds):
        model = build_model("cnn-relu", num_classes=3, seed=s)
        image = np.random.default_rng(3000 + s).uniform(0.0, 1.0, model.in_shape)
        _, sets = _class_heatmaps(model, image, COLLAPSE_METHODS, ("pre-softmax",))
        gradcam, hirescam, shapleycam, shapleycam_h = (
            sets[name][0][0, 0] for name in COLLAPSE_METHODS)
        mean_exact = mean_exact and bool(np.array_equal(gradcam, shapleycam))
        elementwise_exact = elementwise_exact and bool(np.array_equal(hirescam, shapleycam_h))
        gap_worst = max(gap_worst, float(np.max(np.abs(gradcam - hirescam))))
    report["collapse"] = {
        "n_seeds": seeds,
        "mean_scheme_exact": bool(mean_exact),
        "elementwise_scheme_exact": bool(elementwise_exact),
        "gap_tap_err": float(gap_worst), "gap_tap_tol": 1e-12,
        "pass": bool(mean_exact and elementwise_exact and gap_worst <= 1e-12),
    }

    report["pass"] = bool(all(report[k]["pass"] for k in
                              ("ensemble", "rest", "probe", "collapse")))
    return report
