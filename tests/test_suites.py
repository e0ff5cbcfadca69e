import json

import numpy as np
import pytest

from crgx.cam import explain, rest_decomposition, theorem3_ensemble
from crgx.game import AXIOM_TOL, CooperativeGame, axiom_suite, shapley_exact
from crgx.suites import (
    PROBE_CONFIG,
    THEOREM_ARCHS,
    THEOREM_CLASSES,
    THEOREM_METHODS,
    _probe_model,
    _random_table,
    axiom_check,
    hvp_suite,
    linear_check,
    mc_check,
    quadratic_check,
    shapley_suite,
    spatial_check,
    theorem_suite,
)
from crgx.utility import UtilitySpec
from crgx.zoo import build_model


def test_axiom_check_passes_and_sees_planted_structure():
    report = axiom_check(seed=2024, n_games=50)
    assert report["pass"] is True
    assert report["n_pass"] == 50
    # every fifth game plants a dummy, every seventh (at d=5) a symmetric pair
    assert report["planted_dummies"] >= 10
    assert report["planted_symmetric_pairs"] >= 7
    assert report["worst_efficiency_gap"] <= 1e-9


def axiom_check_oracle(seed, n_games):
    """axiom_check as a loop of shapley_exact and axiom_suite, game by game."""
    n_pass, worst_gap, worst_lin, dummies, symmetric = 0, 0.0, 0.0, 0, 0
    for i in range(n_games):
        g = CooperativeGame.from_table(_random_table(seed, i))
        audit = axiom_suite(g, shapley_exact(g))
        n_pass += bool(audit["pass"])
        worst_gap = max(worst_gap, audit["efficiency"]["gap"])
        worst_lin = max(worst_lin, audit["linearity"]["max_err"])
        dummies += len(audit["dummy"]["players"])
        symmetric += len(audit["symmetry"]["pairs"])
    return {"n_games": n_games, "n_pass": n_pass, "planted_dummies": dummies,
            "planted_symmetric_pairs": symmetric, "worst_efficiency_gap": worst_gap,
            "worst_linearity_err": worst_lin, "tol": AXIOM_TOL,
            "pass": n_pass == n_games}


@pytest.mark.parametrize("n_games", [1, 7, 50])
@pytest.mark.parametrize("seed", [2024, 7, 99])
def test_stacked_axiom_check_equals_the_game_by_game_loop(seed, n_games):
    assert axiom_check(seed, n_games) == axiom_check_oracle(seed, n_games)


def test_quadratic_check_reports_exactness():
    report = quadratic_check(seed=2024, n_games=6)
    assert report["pass"] is True
    assert report["worst_rel_err"] <= 1e-9
    assert report["dims"] == [4, 8, 12]


def test_linear_check_is_tight():
    report = linear_check(seed=2024, n_games=5)
    assert report["pass"] is True
    assert report["worst_rel_err"] <= 1e-12


def test_spatial_check_matches_enumeration():
    report = spatial_check(seed=2024)
    assert report["pass"] is True
    assert report["d"] == 16
    assert report["first_order_rel_err"] <= 1e-9
    assert report["shapleycam_rel_err"] <= 1e-9


def test_mc_check_small_variant():
    report = mc_check(seed=2024, n_seeds=2, samples=4000)
    assert report["pass"] is True
    assert report["worst_sigma_ratio"] <= 4.0


def test_shapley_suite_refuses_a_single_sample_before_any_section(monkeypatch):
    # one permutation gives every stderr 0, and the sigma ratio would divide by it
    import crgx.suites as suites

    def no_work(*args):
        raise AssertionError("a section ran before the sample count was checked")

    for name in ("axiom_check", "quadratic_check", "linear_check", "spatial_check"):
        monkeypatch.setattr(suites, name, no_work)
    with pytest.raises(ValueError, match="^mc_samples must be at least 2, got 1$"):
        shapley_suite(mc_samples=1)


@pytest.mark.parametrize("suite, args", [
    (hvp_suite, {"graphs": 2.5}),
    (hvp_suite, {"seed": 1.5}),
    (theorem_suite, {"seeds": 1.5}),
    (shapley_suite, {"mc_seeds": 1.5}),
    (shapley_suite, {"seed": 1.5}),
], ids=["hvp-graphs", "hvp-seed", "theorem-seeds", "shapley-mc-seeds", "shapley-seed"])
def test_suite_counts_and_seeds_must_be_integers(suite, args):
    (name, value), = args.items()
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
        suite(**args)


@pytest.mark.parametrize("suite, args", [
    (hvp_suite, {"graphs": 0}),
    (mc_check, {"n_seeds": 0}),
    (axiom_check, {"n_games": 0}),
    (quadratic_check, {"n_games": 0}),
    (linear_check, {"n_games": 0}),
    (theorem_suite, {"seeds": 0}),
    (shapley_suite, {"mc_seeds": 0}),
    (axiom_check, {"n_games": -3}),
], ids=["hvp-graphs", "mc-seeds", "axiom-games", "quadratic-games", "linear-games",
        "theorem-seeds", "shapley-mc-seeds", "axiom-negative"])
def test_suite_counts_below_one_are_refused(suite, args):
    # a suite that checks no case would otherwise report "pass": true
    (name, value), = args.items()
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
        suite(**args)


def test_shapley_suite_composes_sections():
    report = shapley_suite(seed=9, mc_seeds=1, mc_samples=2000)
    assert report["suite"] == "shapley-verify"
    assert report["pass"] is True
    for key in ("axioms", "quadratics", "linear", "spatial", "mc"):
        assert report[key]["pass"] is True


def test_hvp_suite_counts_and_bounds():
    report = hvp_suite(seed=77, graphs=25)
    assert report["pass"] is True
    assert report["n_pass"] == 25
    assert report["worst_fd_rel_err"] <= 1e-4
    assert report["worst_symmetry_err"] <= 1e-9


def test_theorem_suite_sections():
    report = theorem_suite(seeds=1)
    assert report["pass"] is True
    assert report["ensemble"]["n_cases"] == 12
    assert report["ensemble"]["worst_err"] <= 1e-8
    assert report["rest"]["worst_err"] <= 1e-8
    probe = report["probe"]
    assert probe["direct_norm"] < 1e-8
    assert probe["rest_norm"] > 1e-3
    assert probe["arch"] == PROBE_CONFIG["arch"]
    collapse = report["collapse"]
    assert collapse["mean_scheme_exact"] is True
    assert collapse["elementwise_scheme_exact"] is True
    assert collapse["gap_tap_err"] <= 1e-12


def theorem_suite_oracle(seeds):
    """theorem_suite as a loop of per-method calls: each case draws its own
    image, runs forward for its class and `theorem3_ensemble` and
    `rest_decomposition` for each method, and the collapse section runs
    explain once per heatmap."""
    report = {
        "suite": "theorem-check", "seeds": int(seeds), "archs": list(THEOREM_ARCHS),
        "classes": list(THEOREM_CLASSES), "methods": list(THEOREM_METHODS),
    }
    ens_worst, rest_worst, n_cases = 0.0, 0.0, 0
    for arch in THEOREM_ARCHS:
        for n_classes in THEOREM_CLASSES:
            for s in range(seeds):
                model = build_model(arch, num_classes=n_classes, seed=s)
                image = np.random.default_rng(1000 + s).uniform(0.0, 1.0, model.in_shape)
                c = int(np.argmax(model.forward(image)))
                for method in THEOREM_METHODS:
                    direct, ensemble = theorem3_ensemble(
                        model, image, UtilitySpec(c, "post-softmax"), method)
                    rest_direct, composed = rest_decomposition(model, image, c, method)
                    ens_worst = max(ens_worst, float(np.max(np.abs(
                        direct.pre_relu - ensemble.pre_relu))))
                    rest_worst = max(rest_worst, float(np.max(np.abs(
                        rest_direct.pre_relu - composed.pre_relu))))
                    n_cases += 1
    report["ensemble"] = {"n_cases": n_cases, "worst_err": ens_worst,
                          "tol": 1e-8, "pass": ens_worst <= 1e-8}
    report["rest"] = {"n_cases": n_cases, "worst_err": rest_worst,
                      "tol": 1e-8, "pass": rest_worst <= 1e-8}

    model, image = _probe_model()
    c = int(np.argmax(model.forward(image)))
    direct, ensemble = theorem3_ensemble(model, image, UtilitySpec(c, "post-softmax"), "gradcam")
    rest_direct, composed = rest_decomposition(model, image, c, "gradcam")
    probe = dict(PROBE_CONFIG)
    probe.update({
        "target_class": c,
        "direct_norm": float(np.max(np.abs(direct.pre_relu))),
        "rest_norm": float(np.max(np.abs(rest_direct.pre_relu))),
        "ensemble_err": float(np.max(np.abs(direct.pre_relu - ensemble.pre_relu))),
        "rest_err": float(np.max(np.abs(rest_direct.pre_relu - composed.pre_relu))),
    })
    probe["pass"] = bool(probe["direct_norm"] < 1e-8 and probe["rest_norm"] > 1e-3
                         and probe["ensemble_err"] <= 1e-8 and probe["rest_err"] <= 1e-8)
    report["probe"] = probe

    mean_exact, elementwise_exact, gap_worst = True, True, 0.0
    for s in range(seeds):
        model = build_model("cnn-relu", num_classes=3, seed=s)
        image = np.random.default_rng(3000 + s).uniform(0.0, 1.0, model.in_shape)
        spec = UtilitySpec(int(np.argmax(model.forward(image))), "pre-softmax")
        gradcam, hirescam, shapleycam, shapleycam_h = (
            explain(model, image, spec, name).pre_relu
            for name in ("gradcam", "hirescam", "shapleycam", "shapleycam-h"))
        mean_exact = mean_exact and bool(np.array_equal(gradcam, shapleycam))
        elementwise_exact = elementwise_exact and bool(np.array_equal(hirescam, shapleycam_h))
        gap_worst = max(gap_worst, float(np.max(np.abs(gradcam - hirescam))))
    report["collapse"] = {
        "n_seeds": int(seeds), "mean_scheme_exact": mean_exact,
        "elementwise_scheme_exact": elementwise_exact,
        "gap_tap_err": gap_worst, "gap_tap_tol": 1e-12,
        "pass": mean_exact and elementwise_exact and gap_worst <= 1e-12,
    }
    report["pass"] = all(report[k]["pass"] for k in ("ensemble", "rest", "probe", "collapse"))
    return report


@pytest.mark.parametrize("seeds", [1, 2, 5])
def test_theorem_suite_equals_the_per_method_loop(seeds):
    assert (json.dumps(theorem_suite(seeds), sort_keys=True)
            == json.dumps(theorem_suite_oracle(seeds), sort_keys=True))


def test_suite_reports_are_reproducible_and_serializable():
    a = hvp_suite(seed=5, graphs=10)
    b = hvp_suite(seed=5, graphs=10)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    a = theorem_suite(seeds=1)
    b = theorem_suite(seeds=1)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_different_seeds_change_the_numbers():
    a = hvp_suite(seed=5, graphs=10)
    b = hvp_suite(seed=6, graphs=10)
    assert a["worst_fd_rel_err"] != b["worst_fd_rel_err"]
