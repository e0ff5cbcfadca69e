import json

import pytest

from crgx.game import AXIOM_TOL, axiom_suite, shapley_exact
from crgx.suites import (
    PROBE_CONFIG,
    _random_table_game,
    axiom_check,
    hvp_suite,
    linear_check,
    mc_check,
    quadratic_check,
    shapley_suite,
    spatial_check,
    theorem_suite,
)


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
        g = _random_table_game(seed, i)
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
