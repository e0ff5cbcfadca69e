"""End-to-end acceptance gate.

Each test covers one shipping criterion at its stated tolerance and prints a
single PASS/FAIL line so the whole gate can be read off `pytest -v -s`.
"""

import json
import time

import numpy as np
import pytest

from crgx.cam import CamMethod, Heatmap
from crgx.cli import main
from crgx.imgio import Image, write_image
from crgx.metrics import evaluate_batch
from crgx.suites import (
    axiom_check,
    hvp_suite,
    linear_check,
    mc_check,
    quadratic_check,
    spatial_check,
    theorem_suite,
)
from crgx.utility import UtilitySpec
from crgx.zoo import build_model


def _line(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def theorem_report():
    return theorem_suite(seeds=5)


def test_criterion_01_axioms_on_random_games():
    start = time.perf_counter()
    report = axiom_check(seed=2024, n_games=50)
    elapsed = time.perf_counter() - start
    ok = report["pass"] and elapsed < 10.0
    _line(1, "axiom audit", ok,
          f"{report['n_pass']}/50 games, worst efficiency gap "
          f"{report['worst_efficiency_gap']:.2e}, {elapsed:.2f}s < 10s")


def test_criterion_02_quadratic_second_order_exact():
    start = time.perf_counter()
    report = quadratic_check(seed=2024, n_games=20)
    elapsed = time.perf_counter() - start
    ok = report["pass"] and elapsed < 60.0
    _line(2, "quadratic exactness", ok,
          f"worst rel err {report['worst_rel_err']:.2e} <= 1e-9, "
          f"{elapsed:.2f}s < 60s")


def test_criterion_03_linear_first_order_exact():
    report = linear_check(seed=2024, n_games=10)
    _line(3, "linear exactness", report["pass"],
          f"worst rel err {report['worst_rel_err']:.2e} <= 1e-12")


def test_criterion_04_spatial_game_matches_enumeration():
    start = time.perf_counter()
    report = spatial_check(seed=2024)
    elapsed = time.perf_counter() - start
    ok = report["pass"] and elapsed < 120.0
    _line(4, "d=16 masking game", ok,
          f"first-order {report['first_order_rel_err']:.2e}, "
          f"heatmap {report['shapleycam_rel_err']:.2e} <= 1e-9, "
          f"{elapsed:.2f}s < 120s")


def test_criterion_05_hvp_against_finite_differences():
    report = hvp_suite(seed=77, graphs=100)
    _line(5, "curvature products", report["pass"],
          f"{report['n_pass']}/100 graphs, fd {report['worst_fd_rel_err']:.2e} "
          f"<= 1e-4, symmetry {report['worst_symmetry_err']:.2e} <= 1e-9")


def test_criterion_06_ensemble_identity_and_vanishing_probe(theorem_report):
    ens = theorem_report["ensemble"]
    probe = theorem_report["probe"]
    ok = ens["pass"] and probe["direct_norm"] < 1e-8 and probe["ensemble_err"] <= 1e-8
    _line(6, "softmax ensemble identity", ok,
          f"{ens['n_cases']} cases, worst err {ens['worst_err']:.2e} <= 1e-8, "
          f"saturated direct norm {probe['direct_norm']:.2e} < 1e-8")


def test_criterion_07_rest_decomposition_and_scaling(theorem_report):
    rest = theorem_report["rest"]
    probe = theorem_report["probe"]
    ok = rest["pass"] and probe["rest_norm"] > 1e-3 and probe["rest_err"] <= 1e-8
    _line(7, "residual decomposition", ok,
          f"{rest['n_cases']} cases, worst err {rest['worst_err']:.2e} <= 1e-8, "
          f"scaled rest norm {probe['rest_norm']:.2e} > 1e-3")


def test_criterion_08_degenerate_collapse_equalities(theorem_report):
    col = theorem_report["collapse"]
    _line(8, "relu collapse", col["pass"],
          f"mean scheme bitwise {col['mean_scheme_exact']}, elementwise bitwise "
          f"{col['elementwise_scheme_exact']}, gap-tap err "
          f"{col['gap_tap_err']:.2e} <= 1e-12")


def test_criterion_09_sampling_within_four_sigma():
    report = mc_check(seed=2024, n_seeds=10, samples=50000)
    _line(9, "sampled attribution", report["pass"],
          f"10 seeds x 50000 permutations, worst gap "
          f"{report['worst_sigma_ratio']:.2f} sigma <= 4")


def test_criterion_10_sanity_metrics():
    # a mask that is 1 everywhere except one already-black pixel reproduces
    # the image exactly, so it must score as a perfect explanation with
    # near-maximal complexity and therefore a tiny combined score
    model = build_model("cnn-smooth", num_classes=3, seed=0, in_shape=(3, 12, 12))
    rng = np.random.default_rng(42)
    images = []
    for _ in range(8):
        x = rng.uniform(0.05, 1.0, (3, 12, 12))
        x[:, 0, 0] = 0.0
        images.append(x)

    grid = np.ones((12, 12))
    grid[0, 0] = 0.0

    def fake(model, pixels, spec):
        flat = grid.ravel()
        return Heatmap(pre_relu=flat, spatial=grid.shape, method="fake")

    fake.cam_name = "fake-cam"
    record = evaluate_batch(model, images, UtilitySpec(0, "post-softmax"), fake)
    fake_ok = (record.ad <= 1e-12 and record.coherency >= 1.0 - 1e-12
               and record.complexity >= 0.99 and record.adcc < 0.05)

    # attribution-driven maps must beat random maps on most seeds
    model = build_model("cnn-smooth", num_classes=3, seed=7)
    rng = np.random.default_rng(7000)
    batch = [rng.uniform(0.0, 1.0, model.in_shape) for _ in range(20)]
    spec = UtilitySpec(0, "post-softmax")
    shap = evaluate_batch(model, batch, spec, "shapleycam")
    wins = sum(shap.adcc > evaluate_batch(model, batch, spec,
                                          CamMethod("randomcam", seed=s)).adcc
               for s in range(10))
    order_ok = wins >= 5

    _line(10, "metric sanity", fake_ok and order_ok,
          f"fake map ad {record.ad:.1e}, coh {record.coherency:.3f}, "
          f"com {record.complexity:.4f}, adcc {record.adcc:.4f} < 0.05; "
          f"attribution beats random on {wins}/10 seeds")


def test_criterion_11_reports_are_byte_identical(tmp_path):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    rng = np.random.default_rng(99)
    for i in range(6):
        write_image(img_dir / f"img{i}.ppm",
                    Image(rng.uniform(0.0, 1.0, (3, 6, 6))))

    commands = {
        "theorem-check": ["theorem-check", "--seeds", "5"],
        "shapley-verify": ["shapley-verify"],
        "evaluate": ["evaluate", "--images", str(img_dir),
                     "--method", "randomcam", "--method-seed", "3",
                     "--arch", "cnn-smooth", "--seed", "7",
                     "--utility", "post-softmax"],
    }
    identical = {}
    for name, argv in commands.items():
        blobs = []
        for run in ("a", "b"):
            path = tmp_path / f"{name}.{run}.json"
            code = main(argv + ["--report", str(path)])
            assert code == 0, f"{name} run {run} exited {code}"
            blobs.append(path.read_bytes())
        json.loads(blobs[0].decode())
        identical[name] = blobs[0] == blobs[1]

    ok = all(identical.values())
    detail = ", ".join(f"{name} identical={flag}"
                       for name, flag in identical.items())
    _line(11, "deterministic reports", ok, detail)
