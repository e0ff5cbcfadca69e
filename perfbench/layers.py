"""Per-layer sweep of the traced run: each crgx module's public calls, timed
one at a time from here on seeded inputs. The same sweep runs after every
workload, so a per-layer number means the same thing in every traced run.
The metric names and the end-to-end metric each should move are listed in
perfbench/README.md.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

import crgx
import crgx.autodiff
import crgx.suites
from crgx.utility import utility_node

from probe import Probe
from workloads import run_cli

SUITE_SECTIONS = ("axiom_check", "quadratic_check", "linear_check", "spatial_check",
                  "mc_check")


def _median(probe: Probe, name: str, reps: int, fn, *args):
    """Median seconds of `reps` calls, and the last result."""
    times = []
    result = None
    for _ in range(reps):
        result, seconds = probe.call(name, fn, *args)
        times.append(seconds)
    return statistics.median(times), result


def _taped_utility(model, image, spec):
    run = model.forward_with_tap(image)
    with run.tape:
        u = utility_node(run.tape.outputs["logits"], spec)
    return run, u


def sweep(probe: Probe, seed: int, workdir: Path) -> dict[str, float]:
    rng = np.random.default_rng([seed, 2])
    model_seed = int(rng.integers(2 ** 31))
    img6 = rng.uniform(0.0, 1.0, (3, 6, 6))
    img64 = rng.uniform(0.0, 1.0, (3, 64, 64))
    model6 = crgx.build_model("cnn-smooth", num_classes=3, seed=model_seed)
    model64 = crgx.build_model("cnn-smooth", num_classes=3, seed=model_seed,
                               in_shape=img64.shape)
    target6 = int(np.argmax(model6.forward(img6)))
    target64 = int(np.argmax(model64.forward(img64)))
    rest6 = crgx.UtilitySpec(target6, "rest")
    rest64 = crgx.UtilitySpec(target64, "rest")
    m: dict[str, float] = {}
    with probe.span("bench.sweep"):
        _zoo(probe, m, model_seed, model6, img6, model64, img64, rng)
        _utility(probe, m, model6.forward(img6), target6)
        _autodiff(probe, m, model6, img6, rest6, model64, img64, rest64)
        _game(probe, m, model6, img6, target6, seed)
        _cam(probe, m, model6, img6, rest6, model64, img64, rest64, seed)
        _postprocess(probe, m, model64, img64, rest64)
        _imgio(probe, m, img64, workdir)
        _metrics(probe, m, model64, rng, rest64, seed)
        _cli(probe, m, model_seed, rng, workdir)
        _suites(probe, m)
    return m


def _zoo(probe, m, model_seed, model6, img6, model64, img64, rng):
    build = 0.0
    for arch in ("cnn-smooth", "mlp-smooth"):
        seconds, _ = _median(probe, "zoo.build_model", 5, crgx.build_model, arch, 3,
                             model_seed, img64.shape)
        build += seconds
    m["zoo.build_model_ms"] = build * 1e3
    for label, model, image, reps in (("6px", model6, img6, 200), ("64px", model64, img64, 20)):
        m[f"zoo.forward_ms.{label}"] = _median(
            probe, "zoo.forward", reps, model.forward, image)[0] * 1e3
        m[f"zoo.forward_with_tap_ms.{label}"] = _median(
            probe, "zoo.forward_with_tap", reps, model.forward_with_tap, image)[0] * 1e3
    maps = model6.forward_with_tap(img6).activations.maps
    masked = maps * (rng.uniform(size=maps.shape[1]) < 0.5)
    m["zoo.head_us"] = _median(probe, "zoo.head", 2000, model6.head, masked)[0] * 1e6


def _utility(probe, m, logits, target):
    for kind in crgx.UTILITY_KINDS:
        m[f"utility.compute_us.{kind}"] = _median(
            probe, "utility.compute_utility", 2000, crgx.compute_utility, logits,
            crgx.UtilitySpec(target, kind))[0] * 1e6


def _autodiff(probe, m, model6, img6, rest6, model64, img64, rest64):
    ad = crgx.autodiff
    for label, model, image, spec, reps in (("d16", model6, img6, rest6, 50),
                                            ("d3844", model64, img64, rest64, 10)):
        grads, hvps = [], []
        for _ in range(reps):
            run, u = _taped_utility(model, image, spec)
            grads.append(probe.call("autodiff.gradient", ad.gradient, run.tape, u, "tap")[1])
            run, u = _taped_utility(model, image, spec)
            hvps.append(probe.call("autodiff.hvp", ad.hvp, run.tape, u, "tap",
                                   run.activations.maps)[1])
        m[f"autodiff.gradient_ms.{label}"] = statistics.median(grads) * 1e3
        m[f"autodiff.hvp_ms.{label}"] = statistics.median(hvps) * 1e3
    run, u = _taped_utility(model64, img64, rest64)
    probe.call("autodiff.gradient", ad.gradient, run.tape, u, "tap")
    m["autodiff.tape_nodes.first"] = len(run.tape.nodes)
    probe.call("autodiff.hvp", ad.hvp, run.tape, u, "tap", run.activations.maps)
    m["autodiff.tape_nodes.second"] = len(run.tape.nodes)


def _game(probe, m, model6, img6, target, seed):
    rest = crgx.UtilitySpec(target, "rest")
    seconds, game = _median(probe, "game.make_spatial_game", 20, crgx.make_spatial_game,
                            model6, img6, rest)
    m["game.make_spatial_game_ms"] = seconds * 1e3
    pre = crgx.make_spatial_game(model6, img6, crgx.UtilitySpec(target, "pre-softmax"))
    m["game.utility_table_s.pre-softmax"] = probe.call("game.utility_table",
                                                       pre.utility_table)[1]
    m["game.utility_table_s.rest"] = probe.call("game.utility_table", game.utility_table)[1]
    seconds, exact = _median(probe, "game.shapley_exact", 5, crgx.shapley_exact, game)
    m["game.shapley_exact_ms"] = seconds * 1e3
    m["game.axiom_suite_ms"] = _median(probe, "game.axiom_suite", 3, crgx.axiom_suite,
                                       game, exact)[0] * 1e3
    m["game.shapley_mc_ms_per_1k.spatial"] = _median(
        probe, "game.shapley_mc", 2, crgx.shapley_mc, game, 250, seed)[0] * 4e3
    table = np.random.default_rng([seed, 3]).normal(0.0, 1.0, 1 << 6)
    table_game = crgx.CooperativeGame.from_table(table)
    m["game.shapley_mc_ms_per_1k.table"] = _median(
        probe, "game.shapley_mc", 3, crgx.shapley_mc, table_game, 1000, seed)[0] * 1e3


def _cam(probe, m, model6, img6, rest6, model64, img64, rest64, seed):
    for name in crgx.CAM_METHODS:
        method = crgx.CamMethod(name, seed=seed if name == "randomcam" else None)
        for label, model, image, spec, reps in (("6px", model6, img6, rest6, 20),
                                                ("64px", model64, img64, rest64, 5)):
            m[f"cam.explain_ms.{name}.{label}"] = _median(
                probe, "cam.explain", reps, crgx.explain, model, image, spec, method)[0] * 1e3
    post = crgx.UtilitySpec(rest6.target_class, "post-softmax")
    m["cam.theorem3_ensemble_ms"] = _median(probe, "cam.theorem3_ensemble", 10,
                                            crgx.theorem3_ensemble, model6, img6, post,
                                            "gradcam")[0] * 1e3
    m["cam.rest_decomposition_ms"] = _median(probe, "cam.rest_decomposition", 10,
                                             crgx.rest_decomposition, model6, img6,
                                             rest6.target_class, "gradcam")[0] * 1e3


def _postprocess(probe, m, model64, img64, rest64):
    grid = crgx.explain(model64, img64, rest64, "shapleycam").grid("post")
    seconds, norm = _median(probe, "postprocess.normalize_minmax", 50,
                            crgx.normalize_minmax, grid)
    m["postprocess.normalize_ms"] = seconds * 1e3
    seconds, up = _median(probe, "postprocess.upsample_bilinear", 50,
                          crgx.upsample_bilinear, norm, img64.shape[1], img64.shape[2])
    m["postprocess.upsample_ms"] = seconds * 1e3
    m["postprocess.colormap_ms"] = _median(probe, "postprocess.apply_colormap", 50,
                                           crgx.apply_colormap, up)[0] * 1e3
    m["postprocess.overlay_ms"] = _median(probe, "postprocess.overlay", 50,
                                          crgx.overlay, img64, up)[0] * 1e3


def _imgio(probe, m, img64, workdir):
    path = workdir / "sweep-io.ppm"
    image = crgx.Image(img64)
    m["imgio.write_ms"] = _median(probe, "imgio.write_image", 20, crgx.write_image,
                                  path, image)[0] * 1e3
    m["imgio.read_ms"] = _median(probe, "imgio.read_image", 20, crgx.read_image,
                                 path)[0] * 1e3


def _metrics(probe, m, model64, rng, rest64, seed):
    images = [rng.uniform(0.0, 1.0, model64.in_shape) for _ in range(8)]
    for name in ("gradcam", "shapleycam", "randomcam"):
        method = crgx.CamMethod(name, seed=seed if name == "randomcam" else None)
        seconds, _ = _median(probe, "metrics.evaluate_batch", 2, crgx.evaluate_batch,
                             model64, images, rest64, method)
        m[f"metrics.evaluate_batch_ms_per_image.{name}"] = seconds * 1e3 / len(images)


class _Steps:
    """Calls through the probe, summing their seconds in `total`."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.total = 0.0

    def __call__(self, name, fn, *args):
        result, seconds = self.probe.call(name, fn, *args)
        self.total += seconds
        return result


def _explain_steps(probe, path, arch, model_seed, method, out_dir) -> float:
    """`crgx explain` rebuilt from public calls, without argument parsing
    or the JSON sidecar; returns the summed call seconds."""
    step = _Steps(probe)
    image = step("imgio.read_image", crgx.read_image, path)
    model = step("zoo.build_model", crgx.build_model, arch, 3, model_seed, image.pixels.shape)
    target = int(np.argmax(step("zoo.forward", model.forward, image.pixels)))
    heat = step("cam.explain", crgx.explain, model, image.pixels,
                crgx.UtilitySpec(target, "rest"), method)
    grid = step("postprocess.normalize_minmax", crgx.normalize_minmax, heat.grid("post"))
    up = step("postprocess.upsample_bilinear", crgx.upsample_bilinear, grid,
              image.height, image.width)
    colored = step("postprocess.apply_colormap", crgx.apply_colormap, up)
    step("imgio.write_image", crgx.write_image, out_dir / "steps.heatmap.ppm",
         crgx.Image(colored))
    blended = step("postprocess.overlay", crgx.overlay, image.pixels, up)
    step("imgio.write_image", crgx.write_image, out_dir / "steps.overlay.ppm",
         crgx.Image(blended))
    return step.total


def _evaluate_steps(probe, paths, arch, model_seed, method) -> float:
    """`crgx evaluate` rebuilt from public calls, without argument parsing
    or the JSON report; returns the summed call seconds."""
    step = _Steps(probe)
    images = [step("imgio.read_image", crgx.read_image, path) for path in paths]
    model = step("zoo.build_model", crgx.build_model, arch, 3, model_seed,
                 images[0].pixels.shape)
    step("metrics.evaluate_batch", crgx.evaluate_batch, model, images,
         crgx.UtilitySpec(0, "rest"), method)
    return step.total


def _cli(probe, m, model_seed, rng, workdir):
    """CLI overhead: `crgx.cli.main` wall time minus the same pipeline
    called step by step, as the median of interleaved pairs."""
    images = workdir / "sweep-cli"
    images.mkdir()
    for i in range(8):
        crgx.write_image(images / f"cli{i}.ppm", crgx.Image(rng.uniform(0.0, 1.0, (3, 64, 64))))
    paths = sorted(images.glob("*.ppm"))
    out = workdir / "sweep-cli-out"
    out.mkdir()
    seed = str(model_seed)
    explain_argv = ["explain", "--image", str(paths[0]), "--method", "shapleycam",
                    "--utility", "rest", "--arch", "cnn-smooth", "--seed", seed,
                    "--out-dir", str(out)]
    gaps = []
    for _ in range(9):
        main = probe.call("cli.main.explain", run_cli, explain_argv)[1]
        gaps.append(main - _explain_steps(probe, paths[0], "cnn-smooth", model_seed,
                                          "shapleycam", out))
    m["cli.explain_overhead_ms"] = statistics.median(gaps) * 1e3
    evaluate_argv = ["evaluate", "--images", str(images), "--method", "gradcam",
                     "--utility", "rest", "--arch", "cnn-smooth", "--seed", seed,
                     "--report", str(out / "report.json")]
    gaps = []
    for _ in range(5):
        main = probe.call("cli.main.evaluate", run_cli, evaluate_argv)[1]
        gaps.append(main - _evaluate_steps(probe, paths, "cnn-smooth", model_seed, "gradcam"))
    m["cli.evaluate_overhead_ms"] = statistics.median(gaps) * 1e3


def _suites(probe, m):
    """Each section of the three check suites at its default sizes, with two
    Monte Carlo estimator seeds."""
    for name in SUITE_SECTIONS:
        kwargs = {"n_seeds": 2} if name == "mc_check" else {}
        report, seconds = probe.call(f"suites.{name}", getattr(crgx.suites, name), **kwargs)
        probe.check(report is not None and report["pass"], f"suites.{name} does not pass")
        m[f"suites.{name}_s"] = seconds
    for name in ("hvp_suite", "theorem_suite"):
        report, seconds = probe.call(f"suites.{name}", getattr(crgx, name))
        probe.check(report is not None and report["pass"], f"suites.{name} does not pass")
        m[f"suites.{name}_s"] = seconds
