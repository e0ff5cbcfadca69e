"""Command line surface: explain single images, evaluate batches, and run
the verification suites.

All outputs are byte-deterministic for fixed inputs and seeds: reports carry
no timestamps, and every random draw is derived from explicit seed flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter, OrderedDict
from pathlib import Path

import numpy as np

from ._floatrepr import float_texts
from .cam import CAM_METHODS, CamMethod, explain_batch
from .imgio import Image, read_image, write_image
from .metrics import evaluate_batch
from .postprocess import _blend, apply_colormap, normalize_minmax, upsample_bilinear
from .suites import hvp_suite, shapley_suite, theorem_suite
from .utility import UTILITY_KINDS, UtilitySpec
from .zoo import ARCHS, TAP_LAYER, ToyModel, build_model


def _report_text(report) -> str:
    """`json.dumps(report, indent=2, sort_keys=True)` plus a newline, with
    a top-level 1-D float64 array written as its list would be: json
    writes a placeholder string in its place, which holds NUL and so is no
    report string, and the list's text replaces it, its elements from
    `_floatrepr.float_texts` in one call."""
    arrays = {}
    if isinstance(report, dict):
        arrays = {key: value for key, value in report.items() if isinstance(value, np.ndarray)
                  and value.ndim == 1 and value.dtype == np.float64}
        report = {**report, **{key: f"\0{key}\0" for key in arrays}}
    text = json.dumps(report, indent=2, sort_keys=True)
    for key, values in arrays.items():
        listed = "[\n    " + ",\n    ".join(float_texts(values)) + "\n  ]" if values.size else "[]"
        text = text.replace(json.dumps(f"\0{key}\0"), listed, 1)
    return text + "\n"


def _emit_report(report: dict, path) -> None:
    text = _report_text(report)
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def positive_int(text: str) -> int:
    """argparse type of a count flag: 0 or less is a usage error."""
    return non_negative_int(text, floor=1)


def two_or_more(text: str) -> int:
    """argparse type of --classes and --mc-samples: below 2 is a usage error."""
    return non_negative_int(text, floor=2)


def non_negative_int(text: str, floor: int = 0) -> int:
    """argparse type of a seed or class flag: below `floor` is a usage error."""
    value = int(text)
    if value < floor:
        raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
    return value


def unit_interval(text: str) -> float:
    """argparse type of --alpha: a value outside [0, 1] is a usage error."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0,1], got {value}")
    return value


def _resolve_method(parser: argparse.ArgumentParser, args):
    """The CamMethod of explain's or evaluate's flags, once the flags that
    depend on each other are checked."""
    if args.target_class is not None and args.target_class >= args.classes:
        parser.error(f"argument --class: must be below --classes {args.classes}, "
                     f"got {args.target_class}")
    if args.method == "randomcam":
        if args.method_seed is None:
            parser.error("randomcam needs --method-seed")
        return CamMethod("randomcam", seed=args.method_seed)
    return CamMethod(args.method)


_MODELS: OrderedDict[tuple, ToyModel] = OrderedDict()  # least recently used first


def _model(arch: str, classes: int, seed: int, in_shape) -> ToyModel:
    """`build_model(arch, classes, seed, in_shape)` for `explain` and
    `evaluate`, kept for the rest of the process with read-only weights.

    The last two models asked for are reused, which covers a caller that
    alternates two architectures. A third evicts the least recently used
    one before it is drawn, so at worst 2 x `zoo._MAX_WEIGHT_BYTES` of
    weights stay alive. Every later call shares a cached model, so its
    weights must not change; `build_model` itself stays uncached, and
    library callers that scale weights in place get fresh, writable ones.
    """
    key = (arch, classes, seed, tuple(in_shape))
    model = _MODELS.pop(key, None)
    if model is None:
        if len(_MODELS) == 2:
            _MODELS.popitem(last=False)
        model = build_model(arch, num_classes=classes, seed=seed, in_shape=in_shape)
        for weight in model.weights.values():
            weight.flags.writeable = False
    _MODELS[key] = model
    return model


def _cmd_explain(parser: argparse.ArgumentParser, args) -> int:
    method = _resolve_method(parser, args)  # a usage error ends the run before any file is read
    image = read_image(args.image)
    model = _model(args.arch, args.classes, args.seed, image.pixels.shape)
    stack = model._tap_stack(image.pixels[None])
    target = (int(np.argmax(model.head_batch(stack)[0])) if args.target_class is None
              else args.target_class)
    spec = UtilitySpec(target, args.utility)
    heatmap = explain_batch(model, stack, spec, method)[0]
    grid = normalize_minmax(heatmap.grid("post"))
    upsampled = upsample_bilinear(grid, image.height, image.width)

    stem = Path(args.image).stem
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.image).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    heat_path = out_dir / f"{stem}.{method.name}.heatmap.ppm"
    over_path = out_dir / f"{stem}.{method.name}.overlay.ppm"
    json_path = out_dir / f"{stem}.{method.name}.json"

    colored = apply_colormap(upsampled)
    write_image(heat_path, Image(colored))
    write_image(over_path, Image(_blend(image.pixels, colored, args.alpha)))
    sidecar = {
        "image": Path(args.image).name,
        "arch": model.arch,
        "classes": model.num_classes,
        "model_seed": args.seed,
        "method": method.name,
        "method_seed": args.method_seed,
        "utility": heatmap.utility,
        "target_class": heatmap.target_class,
        "tap": TAP_LAYER,
        "spatial": list(heatmap.spatial),
        "alpha": args.alpha,
        "pre_relu": heatmap.pre_relu,
        "outputs": {"heatmap": heat_path.name, "overlay": over_path.name},
    }
    json_path.write_text(_report_text(sidecar))
    sys.stderr.write(f"wrote {heat_path} {over_path} {json_path}\n")
    return 0


def _cmd_evaluate(parser: argparse.ArgumentParser, args) -> int:
    method = _resolve_method(parser, args)  # a usage error ends the run before any file is read
    image_dir = Path(args.images)
    paths = sorted(p for p in image_dir.glob("*")
                   if p.suffix.lower() in (".ppm", ".pgm"))
    if args.limit is not None:
        paths = paths[:args.limit]
    if not paths:
        sys.stderr.write(f"no images found in {image_dir}\n")
        return 1
    images = [read_image(p) for p in paths]
    # the most common shape; Counter breaks ties by first appearance, i.e. name order
    in_shape = Counter(img.pixels.shape for img in images).most_common(1)[0][0]

    model = _model(args.arch, args.classes, args.seed, in_shape)
    spec = UtilitySpec(args.target_class, args.utility)
    record = evaluate_batch(model, images, spec, method)

    report = record.to_report()
    _emit_report(report, args.report)
    if args.csv is not None:
        columns = {k: v for k, v in report.items() if k != "n_failed"}
        row = [f"{v:.4f}" if isinstance(v, float) else str(v) for v in columns.values()]
        Path(args.csv).write_text(",".join(columns) + "\n" + ",".join(row) + "\n")
    for index, reason in record.skipped:
        sys.stderr.write(f"skipped {paths[index]}: {reason}\n")
    return 0


def _run_suite(report: dict, path) -> int:
    _emit_report(report, path)
    status = "PASS" if report["pass"] else "FAIL"
    sys.stderr.write(f"{report['suite']}: {status}\n")
    return 0 if report["pass"] else 1


def _cmd_shapley_verify(parser: argparse.ArgumentParser, args) -> int:
    report = shapley_suite(seed=args.seed, mc_seeds=args.mc_seeds,
                           mc_samples=args.mc_samples)
    return _run_suite(report, args.report)


def _cmd_hvp_check(parser: argparse.ArgumentParser, args) -> int:
    return _run_suite(hvp_suite(seed=args.seed, graphs=args.graphs), args.report)


def _cmd_theorem_check(parser: argparse.ArgumentParser, args) -> int:
    return _run_suite(theorem_suite(seeds=args.seeds), args.report)


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--method", required=True, choices=CAM_METHODS)
    sub.add_argument("--utility", default="rest", choices=UTILITY_KINDS)
    sub.add_argument("--arch", default="cnn-smooth", choices=ARCHS)
    sub.add_argument("--classes", type=two_or_more, default=3,
                     help="number of output classes (default 3)")
    sub.add_argument("--seed", type=non_negative_int, default=0,
                     help="model weight seed (default 0)")
    sub.add_argument("--method-seed", type=non_negative_int, default=None,
                     help="map-coefficient seed, required for randomcam")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crgx",
        description="Gradient and Shapley heatmaps for small bundled models, "
                    "with metric evaluation and verification suites.")
    commands = parser.add_subparsers(dest="command", required=True)

    explain_cmd = commands.add_parser(
        "explain", help="write heatmap, overlay, and JSON sidecar for one image")
    explain_cmd.add_argument("--image", required=True, help="PPM/PGM input file")
    _add_model_flags(explain_cmd)
    explain_cmd.add_argument("--class", dest="target_class", type=non_negative_int,
                             help="target class (default: predicted class)")
    explain_cmd.add_argument("--alpha", type=unit_interval, default=0.35,
                             help="overlay blend weight (default 0.35)")
    explain_cmd.add_argument("--out-dir", default=None,
                             help="output directory (default: next to the image)")
    explain_cmd.set_defaults(handler=_cmd_explain)

    evaluate_cmd = commands.add_parser(
        "evaluate", help="run heatmap quality metrics over a directory of images")
    evaluate_cmd.add_argument("--images", required=True,
                              help="directory of PPM/PGM files")
    _add_model_flags(evaluate_cmd)
    evaluate_cmd.add_argument("--class", dest="target_class", type=non_negative_int, default=0,
                              help="target class for every image (default 0)")
    evaluate_cmd.add_argument("--limit", type=positive_int, default=None,
                              help="use only the first N images")
    evaluate_cmd.add_argument("--report", default=None,
                              help="write the JSON report here (default stdout)")
    evaluate_cmd.add_argument("--csv", default=None,
                              help="also write a one-row CSV summary")
    evaluate_cmd.set_defaults(handler=_cmd_evaluate)

    shapley_cmd = commands.add_parser(
        "shapley-verify", help="exact/approximate attribution checks")
    shapley_cmd.add_argument("--seed", type=non_negative_int, default=2024)
    shapley_cmd.add_argument("--mc-seeds", type=positive_int, default=10,
                             help="estimator seeds for the sampling check")
    shapley_cmd.add_argument("--mc-samples", type=two_or_more, default=50000,
                             help="permutations per estimator seed")
    shapley_cmd.add_argument("--report", default=None)
    shapley_cmd.set_defaults(handler=_cmd_shapley_verify)

    hvp_cmd = commands.add_parser(
        "hvp-check", help="curvature products against finite differences")
    hvp_cmd.add_argument("--seed", type=non_negative_int, default=77)
    hvp_cmd.add_argument("--graphs", type=positive_int, default=100)
    hvp_cmd.add_argument("--report", default=None)
    hvp_cmd.set_defaults(handler=_cmd_hvp_check)

    theorem_cmd = commands.add_parser(
        "theorem-check", help="ensemble, residual, probe, and collapse identities")
    theorem_cmd.add_argument("--seeds", type=positive_int, default=5,
                             help="model seeds per configuration (default 5)")
    theorem_cmd.add_argument("--report", default=None)
    theorem_cmd.set_defaults(handler=_cmd_theorem_check)

    for command in commands.choices.values():
        command.set_defaults(parser=command)  # usage errors print the subcommand's usage
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use and kept for the process:
    parse_args leaves a parser unchanged, and building one costs more than
    most commands' own work on small inputs."""
    return build_parser()


# glibc serves a block at or above its mmap threshold (128 KiB at start)
# with a fresh mapping and unmaps it on free; freeing one larger than the
# threshold (up to 32 MiB) raises the threshold to its size and the heap
# trim threshold to twice that. Until then, a call's freed working set goes
# back to the kernel and the next call faults it in again page by page.
# Freeing one 4 MiB block first moves both thresholds above a 64x64 CNN
# call's working set (the 830 KB im2col buffer, tap outputs of up to 983 KB,
# 786 KB of masked images). The rule stays live, so a larger buffer (a
# 224x224 image's 10.6 MB im2col chunk) raises them again on its first
# free; `mallopt` would switch the rule off for the whole process.
_MALLOC_PRIME_BYTES = 4 << 20


@functools.cache
def _raise_malloc_thresholds() -> None:
    """Allocate and free one `_MALLOC_PRIME_BYTES` block, once per process.
    `np.empty` writes no page; without glibc it is a spare allocation."""
    np.empty(_MALLOC_PRIME_BYTES, np.uint8)


def main(argv=None) -> int:
    _raise_malloc_thresholds()
    args = _parser().parse_args(argv)
    try:
        return args.handler(args.parser, args)
    except (ValueError, OSError, MemoryError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
