import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import crgx
from crgx.cam import CAM_METHODS, CamMethod
from crgx.cli import _report_text, main
from crgx.imgio import Image, read_image, write_image
from crgx.zoo import build_model


def put_image(path, seed, shape=(3, 6, 6)):
    pixels = np.random.default_rng(seed).uniform(0.0, 1.0, shape)
    write_image(path, Image(pixels))
    return pixels


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["explain", "--image", "x.ppm", "--method", "gradcam", "--bogus"])
    assert err.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--images", "somewhere"])
    assert err.value.code == 2


def test_seedless_randomcam_exits_2(tmp_path):
    put_image(tmp_path / "a.ppm", 0)
    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--images", str(tmp_path), "--method", "randomcam"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["explain", "evaluate"])
def test_seedless_randomcam_exits_2_before_reading_a_file(tmp_path, monkeypatch, command):
    from crgx import cli

    for i in range(3):
        put_image(tmp_path / f"{i}.ppm", i)
    reads = []

    def counted(path):
        reads.append(path)
        return read_image(path)

    monkeypatch.setattr(cli, "read_image", counted)
    out = str(tmp_path / "out")
    argv = {"explain": ["explain", "--image", str(tmp_path / "0.ppm"), "--out-dir", out],
            "evaluate": ["evaluate", "--images", str(tmp_path), "--report", out]}[command]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--method", "randomcam"])
    assert err.value.code == 2
    assert reads == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["evaluate", "--images", ".", "--method", "gradcam", "--limit"],
    ["hvp-check", "--graphs"],
    ["theorem-check", "--seeds"],
    ["shapley-verify", "--mc-seeds"],
    ["shapley-verify", "--mc-samples"],
], ids=["limit", "graphs", "seeds", "mc-seeds", "mc-samples"])
def test_count_flag_below_one_exits_2(argv, value, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv + [value])
    assert err.value.code == 2
    floor = 2 if argv[-1] == "--mc-samples" else 1
    assert f"{argv[-1]}: must be at least {floor}, got {value}" in capsys.readouterr().err


def test_evaluate_and_explain_one_channel_pgms(tmp_path):
    img_dir = tmp_path / "gray"
    img_dir.mkdir()
    for name, step in (("a", 1), ("b", 3)):
        body = bytes((7 * i * step + 13 * (i // 16)) % 256 for i in range(256))
        (img_dir / f"{name}.pgm").write_bytes(b"P5\n16 16\n255\n" + body)
    report_path = tmp_path / "gray.json"
    assert main(["evaluate", "--images", str(img_dir), "--method", "gradcam",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["n_images"] == 2 and "n_failed" not in report
    out = tmp_path / "out"
    assert main(["explain", "--image", str(img_dir / "a.pgm"), "--method", "shapleycam",
                 "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "a.shapleycam.heatmap.ppm", "a.shapleycam.json", "a.shapleycam.overlay.ppm"]


def test_evaluate_empty_dir_exits_1(tmp_path, capsys):
    assert main(["evaluate", "--images", str(tmp_path),
                 "--method", "gradcam"]) == 1
    assert "no images" in capsys.readouterr().err


def test_explain_writes_three_files(tmp_path):
    put_image(tmp_path / "sample.ppm", 3)
    out = tmp_path / "out"
    code = main(["explain", "--image", str(tmp_path / "sample.ppm"),
                 "--method", "shapleycam", "--utility", "rest",
                 "--arch", "cnn-smooth", "--classes", "3", "--seed", "7",
                 "--out-dir", str(out)])
    assert code == 0
    heat = out / "sample.shapleycam.heatmap.ppm"
    over = out / "sample.shapleycam.overlay.ppm"
    side = out / "sample.shapleycam.json"
    assert heat.exists() and over.exists() and side.exists()

    for path in (heat, over):
        img = read_image(path)
        assert img.channels == 3
        assert (img.height, img.width) == (6, 6)

    meta = json.loads(side.read_text())
    assert meta["method"] == "shapleycam"
    assert meta["utility"] == "rest"
    assert meta["arch"] == "cnn-smooth"
    assert meta["spatial"] == [4, 4]
    assert len(meta["pre_relu"]) == 16


@pytest.mark.parametrize("method", [["gradcam"], ["randomcam", "--method-seed", "1"]],
                         ids=["gradcam", "randomcam"])
def test_explain_out_of_range_class_exits_2(tmp_path, monkeypatch, capsys, method):
    # whatever the method, the class is checked against --classes
    # before the image is read or the output directory made
    from crgx import cli

    put_image(tmp_path / "c.ppm", 5)
    reads = []
    monkeypatch.setattr(cli, "read_image", reads.append)
    with pytest.raises(SystemExit) as err:
        main(["explain", "--image", str(tmp_path / "c.ppm"), "--classes", "3",
              "--class", "99", "--out-dir", str(tmp_path / "out"), "--method"] + method)
    assert err.value.code == 2
    assert "argument --class: must be below --classes 3, got 99\n" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "out").exists()


def test_explain_unallocatable_class_count_exits_1(tmp_path, capsys):
    # 2^44 classes need a 640 TiB head; build_model refuses it
    # before drawing any weight
    put_image(tmp_path / "a.ppm", 6)
    code = main(["explain", "--image", str(tmp_path / "a.ppm"), "--method", "gradcam",
                 "--classes", str(2**44), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: cnn-smooth with 17592186044416 classes on in_shape (3, 6, 6) needs "
        "703687441777536 bytes of weights, more than the 1073741824 allowed\n")
    assert not (tmp_path / "out").exists()


def test_evaluate_oversized_model_exits_1(tmp_path, capsys):
    put_image(tmp_path / "a.ppm", 6)
    code = main(["evaluate", "--images", str(tmp_path), "--method", "gradcam",
                 "--arch", "mlp-smooth", "--classes", str(2**40)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: mlp-smooth with 1099511627776 classes")


@pytest.mark.parametrize("command, flag", [
    ("explain", "--seed"), ("explain", "--method-seed"), ("explain", "--class"),
    ("evaluate", "--seed"), ("evaluate", "--method-seed"), ("evaluate", "--class"),
    ("shapley-verify", "--seed"), ("hvp-check", "--seed"),
], ids=lambda v: v.lstrip("-"))
def test_negative_seed_or_class_exits_2(tmp_path, monkeypatch, capsys, command, flag):
    # the flag is named, before any file is read or any suite runs
    from crgx import cli

    put_image(tmp_path / "0.ppm", 0)
    reads = []
    monkeypatch.setattr(cli, "read_image", reads.append)
    for suite in ("shapley_suite", "hvp_suite"):
        monkeypatch.setattr(cli, suite, lambda **kwargs: reads.append(kwargs))
    method = ["--method", "randomcam" if flag == "--method-seed" else "gradcam"]
    argv = {"explain": ["explain", "--image", str(tmp_path / "0.ppm")] + method,
            "evaluate": ["evaluate", "--images", str(tmp_path)] + method}.get(command, [command])
    with pytest.raises(SystemExit) as err:
        main(argv + [flag, "-1"])
    assert err.value.code == 2
    assert f"argument {flag}: must be at least 0, got -1" in capsys.readouterr().err
    assert reads == []


@pytest.mark.parametrize("argv, message", [
    (["explain", "--classes", "1"], "--classes: must be at least 2, got 1"),
    (["evaluate", "--classes", "-3"], "--classes: must be at least 2, got -3"),
    (["explain", "--class", "3"], "--class: must be below --classes 3, got 3"),
    (["evaluate", "--classes", "4", "--class", "4"], "--class: must be below --classes 4, got 4"),
    (["explain", "--alpha", "nan"], "--alpha: must lie in [0,1], got nan"),
    (["shapley-verify", "--mc-samples", "1"], "--mc-samples: must be at least 2, got 1"),
], ids=["explain-classes", "evaluate-classes", "explain-class", "evaluate-class",
        "explain-alpha-nan", "shapley-verify-mc-samples"])
def test_bad_flag_exits_2_before_any_read(tmp_path, monkeypatch, capsys, argv, message):
    # a flag out of range, or out of range of another flag, is a usage
    # error: no file is read and no suite section runs
    from crgx import cli

    put_image(tmp_path / "0.ppm", 0)
    reads = []
    monkeypatch.setattr(cli, "read_image", reads.append)
    monkeypatch.setattr(cli, "shapley_suite", lambda **kwargs: reads.append(kwargs))
    where = {"explain": ["--image", str(tmp_path / "0.ppm"), "--method", "gradcam"],
             "evaluate": ["--images", str(tmp_path), "--method", "gradcam"]}
    with pytest.raises(SystemExit) as err:
        main(argv + where.get(argv[0], []))
    assert err.value.code == 2
    assert f"argument {message}\n" in capsys.readouterr().err
    assert reads == []


@pytest.mark.parametrize("argv, message", [
    (["explain", "--method", "gradcam", "--class", "3"],
     "argument --class: must be below --classes 3, got 3"),
    (["explain", "--method", "randomcam"], "randomcam needs --method-seed"),
    (["evaluate", "--method", "gradcam", "--classes", "4", "--class", "4"],
     "argument --class: must be below --classes 4, got 4"),
    (["evaluate", "--method", "randomcam"], "randomcam needs --method-seed"),
], ids=["explain-class", "explain-randomcam-seedless", "evaluate-class",
        "evaluate-randomcam-seedless"])
def test_cross_flag_usage_error_prints_the_subcommands_usage(tmp_path, capsys, argv, message):
    # a check between two flags reports like a check of one flag: the
    # subcommand's usage, then its own prog name
    put_image(tmp_path / "0.ppm", 0)
    where = {"explain": ["--image", str(tmp_path / "0.ppm")], "evaluate": ["--images", str(tmp_path)]}
    with pytest.raises(SystemExit) as err:
        main(argv + where[argv[0]])
    assert err.value.code == 2
    text = capsys.readouterr().err
    assert text.startswith(f"usage: crgx {argv[0]} [-h] ")
    assert text.endswith(f"\ncrgx {argv[0]}: error: {message}\n")


def test_explain_bad_alpha_writes_nothing(tmp_path, capsys):
    put_image(tmp_path / "a.ppm", 6)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(SystemExit) as err:
        main(["explain", "--image", str(tmp_path / "a.ppm"), "--method", "gradcam",
              "--alpha", "2", "--out-dir", str(out)])
    assert err.value.code == 2
    assert "argument --alpha: must lie in [0,1], got 2.0\n" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_explain_default_class_is_argmax(tmp_path):
    pixels = put_image(tmp_path / "pick.ppm", 11)
    assert main(["explain", "--image", str(tmp_path / "pick.ppm"),
                 "--method", "gradcam", "--arch", "cnn-smooth",
                 "--classes", "5", "--seed", "2"]) == 0
    meta = json.loads((tmp_path / "pick.gradcam.json").read_text())
    model = build_model("cnn-smooth", num_classes=5, seed=2)
    assert meta["target_class"] == int(np.argmax(model.forward(pixels)))


def test_explain_outputs_are_deterministic(tmp_path):
    put_image(tmp_path / "s.ppm", 4)
    blobs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main(["explain", "--image", str(tmp_path / "s.ppm"),
                     "--method", "randomcam", "--method-seed", "13",
                     "--seed", "1", "--out-dir", str(out)]) == 0
        blobs.append(tuple((out / f"s.randomcam.{kind}").read_bytes()
                           for kind in ("heatmap.ppm", "overlay.ppm", "json")))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("arch", ["cnn-relu", "cnn-smooth", "mlp-smooth"])
@pytest.mark.parametrize("utility", ["pre-softmax", "post-softmax", "log-softmax", "rest"])
def test_explain_sidecar_is_a_json_dumps_fixed_point(tmp_path, arch, utility):
    put_image(tmp_path / "s.ppm", 64, shape=(3, 64, 64))
    for method in CAM_METHODS:
        extra = ["--method-seed", "5"] if method == "randomcam" else []
        assert main(["explain", "--image", str(tmp_path / "s.ppm"), "--method", method,
                     "--arch", arch, "--utility", utility, "--seed", "2",
                     "--out-dir", str(tmp_path)] + extra) == 0
        text = (tmp_path / f"s.{method}.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_evaluate_report_and_csv(tmp_path):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for i in range(3):
        put_image(img_dir / f"img{i}.ppm", 20 + i)
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main(["evaluate", "--images", str(img_dir), "--method", "gradcam",
                 "--utility", "post-softmax", "--arch", "cnn-smooth",
                 "--seed", "7", "--report", str(report_path),
                 "--csv", str(csv_path)])
    assert code == 0

    report = json.loads(report_path.read_text())
    assert sorted(report) == ["ad", "adcc", "add", "arch", "coherency",
                              "complexity", "ic", "method", "n_images",
                              "utility"]
    assert report["n_images"] == 3
    assert report["method"] == "gradcam"

    header, row = csv_path.read_text().splitlines()
    assert header.split(",")[:4] == ["method", "utility", "arch", "n_images"]
    cells = row.split(",")
    assert cells[0] == "gradcam"
    assert float(cells[4]) == report["ad"]
    assert float(cells[7]) == report["adcc"]


def test_csv_columns_are_the_report_keys_without_n_failed(tmp_path):
    from crgx.metrics import evaluate_batch
    from crgx.utility import UtilitySpec

    for i, (name, size) in enumerate((("a", 8), ("b", 8), ("c", 6))):
        put_image(tmp_path / f"{name}.ppm", i, (3, size, size))
    images = [read_image(tmp_path / f"{name}.ppm") for name in "abc"]
    csv_path = tmp_path / "out.csv"
    assert main(["evaluate", "--images", str(tmp_path), "--method", "gradcam",
                 "--report", str(tmp_path / "out.json"), "--csv", str(csv_path)]) == 0
    report = evaluate_batch(build_model("cnn-smooth", 3, 0, (3, 8, 8)), images,
                            UtilitySpec(0, "rest"), "gradcam").to_report()
    assert report["n_failed"] == 1
    header, row = csv_path.read_text().splitlines()
    assert header.split(",") == [k for k in report if k != "n_failed"]
    assert row.split(",")[:4] == ["gradcam", "rest", "cnn-smooth", "2"]
    assert row.split(",")[4:] == [f"{report[k]:.4f}" for k in header.split(",")[4:]]


def test_main_reuses_one_parser(tmp_path, capsys):
    # usage error, evaluate, --help, explain and evaluate in one process
    from crgx import cli

    cli.build_parser.cache_clear()
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for i in range(3):
        put_image(img_dir / f"img{i}.ppm", 30 + i)
    evaluate = ["evaluate", "--images", str(img_dir), "--method", "shapleycam",
                "--arch", "mlp-smooth", "--report"]

    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--images", str(img_dir)])
    assert err.value.code == 2
    assert main(evaluate + [str(tmp_path / "r1.json")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out == cli.build_parser.__wrapped__().format_help()
    assert main(["explain", "--image", str(img_dir / "img0.ppm"), "--method", "gradcam",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert main(evaluate + [str(tmp_path / "r2.json")]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser.cache_info().hits == 4
    assert cli.build_parser() is cli.build_parser()


def test_evaluate_names_each_skipped_image(tmp_path, capsys):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    put_image(img_dir / "a.ppm", 50)
    put_image(img_dir / "b.ppm", 51, shape=(3, 7, 6))
    put_image(img_dir / "c.ppm", 52)
    (img_dir / "d.pgm").write_bytes(b"P5\n6 6\n255\n" + bytes(range(36)))
    report_path = tmp_path / "r.json"
    assert main(["evaluate", "--images", str(img_dir), "--method", "gradcam",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["n_images"] == 2 and report["n_failed"] == 2
    assert capsys.readouterr().err == (
        f"skipped {img_dir / 'b.ppm'}: image shape (3, 7, 6) does not match "
        "model input (3, 6, 6)\n"
        f"skipped {img_dir / 'd.pgm'}: image shape (1, 6, 6) does not match "
        "model input (3, 6, 6)\n")


@pytest.mark.parametrize("method", [
    ["gradcam"], ["shapleycam"], ["randomcam", "--method-seed", "3"],
], ids=["gradcam", "shapleycam", "randomcam"])
@pytest.mark.parametrize("arch", ["cnn-relu", "cnn-smooth", "mlp-smooth"])
def test_evaluate_skips_the_odd_shape_on_every_arch(tmp_path, capsys, arch, method):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for i, (name, size) in enumerate((("a", 16), ("b", 16), ("c", 8))):
        put_image(img_dir / f"{name}.ppm", 80 + i, shape=(3, size, size))
    report_path = tmp_path / "r.json"
    assert main(["evaluate", "--images", str(img_dir), "--arch", arch,
                 "--report", str(report_path), "--method"] + method) == 0
    report = json.loads(report_path.read_text())
    assert report["n_images"] == 2 and report["n_failed"] == 1
    assert capsys.readouterr().err == (
        f"skipped {img_dir / 'c.ppm'}: image shape (3, 8, 8) does not match "
        "model input (3, 16, 16)\n")


def test_malformed_image_error_names_the_file(tmp_path, capsys):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    put_image(img_dir / "a.ppm", 53)
    bad = img_dir / "b.ppm"
    bad.write_bytes(b"P6\n16 16\n255\n" + bytes(10))
    report_path = tmp_path / "r.json"
    reason = "malformed image file at byte 23: pixel payload truncated: expected 768 bytes, got 10"
    assert main(["evaluate", "--images", str(img_dir), "--method", "gradcam",
                 "--report", str(report_path)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
    assert not report_path.exists()
    assert main(["explain", "--image", str(bad), "--method", "gradcam",
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_builds_the_model_for_the_majority_shape(tmp_path, capsys):
    # one odd image sorts first; the three 6x6 images decide the model
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    put_image(img_dir / "a.ppm", 60, shape=(3, 7, 6))
    for i, name in enumerate(("b.ppm", "c.ppm", "d.ppm")):
        put_image(img_dir / name, 61 + i)
    report_path = tmp_path / "r.json"
    assert main(["evaluate", "--images", str(img_dir), "--method", "gradcam",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["n_images"] == 3 and report["n_failed"] == 1
    assert capsys.readouterr().err == (
        f"skipped {img_dir / 'a.ppm'}: image shape (3, 7, 6) does not match "
        "model input (3, 6, 6)\n")


def test_evaluate_shape_tie_goes_to_the_first_name(tmp_path, capsys):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    put_image(img_dir / "a.ppm", 70, shape=(3, 7, 6))
    put_image(img_dir / "b.ppm", 71)
    report_path = tmp_path / "r.json"
    assert main(["evaluate", "--images", str(img_dir), "--method", "gradcam",
                 "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["n_images"] == 1
    assert capsys.readouterr().err == (
        f"skipped {img_dir / 'b.ppm'}: image shape (3, 6, 6) does not match "
        "model input (3, 7, 6)\n")


def test_evaluate_limit_flag(tmp_path):
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for i in range(5):
        put_image(img_dir / f"img{i}.ppm", 40 + i)
    report_path = tmp_path / "r.json"
    assert main(["evaluate", "--images", str(img_dir), "--method", "gradcam",
                 "--limit", "2", "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["n_images"] == 2


def test_suite_reports_are_byte_identical(tmp_path):
    paths = [tmp_path / name for name in ("h1.json", "h2.json")]
    for path in paths:
        assert main(["hvp-check", "--graphs", "15",
                     "--report", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    report = json.loads(paths[0].read_text())
    assert report["pass"] is True
    assert report["n_graphs"] == 15


def test_shapley_verify_fast_variant(tmp_path):
    report_path = tmp_path / "sv.json"
    assert main(["shapley-verify", "--mc-seeds", "2", "--mc-samples", "4000",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["pass"] is True
    assert report["mc"]["samples"] == 4000


def test_theorem_check_exit_0(tmp_path, capsys):
    report_path = tmp_path / "thm.json"
    assert main(["theorem-check", "--seeds", "1",
                 "--report", str(report_path)]) == 0
    assert "theorem-check: PASS" in capsys.readouterr().err
    assert json.loads(report_path.read_text())["pass"] is True


def test_report_goes_to_stdout_without_flag(capsys):
    assert main(["hvp-check", "--graphs", "3"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["suite"] == "hvp-check"


def test_bad_image_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "broken.ppm"
    bad.write_bytes(b"P6\n4 4\n255\nshort")
    code = main(["explain", "--image", str(bad), "--method", "gradcam"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_explain_and_evaluate_build_no_tape(tmp_path, monkeypatch):
    # derivatives on these paths are closed forms; any tape is a regression
    from crgx import autodiff as ad
    from crgx.cam import explain, explain_batch
    from crgx.metrics import evaluate_batch
    from crgx.utility import UtilitySpec
    from crgx.zoo import ToyModel

    def no_tape(self):
        raise RuntimeError("a tape was built")

    monkeypatch.setattr(ad.Tape, "__init__", no_tape)
    counted = []
    tap_stack = ToyModel._tap_stack

    def counting(self, images):
        counted.append(len(images))
        return tap_stack(self, images)

    monkeypatch.setattr(ToyModel, "_tap_stack", counting)

    model = build_model("cnn-smooth", num_classes=3, seed=1)
    with pytest.raises(RuntimeError, match="tape"):
        model.forward_with_tap(np.zeros(model.in_shape))
    images = [np.random.default_rng(s).uniform(0.0, 1.0, model.in_shape) for s in range(4)]
    spec = UtilitySpec(0, "rest")
    counted.clear()
    explain(model, images[0], spec, "shapleycam")
    assert counted == [1]
    stacks = tap_stack(model, np.stack(images))
    assert len(explain_batch(model, stacks, spec, "shapleycam-e")) == 4
    for method in ("gradcam", "shapleycam", CamMethod("randomcam", seed=3)):
        counted.clear()
        assert evaluate_batch(model, images, spec, method).n_images == 4
        assert sum(counted) == 3 * len(images)

    put_image(tmp_path / "s.ppm", 5)
    for extra in ([], ["--class", "2"]):
        counted.clear()
        assert main(["explain", "--image", str(tmp_path / "s.ppm"), "--method", "shapleycam",
                     "--out-dir", str(tmp_path / "out")] + extra) == 0
        assert sum(counted) == 1


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_LEAVES = st.none() | st.booleans() | st.integers() | _FLOATS | st.text()
_VALUES = st.recursive(
    _LEAVES | st.lists(_FLOATS) | st.lists(_FLOATS).map(tuple),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=40)


@given(_VALUES)
@example({"a\"\\\n\u00e9": [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e-300],
          "b": {}, "c": [], "d": (), "e": [True, None, 3, 2.5, "x"], "f": [[1.5], {"g": -0.0}]})
@example([float("nan")])
def test_report_text_is_json_dumps_with_sorted_keys(value):
    assert _report_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def builds(monkeypatch):
    """An empty model cache, and the (arch, seed) of every model the CLI
    builds."""
    from crgx import cli

    built = []

    def counting(arch, num_classes, seed, in_shape):
        built.append((arch, seed))
        return build_model(arch, num_classes=num_classes, seed=seed, in_shape=in_shape)

    monkeypatch.setattr(cli, "build_model", counting)
    monkeypatch.setattr(cli, "_MODELS", type(cli._MODELS)())
    return built


def test_explain_twice_builds_the_model_once(tmp_path, builds):
    put_image(tmp_path / "s.ppm", 9)
    argv = ["explain", "--image", str(tmp_path / "s.ppm"), "--method", "shapleycam",
            "--arch", "mlp-smooth", "--seed", "4"]
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    assert builds == [("mlp-smooth", 4)]
    for name in ("s.shapleycam.heatmap.ppm", "s.shapleycam.overlay.ppm", "s.shapleycam.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_model_cache_keeps_the_two_last_used(builds):
    from crgx import cli

    for seed in (1, 2, 1, 3, 1, 2):  # the hit on 1 leaves 2 the least recently used
        cli._model("cnn-smooth", 3, seed, (3, 6, 6))
    assert builds == [("cnn-smooth", 1), ("cnn-smooth", 2), ("cnn-smooth", 3),
                      ("cnn-smooth", 2)]
    assert len(cli._MODELS) == 2


@pytest.mark.parametrize("arch", ["cnn-relu", "cnn-smooth", "mlp-smooth"])
def test_cached_weights_are_read_only_copies_of_build_model(builds, arch):
    from crgx import cli

    cached = cli._model(arch, 3, 5, (3, 8, 8))
    fresh = build_model(arch, num_classes=3, seed=5, in_shape=(3, 8, 8))
    assert cached.weights.keys() == fresh.weights.keys()
    for name, weight in cached.weights.items():
        assert not weight.flags.writeable
        assert np.array_equal(weight, fresh.weights[name])
        assert fresh.weights[name].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weight[...] = 0.0
    assert cli._model(arch, 3, 5, (3, 8, 8)) is cached


def test_main_raises_the_malloc_thresholds_once_per_process(tmp_path, request):
    from crgx import cli

    cli._raise_malloc_thresholds.cache_clear()
    request.addfinalizer(cli._raise_malloc_thresholds.cache_clear)
    put_image(tmp_path / "s.ppm", 10)
    for _ in range(2):
        assert main(["explain", "--image", str(tmp_path / "s.ppm"), "--method", "gradcam",
                     "--out-dir", str(tmp_path / "out")]) == 0
    info = cli._raise_malloc_thresholds.cache_info()
    assert (info.misses, info.hits) == (1, 1)


_REPEATS = """\
import resource, sys
from crgx.cli import main

def faults(run):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

def evaluate():
    assert main(sys.argv[1:]) == 0

def churn():
    bytearray(10 << 20)  # zero-filled, so a fresh mapping faults in every page

evaluate(), evaluate()
repeat = faults(evaluate)
churn(), churn()  # the first is a mapping of its own, the second grows the heap
print(repeat, faults(churn))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap reuse")
def test_repeats_fault_in_no_fresh_memory(tmp_path):
    # A fresh process, so no earlier allocation has moved glibc's thresholds.
    # Left at their start values, each repeat of this evaluate faults 470
    # to 720 pages in again. Fixed by `mallopt`, they would stay at 4 MiB, and
    # every 10 MiB buffer (a 224x224 image's im2col chunk is one) would be
    # mapped afresh: 2,560 faults each time.
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for i in range(4):
        put_image(img_dir / f"img{i}.ppm", 90 + i, shape=(3, 64, 64))
    argv = ["evaluate", "--images", str(img_dir), "--method", "gradcam",
            "--arch", "cnn-smooth", "--report", str(tmp_path / "r.json")]
    src = str(Path(crgx.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", _REPEATS, *argv], env={"PYTHONPATH": src},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    evaluate_faults, churn_faults = map(int, result.stdout.split())
    assert evaluate_faults < 50
    assert churn_faults < 50
