import json

import numpy as np
import pytest

from crgx.cam import CamMethod
from crgx.cli import main
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
    assert f"{argv[-1]}: must be at least 1, got {value}" in capsys.readouterr().err


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
def test_explain_out_of_range_class_exits_1(tmp_path, capsys, method):
    put_image(tmp_path / "c.ppm", 5)
    code = main(["explain", "--image", str(tmp_path / "c.ppm"), "--classes", "3",
                 "--class", "99", "--out-dir", str(tmp_path / "out"), "--method"] + method)
    assert code == 1
    assert capsys.readouterr().err == "error: target_class 99 out of range for 3 classes\n"
    assert not (tmp_path / "out").exists()


def test_explain_bad_alpha_writes_nothing(tmp_path, capsys):
    put_image(tmp_path / "a.ppm", 6)
    out = tmp_path / "out"
    out.mkdir()
    code = main(["explain", "--image", str(tmp_path / "a.ppm"), "--method", "gradcam",
                 "--alpha", "2", "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: alpha must lie in [0,1], got 2.0\n"
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


def test_shapley_verify_single_sample_exits_1_before_any_section(tmp_path, capsys,
                                                                 monkeypatch):
    # one permutation gives every stderr 0, and the sigma ratio would divide by it
    import crgx.suites as suites

    def no_work(*args):
        raise AssertionError("a section ran before the sample count was checked")

    for name in ("axiom_check", "quadratic_check", "linear_check", "spatial_check"):
        monkeypatch.setattr(suites, name, no_work)
    report_path = tmp_path / "sv.json"
    assert main(["shapley-verify", "--mc-samples", "1", "--report", str(report_path)]) == 1
    assert capsys.readouterr().err == (
        "error: one sample cannot estimate a standard error; "
        "the sampling check needs at least 2, got 1\n")
    assert not report_path.exists()


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
