"""Metric arithmetic and the batch evaluation protocol."""

import json

import numpy as np
import pytest

from crgx.cam import CAM_METHODS, CamMethod, Heatmap, explain, explain_batch
from crgx.imgio import Image
from crgx.metrics import (
    MetricRecord,
    _drops,
    _increases,
    _per_image_method,
    _target_scores,
    adcc,
    coherency,
    complexity,
    evaluate_batch,
    explanation_map,
)
from crgx.postprocess import normalize_minmax, upsample_bilinear
from crgx.utility import UTILITY_KINDS, UtilitySpec
from crgx.zoo import ARCHS, ToyModel, build_model


def make_images(n, seed=0, shape=(3, 6, 6)):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.0, 1.0, shape) for _ in range(n)]


# ------------------------------------------------------------------ masking

def test_explanation_map_hand_values():
    x = np.array([[[2.0, 4.0]]])
    h = np.array([[0.5, 1.0]])
    assert np.array_equal(explanation_map(x, h), [[[1.0, 4.0]]])
    assert np.array_equal(explanation_map(x, 1.0 - h), [[[1.0, 0.0]]])


def test_masks_partition_the_image():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (3, 5, 4))
    h = rng.uniform(0, 1, (5, 4))
    total = explanation_map(x, h) + explanation_map(x, 1.0 - h)
    assert np.max(np.abs(total - x)) <= 1e-15
    assert np.array_equal(explanation_map(x, np.ones((5, 4))), x)
    assert np.array_equal(explanation_map(x, np.zeros((5, 4))), np.zeros_like(x))
    assert np.array_equal(explanation_map(x, 1.0 - np.ones((5, 4))), np.zeros_like(x))


def test_mask_resolution_checked():
    with pytest.raises(ValueError, match="resolution"):
        explanation_map(np.zeros((3, 4, 4)), np.zeros((3, 3)))


def test_stacked_masks_match_per_image_bit_for_bit():
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 1.0, (4, 1, 3, 5, 6))
    h = rng.uniform(0.0, 1.0, (4, 2, 5, 6))
    for masks in (h, 1.0 - h):  # explanation and anti-explanation maps
        got = explanation_map(x, masks)
        assert got.shape == (4, 2, 3, 5, 6)
        for i in range(4):
            for k in range(2):
                assert got[i, k].tobytes() == explanation_map(x[i, 0], masks[i, k]).tobytes()
        flat = explanation_map(x[:, 0], masks[:, 1])
        assert all(flat[i].tobytes() == explanation_map(x[i, 0], masks[i, 1]).tobytes()
                   for i in range(4))
    with pytest.raises(ValueError, match="resolution"):
        explanation_map(x, h[..., :5])


# ------------------------------------------------------------- scalar metrics

def mean_term(term, y, o):
    """A batch score as MetricRecord takes it: the mean of the per-image
    terms of the full-image confidences `y` and the masked ones `o`."""
    return float(np.mean(term(np.array(y), np.array(o))))


def test_average_drop_examples():
    # the AD term on the explanation map
    assert mean_term(_drops, [0.8], [0.6]) == pytest.approx(0.25, abs=1e-15)
    assert mean_term(_drops, [0.5, 0.8], [0.7, 0.9]) == 0.0
    assert mean_term(_drops, [0.5, 0.8], [0.7, 0.4]) == pytest.approx(0.25, abs=1e-15)


def test_increase_confidence_is_strict():
    assert mean_term(_increases, [0.5, 0.8], [0.7, 0.4]) == 0.5
    assert mean_term(_increases, [0.5], [0.5]) == 0.0
    assert mean_term(_increases, [0.1, 0.2], [0.3, 0.4]) == 1.0


def test_average_drop_deletion_examples():
    # the ADD term: the same drop, on the anti-explanation map
    assert mean_term(_drops, [0.8], [0.2]) == pytest.approx(0.75, abs=1e-15)
    assert mean_term(_drops, [0.8], [0.9]) == 0.0
    assert mean_term(_drops, [0.4], [0.0]) == 1.0


def test_coherency_cases():
    h = np.array([[0.0, 0.5], [1.0, 0.25]])
    assert coherency(h, h) == 1.0
    assert coherency(h, 1.0 - h) == pytest.approx(0.0, abs=1e-15)
    assert coherency(h, np.full((2, 2), 0.3)) == 0.5
    assert coherency(np.zeros((2, 2)), np.zeros((2, 2))) == 0.5
    with pytest.raises(ValueError, match="differ"):
        coherency(h, np.zeros((3, 2)))


def test_complexity_cases():
    assert complexity(np.zeros((3, 3))) == 0.0
    assert complexity(np.ones((3, 3))) == 1.0
    assert complexity([0.0, 0.5, 1.0, 0.5]) == 0.5


def test_adcc_cases():
    assert adcc(0.0, 1.0, 0.0) == 1.0
    assert adcc(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
    fake = adcc(0.0, 1.0, 0.99)
    assert fake == pytest.approx(3.0 / 102.0, abs=1e-15)
    assert fake == pytest.approx(0.02941, abs=5e-6)
    assert adcc(1.0, 0.5, 0.5) == 0.0
    assert adcc(0.5, 0.0, 0.5) == 0.0
    assert adcc(0.5, 0.5, 1.0) == 0.0
    with pytest.raises(ValueError, match="coh"):
        adcc(0.5, 1.5, 0.5)


def test_adcc_takes_numpy_and_integer_terms():
    assert adcc(np.float64(0.5), np.float32(0.5), 0) == adcc(0.5, 0.5, 0.0)


def test_adcc_sandwiched_by_worst_term():
    rng = np.random.default_rng(2)
    for _ in range(50):
        ad_v, coh_v, com_v = rng.uniform(0.01, 0.99, 3)
        worst = min(coh_v, 1.0 - com_v, 1.0 - ad_v)
        value = adcc(ad_v, coh_v, com_v)
        assert worst - 1e-12 <= value <= 3.0 * worst + 1e-12


# ------------------------------------------------------------ batch protocol

def fixed_heatmap_method(grid):
    """Stand-in CAM that returns the same full-resolution map regardless
    of the image it is shown."""
    grid = np.asarray(grid, dtype=np.float64)

    def method(model, pixels, spec):
        flat = grid.ravel()
        return Heatmap(pre_relu=flat, spatial=grid.shape, method="fixed")

    method.cam_name = "fixed"
    return method


def test_identity_standin_gives_perfect_scores():
    # the mask is 1 everywhere except one pixel that is already black, so
    # the explanation map reproduces the image bit for bit
    model = build_model("cnn-smooth", num_classes=3, seed=0)
    rng = np.random.default_rng(3)
    images = []
    for _ in range(4):
        x = rng.uniform(0.1, 1.0, (3, 6, 6))
        x[:, 0, 0] = 0.0
        images.append(x)
    mask = np.ones((6, 6))
    mask[0, 0] = 0.0
    record = evaluate_batch(model, images, UtilitySpec(1, "rest"),
                            fixed_heatmap_method(mask))
    assert record.ad == 0.0
    assert record.ic == 0.0
    assert record.coherency == 1.0
    assert record.complexity == pytest.approx(35.0 / 36.0, abs=1e-12)
    assert record.n_images == 4 and record.n_failed == 0


def test_zero_heatmap_standin_stays_finite():
    model = build_model("cnn-smooth", num_classes=3, seed=0)
    images = make_images(1, seed=4)
    record = evaluate_batch(model, images, UtilitySpec(0, "rest"),
                            fixed_heatmap_method(np.zeros((6, 6))))
    assert record.complexity == 0.0
    assert record.coherency == 0.5
    assert 0.0 <= record.ad <= 1.0
    assert 0.0 <= record.add <= 1.0
    assert np.isfinite(record.adcc)


def test_batch_record_fields_and_bound():
    model = build_model("cnn-smooth", num_classes=3, seed=1)
    images = make_images(5, seed=5)
    record = evaluate_batch(model, images, UtilitySpec(2, "rest"), "gradcam")
    assert record.method == "gradcam"
    assert record.utility == "rest"
    assert record.arch == "cnn-smooth"
    assert record.n_images == 5
    for name in ("ad", "coherency", "complexity", "adcc", "ic", "add"):
        assert 0.0 <= getattr(record, name) <= 1.0
    worst = min(record.coherency, 1.0 - record.complexity, 1.0 - record.ad)
    assert worst - 1e-12 <= record.adcc <= 3.0 * worst + 1e-12
    assert len(record.image_ad) == 5
    assert record.ad == pytest.approx(float(np.mean(record.image_ad)), abs=1e-15)


def record_terms(**image_terms):
    terms = dict(method="gradcam", utility="rest", arch="cnn-smooth", skipped=(),
                 image_ad=(0.25, 0.5), image_coherency=(0.75, 0.5),
                 image_complexity=(0.125, 0.25), image_ic=(0.0, 1.0), image_add=(0.5, 1.0))
    terms.update(image_terms)
    return terms


def test_record_derives_its_batch_values():
    record = MetricRecord(**record_terms())
    assert record.n_images == 2
    assert (record.ad, record.coherency, record.complexity, record.ic, record.add) == (
        0.375, 0.625, 0.1875, 0.5, 0.75)
    assert record.adcc == adcc(0.375, 0.625, 0.1875)
    for name in ("n_images", "ad", "coherency", "complexity", "adcc", "ic", "add"):
        with pytest.raises(TypeError):
            MetricRecord(**record_terms(), **{name: getattr(record, name)})
    with pytest.raises(ValueError, match="ad out of range: 1.25"):
        MetricRecord(**record_terms(image_ad=(1.0, 1.5)))


@pytest.mark.parametrize("image_terms, counts", [
    (dict(image_ad=(0.25,), image_coherency=(0.75, 0.5, 0.5), image_complexity=(0.125,),
          image_ic=(0.0,), image_add=(0.5,)), "ad 1, coherency 3, complexity 1, ic 1, add 1"),
    (dict(image_add=(0.5, 1.0, 0.25)), "ad 2, coherency 2, complexity 2, ic 2, add 3"),
    (dict(image_ad=(), image_coherency=(), image_complexity=(), image_ic=(), image_add=()),
     "ad 0, coherency 0, complexity 0, ic 0, add 0"),
], ids=["one-ad-three-coherency", "one-more-add", "all-empty"])
def test_record_refuses_term_counts_that_differ_or_are_zero(image_terms, counts):
    # refused before any mean is taken: no "Mean of empty slice" warning
    with pytest.raises(Exception) as caught:
        MetricRecord(**record_terms(**image_terms))
    assert caught.type is ValueError, caught.value
    assert str(caught.value) == f"per-image term counts must be equal and at least 1, got {counts}"


def test_report_schema_and_percent_scaling():
    model = build_model("cnn-smooth", num_classes=3, seed=1)
    images = make_images(3, seed=6)
    record = evaluate_batch(model, images, UtilitySpec(0, "rest"), "hirescam")
    report = record.to_report()
    assert sorted(report) == ["ad", "adcc", "add", "arch", "coherency",
                              "complexity", "ic", "method", "n_images", "utility"]
    assert report["ad"] == round(record.ad * 100.0, 4)
    assert report["adcc"] == round(record.adcc * 100.0, 4)
    json.dumps(report)  # schema must be serializable as-is


def test_failed_images_are_skipped_and_counted():
    model = build_model("cnn-smooth", num_classes=3, seed=1)
    images = make_images(3, seed=7)
    images.insert(1, np.zeros((3, 5, 5)))  # wrong resolution fails forward
    record = evaluate_batch(model, images, UtilitySpec(0, "rest"), "gradcam")
    assert record.n_images == 3
    assert record.n_failed == 1
    assert record.skipped == ((1, "image shape (3, 5, 5) does not match "
                                  "model input (3, 6, 6)"),)
    assert record.to_report()["n_failed"] == 1
    assert "skipped" not in record.to_report()
    with pytest.raises(ValueError, match="all 1 images failed"):
        evaluate_batch(model, [np.zeros((3, 5, 5))], UtilitySpec(0, "rest"), "gradcam")


def no_positions():
    return Heatmap(pre_relu=np.zeros(0), spatial=(0, 0), method="flaky")


def failing_on(bad_pixels, heatmap):
    """A heatmap source that fails on one image: it raises, or returns
    `heatmap()`, a heatmap that `Heatmap` refuses or no Heatmap at all."""
    def method(model, pixels, spec):
        if np.array_equal(pixels, bad_pixels):
            if heatmap is None:
                raise ValueError("source failed on this image")
            return heatmap()
        flat = np.full(36, 0.5)
        flat[0] = 1.0
        return Heatmap(pre_relu=flat, spatial=(6, 6), method="flaky")

    return method


@pytest.mark.parametrize("heatmap", [None, no_positions], ids=["raises", "no-positions"])
def test_later_stage_failure_skips_only_that_image(heatmap):
    model = build_model("cnn-smooth", num_classes=3, seed=1)
    images = make_images(3, seed=17)
    record = evaluate_batch(model, images, UtilitySpec(0, "rest"),
                            failing_on(images[1], heatmap))
    assert record.n_images == 2
    assert [i for i, _ in record.skipped] == [1]
    assert record.skipped[0][1] == ("source failed on this image" if heatmap is None
                                    else "pre_relu must hold at least one value, "
                                         "got an empty array")
    good = evaluate_batch(model, [images[0], images[2]], UtilitySpec(0, "rest"),
                          failing_on(images[1], heatmap))
    assert record.image_ad == good.image_ad
    assert record.image_coherency == good.image_coherency


def test_a_list_heatmap_scores_as_its_array():
    model = build_model("cnn-smooth", num_classes=3, seed=1)
    images = make_images(3, seed=17)
    values = np.random.default_rng(5).uniform(-1.0, 1.0, 16)

    def source(as_list):
        def method(model, pixels, spec):
            pre_relu = values.tolist() if as_list else values
            return Heatmap(pre_relu=pre_relu, spatial=(4, 4), method="fixed")
        return method

    listed = evaluate_batch(model, images, UtilitySpec(0, "rest"), source(True))
    assert listed.n_images == 3
    assert_same_record(listed, evaluate_batch(model, images, UtilitySpec(0, "rest"),
                                              source(False)))


def test_a_source_building_a_2d_heatmap_is_skipped_with_its_reason():
    model = build_model("cnn-smooth", num_classes=3, seed=1)
    images = make_images(3, seed=17)

    def method(model, pixels, spec):
        shape = (36, 1) if np.array_equal(pixels, images[1]) else (36,)
        return Heatmap(pre_relu=np.full(shape, 0.5), spatial=(6, 6), method="flaky")

    record = evaluate_batch(model, images, UtilitySpec(0, "rest"), method)
    assert record.n_images == 2
    assert record.skipped == ((1, "pre_relu must be 1-D, got shape (36, 1)"),)


@pytest.mark.parametrize("spatial, value, reason", [
    ((8.0, 2.0), 0.5, "spatial[0] must be an integer, got 8.0"),
    ((-4, -4), 0.5, "spatial[0] must be at least 1, got -4"),
    ((4, 4), np.nan, "pre_relu: non-finite values are not allowed"),
    ((4, 4), np.inf, "pre_relu: non-finite values are not allowed"),
], ids=["float-grid", "negative-grid", "nan", "inf"])
def test_a_source_building_a_malformed_heatmap_is_skipped_with_its_reason(
        spatial, value, reason):
    model = build_model("cnn-smooth", num_classes=3, seed=1)
    images = make_images(3, seed=17)

    def method(model, pixels, spec):
        flat = np.linspace(0.0, 1.0, 16)
        if not np.array_equal(pixels, images[1]):
            return Heatmap(pre_relu=flat, spatial=(4, 4), method="flaky")
        flat[3] = value
        return Heatmap(pre_relu=flat, spatial=spatial, method="flaky")

    record = evaluate_batch(model, images, UtilitySpec(0, "rest"), method)
    assert record.n_images == 2
    assert record.skipped == ((1, reason),)


def test_zero_target_confidence_is_skipped_not_divided():
    # Scaled logits put the target's softmax at exactly 0.0 on the uniform
    # images, and the drop terms divide by it; the zero image still scores.
    model = build_model("cnn-smooth", num_classes=2, seed=0)
    model.weights["fc_w"] *= 30000
    spec = UtilitySpec(1, "rest")
    uniform = make_images(3, seed=0)
    with pytest.raises(ValueError, match="all 3 images failed: target confidence 0.0"):
        evaluate_batch(model, uniform, spec, "gradcam")
    record = evaluate_batch(model, [np.zeros((3, 6, 6))] + uniform, spec, "gradcam")
    assert record.n_images == 1 and record.n_failed == 3
    assert [i for i, _ in record.skipped] == [1, 2, 3]
    assert all("confidence 0.0 is not positive" in reason for _, reason in record.skipped)
    assert record.to_report()["n_failed"] == 3


def test_batch_is_deterministic_and_thread_invariant():
    model = build_model("cnn-smooth", num_classes=3, seed=2)
    images = make_images(6, seed=8)
    spec = UtilitySpec(1, "rest")
    a = evaluate_batch(model, images, spec, CamMethod("randomcam", seed=5))
    b = evaluate_batch(model, images, spec, CamMethod("randomcam", seed=5))
    assert a == b
    assert json.dumps(a.to_report(), sort_keys=True) == json.dumps(b.to_report(), sort_keys=True)


def test_randomcam_varies_per_image_but_not_per_run():
    model = build_model("cnn-smooth", num_classes=3, seed=2)
    x = make_images(1, seed=9)[0]
    images = [x, x.copy()]
    record = evaluate_batch(model, images, UtilitySpec(0, "rest"),
                            CamMethod("randomcam", seed=5))
    # identical pixels, different per-image draws
    assert record.image_complexity[0] != record.image_complexity[1]


def test_batch_input_validation():
    model = build_model("cnn-smooth", num_classes=3, seed=0)
    with pytest.raises(ValueError, match="at least one image"):
        evaluate_batch(model, [], UtilitySpec(0, "rest"), "gradcam")
    with pytest.raises(ValueError, match="out of range"):
        evaluate_batch(model, make_images(1), UtilitySpec(7, "rest"), "gradcam")


# ----------------------------------------------- per-image protocol oracle

def reference_pipeline_heatmap(model, pixels, stack, spec, method):
    """Normalized, upsampled heatmap of one image; built-in methods read
    the image's tap stack (1, n_maps, d) instead of recomputing it."""
    if callable(method) and not isinstance(method, (str, CamMethod)):
        heatmap = method(model, pixels, spec)
        if not isinstance(heatmap, Heatmap):
            raise ValueError(f"heatmap source must return a Heatmap, "
                             f"got {type(heatmap).__name__}")
    else:
        heatmap = explain_batch(model, stack, spec, method)[0]
    grid = normalize_minmax(heatmap.grid("post"))
    return upsample_bilinear(grid, pixels.shape[1], pixels.shape[2])


def reference_evaluate_batch(model, images, spec, method):
    """The protocol as one loop over images, each run on its own: the
    oracle the stage-by-stage `evaluate_batch` must match bit for bit."""
    if isinstance(method, str):
        method = CamMethod(method)
    if len(images) == 0:
        raise ValueError("need at least one image")
    if not 0 <= spec.target_class < model.num_classes:
        raise ValueError(f"target_class {spec.target_class} out of range for "
                         f"{model.num_classes} classes")

    planes = [img.pixels if isinstance(img, Image) else np.asarray(img, dtype=np.float64)
              for img in images]
    c = spec.target_class

    def run_one(index: int):
        x = planes[index]
        stack = model._tap_stack(x[None])
        y = float(_target_scores(model, stack, c)[0])
        if not y > 0.0:
            return f"target confidence {y!r} is not positive"
        per_method = _per_image_method(method, index)
        h1 = reference_pipeline_heatmap(model, x, stack, spec, per_method)
        ex = explanation_map(x, h1)
        masked = model._tap_stack(np.stack([ex, explanation_map(x, 1.0 - h1)]))
        o, d = (float(v) for v in _target_scores(model, masked, c))
        h2 = reference_pipeline_heatmap(model, ex, masked[:1], spec, per_method)
        return (max(0.0, y - o) / y,
                coherency(h1, h2),
                complexity(h1),
                1.0 if y < o else 0.0,
                max(0.0, y - d) / y)

    def guarded(index: int):
        try:
            return run_one(index)
        except ValueError as err:
            return str(err)

    results = [guarded(i) for i in range(len(planes))]

    kept = [r for r in results if not isinstance(r, str)]
    skipped = tuple((i, r) for i, r in enumerate(results) if isinstance(r, str))
    if not kept:
        raise ValueError(f"all {len(results)} images failed: {skipped[0][1]}")

    columns = list(zip(*kept))
    if isinstance(method, CamMethod):
        name = method.name
    elif hasattr(method, "cam_name"):
        name = method.cam_name
    else:
        name = getattr(method, "__name__", "custom")
    return MetricRecord(
        method=name,
        utility=spec.kind,
        arch=model.arch,
        skipped=skipped,
        image_ad=tuple(columns[0]),
        image_coherency=tuple(columns[1]),
        image_complexity=tuple(columns[2]),
        image_ic=tuple(columns[3]),
        image_add=tuple(columns[4]),
    )


def assert_same_record(record, reference):
    assert record == reference
    # == reads 0.0 == -0.0 as equal; the terms must match bit for bit
    for name in ("ad", "coherency", "complexity", "adcc", "ic", "add", "image_ad",
                 "image_coherency", "image_complexity", "image_ic", "image_add"):
        got = np.asarray(getattr(record, name), dtype=np.float64)
        want = np.asarray(getattr(reference, name), dtype=np.float64)
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("size,n", [(6, 4), (64, 2)])
@pytest.mark.parametrize("arch", ARCHS)
def test_batch_matches_per_image_oracle_bit_for_bit(arch, size, n):
    model = build_model(arch, num_classes=4, seed=3, in_shape=(3, size, size))
    images = make_images(n, seed=size, shape=(3, size, size))
    for name in CAM_METHODS:
        method = CamMethod(name, seed=11) if name == "randomcam" else name
        for kind in UTILITY_KINDS:
            spec = UtilitySpec(2, kind)
            assert_same_record(evaluate_batch(model, images, spec, method),
                               reference_evaluate_batch(model, images, spec, method))


def test_mixed_batch_matches_oracle():
    # wrong shapes, non-finite pixels and a zero-confidence image among
    # images that score, under a built-in, a per-image and a custom source
    model = build_model("cnn-smooth", num_classes=2, seed=0)
    model.weights["fc_w"] *= 10000  # the all-ones image scores exactly 0.0
    spec = UtilitySpec(1, "rest")
    nan = np.zeros((3, 6, 6))
    nan[0, 0, 0] = np.nan
    textured = [np.random.default_rng(s).uniform(0.0, 1.0, (3, 6, 6)) for s in (0, 1, 3, 4)]
    images = [textured[0], np.zeros((3, 5, 5)), np.ones((3, 6, 6)), textured[1], nan,
              textured[2], np.zeros((6, 6)), textured[3]]
    for method in ("gradcam", CamMethod("randomcam", seed=4),
                   fixed_heatmap_method(np.random.default_rng(2).uniform(-1.0, 1.0, (6, 6)))):
        record = evaluate_batch(model, images, spec, method)
        assert [i for i, _ in record.skipped] == [1, 2, 4, 6]
        assert "confidence 0.0 is not positive" in record.skipped[1][1]
        assert_same_record(record, reference_evaluate_batch(model, images, spec, method))


def test_chunked_batch_matches_oracle():
    # 64x64 RGB images go through the stages five at a time: images 5-9
    # (the second chunk) all fail, and each other chunk loses one
    model = build_model("cnn-smooth", num_classes=3, seed=5, in_shape=(3, 64, 64))
    spec = UtilitySpec(1, "rest")
    images = make_images(12, seed=21, shape=(3, 64, 64))
    nan = images[6].copy()
    nan[2, 10, 10] = np.nan
    images[2] = images[5] = images[9] = np.zeros((3, 62, 62))
    images[6], images[7], images[8] = nan, np.zeros((64, 64)), np.zeros((1, 64, 64))
    for method in ("shapleycam", CamMethod("randomcam", seed=8), failing_on(images[10], None)):
        record = evaluate_batch(model, images, spec, method)
        skipped = [2, 5, 6, 7, 8, 9] + ([10] if callable(method) else [])
        assert [i for i, _ in record.skipped] == skipped
        assert_same_record(record, reference_evaluate_batch(model, images, spec, method))
    with pytest.raises(ValueError, match="all 7 images failed: image shape "
                                         r"\(3, 62, 62\) does not match"):
        evaluate_batch(model, [images[2]] + images[5:11], spec, failing_on(images[10], None))


@pytest.mark.parametrize("heatmap", [None, no_positions, lambda: None,
                                     lambda: np.full(36, 0.5), lambda: "gradcam"],
                         ids=["raises", "no-positions", "none", "ndarray", "str"])
def test_failing_source_matches_oracle(heatmap):
    # a source returning no Heatmap once escaped as AttributeError from `.grid`
    model = build_model("mlp-smooth", num_classes=3, seed=1)
    images = make_images(4, seed=17)
    spec = UtilitySpec(0, "post-softmax")
    for bad in (0, 2, 3):
        source = failing_on(images[bad], heatmap)
        record = evaluate_batch(model, images, spec, source)
        assert [i for i, _ in record.skipped] == [bad]
        assert_same_record(record, reference_evaluate_batch(model, images, spec, source))
    with pytest.raises(ValueError) as err:
        evaluate_batch(model, [images[1]], spec, failing_on(images[1], heatmap))
    with pytest.raises(ValueError) as want:
        reference_evaluate_batch(model, [images[1]], spec, failing_on(images[1], heatmap))
    assert str(err.value) == str(want.value)


def count_taps(monkeypatch):
    """Record the number of images each `ToyModel._tap_stack` call takes."""
    sizes = []
    tap = ToyModel._tap_stack

    def counted(self, images):
        sizes.append(len(images))
        return tap(self, images)

    monkeypatch.setattr(ToyModel, "_tap_stack", counted)
    return sizes


@pytest.mark.parametrize("arch", ARCHS)
def test_clean_chunk_taps_once_for_images_and_once_for_masks(arch, monkeypatch):
    # a batch that fails nowhere runs each stage batched: no image reruns
    model = build_model(arch, num_classes=3, seed=4, in_shape=(3, 64, 64))
    images = make_images(5, seed=31, shape=(3, 64, 64))
    sizes = count_taps(monkeypatch)
    for name in CAM_METHODS:
        method = CamMethod(name, seed=2) if name == "randomcam" else name
        for n in range(1, 6):
            sizes.clear()
            evaluate_batch(model, images[:n], UtilitySpec(1, "rest"), method)
            assert sizes == [n, 2 * n], (name, n)


@pytest.mark.parametrize("method,message", [
    ("bogus", "unknown CAM method 'bogus'"),
    ("randomcam", "randomcam needs a seed"),
    (42, "unknown CAM method 42"),
    (["gradcam"], r"unknown CAM method \['gradcam'\]"),
], ids=["unknown-name", "seedless-randomcam", "int", "list"])
def test_bad_source_raises_before_any_tap(method, message, monkeypatch):
    model = build_model("cnn-smooth", num_classes=3, seed=4)
    sizes = count_taps(monkeypatch)
    with pytest.raises(ValueError, match=message):
        evaluate_batch(model, make_images(7), UtilitySpec(1, "rest"), method)
    assert sizes == []


def test_clean_batch_taps_chunk_by_chunk(monkeypatch):
    model = build_model("cnn-smooth", num_classes=3, seed=4, in_shape=(3, 64, 64))
    images = make_images(7, seed=32, shape=(3, 64, 64))
    sizes = count_taps(monkeypatch)
    record = evaluate_batch(model, images, UtilitySpec(1, "rest"), "gradcam")
    assert record.n_images == 7
    assert sizes == [5, 10, 2, 4]


# 3x160x160 images hold more than _BATCH_CELLS pixel values, so each is its
# own chunk; a failing one is skipped with the chunk's own error, not rerun
BIG = (3, 160, 160)


def test_failing_one_image_chunk_runs_once(monkeypatch):
    model = build_model("cnn-smooth", num_classes=3, seed=4, in_shape=BIG)
    spec = UtilitySpec(1, "rest")
    images = make_images(2, seed=33, shape=BIG)

    def explain_unless_second(model, pixels, spec):
        if np.array_equal(pixels, images[1]):
            raise ValueError("source failed on this image")
        return explain(model, pixels, spec, "gradcam")

    sizes = count_taps(monkeypatch)
    record = evaluate_batch(model, images, spec, explain_unless_second)
    assert sizes == [1, 1, 2, 1, 1]
    assert record.skipped == ((1, "source failed on this image"),)
    assert_same_record(record, reference_evaluate_batch(model, images, spec,
                                                        explain_unless_second))


def test_mis_shaped_one_image_chunk_taps_once(monkeypatch):
    model = build_model("cnn-smooth", num_classes=3, seed=4, in_shape=BIG)
    spec = UtilitySpec(1, "rest")
    images = [make_images(1, seed=34, shape=BIG)[0], np.zeros((3, 8, 8))]
    sizes = count_taps(monkeypatch)
    record = evaluate_batch(model, images, spec, "gradcam")
    assert sizes == [1, 2, 1]
    assert record.skipped == ((1, "image shape (3, 8, 8) does not match "
                                  "model input (3, 160, 160)"),)
    assert_same_record(record, reference_evaluate_batch(model, images, spec, "gradcam"))
