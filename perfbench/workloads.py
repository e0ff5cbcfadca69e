"""The three workloads. Each builds its inputs from the workload seed, runs a
fixed list of short calls per pass through public crgx entry points only, and
checks what came out. crgx sees only the generated inputs.

spatial-audit  masking games audited against enumeration
verify-cli     the check suites, in short sections
evaluate-dir   `crgx evaluate` and `crgx explain` over directories of 64x64 PPMs

Every timed call is short (about 10 to 100 ms), so that a run holds many
of each kind and each sits close in time to the reference kernel run it is
paired with (pace.py).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crgx
import crgx.cli
import crgx.suites

from pace import kernel_seconds
from probe import Probe

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class PassResult:
    items: float = 0.0            # units of the workload's main work done
    calls: dict = field(default_factory=dict)    # call kind -> (seconds, kernel seconds)
    counts: dict = field(default_factory=dict)   # per-layer work counts
    outputs: dict = field(default_factory=dict)  # compared across passes

    def time(self, kind: str, seconds: float) -> None:
        """Record one call of `kind`, paired with a run of the reference
        kernel right after it (see pace.py)."""
        self.calls.setdefault(kind, []).append((seconds, kernel_seconds()))


class Workload:
    """What every workload declares besides setup, run_pass and finish: the
    call kinds whose time `throughput_per_s` divides by (a prefix), and the
    call kind `call_ms` reports."""

    name = ""
    throughput_prefix = ""
    headline = ""


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`crgx.cli.main` in this process; returns (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = crgx.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def _rel_err(actual, expected) -> float:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return float(np.max(np.abs(actual - expected) / (1.0 + np.abs(expected))))


def _seed31(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0] >> 1)


# ------------------------------------------------------------ spatial-audit

@dataclass
class _Game:
    model: object
    image: np.ndarray
    spec: object
    mc_seed: int

    @property
    def label(self) -> str:
        return f"{self.model.arch}/{self.spec.kind}"


class SpatialAudit(Workload):
    """Masking games under pre-softmax and rest for three architectures.

    The two CNNs run on seeded 5x5 images, which gives a 3x3 tap: d=9, so
    one exact enumeration (512 coalitions) is a short call. Per pass, each
    CNN game is built, enumerated, audited against the axioms, sampled and
    explained with shapleycam. The mlp tap is 4x4 whatever the image, and a
    d=16 enumeration takes seconds, too long to time steadily; per pass its
    games are built, sampled and explained, and once per run, untimed, they
    are enumerated and audited like the CNN games.
    """

    name = "spatial-audit"
    throughput_prefix = "audit/"
    headline = "audit/cnn-smooth/rest"
    archs = {"cnn-relu": (3, 5, 5), "cnn-smooth": (3, 5, 5), "mlp-smooth": (3, 6, 6)}
    kinds = ("pre-softmax", "rest")
    mc_permutations = 20
    # Sampling must land within MC_SIGMAS standard errors plus an absolute
    # floor. Pre-softmax games have constant marginals, so their standard
    # error is ~1e-11 or exactly 0 and only the floor applies. A Student t
    # deviate with 19 degrees of freedom lies beyond 8 with probability
    # ~2e-7, so no permutation stream trips this by chance; a biased
    # estimator still does.
    mc_sigmas = 8.0
    mc_floor = 1e-9
    cam_tol = 1e-9

    def setup(self, seed: int, workdir: Path) -> list[_Game]:
        rng = np.random.default_rng([seed, 0])
        games = []
        for arch, shape in self.archs.items():
            model = crgx.build_model(arch, num_classes=3, seed=int(rng.integers(2 ** 31)),
                                     in_shape=shape)
            image = rng.uniform(0.0, 1.0, shape)
            target = int(np.argmax(model.forward(image)))
            for kind in self.kinds:
                games.append(_Game(model, image, crgx.UtilitySpec(target, kind),
                                   _seed31(seed, len(games))))
        return games

    def run_pass(self, games: list[_Game], probe: Probe, index: int) -> PassResult:
        out = PassResult(counts={"game.coalitions": 0, "game.permutations": 0})
        for game in games:
            with probe.span("bench.game"):
                self._audit(probe, out, game, exact_too=game.model.arch != "mlp-smooth")
        return out

    def _audit(self, probe, out, g: _Game, exact_too: bool) -> None:
        """One game: build, (enumerate and audit,) sample, explain."""
        seconds = 0.0
        game, t = probe.call("game.make_spatial_game", crgx.make_spatial_game,
                             g.model, g.image, g.spec)
        seconds += t
        if game is None:
            return
        coalitions = 2 + self.mc_permutations * game.d
        exact = None
        if exact_too:
            exact, t = probe.call("game.shapley_exact", crgx.shapley_exact, game)
            seconds += t
            coalitions += 1 << game.d
            if exact is not None:
                audit, t = probe.call("game.axiom_suite", crgx.axiom_suite, game, exact)
                seconds += t
                if audit is not None:
                    probe.check(bool(audit["pass"]), f"{g.label}: axiom audit {audit}")
        mc, t = probe.call("game.shapley_mc", crgx.shapley_mc, game,
                           self.mc_permutations, g.mc_seed)
        seconds += t
        cam, t = probe.call("cam.explain", crgx.explain, g.model, g.image, g.spec,
                            "shapleycam")
        seconds += t
        out.time(f"audit/{g.label}", seconds)
        out.items += coalitions
        out.counts["game.coalitions"] += coalitions
        out.counts["game.permutations"] += self.mc_permutations

        if mc is not None:
            # Each permutation's marginals add up to U(full) - U(empty).
            span = game.u_full - game.u_empty
            probe.check(abs(float(np.sum(mc.values)) - span) <= 1e-9 * (1.0 + abs(span)),
                        f"{g.label}: sampled values do not add up to {span}")
        if exact is not None:
            self._check_against_exact(probe, out, g, exact, mc, cam)

    def _check_against_exact(self, probe, out, g: _Game, exact, mc, cam) -> None:
        if mc is not None:
            gap = np.abs(mc.values - exact.values)
            limit = (self.mc_sigmas * mc.stderr
                     + self.mc_floor * (1.0 + np.max(np.abs(exact.values))))
            probe.check(bool(np.all(gap <= limit)),
                        f"{g.label}: sampling gap {gap.max():.3g} over limit")
        if cam is not None:
            err = _rel_err(cam.pre_relu, exact.values)
            out.outputs[f"shapleycam_err.{g.label}"] = err
            # Mean-broadcast assembly is exact only where the head is linear
            # in the tap and maps are pooled: the CNNs under pre-softmax.
            if g.model.arch != "mlp-smooth" and g.spec.kind == "pre-softmax":
                probe.check(err <= self.cam_tol, f"{g.label}: shapleycam error {err:.3g}")

    def finish(self, games: list[_Game], passes, probe: Probe) -> dict:
        """The d=16 mlp games in full, once: enumeration, axioms, sampling
        against exact, and the shapleycam error."""
        out = PassResult(counts={"game.coalitions": 0, "game.permutations": 0})
        for game in games:
            if game.model.arch == "mlp-smooth":
                self._audit(probe, out, game, exact_too=True)
        errors = dict(passes[-1].outputs)
        errors.update(out.outputs)
        return {"shapleycam_err": errors}


# --------------------------------------------------------------- verify-cli

class VerifyCli(Workload):
    """The three check suites in short calls: `crgx theorem-check` and
    `crgx hvp-check` through `crgx.cli.main`, and the sections of
    `crgx shapley-verify` through `crgx.suites`. Sizes are cut so that each
    call takes tens of milliseconds; the shapley spatial section (a d=16
    enumeration, seconds long) is left to spatial-audit and the trace
    sweep. `crgx shapley-verify` itself runs once per run, untimed.

    Every call keeps the suites' default seeds, so the workload seed does
    not reach these inputs: the seed picks the sizes of the random games
    and graphs, so a seeded pass would cost a different amount each run,
    and the Monte Carlo section is a 4-sigma statistical check that is
    known to pass at its default seed."""

    name = "verify-cli"
    throughput_prefix = ""
    headline = "theorem-check"
    theorem_seeds = 1
    hvp_graphs = 10
    quadratic_games = 4
    mc_samples = 1000

    def setup(self, seed: int, workdir: Path) -> Path:
        workdir.mkdir(parents=True)
        return workdir

    def run_pass(self, workdir: Path, probe: Probe, index: int) -> PassResult:
        out = PassResult(counts={"imgio.bytes_written": 0})
        commands = {"theorem-check": ["--seeds", str(self.theorem_seeds)],
                    "hvp-check": ["--graphs", str(self.hvp_graphs)]}
        sections = {"axiom_check": {}, "quadratic_check": {"n_games": self.quadratic_games},
                    "linear_check": {}, "mc_check": {"n_seeds": 1, "samples": self.mc_samples}}
        for command, flags in commands.items():
            path = workdir / f"{command}.{index}.json"
            report = self._cli(probe, out, command, [*flags, "--report", str(path)], path)
            if report is not None:
                out.outputs[command] = path.read_bytes()
                out.items += _suite_cases(report)
        for section, kwargs in sections.items():
            report, seconds = probe.call(f"suites.{section}",
                                         getattr(crgx.suites, section), **kwargs)
            out.time(section, seconds)
            if report is None:
                continue
            probe.check(report.get("pass") is True, f"{section} does not pass: {report}")
            out.outputs[section] = report
            out.items += _section_cases(section, report)
        return out

    def _cli(self, probe, out, command, argv, path):
        result, seconds = probe.call(f"cli.main.{command}", run_cli, [command, *argv])
        out.time(command, seconds)
        if result is None:
            return None
        code, err = result
        if not probe.check(code == 0 and path.is_file(),
                           f"{command} exited {code}: {err.strip()}"):
            return None
        out.counts["imgio.bytes_written"] += path.stat().st_size
        report = json.loads(path.read_text())
        probe.check(report.get("pass") is True, f"{command} report does not pass")
        return report

    def finish(self, workdir: Path, passes, probe: Probe) -> dict:
        for key in passes[0].outputs:
            first = passes[0].outputs[key]
            probe.check(all(p.outputs.get(key) == first for p in passes),
                        f"{key} reports differ between passes")
        # The shapley command, once, at its smallest Monte Carlo settings.
        path = workdir / "shapley-verify.json"
        once = PassResult(counts={"imgio.bytes_written": 0})
        report = self._cli(probe, once, "shapley-verify",
                           ["--mc-seeds", "1", "--mc-samples", str(self.mc_samples),
                            "--report", str(path)], path)
        return {"shapley_verify_cases": _suite_cases(report) if report else None}


def _section_cases(section: str, report: dict) -> int:
    return report["n_seeds"] if section == "mc_check" else report["n_games"]


def _suite_cases(report: dict) -> int:
    """Cases a check subcommand verified, read off its report."""
    suite = report["suite"]
    if suite == "shapley-verify":
        return (sum(_section_cases(s, report[k]) for s, k in
                    (("axiom_check", "axioms"), ("quadratic_check", "quadratics"),
                     ("linear_check", "linear"), ("mc_check", "mc"))) + 1)
    if suite == "theorem-check":
        return (report["ensemble"]["n_cases"] + report["rest"]["n_cases"] + 1
                + report["collapse"]["n_seeds"])
    return report["n_graphs"]


# ------------------------------------------------------------- evaluate-dir

class EvaluateDir(Workload):
    """Seeded 64x64 PPMs in four directories of four, each scored by
    `crgx evaluate` for three methods on two architectures, plus
    `crgx explain` on every image for gradcam and shapleycam, all through
    `crgx.cli.main` in this process. Four-image directories keep each
    evaluate call short."""

    name = "evaluate-dir"
    throughput_prefix = "evaluate/"
    headline = "explain/shapleycam"
    n_dirs = 4
    per_dir = 4
    size = 64
    configs = tuple((arch, method) for arch in ("cnn-smooth", "mlp-smooth")
                    for method in ("gradcam", "shapleycam", "randomcam"))
    explain_methods = ("gradcam", "shapleycam")
    method_seed = 11
    # Report metrics are percentages rounded to 4 decimals; a batched
    # pipeline may move the last digit, so reference values agree to 1e-3.
    report_tol = 1e-3
    report_keys = ("ad", "coherency", "complexity", "adcc", "ic", "add")

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        dirs = []
        for d in range(self.n_dirs):
            directory = workdir / f"images{d}"
            directory.mkdir(parents=True)
            for i in range(self.per_dir):
                pixels = rng.uniform(0.0, 1.0, (3, self.size, self.size))
                crgx.write_image(directory / f"img{d}{i}.ppm", crgx.Image(pixels))
            dirs.append(directory)
        reference = json.loads(REFERENCE.read_text())
        anchor = write_anchor_images(workdir / "anchor", reference)
        return {"dirs": dirs, "anchor": anchor, "reference": reference,
                "model_seed": int(rng.integers(2 ** 31)), "workdir": workdir}

    def _evaluate(self, probe, images, arch, method, model_seed, report_path):
        report_path.parent.mkdir(parents=True, exist_ok=True)
        argv = ["evaluate", "--images", str(images), "--method", method,
                "--utility", "rest", "--arch", arch, "--seed", str(model_seed),
                "--report", str(report_path)]
        if method == "randomcam":
            argv += ["--method-seed", str(self.method_seed)]
        result, seconds = probe.call("cli.main.evaluate", run_cli, argv)
        if result is None:
            return None, seconds
        code, err = result
        if not probe.check(code == 0, f"evaluate {arch}/{method} exited {code}: {err.strip()}"):
            return None, seconds
        return json.loads(report_path.read_text()), seconds

    def _explain(self, probe, image: Path, method: str, model_seed: int, out_dir: Path):
        result, seconds = probe.call(
            "cli.main.explain", run_cli,
            ["explain", "--image", str(image), "--method", method, "--utility", "rest",
             "--arch", "cnn-smooth", "--seed", str(model_seed), "--out-dir", str(out_dir)])
        names = [f"{image.stem}.{method}.{suffix}"
                 for suffix in ("heatmap.ppm", "overlay.ppm", "json")]
        if result is not None:
            code, err = result
            probe.check(code == 0 and all((out_dir / n).is_file() for n in names),
                        f"explain {image.name}/{method} exited {code}: {err.strip()}")
        return names, seconds

    def run_pass(self, state, probe: Probe, index: int) -> PassResult:
        out = PassResult(counts={"imgio.bytes_read": 0, "imgio.bytes_written": 0,
                                 "metrics.images_failed": 0})
        work = state["workdir"] / f"pass{index}"
        for directory in state["dirs"]:
            images = sorted(directory.glob("*.ppm"))
            image_bytes = sum(p.stat().st_size for p in images)
            for arch, method in self.configs:
                report_path = work / f"{directory.name}.{arch}.{method}.json"
                report, seconds = self._evaluate(probe, directory, arch, method,
                                                 state["model_seed"], report_path)
                out.time(f"evaluate/{arch}/{method}", seconds)
                out.counts["imgio.bytes_read"] += image_bytes
                if report is None:
                    continue
                out.items += report["n_images"]
                out.counts["imgio.bytes_written"] += report_path.stat().st_size
                out.counts["metrics.images_failed"] += report.get("n_failed", 0)
                out.outputs[f"{directory.name}/{arch}/{method}"] = report
                probe.check("n_failed" not in report and report["n_images"] == len(images)
                            and all(0.0 <= report[k] <= 100.0 for k in self.report_keys),
                            f"evaluate {arch}/{method} report {report}")
            for image in images:
                for method in self.explain_methods:
                    names, seconds = self._explain(probe, image, method, state["model_seed"],
                                                   work)
                    out.time(f"explain/{method}", seconds)
                    out.counts["imgio.bytes_read"] += image.stat().st_size
                    out.counts["imgio.bytes_written"] += sum(
                        (work / n).stat().st_size for n in names if (work / n).is_file())
        return out

    def finish(self, state, passes, probe: Probe) -> dict:
        for key in passes[0].outputs:
            first = passes[0].outputs[key]
            probe.check(all(p.outputs.get(key) == first for p in passes),
                        f"evaluate {key} reports differ between passes")
        self._check_sidecars(state, probe, len(passes) - 1)
        worst = self._check_anchor(state, probe)
        return {"anchor_worst_abs_err": worst}

    def _check_sidecars(self, state, probe: Probe, last: int) -> None:
        """The explain sidecar of the first image matches a direct
        `crgx.explain` on the same model and image."""
        image_path = sorted(state["dirs"][0].glob("*.ppm"))[0]
        image = crgx.read_image(image_path)
        model = crgx.build_model("cnn-smooth", num_classes=3, seed=state["model_seed"],
                                 in_shape=image.pixels.shape)
        target = int(np.argmax(model.forward(image.pixels)))
        work = state["workdir"] / f"pass{last}"
        for method in self.explain_methods:
            stem = f"{image_path.stem}.{method}"
            try:
                sidecar = json.loads((work / f"{stem}.json").read_text())
                heat = crgx.read_image(work / f"{stem}.heatmap.ppm")
            except (OSError, ValueError) as err:
                probe.check(False, f"explain outputs for {stem} unreadable: {err}")
                continue
            direct = crgx.explain(model, image.pixels, crgx.UtilitySpec(target, "rest"), method)
            probe.check(sidecar["target_class"] == target
                        and _rel_err(sidecar["pre_relu"], direct.pre_relu) <= 1e-9
                        and heat.pixels.shape == (3, self.size, self.size),
                        f"explain sidecar {stem} disagrees with crgx.explain")

    def _check_anchor(self, state, probe: Probe) -> float:
        """Reports on the fixed anchor images against stored reference values."""
        reference = state["reference"]
        worst = 0.0
        for arch, method in self.configs:
            key = f"{arch}/{method}"
            report_path = state["workdir"] / "anchor-reports" / f"{arch}.{method}.json"
            report, _ = self._evaluate(probe, state["anchor"], arch, method,
                                       reference["model_seed"], report_path)
            if report is None:
                continue
            expected = reference["reports"][key]
            errs = [abs(report[k] - expected[k]) for k in self.report_keys]
            worst = max(worst, *errs)
            probe.check(report["n_images"] == expected["n_images"]
                        and max(errs) <= self.report_tol,
                        f"anchor {key}: {report} vs reference {expected}")
        return worst


def write_anchor_images(directory: Path, reference: dict) -> Path:
    """The fixed images the stored reference reports were computed on."""
    directory.mkdir(parents=True)
    rng = np.random.default_rng(reference["image_seed"])
    size = reference["size"]
    for i in range(reference["n_images"]):
        pixels = rng.uniform(0.0, 1.0, (3, size, size))
        crgx.write_image(directory / f"anchor{i:03d}.ppm", crgx.Image(pixels))
    return directory


WORKLOADS = {w.name: w for w in (SpatialAudit(), VerifyCli(), EvaluateDir())}
