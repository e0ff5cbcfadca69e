"""Check that a change leaves every crgx output byte-identical.

    python tools/identity.py --base REV    # this checkout's crgx against REV's
    python tools/identity.py --corpus DIR  # write the corpus with the importable crgx
    python tools/identity.py --setting NAME=VALUE [--setting ...]
                                           # the files that depend on a setting
    python tools/identity.py --base REV --setting NAME=VALUE [--setting ...]
                                           # both trees compared under each setting

The corpus is a fixed set of `crgx` commands run in process through
`crgx.cli.main` from DIR with relative paths, so two runs of one tree write
the same bytes, stderr included:

- `explain` for every method, architecture and utility on one seeded 64x64
  image, and with `--class 1` and `--alpha 0.6`;
- `evaluate` (report, CSV and stderr) for gradcam, shapleycam and randomcam
  on each architecture, on a clean directory of six 64x64 images and on a
  mixed one (16, 16 and 8 px), and with `--limit 2`;
- both commands on one-channel 16x16 PGMs, and `evaluate` on two 160x160
  images and one 150x150, each of which is a chunk of its own;
- the `hvp-check`, `theorem-check` and `shapley-verify` reports at the CI's
  flags, and `shapley-verify` at its defaults;
- an `evaluate` and an `hvp-check` report written to stdout;
- the runtime errors (exit 1) of an empty directory and a truncated PPM;
- usage errors (exit 2): an unknown flag, randomcam without a seed, and a
  value out of range for each kind of flag check.

Each command's stdout goes to `<name>.out` and its stderr to `<name>.err`,
and `commands.txt` lists every command with its exit code. The inputs are
written into DIR too, and are compared with the rest.

`--base REV` exports REV's files with `git archive` into a temporary
directory, which it removes at exit, and writes the corpus once per tree,
each in its own subprocess with `PYTHONPATH=<tree>/src`. For each differing
file that both sides wrote as UTF-8 text it prints the first 20 lines of a
unified diff, then it lists every file that differs or exists on one side
only, and exits 1 if there is any. With `--setting` it does this once per
setting, both trees written under that setting, and lists the differing
files per setting. The corpus may grow; it must never shrink to hide a
difference.

`--setting NAME=VALUE` alone, which may be repeated, writes this
checkout's corpus natively and then once per setting, each in its own subprocess with
NAME=VALUE added to that subprocess's environment only (nothing is set in
this process), and lists the files that differ from the native corpus:
say `NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"` for what
numpy dispatches on an AVX2 machine, or `OPENBLAS_CORETYPE=Haswell`. The
list says which outputs depend on the setting, so it exits 0 either way.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import filecmp
import io
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPLAIN_ARCHS = ("cnn-relu", "cnn-smooth", "mlp-smooth")
EVALUATE_METHODS = ("gradcam", "shapleycam", "randomcam")


def _write_inputs() -> None:
    import numpy as np

    from crgx.imgio import Image, write_image

    rng = np.random.default_rng(2024)
    for folder in ("clean", "mixed", "gray", "empty", "bad", "large"):
        Path(f"inputs/{folder}").mkdir(parents=True)
    write_image("inputs/photo.ppm", Image(rng.uniform(0.0, 1.0, (3, 64, 64))))
    for i in range(6):
        write_image(f"inputs/clean/img{i}.ppm", Image(rng.uniform(0.0, 1.0, (3, 64, 64))))
    for name, size in (("a", 16), ("b", 16), ("c", 8)):
        write_image(f"inputs/mixed/{name}.ppm", Image(rng.uniform(0.0, 1.0, (3, size, size))))
    for name, step in (("a", 1), ("b", 3)):
        body = bytes((7 * i * step + 13 * (i // 16)) % 256 for i in range(256))
        Path(f"inputs/gray/{name}.pgm").write_bytes(b"P5\n16 16\n255\n" + body)
    write_image("inputs/bad/a.ppm", Image(rng.uniform(0.0, 1.0, (3, 16, 16))))
    Path("inputs/bad/b.ppm").write_bytes(b"P6\n16 16\n255\n0123456789")
    for name, size in (("a", 160), ("b", 150), ("c", 160)):
        write_image(f"inputs/large/{name}.ppm", Image(rng.uniform(0.0, 1.0, (3, size, size))))


def _commands() -> list[tuple[str, list[str]]]:
    """(output stem, argv) of every corpus command."""
    from crgx.cam import CAM_METHODS
    from crgx.utility import UTILITY_KINDS

    def seeded(method):
        return ["--method", method] + (["--method-seed", "3"] if method == "randomcam" else [])

    commands = []
    for arch in EXPLAIN_ARCHS:
        for kind in UTILITY_KINDS:
            out = f"explain/{arch}.{kind}"
            for method in CAM_METHODS:
                commands.append((f"{out}/{method}", [
                    "explain", "--image", "inputs/photo.ppm", "--arch", arch, "--utility", kind,
                    "--out-dir", out] + seeded(method)))
    for images in ("clean", "mixed"):
        for arch in EXPLAIN_ARCHS:
            for method in EVALUATE_METHODS:
                stem = f"evaluate/{images}.{arch}.{method}"
                commands.append((stem, [
                    "evaluate", "--images", f"inputs/{images}", "--arch", arch,
                    "--report", f"{stem}.json", "--csv", f"{stem}.csv"] + seeded(method)))
    for stem, argv in (("hvp", ["hvp-check", "--graphs", "10"]),
                       ("theorem", ["theorem-check"]),
                       ("shapley", ["shapley-verify", "--mc-seeds", "1", "--mc-samples", "1000"]),
                       ("shapley-default", ["shapley-verify"])):
        commands.append((f"suites/{stem}", argv + ["--report", f"suites/{stem}.json"]))
    photo = ["explain", "--image", "inputs/photo.ppm", "--method", "gradcam"]
    clean = ["evaluate", "--images", "inputs/clean", "--method", "gradcam"]
    commands += [
        ("paths/explain-class", photo + ["--class", "1", "--alpha", "0.6", "--out-dir", "paths"]),
        ("paths/evaluate-limit", clean + ["--limit", "2",
                                          "--report", "paths/evaluate-limit.json"]),
        ("paths/evaluate-stdout", clean),
        ("paths/hvp-stdout", ["hvp-check", "--graphs", "2"]),
        ("paths/gray", ["evaluate", "--images", "inputs/gray", "--method", "gradcam",
                        "--report", "paths/gray.json"]),
        ("paths/gray-explain", ["explain", "--image", "inputs/gray/a.pgm",
                                "--method", "shapleycam", "--out-dir", "paths"]),
        ("paths/large", ["evaluate", "--images", "inputs/large", "--method", "gradcam",
                         "--report", "paths/large.json"]),
        ("errors/empty", ["evaluate", "--images", "inputs/empty", "--method", "gradcam"]),
        ("errors/truncated", ["evaluate", "--images", "inputs/bad", "--method", "gradcam",
                              "--report", "errors/truncated.json"]),
        ("errors/truncated-explain", ["explain", "--image", "inputs/bad/b.ppm",
                                      "--method", "gradcam", "--out-dir", "errors"]),
        ("usage/unknown-flag", photo + ["--bogus"]),
        ("usage/randomcam-seedless", ["explain", "--image", "inputs/photo.ppm",
                                      "--method", "randomcam"]),
        ("usage/seed", clean + ["--seed", "-1"]),
        ("usage/limit", clean + ["--limit", "0"]),
        ("usage/alpha", photo + ["--alpha", "1.5", "--out-dir", "usage"]),
        ("usage/classes", photo + ["--classes", "1", "--out-dir", "usage"]),
        ("usage/class", photo + ["--class", "3", "--out-dir", "usage"]),
        ("usage/mc-samples", ["shapley-verify", "--mc-samples", "1",
                              "--report", "usage/mc-samples.json"]),
    ]
    return commands


def write_corpus(out_dir: Path) -> int:
    """Run the corpus from `out_dir`, which must not exist yet; returns the
    number of files written."""
    import crgx.cli

    out_dir.mkdir(parents=True)
    os.chdir(out_dir)
    os.environ["COLUMNS"] = "80"  # argparse wraps usage text to the terminal's width
    _write_inputs()
    for folder in ("evaluate", "suites", "paths", "errors", "usage"):
        Path(folder).mkdir()
    lines = []
    for stem, argv in _commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = crgx.cli.main(argv)
            except SystemExit as exit_:
                code = exit_.code
        Path(f"{stem}.out").write_text(out.getvalue())
        Path(f"{stem}.err").write_text(err.getvalue())
        lines.append(f"{code} crgx {' '.join(argv)}\n")
    Path("commands.txt").write_text("".join(lines))
    print(f"{len(lines)} commands with crgx from {Path(crgx.__file__).resolve().parent}")
    return sum(1 for p in Path().rglob("*") if p.is_file())


def _differing(left: Path, right: Path, prefix: str = "") -> list[str]:
    cmp = filecmp.dircmp(left, right)
    out = [prefix + name for name in cmp.left_only + cmp.right_only + cmp.common_funny]
    _, mismatch, errors = filecmp.cmpfiles(left, right, cmp.common_files, shallow=False)
    out += [prefix + name for name in mismatch + errors]
    for name in cmp.common_dirs:
        out += _differing(left / name, right / name, f"{prefix}{name}/")
    return sorted(out)


def _diff(left: Path, right: Path, name: str, limit: int = 20) -> list[str]:
    """The first `limit` lines of a unified diff of `name` between the two
    corpora; none if a side lacks it or it is not UTF-8 text."""
    try:
        texts = [(side / name).read_text(encoding="utf-8").splitlines() for side in (left, right)]
    except (OSError, UnicodeDecodeError):
        return []
    return list(itertools.islice(difflib.unified_diff(
        *texts, f"base/{name}", f"head/{name}", lineterm=""), limit))


def _run_tree(tree: Path, out_dir: Path, setting: dict[str, str] | None = None) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               **(setting or {}))
    run = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--corpus", str(out_dir)],
                         env=env, capture_output=True, text=True)
    sys.stdout.write(f"{tree}: {run.stdout}")
    if run.returncode != 0:
        sys.exit(f"corpus run in {tree} failed:\n{run.stderr}")
    if f"crgx from {(tree / 'src' / 'crgx').resolve()}\n" not in run.stdout:
        sys.exit(f"corpus run in {tree} did not import its own crgx")


def _export(rev: str, dest: Path) -> None:
    """The files of git revision `rev`, written into the new directory
    `dest` by `git archive`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def compare_with(base: str, settings: list[tuple[str, str] | None]) -> int:
    """This checkout's corpus against `base`'s, once for each setting (None:
    natively); 1 if any file differs under any of them."""
    any_differ = False
    with tempfile.TemporaryDirectory(prefix="crgx-identity-") as tmp:
        tmp = Path(tmp)
        _export(base, tmp / "base")
        for k, setting in enumerate(settings):
            env = dict([setting]) if setting else None
            out_base, out_head = tmp / f"out-base-{k}", tmp / f"out-head-{k}"
            _run_tree(tmp / "base", out_base, env)
            _run_tree(ROOT, out_head, env)
            files = sum(1 for p in out_head.rglob("*") if p.is_file())
            differing = _differing(out_base, out_head)
            for name in differing:
                for line in _diff(out_base, out_head, name):
                    print(line)
            under = f" under {setting[0]}={setting[1]!r}" if setting else ""
            for name in differing:
                print(f"differs{under}: {name}")
            print(f"{len(differing)} of {files} files differ from {base}{under}")
            any_differ = any_differ or bool(differing)
    return 1 if any_differ else 0


def under_settings(settings: list[tuple[str, str]]) -> int:
    with tempfile.TemporaryDirectory(prefix="crgx-identity-") as tmp:
        tmp = Path(tmp)
        _run_tree(ROOT, tmp / "native")
        files = sum(1 for p in (tmp / "native").rglob("*") if p.is_file())
        for k, (name, value) in enumerate(settings):
            out = tmp / f"setting-{k}"
            _run_tree(ROOT, out, {name: value})
            differing = _differing(tmp / "native", out)
            for path in differing:
                print(f"differs under {name}: {path}")
            print(f"{len(differing)} of {files} files differ under {name}={value!r}")
    return 0


def _setting(text: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare this checkout with")
    parser.add_argument("--corpus", type=Path, help="write the corpus into this new directory")
    parser.add_argument("--setting", type=_setting, action="append", metavar="NAME=VALUE",
                        help="an environment variable of the corpus subprocesses; repeatable")
    args = parser.parse_args(argv)
    if args.corpus is not None:
        if args.base or args.setting:
            parser.error("--corpus takes neither --base nor --setting")
        print(f"{write_corpus(args.corpus.resolve())} files")
        return 0
    if args.base:
        return compare_with(args.base, args.setting or [None])
    if args.setting:
        return under_settings(args.setting)
    parser.error("one of --base, --corpus or --setting is required")


if __name__ == "__main__":
    sys.exit(main())
