"""crgx benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload spatial-audit --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: crgx is imported from ./src,
never from an installed copy, and every file it writes stays under
./.perfbench_out. Workloads, metrics and checks are described in
perfbench/README.md; BENCHMARK.json names the metrics and their units.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 the workload runs once untraced and once traced (spans around
every public crgx call made from here), then a per-layer sweep runs, and the
last line holds the per-layer metrics. Earlier lines record the machine and
source identity and repeat every metric in readable form.
"""

from __future__ import annotations

import os

# Load comes from one process with no helper threads: pin BLAS before numpy
# loads, and keep the evaluate thread knob unset.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"
os.environ.pop("CRG_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from pace import at_reference, kernel_seconds, to_reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
MIN_PASSES = 3
PACE_SAMPLES = 10


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_crgx():
    if not (SRC / "crgx" / "__init__.py").is_file():
        _fail(f"no crgx sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import crgx
    if Path(crgx.__file__).resolve().parent != (SRC / "crgx").resolve():
        _fail(f"imported crgx from {crgx.__file__}, not from {SRC}")
    return crgx


def _declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


def _cold_import_seconds() -> float:
    """CPU time (user plus system) of a fresh interpreter importing crgx, as
    a CLI user pays it. Its wall time also counts how long the new process
    waited to be scheduled, which varied twofold from one run to the next."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import crgx"], cwd=ROOT, env=env,
                   check=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def _machine(crgx, np) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sources = sorted((SRC / "crgx").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = done.stdout.strip() or None
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": {v: os.environ[v] for v in BLAS_THREADS},
            "commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "crgx_version": crgx.__version__}


def _phase(workload, state, probe, seconds: float, first: int) -> list:
    """Passes of fixed work, numbered from `first`, until `seconds` have
    gone by (at least MIN_PASSES)."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(state, probe, first + len(passes)))
    return passes


def _kernel_runs(passes: list) -> list:
    return [k for p in passes for timed in p.calls.values() for _, k in timed]


def _kinds(passes: list) -> tuple[dict, dict]:
    """Each call kind's time at the reference speed, and its calls per pass."""
    pairs: dict[str, list] = {}
    for p in passes:
        for kind, timed in p.calls.items():
            pairs.setdefault(kind, []).extend(timed)
    return ({kind: at_reference(timed) for kind, timed in pairs.items()},
            {kind: len(timed) / len(passes) for kind, timed in pairs.items()})


def _pass_seconds(passes: list, prefix: str = "") -> float:
    """One pass's time at the reference speed, over kinds starting with
    `prefix`."""
    seconds, per_pass = _kinds(passes)
    return sum(seconds[k] * per_pass[k] for k in seconds if k.startswith(prefix))


def _end_to_end(workload, setups: list, passes: list) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and each kind's ms at the
    reference speed with its call count. Set-up time is scaled by the
    kernel's median over the whole run: kernel runs taken right after each
    set-up were too few to track a fresh interpreter's start, and scaling
    by them doubled the spread of `setup_s`."""
    seconds, per_pass = _kinds(passes)
    values = {
        "setup_s": statistics.median(setups) * to_reference(_kernel_runs(passes)),
        "wall_s": _pass_seconds(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": (statistics.median(p.items for p in passes)
                             / _pass_seconds(passes, workload.throughput_prefix)),
        "call_ms": seconds[workload.headline] * 1e3,
    }
    return values, {k: [round(seconds[k] * 1e3, 4), round(per_pass[k] * len(passes))]
                    for k in sorted(seconds)}


def _per_layer(layer: dict, units: dict, probe, untraced: list, traced: list,
               first_span: int, last_span: int, scale: float) -> dict:
    """The sweep's metrics, times scaled by `scale` to the reference speed,
    plus those of the traced passes."""
    values = {name: value * scale if units.get(name) in ("s", "ms", "us") else value
              for name, value in layer.items()}
    values["trace.overhead_s"] = _pass_seconds(traced) - _pass_seconds(untraced)
    values["trace.spans"] = len(probe.spans)
    self_s = probe.self_seconds(first_span, last_span)
    traced_scale = to_reference(_kernel_runs(traced))
    for module in ("bench", "game", "cam", "cli"):
        values[f"trace.self_s.{module}"] = self_s.get(module, 0.0) * traced_scale / len(traced)
    for name in ("game.coalitions", "game.permutations", "imgio.bytes_read",
                 "imgio.bytes_written", "metrics.images_failed"):
        values[name] = traced[0].counts.get(name, 0)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = _declared_metrics()
    if args.workload not in declared["workloads"]:
        _fail(f"unknown workload {args.workload!r}; expected one of {declared['workloads']}")
    crgx = _import_crgx()
    import numpy as np
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from probe import Probe
    from workloads import WORKLOADS
    import layers

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    probe = Probe(trace=False)
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            cold = _cold_import_seconds()
            start = time.perf_counter()
            state = workload.setup(args.seed, workdir / f"setup{i}")
            setups.append(cold + time.perf_counter() - start)
        # one untimed pass first, so one-time loads (the kernel's too) land
        # before timing
        workload.run_pass(state, probe, 0)

        if not args.trace:
            passes = _phase(workload, state, probe, args.seconds, 1)
        else:
            # the untraced and the traced phase share --seconds
            untraced = _phase(workload, state, probe, args.seconds / 2, 1)
            probe.trace = True
            first_span = len(probe.spans)
            traced = _phase(workload, state, probe, args.seconds / 2,
                            1 + len(untraced))
            last_span = len(probe.spans)
            passes = untraced + traced
            kernel = [kernel_seconds() for _ in range(PACE_SAMPLES)]
            try:
                layer = layers.sweep(probe, args.seed, workdir)
            except Exception as err:  # a crgx defect: report it and keep the run
                probe.check(False, f"layer sweep stopped: {err!r}")
                layer = {}
            kernel += [kernel_seconds() for _ in range(PACE_SAMPLES)]
        info = workload.finish(state, passes, probe)
        if args.trace:
            kind = "per_layer"
            values = _per_layer(layer, declared[kind], probe, untraced, traced, first_span,
                                last_span, to_reference(kernel))
            probe.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed,
                         "traced_spans": [first_span, last_span],
                         "self_s": probe.self_seconds()})
        else:
            kind = "end_to_end"
            values, info["reference_ms_and_calls"] = _end_to_end(workload, setups, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared[kind]
    if set(values) != set(units):
        probe.check(False, f"metrics {sorted(set(values) ^ set(units))} do not match "
                           f"BENCHMARK.json {kind}")
    for line in probe.errors:
        sys.stderr.write(line.rstrip() + "\n")
    print("# machine " + json.dumps(_machine(crgx, np), sort_keys=True))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "passes": len(passes), "info": info,
                                 "kernel_ms_median": 1e3 * statistics.median(
                                     _kernel_runs(passes)),
                                 "setups_s": setups},
                                sort_keys=True))
    for name in units:
        if name in values:
            print(f"# {name:44s} {values[name]:16.6f} {units[name]}")
    print(json.dumps({
        "correct": probe.failed == 0,
        "attempted": probe.attempted,
        "failed": probe.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
