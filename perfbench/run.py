"""flexarray benchmark: one workload, one seed, one process, closed loop.

    python3 perfbench/run.py --workload sumrate-full --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy. A run has these phases:

1. The reference panel: operations 0..PANEL_OPS-1 of REFERENCE_SEED. It warms
   caches, compares the outputs that do not depend on the GP search with
   ``reference.json`` (1e-9 relative), and gives the result-quality metrics
   (``rate_gain.*``, ``crb_gain``) on the same drops for every commit.
2. ``--trace 0``: set-up time, the median of SETUP_PROBES fresh interpreters
   that import flexarray and build operation 0's inputs, gauged (see below).
3. ``--trace 0``: the timed phase, operations 0, 1, ... of ``--seed``, one
   at a time, until ``--seconds`` have passed, each between two runs of the
   speed gauge. No wrapper is installed.
4. ``--trace 1`` in place of 2 and 3: each operation runs untraced, then
   again with span wrappers around every public flexarray function, which
   are removed after each traced operation.

The end-to-end times are *gauged*: a small shared machine changes speed by
up to 2x for seconds to minutes at a time, so each timed interval is
divided by the mean time of a fixed calibration kernel (``Gauge``) run just
before and just after it, and multiplied by GAUGE_REFERENCE_S. A time then
reads in seconds at the speed at which the gauge takes GAUGE_REFERENCE_S.
The raw wall-clock figures are printed alongside.

Every operation's output is checked; a raise or a failed check counts as a
failed operation. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and the run's provenance. The
metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Largest matrices are 48x48 (ZF) and 24x24 (Fisher): one BLAS thread keeps
# the timings free of thread scheduling noise on a small shared machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
# The gauge's time on the machine this benchmark was written on (2-vCPU
# Xeon VM) while uncontended, so gauged times read close to wall seconds there.
GAUGE_REFERENCE_S = 0.020
PANEL_OPS = 4
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-9

clock = time.perf_counter


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


class Runner:
    """Runs and checks operations of one workload; ``problems`` holds one
    entry per failed operation."""

    def __init__(self, workload_name: str, workload, references: dict):
        self.name = workload_name
        self.workload = workload
        self.references = references.get(workload_name, {})
        self.attempted = 0
        self.problems: list[str] = []

    def run_op(self, seed: int, index: int):
        """Build and run one operation; returns (seconds, output or None)."""
        self.attempted += 1
        start = clock()
        try:
            op = self.workload.build(seed, index)
            output = self.workload.run(op)
        except Exception:  # a failing operation is counted, the run goes on
            elapsed = clock() - start
            self.problems.append(f"op {seed}/{index} raised:\n{traceback.format_exc()}")
            return elapsed, None
        elapsed = clock() - start
        problems = self.workload.check(op, output)
        if seed == REFERENCE_SEED and str(index) in self.references:
            problems += self._reference_problems(output, self.references[str(index)])
        if problems:
            self.problems.append(f"op {seed}/{index}: " + "; ".join(problems))
            return elapsed, None
        return elapsed, output

    def _reference_problems(self, output, expected: list) -> list:
        got = self.workload.reference_values(output)
        if len(got) != len(expected):
            return [f"{len(got)} reference values, expected {len(expected)}"]
        return [f"reference value {i}: {g!r} != {e!r}" for i, (g, e) in enumerate(zip(got, expected))
                if not math.isclose(g, e, rel_tol=REFERENCE_RTOL, abs_tol=0.0)]

    def timed_phase(self, seed: int, seconds: float, gauge: Gauge):
        """Closed loop over operations 0, 1, ... until ``seconds`` have passed,
        with a gauge run before the first operation and after each one."""
        durations, gauges = [], [gauge()]
        start = clock()
        while True:
            durations.append(self.run_op(seed, len(durations))[0])
            gauges.append(gauge())
            wall = clock() - start
            if wall >= seconds:
                return durations, gauges, wall


class Gauge:
    """A fixed calibration kernel that does not use flexarray. It mixes the
    kinds of work the workloads do: an interpreted loop, small dense linear
    algebra, complex exponentials over 10^5 elements (as in the channel
    models) and a squared-exponential kernel between 2048 candidates and 60
    points (as in GP acquisition). Calling it returns the seconds it took."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((48, 48))
        self._b = rng.standard_normal((48, 4))
        self._phase = rng.standard_normal(100_000)
        self._candidates = rng.standard_normal((2048, 1, 3))
        self._points = rng.standard_normal((1, 60, 3))
        self()  # warm-up: first LAPACK calls load their code

    def __call__(self) -> float:
        np, a, b = self._np, self._a, self._b
        start = clock()
        total = 0
        for i in range(100_000):
            total += i
        for _ in range(20):
            np.linalg.solve(a, b)
            np.linalg.eigh(a @ a.T)
        np.exp(1j * self._phase).sum()
        np.exp(-0.5 * ((self._candidates - self._points) ** 2).sum(axis=-1)).sum()
        return clock() - start


def gauged(durations: list, gauges: list) -> list:
    """Scale interval ``i`` by GAUGE_REFERENCE_S over the mean of
    ``gauges[i]`` and ``gauges[i + 1]``, the gauge runs just before and just
    after it, to the speed at which the gauge takes GAUGE_REFERENCE_S."""
    if len(gauges) != len(durations) + 1:
        raise ValueError(f"{len(durations)} intervals need {len(durations) + 1} gauges, "
                         f"got {len(gauges)}")
    return [seconds * 2.0 * GAUGE_REFERENCE_S / (gauges[i] + gauges[i + 1])
            for i, seconds in enumerate(durations)]


def measure_setup(workload_name: str, seed: int, gauge: Gauge) -> tuple:
    """Seconds from starting a fresh interpreter until operation 0 is ready,
    with a gauge run before the first probe and after each one."""
    samples, gauges = [], [gauge()]
    command = [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)]
    for _ in range(SETUP_PROBES):
        start = clock()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(clock() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        gauges.append(gauge())
    return samples, gauges


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_version,
            "blas_threads": {name: os.environ[name] for name in BLAS_ENV},
            "git_commit": commit, "source_sha256": digest.hexdigest()[:16], "seed": seed}


def declared_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(runner: Runner, seed: int, seconds: float, panel: list, gauge: Gauge) -> dict:
    setup, setup_gauges = measure_setup(runner.name, seed, gauge)
    durations, gauges, wall = runner.timed_phase(seed, seconds, gauge)
    op_times = gauged(durations, gauges)
    if any(out is None for out in panel):
        quality = {}  # already counted as failed operations
    else:
        quality = runner.workload.quality(panel)
    metrics = {
        "setup_s": statistics.median(gauged(setup, setup_gauges)),
        "ops_per_s": len(op_times) / sum(op_times),
        "op_p50_s": statistics.median(op_times),
        "success_share": 1.0 - len(runner.problems) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in ("rate_gain.sfp", "rate_gain.jfp", "rate_gain.sjfp", "crb_gain"):
        metrics[name] = quality.get(name, 0.0)
    all_gauges = setup_gauges + gauges
    OUT_DIR.mkdir(exist_ok=True)
    target = OUT_DIR / f"timed-{runner.name}-seed{seed}.json"
    target.write_text(json.dumps({"op_s": durations, "op_gauge_s": gauges, "setup_s": setup,
                                  "setup_gauge_s": setup_gauges}) + "\n")
    print(f"# timed phase: {len(durations)} operations in {wall:.3f} s wall; raw "
          f"{len(durations) / wall:.4f} ops/s, raw median {statistics.median(durations):.4f} s; "
          f"raw set-up samples {[round(s, 4) for s in setup]}; gauge median "
          f"{statistics.median(all_gauges) * 1e3:.2f} ms, range {min(all_gauges) * 1e3:.2f}"
          f"-{max(all_gauges) * 1e3:.2f} ms over {len(all_gauges)} runs; raw times written to "
          f"{target.relative_to(ROOT)}")
    return metrics


def traced(runner: Runner, seed: int, seconds: float):
    """Run each operation untraced, then traced, until ``seconds`` have
    passed; pairing the two keeps machine drift out of the overhead ratio."""
    import numpy as np

    import layers

    tracer = layers.make_tracer()
    plain, durations, marks = [], [], []
    cpu = wall = 0.0
    start = clock()
    while not durations or clock() - start < seconds:
        index = len(durations)
        plain.append(runner.run_op(seed, index)[0])
        marks.append(len(tracer))
        cpu_before, wall_before = sum(os.times()[:2]), clock()
        with tracer.installed():
            durations.append(runner.run_op(seed, index)[0])
        cpu += sum(os.times()[:2]) - cpu_before
        wall += clock() - wall_before
    marks.append(len(tracer))
    spans = layers.Spans(tracer)
    metrics = layers.layer_metrics(spans, len(durations))
    metrics.update({
        "process.cpu_s": cpu / len(durations),
        "process.cpu_util": cpu / wall,
        "trace.overhead_ratio": statistics.median(durations) / statistics.median(plain),
    })
    problems = layers.conservation_problems(spans, marks, runner.workload)
    OUT_DIR.mkdir(exist_ok=True)
    target = OUT_DIR / f"spans-{runner.name}-seed{seed}.npz"
    np.savez(target, names=np.array(tracer.names), op_marks=np.array(marks), **tracer.arrays())
    print(f"# traced phase: {len(durations)} operations, each also run untraced; "
          f"{len(tracer)} spans written to {target.relative_to(ROOT)}")
    return metrics, problems


def main(argv=None) -> int:
    if not (SRC / "flexarray" / "__init__.py").is_file():
        print(f"error: flexarray sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({name: BLAS_THREADS for name in BLAS_ENV})  # before numpy loads
    # Each CPU of a shared VM changes speed on its own, so the gauge tracks the
    # operations only on the CPU they run on: pin this process, and the set-up
    # probes it starts, to one CPU, the last one it may use.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import flexarray
    import workloads
    from tracer import wrapped_names

    if Path(flexarray.__file__).resolve().parent != SRC / "flexarray":
        print(f"error: flexarray imported from {flexarray.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    gauge = Gauge()
    load_start, gauge_start = os.getloadavg(), gauge()
    units = declared_units(bool(args.trace))
    runner = Runner(args.workload, workloads.WORKLOADS[args.workload],
                    json.loads((HERE / "reference.json").read_text()))

    panel = [runner.run_op(REFERENCE_SEED, index)[1] for index in range(PANEL_OPS)]
    if wrapped_names():
        raise RuntimeError("span wrappers installed outside the traced phase")
    problems = []
    if args.trace:
        metrics, problems = traced(runner, args.seed, args.seconds)
    else:
        metrics = end_to_end(runner, args.seed, args.seconds, panel, gauge)
    if wrapped_names():
        raise RuntimeError("span wrappers left installed")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    info = provenance(args.seed)
    info.update(workload=args.workload, trace=args.trace,
                loadavg_start=load_start, loadavg_end=os.getloadavg(),
                gauge_s_start=gauge_start, gauge_s_end=gauge())
    for problem in runner.problems + problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{name:45s} {metrics[name]:14.6g} {units[name]}")
    print("# provenance: " + json.dumps(info, sort_keys=True))
    failed = len(runner.problems)
    result = {"correct": failed == 0 and not problems, "attempted": runner.attempted,
              "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                          for name in metrics}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
