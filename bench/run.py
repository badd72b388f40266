"""spindle benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload verify|hull|mc_area --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, untraced and traced
    python3 bench/run.py --write-spec        # regenerate BENCHMARK.json

Run from the root of a checkout; the package is imported from its `src/`.
One process, one thread, one client: each op starts when the previous one
has finished and been checked.  `--trace 0` measures for `--seconds` and
prints the end-to-end metrics; `--trace 1` runs a fixed traced batch and
prints the per-layer metrics.  The last line of stdout is the result JSON;
the lines before it record the machine and any failed op.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# numpy's thread pools stay at one thread: the loop is single-threaded
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import spindle; print(time.perf_counter() - t)"
MAX_FAILURES_SHOWN = 20


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spindle() -> None:
    if not (SRC / "spindle" / "__init__.py").is_file():
        fail(f"no spindle package under {SRC.name}/ next to {BENCH.name}/: run from a checkout")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import spindle

    if not Path(spindle.__file__).resolve().is_relative_to(SRC):
        fail(f"imported spindle from {spindle.__file__}, not from this checkout")


def machine() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg": list(os.getloadavg()),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


class Failures:
    """Failed ops, each with its workload, seed and op index."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.records: list[dict] = []

    def __call__(self, op: int, reason: str) -> None:
        self.records.append({"workload": self.workload, "seed": self.seed,
                             "op": op, "reason": reason})

    def __len__(self) -> int:
        return len(self.records)


def setup(workload, seed: int) -> tuple[object, float]:
    """Import, input generation and warm-up, SETUP_REPEATS times; returns
    the inputs and the median set-up seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        inputs = workload.make_inputs(seed)
        workload.warmup(inputs)
        times.append(t_import + time.perf_counter() - t0)
    return inputs, statistics.median(times)


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_loop(workload, inputs, seconds: float, failures: Failures,
               speedometer) -> list[float]:
    """Closed loop for `seconds`; returns the op times, which exclude the
    checks and the speed slice that runs after every op."""
    from spindle.geometry import SpindleError

    times = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            out = workload.op(inputs, i)
        except SpindleError as e:
            times.append(time.perf_counter() - t0)
            failures(i, str(e))
        else:
            times.append(time.perf_counter() - t0)
            reason = workload.check(inputs, i, out)
            if reason is not None:
                failures(i, reason)
        speedometer.tick()
        i += 1
    beyond_p90 = len(times) - math.ceil(0.9 * len(times))
    if beyond_p90 < 10:
        print(f"bench: only {beyond_p90} samples beyond p90; run longer", file=sys.stderr)
    return times


def loop_metrics(times: list[float]) -> dict:
    ordered = sorted(times)
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * quantile(ordered, 0.5),
        "op_p90_ms": 1e3 * quantile(ordered, 0.9),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_spindle()
    from layers import traced_run
    from spec import END_TO_END, PER_LAYER, UNITS
    from speed import Speedometer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    info = machine()
    failures = Failures(name, seed)
    inputs, setup_s = setup(workload, seed)
    if trace:
        metrics, attempted = traced_run(workload, inputs, failures)
        wanted = PER_LAYER
    else:
        speedometer = Speedometer(workload.speed_slice)
        times = timed_loop(workload, inputs, seconds, failures, speedometer)
        attempted = len(times)
        info["raw"] = loop_metrics(times)
        info["speed_factor"] = speedometer.factor()
        metrics = loop_metrics([t * speedometer.scale(i) for i, t in enumerate(times)])
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = END_TO_END
    names = [m[0] for m in wanted]
    if sorted(metrics) != sorted(names):
        fail(f"metrics do not match the spec: {sorted(set(metrics) ^ set(names))}")
    info["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"machine": info, "workload": name, "seed": seed, "trace": int(trace)}))
    for record in failures.records[:MAX_FAILURES_SHOWN]:
        print(json.dumps({"failed_op": record}))
    print(json.dumps({
        "correct": len(failures) == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    status = 0
    for name in ("verify", "hull", "mc_area"):
        for trace in (0, 1):
            print(f"# {name} --trace {trace}", flush=True)
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            status |= subprocess.run(cmd, cwd=ROOT, timeout=900).returncode
    return status


def write_spec() -> int:
    load_spindle()
    from spec import benchmark_json
    from workloads import WORKLOADS

    text = json.dumps(benchmark_json(WORKLOADS.values()), indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(text)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("verify", "hull", "mc_area", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true")
    args = p.parse_args(argv)
    if args.write_spec:
        return write_spec()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
