"""Benchmark of the eigenwalk lab: one workload per run, or all of them.

    python3 bench/run.py --workload bottleneck-spectral --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh interpreter (bench/worker.py) with the BLAS
pools capped at one thread; its estimates use threads=2.  Untraced runs
print the end-to-end metrics, traced runs the per-layer ones; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  `setup_s` is the median in-process time of
`import eigenwalk` over several fresh interpreters.  Full run records
(machine facts, every check with its detail, spans of traced runs) go to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "eigenwalk" / "__init__.py"
WORKLOADS = ("bottleneck-spectral", "walker-survival", "walker-multistart",
             "ball-exit")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 160
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import eigenwalk; "
                "print(time.perf_counter() - t0)")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(env) -> float:
    times = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_workload(name: str, args, env) -> dict:
    out_file = HERE / "out" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out_file)],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": setup_seconds(env), "unit": "s"},
                             **result["metrics"]}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args, env)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(f"== {name} seed={args.seed} trace={args.trace}: "
              f"attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"   {key:40s} {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
