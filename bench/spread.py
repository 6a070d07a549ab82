"""Run one workload over several seeds and print each end-to-end metric's
median and quartile spread (IQR / median), the steadiness measure the
benchmark's bounds are set against.

    python3 bench/spread.py --workload ball-exit --seeds 1-10 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: checks failed\n{out.stderr}", file=sys.stderr)
            return 1
        shares.add(result["failed"] / result["attempted"])
        for key, m in result["metrics"].items():
            values.setdefault(key, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}"
                                          for k, m in result["metrics"].items()),
              flush=True)
    print(f"failed share per run: {sorted(shares)}")
    for key, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{key:22s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {(q3 - q1) / med:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
