"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh interpreter with the BLAS pools capped at one
thread, so the workload's own threads=2 estimates are the only parallelism.
Untraced (--trace 0), rounds run back to back until the next would overrun
--seconds, and the end-to-end metrics are medians over rounds.  Traced
(--trace 1), traced rounds are followed by one untraced round, the reference
for the tracing overhead, then the single-thread baselines, the layer probe
(workloads.probe) and the RNG probe.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from eigenwalk._rng import NormalChunks, batch_rng  # noqa: E402
from spans import Tracer, self_times, totals  # noqa: E402
from workloads import THREADS, WORKLOADS, Round, probe  # noqa: E402

RNG_PROBE_SECONDS = 0.25


def run_rounds(wl, tracer, seconds: float) -> list[tuple[Round, float]]:
    """Whole rounds until the next one would end after `seconds`."""
    out = []
    start = time.perf_counter()
    while True:
        r = Round(tracer)
        t0 = time.perf_counter()
        with tracer.span("round"):
            wl.round(r)
        out.append((r, time.perf_counter() - t0))
        typical = statistics.median(w for _, w in out)
        if time.perf_counter() - start + typical > seconds:
            return out


def end_to_end(rounds) -> dict:
    walls = [w for _, w in rounds]
    return {
        "pipeline_s": (statistics.median(walls), "s"),
        "mc_s_to_1pct_stderr": (statistics.median(r.mc_cost for r, _ in rounds), "s"),
        "path_steps_per_s": (statistics.median(r.path_steps / r.mc_time
                                               for r, _ in rounds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def rng_probe(tracer, seed: int) -> float:
    """Normals per second from repeated NormalChunks.draw calls."""
    rng = batch_rng(seed, 0x50524F42, 0)
    chunks = NormalChunks()
    k, n, m = 32, 2, 16384
    done = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < RNG_PROBE_SECONDS:
        with tracer.span("rng.NormalChunks.draw", normals=k * n * m):
            chunks.draw(rng, k, n, m, 1.0)
        done += k * n * m
    return done / (time.perf_counter() - t0)


def subtree(spans, root: str):
    """The spans named `root` and everything below them."""
    ids, out = set(), []
    for s in spans:  # a child is always recorded after its parent
        if s.name == root or s.parent in ids:
            ids.add(s.id)
            out.append(s)
    return out


def per_layer(spans, rounds, probe_round, untraced_wall: float, extra: dict) -> dict:
    """Layer metrics per traced round, from the spans of those rounds.  A
    function the rounds never call is measured on its one probe call."""
    n = len(rounds)
    in_rounds = subtree(spans, "round")
    in_probe = subtree(spans, "probe")
    called = {s.name for s in in_rounds}

    def source(*names):
        """(spans, calls per round, ledgers) that measure `names`."""
        if called.intersection(names):
            return in_rounds, n, [r for r, _ in rounds]
        return in_probe, 1, [probe_round]

    def dur(name):
        src, k, _ = source(name)
        return totals(src, name)[0] / k

    def rate(*names):
        src, _, _ = source(*names)
        steps = sum(totals(src, nm)[2].get("path_steps", 0) for nm in names)
        return steps / sum(totals(src, nm)[0] for nm in names)

    def count(key, name):
        _, k, ledgers = source(name)
        return sum(r.counts.get(key, 0) for r in ledgers) / k

    walk = ("brownian.survival_probability", "brownian.feynman_kac",
            "brownian.mixed_eigenvalue_via_decay")
    theta_sec, theta_calls, _ = totals(source("theta.theta")[0], "theta.theta")
    return {
        "geometry.build_domain_s": (dur("geometry.build_domain"), "s"),
        "geometry.extract_level_set_s": (dur("geometry.extract_level_set"), "s"),
        "geometry.set_distance_s": (dur("geometry.set_distance"), "s"),
        "geometry.level_set_segments":
            (count("level_set_segments", "geometry.extract_level_set"), "count"),
        "spectral.assemble_laplacian_s": (dur("spectral.assemble_laplacian"), "s"),
        "spectral.solve_eigs_s": (dur("spectral.solve_eigs"), "s"),
        "spectral.survival_profile_s": (dur("spectral.survival_profile"), "s"),
        "spectral.dofs": (count("dofs", "spectral.solve_eigs"), "count"),
        "spectral.max_rel_residual":
            (max(r.counts["max_rel_residual"] for r in source("spectral.solve_eigs")[2]),
             "1"),
        "brownian.survival_probability_s": (dur("brownian.survival_probability"), "s"),
        "brownian.feynman_kac_s": (dur("brownian.feynman_kac"), "s"),
        "brownian.mixed_eigenvalue_via_decay_s":
            (dur("brownian.mixed_eigenvalue_via_decay"), "s"),
        "brownian.walk_path_steps_per_s": (rate(*walk), "1/s"),
        "brownian.starts": (count("starts", "brownian.mixed_eigenvalue_via_decay"),
                            "count"),
        "brownian.thread_speedup": (extra["brownian.thread_speedup"], "ratio"),
        "theta.theta_us_per_call": (1e6 * theta_sec / theta_calls, "us"),
        "theta.theta_inverse_s": (dur("theta.theta_inverse"), "s"),
        "theta.mc_exit_s": (dur("theta.mc_exit_probability"), "s"),
        "theta.mc_exit_path_steps_per_s": (rate("theta.mc_exit_probability"), "1/s"),
        "theta.thread_speedup": (extra["theta.thread_speedup"], "ratio"),
        "rng.normals_per_s": (extra["rng.normals_per_s"], "1/s"),
        "check.self_s": (self_times(in_rounds).get("check", 0.0) / n, "s"),
        "trace.spans_per_round": (len(in_rounds) / n, "count"),
        "trace.overhead_ratio": (statistics.median(w for _, w in rounds) / untraced_wall,
                                 "ratio"),
    }


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload_threads": THREADS,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine()}
    if args.trace:
        tracer = Tracer(True)
        rounds = run_rounds(wl, tracer, args.seconds)
        ref = run_rounds(wl, Tracer(False), 0.0)  # one untraced round, warm
        base = Round(tracer)
        extra = wl.baseline(base) if hasattr(wl, "baseline") else {}
        probe_round = Round(tracer)
        with tracer.span("probe"):
            extra = {**probe(probe_round), **extra}
        extra["rng.normals_per_s"] = rng_probe(tracer, args.seed)
        metrics = per_layer(tracer.spans, rounds, probe_round, ref[0][1], extra)
        all_rounds = rounds + ref + [(base, 0.0), (probe_round, 0.0)]
        in_rounds = subtree(tracer.spans, "round")
        record["self_s_per_round"] = {layer: sec / len(rounds) for layer, sec
                                      in self_times(in_rounds).items()}
        record["spans"] = tracer.to_records()
    else:
        rounds = run_rounds(wl, Tracer(False), args.seconds)
        metrics = end_to_end(rounds)
        all_rounds = rounds

    results = [c for r, _ in all_rounds for c in r.checks]
    failed_checks = [c for c in results if not c[1]]
    record.update({
        "rounds": len(rounds),
        "round_walls_s": [w for _, w in rounds],
        "checks": sorted({(name, ok, detail) for name, ok, detail in results}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for name, _, detail in failed_checks:
        print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": len(results),
        "failed": 0,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
