"""Run run.py over several seeds and workloads and summarize the results.

    python3 perfbench/report.py --seeds 1,2,3,4,5 --seconds 16
    python3 perfbench/report.py --seeds 1,2,3,4,5,6,7,8,9,10 --trace \
        --json .bench_work/baseline.json

Prints, per workload, the median of every end-to-end metric over the seeds
with its unit and spread (first to third quartile as a share of the
median), failed_frac with its base, and the traffic shares.  With `--trace`
it also makes one traced run (first seed) per workload and prints the
per-layer metrics, the tracing overhead and each layer's self-time share.
`--json` writes all of it in the layout of perfbench/baseline.json, which
was made by the second command above and then copied there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("hull-qq", "hull-nf", "lattice", "symmetry")


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 400)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads(
        (Path(".bench_work") / f"result-{workload}-seed{seed}-trace{int(trace)}.json")
        .read_text())
    return result, details


def summarize(runs):
    attempted = sum(r["attempted"] for r, _ in runs)
    failed = sum(r["failed"] for r, _ in runs)
    out = {"failed_frac": {"failed": failed, "attempted": attempted,
                           "value": failed / attempted},
           "metrics": {}}
    print(f"  {len(runs)} runs, failed_frac {failed / attempted:.4f} "
          f"({failed} of {attempted} jobs)")
    for name, m in runs[0][0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r, _ in runs]
        med = statistics.median(values)
        out["metrics"][name] = {"median": med, "unit": m["unit"],
                                "spread": round(spread(values), 4), "values": values}
        print(f"  {name:28s} {med:12.6g} {m['unit']:6s} spread {spread(values):.3f}")
    for key in ("shares", "self_shares"):
        if key in runs[0][1]:
            out[key] = {k: statistics.median(d[key][k] for _, d in runs)
                        for k in runs[0][1][key]}
            print(f"  {key}: " + ", ".join(f"{k} {v:.3f}" for k, v in out[key].items()))
    if "tail_percentile" in runs[0][1]:
        out["tail_percentile"] = runs[0][1]["tail_percentile"]
        out["tail_beyond_min"] = min(d["tail_beyond"] for _, d in runs)
        print(f"  job_tail_s is p{out['tail_percentile'] * 100:g}, at least "
              f"{out['tail_beyond_min']} jobs beyond it in every run")
    return out


def baseline_entry(purpose, timed, traced):
    """One workload in the layout of perfbench/baseline.json."""
    entry = {
        "purpose": purpose,
        "traffic_shares": timed["shares"],
        "failed_frac": timed["failed_frac"],
        "job_tail_percentile": timed["tail_percentile"],
        "job_tail_min_jobs_beyond": timed["tail_beyond_min"],
        "end_to_end": timed["metrics"],
    }
    if traced is not None:
        entry["layer_self_time_shares"] = {
            k: round(v, 4) for k, v in traced["self_shares"].items()}
        entry["per_layer"] = {k: m["median"] for k, m in traced["metrics"].items()}
    return entry


def program_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json", help="write the summary to this file")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    purposes = {w["name"]: w["why"]
                for w in json.loads(Path("BENCHMARK.json").read_text())["workloads"]}
    summary = {}
    for workload in args.workloads.split(","):
        print(f"{workload}:")
        timed = summarize([run_one(workload, seed, args.seconds, False) for seed in seeds])
        traced = None
        if args.trace:
            print(f"{workload} traced (seed {seeds[0]}):")
            traced = summarize([run_one(workload, seeds[0], args.seconds, True)])
        summary[workload] = baseline_entry(purposes[workload], timed, traced)
    if args.json:
        about = (f"Figures measured with perfbench: {os.cpu_count()}-CPU "
                 f"{platform.machine()} machine, Python {platform.python_version()}, "
                 f"run_seconds {args.seconds}, seeds {args.seeds} for end-to-end "
                 "metrics (median, spread = interquartile range / median, values)"
                 + (f", seed {seeds[0]} for the traced run." if args.trace else "."))
        Path(args.json).write_text(json.dumps(
            {"about": about, "program_commit": program_commit(), "workloads": summary},
            indent=1) + "\n")


if __name__ == "__main__":
    main()
