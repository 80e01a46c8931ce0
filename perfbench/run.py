"""algpoly benchmark: seeded job streams through the CLI pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload hull-qq --seed 1 --seconds 16 --trace 0

With `--trace 0` it runs one workload in a child process under an
address-space cap and measures the end-to-end metrics (see worker.py for
how times are scaled to the machine's speed), `setup_s` from fresh
interpreters importing algpoly between jobs.  With `--trace 1` the child runs the seed's
first round once untraced and once with spans around the program's public
functions, and reports the per-layer metrics.  Either way the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; details (failures, tail percentile, traffic shares,
layer self-time shares) go to standard error and to
`.bench_work/result-<workload>-seed<n>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

from worker import END_GRACE_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("hull-qq", "hull-nf", "lattice", "symmetry")
UNITS = {
    "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s",
}
MEMORY_CAP = 2 << 30  # bytes of address space for the workload process
# the worker runs no job past --seconds + END_GRACE_S; what follows (oracle
# checks, printing) takes a few seconds
CHILD_GRACE_S = END_GRACE_S + 20


def per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name in ("trace.overhead", "combinat.rank_per_face",
                "combinat.aut_useful_ratio", "discrete.points_per_row"):
        return "ratio"
    if name == "numfield.gen_digits_max":
        return "digits"
    return "count"


def program_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_workload(root, args):
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # own process group, so a timeout also ends the setup interpreters it starts
    proc = subprocess.Popen(cmd, cwd=root, env=program_env(root), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=_cap_memory, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=args.seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("workload process timed out and was killed")
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "algpoly" / "__init__.py").is_file():
        print(f"error: no algpoly sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    try:
        record = run_workload(root, args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in record["metrics"].items()}
    else:
        metrics = {name: {"value": record["metrics"][name], "unit": UNITS[name]}
                   for name in UNITS}
    details = dict(record, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace)
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    (work / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    report(details, metrics)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def report(details, metrics):
    err = sys.stderr
    attempted, failed = details["attempted"], details["failed"]
    print(f"{details['workload']} seed {details['seed']}: {attempted} jobs attempted, "
          f"{failed} failed (failed_frac {failed / attempted:.4f} of {attempted})",
          file=err)
    for failure in details["failures"]:
        print(f"  FAILED {failure['job']}: {'; '.join(failure['problems'])}", file=err)
    if "tail_percentile" in details:
        print(f"  job_tail_s is p{details['tail_percentile'] * 100:g} of "
              f"{attempted} jobs, {details['tail_beyond']} beyond it", file=err)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}", file=err)
    for key in ("shares", "self_shares"):
        if key in details:
            body = ", ".join(f"{k} {v:.3f}" for k, v in details[key].items())
            print(f"  {key}: {body}", file=err)
    if details.get("absent"):
        print(f"  absent (not traced): {', '.join(details['absent'])}", file=err)


if __name__ == "__main__":
    sys.exit(main())
