"""Runs one workload in this process and prints a JSON record as its last line.

Started by run.py in a child process with an address-space cap.  Jobs run
in a closed loop with one client: each job's `.in` text is written to a
temporary directory under `<root>/.bench_work` and run through
`algpoly.cli.main([path])` with default flags, and the next job starts when
it has finished.  The loop runs whole rounds, at least three, until
`--seconds` of job time (scaled as described in `timed`) have passed, so
every run sees the same mix.  A job fails if it exits non-zero, raises,
exceeds the per-job time limit or the memory cap, or fails its oracle check.

Runaway jobs cannot stop the record from being printed: no job starts later
than LOOP_GRACE_S after `--seconds`, and no job, rational twins included,
runs past END_GRACE_S after it.  A job cut short by either limit counts as
failed.

`setup_s` samples (a fresh interpreter importing algpoly) are taken between
jobs, spread over the run, so that they see the same machine as the jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from math import ceil
from pathlib import Path
from typing import NamedTuple

from jobs import ROUNDS, TAIL_PERCENTILE, rounds
from checks import check

SETUP_STARTS = 7
JOB_LIMIT_S = 30  # the slowest job at the seed commit took under 4 s
# seconds after --seconds: no job starts later, and no job runs later
LOOP_GRACE_S = 60
END_GRACE_S = 130
# a lattice round takes about 7.5 s, so shorter runs would leave fewer than
# ten jobs beyond job_tail_s; no other workload comes near this minimum
MIN_ROUNDS = 3
REFERENCE_ITERATIONS = 8000
# machine_speed() on the 2-CPU x86-64 machine the benchmark was built on, in
# its fast state (5th percentile of 400 timings; the median was 0.65 ms)
REFERENCE_SECONDS = 0.0005


class JobTimeout(BaseException):
    """Raised in the main thread when a job exceeds its time limit."""


def _on_alarm(signum, frame):
    raise JobTimeout()


class Result(NamedTuple):
    rc: int | None  # exit code, None when the job did not return
    wall: float  # seconds in cli.main
    cycle: float  # seconds for the whole job: input file, cli.main, clean-up
    error: str | None
    stem: Path  # the job's .out and .aut stay here until Runner.take


class Runner:
    def __init__(self, cli, workdir, end):
        self.cli = cli
        self.workdir = workdir
        self.end = end  # time.monotonic() after which no job may run
        self.count = 0

    def run(self, text):
        """Run one job; its outputs stay on disk, so results stay small."""
        self.count += 1
        stem = self.workdir / f"job{self.count}"
        limit = min(JOB_LIMIT_S, self.end - time.monotonic())
        if limit <= 0:
            return Result(None, 0.0, 0.0, "no time left in the run", stem)
        cycle_start = time.perf_counter()
        path = stem.with_suffix(".in")
        path.write_text(text)
        rc, error = None, None
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main([str(path)])
        except JobTimeout:
            error = "time limit"
        except MemoryError:
            error = "memory limit"
        except Exception as exc:  # a traceback reaching the user is a failure
            error = f"raised {exc!r}"
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        path.unlink()
        return Result(rc, wall, time.perf_counter() - cycle_start, error, stem)

    @staticmethod
    def take(result):
        """The job's .out and .aut text (empty if absent), removing the files."""
        texts = []
        for suffix in (".out", ".aut"):
            p = result.stem.with_suffix(suffix)
            texts.append(p.read_text() if p.exists() else "")
            p.unlink(missing_ok=True)
        return texts


def verify(runner, job, result, twins):
    out, aut = runner.take(result)
    if result.error:
        return [result.error]
    twin_out = None
    if job.twin is not None:
        if job.twin not in twins:
            twin = runner.run(job.twin)
            twin_out, _ = runner.take(twin)
            twins[job.twin] = twin_out if twin.rc == 0 and not twin.error else None
        twin_out = twins[job.twin]
        if twin_out is None:
            return ["rational twin failed"]
    return check(job, result.rc, out, aut, twin_out)


def tail(times, q):
    """The q-quantile (nearest rank) and the number of jobs beyond it."""
    ordered = sorted(times)
    rank = max(ceil(q * len(ordered)) - 1, 0)
    return ordered[rank], len(ordered) - rank - 1


def setup_time(root):
    """Wall time of a fresh interpreter starting and importing algpoly."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import algpoly"], cwd=root,
                          capture_output=True, text=True, timeout=20)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"error: importing algpoly failed:\n{proc.stderr}")
    return elapsed


def shares(jobs):
    """Share of attempted jobs with each traffic property."""
    n = len(jobs)
    out = {}
    degrees = sorted({j.tags["degree"] for j in jobs})
    for deg in degrees:
        out[f"degree_{deg}"] = sum(j.tags["degree"] == deg for j in jobs) / n
    for key in ("rational_rows_in_nf", "h_input", "simplicial", "lattice_4d"):
        if any(key in j.tags for j in jobs):
            out[key] = sum(bool(j.tags.get(key)) for j in jobs) / n
    orders = [max(job.expected.get("orders", {0: 0}).values()) for job in jobs]
    if any(orders):
        out["group_order_ge_48"] = sum(o >= 48 for o in orders) / n
    return out


def machine_speed():
    """Best of three timings of a fixed pure-Python loop, in seconds.

    The shared 2-CPU machine the benchmark was built on switches, for
    seconds at a time, between speeds up to 1.6x apart; this loop, timed next
    to every job, tells how fast the machine was while the job ran.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_ITERATIONS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def timed(runner, args, loop_deadline):
    """End-to-end metrics of whole rounds run for at least --seconds.

    Every time is reported as its wall time scaled to the reference speed:
    times REFERENCE_SECONDS, divided by the reference loop's time around the
    measurement.  Raw wall-time figures are kept in the record as
    `wall_metrics`.  While the loop runs, the benchmark keeps only a few
    numbers per job (outputs wait on disk, each round's jobs are made when it
    starts and made again for the checks), so `peak_rss_mb` does not grow with
    the number of jobs run.
    """
    walls, cycles = array("d"), array("d")
    refs = array("d", [machine_speed()])  # refs[k] and refs[k + 1] bracket job k
    results, round_sizes, setups = [], [], []
    loop = 0.0  # scaled job time, so the number of rounds does not follow the machine
    for batch in rounds(args.workload, args.seed):  # inputs are made untimed
        round_sizes.append(0)
        for job in batch:
            if time.monotonic() > loop_deadline:
                break
            if len(setups) * args.seconds <= loop * SETUP_STARTS:
                elapsed = setup_time(args.root)
                setups.append((elapsed, (refs[-1] + machine_speed()) / 2))
            result = runner.run(job.text)
            refs.append(machine_speed())
            walls.append(result.wall)
            cycles.append(result.cycle)
            results.append((result.rc, result.error))
            round_sizes[-1] += 1
            loop += result.wall * REFERENCE_SECONDS * 2 / (refs[-2] + refs[-1])
        done = loop >= args.seconds and len(round_sizes) >= MIN_ROUNDS
        if done or time.monotonic() > loop_deadline:
            break
    while len(setups) < SETUP_STARTS:
        before = machine_speed()
        elapsed = setup_time(args.root)
        setups.append((elapsed, (before + machine_speed()) / 2))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_start = time.perf_counter()
    jobs = [job for rnd, size in enumerate(round_sizes)
            for job in ROUNDS[args.workload](args.seed, rnd)[:size]]
    # the timed jobs were the runner's first, so job k's outputs are at job{k + 1}
    stems = [runner.workdir / f"job{k + 1}" for k in range(len(jobs))]
    twins = {}
    failures = []
    for job, (rc, error), stem in zip(jobs, results, stems):
        problems = verify(runner, job, Result(rc, 0.0, 0.0, error, stem), twins)
        if problems:
            failures.append({"job": job.name, "problems": problems})
    ok = len(jobs) - len(failures)
    q = TAIL_PERCENTILE[args.workload]
    fast = REFERENCE_SECONDS

    def scaled(times):
        return [t * fast * 2 / (refs[k] + refs[k + 1]) for k, t in enumerate(times)]

    def metrics(times, job_cycles, setup_times):
        tail_s, _ = tail(times, q)
        return {
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_s,
            "jobs_per_s": ok / sum(job_cycles),
            "peak_rss_mb": peak_mb,
            "setup_s": statistics.median(setup_times),
        }

    return {
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics(scaled(walls), scaled(cycles),
                           [t * fast / r for t, r in setups]),
        "wall_metrics": metrics(walls, cycles, [t for t, _ in setups]),
        "tail_percentile": q,
        "tail_beyond": tail(scaled(walls), q)[1],
        "slowdown": statistics.median(refs) / fast,
        "jobs": [[job.name, round(w, 4)] for job, w in zip(jobs, walls)],
        "loop_s": sum(walls),
        "check_s": time.perf_counter() - check_start,
        "shares": shares(jobs),
    }


def traced(runner, args, trace_path):
    from spans import Tracer

    jobs = ROUNDS[args.workload](args.seed, 0)
    # job times scaled by the reference loop around each job, for the overhead
    scaled = {"untraced": 0.0, "traced": 0.0}

    def run(job, label):
        before = machine_speed()
        result = runner.run(job.text)
        scaled[label] += result.wall * 2 / (before + machine_speed())
        return result

    # each job runs untraced, then traced, so both passes are equally warm
    tracer = Tracer()
    untraced, traced_results = [], []
    for i, job in enumerate(jobs):
        untraced.append(run(job, "untraced"))
        tracer.install()
        try:
            tracer.begin_job(i)
            result = run(job, "traced")
            tracer.end_job(int(result.wall * 1e9))
        finally:
            tracer.uninstall()
        traced_results.append(result)
    twins = {}
    failures = []
    for label, results in (("untraced", untraced), ("traced", traced_results)):
        for job, result in zip(jobs, results):
            problems = verify(runner, job, result, twins)
            if problems:
                failures.append({"job": f"{job.name} ({label})", "problems": problems})
    tracer.dump(trace_path, [job.name for job in jobs])
    return {
        "attempted": 2 * len(jobs),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": tracer.metrics(scaled["untraced"], scaled["traced"]),
        "self_shares": tracer.self_shares(),
        "absent": tracer.absent,
        "untraced_s": sum(r.wall for r in untraced),
        "traced_s": sum(r.wall for r in traced_results),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import algpoly
    from algpoly import cli

    if not Path(algpoly.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported algpoly from {algpoly.__file__}, not from {src}")
    signal.signal(signal.SIGALRM, _on_alarm)
    work = Path(args.root) / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        runner = Runner(cli, Path(tmp), started + args.seconds + END_GRACE_S)
        if args.trace:
            trace_path = work / f"trace-{args.workload}-seed{args.seed}.json"
            record = traced(runner, args, trace_path)
        else:
            record = timed(runner, args, started + args.seconds + LOOP_GRACE_S)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
