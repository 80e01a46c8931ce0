"""Write or compare the output files that pin algpoly's printed results.

Usage, from any directory:

    python3 tools/outputs.py --out DIR
    python3 tools/outputs.py --compare A B

`--out DIR` runs the algpoly sources of this checkout in-process through
`cli.main` and writes under DIR:

- `jobs/`: the `.out`/`.aut` files of the benchmark jobs of seed 1, rounds
  0-1, of every workload in `perfbench/jobs.py`, the rational twins of the
  hull-nf jobs included;
- `inputs/`: the `.out`/`.aut` files of `inputs/*.in`;
- `bench/`: the `--bench` rows of a few families over all arithmetic
  classes, with the time column removed.

Every run also lists each program exit code in `exit_codes.txt`.  The
job streams are read from `perfbench/jobs.py`; nothing under `perfbench/`
is written.

`--compare A B` compares two such directories byte for byte.  It prints
each file that differs, with the numbers of its differing lines, or "line
endings" if only the line endings or the final newline differ, and exits 1
on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
ROUNDS = (0, 1)
BENCH_FAMILIES = ("cyclic(6,12)", "cyclic(8,14)", "order-poly(4)", "scaled-cube(4)")


def _call(cli, argv):
    """Exit code, standard output and standard error of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _run_input(cli, path, text, codes):
    path.write_text(text)
    rc, _, _ = _call(cli, [str(path)])
    path.unlink()
    codes.append(f"{path.stem} {rc}")


def write_outputs(out):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from algpoly import cli
    from jobs import ROUNDS as WORKLOAD_ROUNDS

    codes = []
    jobs_dir = out / "jobs"
    jobs_dir.mkdir(parents=True)
    for workload, make in WORKLOAD_ROUNDS.items():
        for rnd in ROUNDS:
            for k, job in enumerate(make(SEED, rnd)):
                stem = f"{workload}-r{rnd}-{k:02d}"
                _run_input(cli, jobs_dir / f"{stem}.in", job.text, codes)
                if job.twin is not None:
                    _run_input(cli, jobs_dir / f"{stem}-twin.in", job.twin, codes)

    inputs_dir = out / "inputs"
    inputs_dir.mkdir()
    for src in sorted((ROOT / "inputs").glob("*.in")):
        _run_input(cli, inputs_dir / src.name, src.read_text(), codes)

    bench_dir = out / "bench"
    bench_dir.mkdir()
    for family in BENCH_FAMILIES:
        rc, text, err = _call(cli, ["--bench", family, "--class", "all"])
        codes.append(f"bench {family} {rc}")
        lines = []
        for line in text.splitlines():
            tokens = line.split()
            if tokens and (tokens[0] == "class" or tokens[0] in cli.BENCH_CLASSES):
                del tokens[1]  # the time column
            lines.append(" ".join(tokens))
        (bench_dir / f"{family}.txt").write_text("\n".join(lines) + "\n" + err)

    (out / "exit_codes.txt").write_text("\n".join(codes) + "\n")


def compare(a, b):
    """Print the differing files between two output directories; 1 if any."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    differ = False
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {a if name in names_a else b}")
        differ = True
    for name in sorted(names_a & names_b):
        bytes_a, bytes_b = (a / name).read_bytes(), (b / name).read_bytes()
        if bytes_a == bytes_b:
            continue
        differ = True
        bad = [
            i + 1
            for i, (x, y) in enumerate(zip_longest(bytes_a.splitlines(), bytes_b.splitlines()))
            if x != y
        ]
        if bad:
            print(f"{name}: lines {' '.join(str(i) for i in bad)}")
        else:
            print(f"{name}: line endings")
    print(f"{len(names_a | names_b)} files, {'differences found' if differ else 'identical'}")
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", type=Path, metavar="DIR")
    group.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out.exists() and any(args.out.iterdir()):
        ap.error(f"{args.out} is not empty")
    write_outputs(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
