#!/usr/bin/env python3
"""Compare what the command line does at a git revision with what it does in
the working tree.

    python scripts/compare_outputs.py REV

REV is checked out into a temporary ``git worktree``. Each case of ``CASES``
then runs in a fresh directory, once against REV's ``src/`` and once against
the working tree's: it writes its input files, runs its invocations of
``python -m ngcodes.cli`` in order, and keeps the files it leaves behind. The
script prints every difference in exit code, stdout, stderr or written-file
bytes, removes the worktree, and exits 1 if there is any difference, else 0
(2 if REV cannot be checked out).
Each tree's own path reads as ``<tree>`` in stdout and stderr, so a warning
that names a source file compares equal.
"""
import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CODE = {"n": 2, "s_max": 1, "seed": 1, "components": [  # a code whose sigma=1 component is all zeros
    {"sigma": 0, "windows": [1.0, 1.0]}, {"sigma": 1, "windows": [0.0] * 4}]}
DENSE = {"n": 2, "s_max": 1, "seed": 1, "components": [  # the same code in the old dense n x n format
    {"sigma": 0, "entries": [1.0, 0.0, 0.0, 1.0]}, {"sigma": 1, "entries": [0.0] * 4}]}
SUBNORMAL = {"n": 3, "s_max": 1, "seed": 1, "components": [  # a sigma=1 component whose decoding solve overflows
    {"sigma": 0, "windows": [1.0, 1.0, 1.0]}, {"sigma": 1, "windows": [1e-320, -1e-320] * 3}]}
MALFORMED = {
    "keys-missing.json": '{"n": 4}',
    "not-an-object.json": "[1, 2]",
    "component-not-an-object.json": '{"n": 2, "s_max": 0, "seed": 1, "components": [5]}',
    "no-workers.json": '{"n": 0, "s_max": -1, "seed": 1, "components": []}',
    "null-n.json": '{"n": null, "s_max": 0, "seed": 1, "components": []}',
    "windows-object.json": '{"n": 1, "s_max": 0, "seed": 1, "components": [{"sigma": 0, "windows": {"a": 1}}]}',
    "windows-not-numbers.json": '{"n": 2, "s_max": 0, "seed": 1, "components": [{"sigma": 0, "windows": ["1", true]}]}',
}
HUGE = str(10**400)
SIZE = "100000000000000"  # 10**14 floats: numpy refuses the allocation at once
OVERFLOW = ["--rho", "1e308", "--eps", "1e308"]
HEADLINE = ["--lambda", "0.5", "--rho", "0.5", "--gamma", "0", "--eps", "0.1", "--pe", "0.05"]

# name -> (input files {name: text}, invocations run in order)
CASES = {
    "readme": ({}, [
        ["construct", "--n", "8", "--smax", "3", "--seed", "42", "--out", "code.json"],
        ["verify", "code.json"],
        ["analyze", "--schemes", "uncoded,gc:3,ngc:3", "--n", "8", "--lambda", "0.5", "--rho", "0.5",
         "--eps", "0.1", "--pe", "0.05", "--t-min", "2", "--t-max", "18", "--steps", "100", "--out", "analytic.csv"],
        ["simulate", "--schemes", "uncoded,gc:3,ngc:3", "--trials", "100000", "--seed", "1",
         "--t-min", "2", "--t-max", "18", "--steps", "100", "--out", "empirical.csv"],
        ["gd-demo", "--m", "64", "--c", "8", "--iterations", "200", "--smax", "3", "--seed", "5", "--out", "gd.csv"],
    ]),
    "help": ({}, [["--help"], ["-h", "simulate"],
                  *[[name, "--help"] for name in ("construct", "verify", "analyze", "simulate", "gd-demo")]]),
    "n256": ({}, [
        ["analyze", "--schemes", "uncoded,gc:32,ngc:4", "--n", "256", "--t-min", "10", "--t-max", "60",
         "--steps", "50", "--out", "analyze.csv"],
        ["simulate", "--schemes", "uncoded,gc:32,ngc:4", "--n", "256", "--trials", "2000", "--seed", "7",
         "--t-min", "10", "--t-max", "60", "--steps", "50", "--out", "simulate.csv"],
    ]),
    "analyze-ladder": ({}, [  # the benchmark's ngc rungs on the headline cluster, and a large ngc curve
        *[["analyze", "--schemes", f"uncoded,gc:{s_max},ngc:{s_max}", "--n", str(n), *HEADLINE,
           "--t-min", "2", "--t-max", "18", "--steps", "100", "--out", f"ladder-n{n}.csv"]
          for n, s_max in ((8, 3), (10, 4), (12, 5), (14, 6))],
        ["analyze", "--schemes", "ngc:31", "--n", "64", *HEADLINE, "--t-min", "8", "--t-max", "40",
         "--steps", "25", "--out", "ngc31-n64.csv"],
    ]),
    "analyze-large": ({}, [  # ngc where the engine drops the counts that can no longer decode
        ["analyze", "--schemes", "uncoded,gc:16,ngc:16", "--n", "64", *HEADLINE, "--t-min", "4", "--t-max", "60",
         "--steps", "50", "--out", "n64.csv"],
        ["analyze", "--schemes", "ngc:32", "--n", "256", *HEADLINE, "--t-min", "10", "--t-max", "130",
         "--steps", "50", "--out", "ngc32-n256.csv"],
    ]),
    "formatting": ({}, [
        ["analyze", "--schemes", "uncoded,gc:3,ngc:3", "--pe", "1", "--t-min", "1e-300", "--t-max", "1e300",
         "--steps", "9", "--out", "extreme.csv"],
        ["analyze", "--schemes", "gc:255", "--n", "256", "--rho", "0", "--t-min", "-20", "--t-max", "200",
         "--steps", "45", "--out", "tail.csv"],
        ["simulate", "--schemes", "uncoded,gc:3,ngc:3", "--pe", "1", "--trials", "500", "--steps", "10",
         "--out", "all-fail.csv"],
    ]),
    "gd-demo-n12": ({}, [
        ["gd-demo", "--n", "12", "--smax", "5", "--seed", "3", "--out", "coded.csv"],
        ["gd-demo", "--n", "12", "--smax", "0", "--seed", "3", "--out", "uncoded.csv"],
    ]),
    "construct-n256": ({}, [  # a 2.8 MB code file whose sampled audit fails (exit 2); its gd-demo fails the decode gate
        ["construct", "--n", "256", "--smax", "32", "--seed", "2", "--out", "code.json"],
        ["verify", "code.json"],
        ["gd-demo", "--n", "256", "--smax", "32", "--m", "4096", "--c", "16", "--iterations", "100", "--seed", "2",
         "--out", "gd.csv"],
    ]),
    "verify-n13-n64": ({}, [  # verify decodes every straggler set at n = 13 and samples above sigma = 3 at n = 64
        *[step for n, s_max in (("13", "2"), ("64", "8")) for step in (
            ["construct", "--n", n, "--smax", s_max, "--out", f"c{n}.json"], ["verify", f"c{n}.json"])],
    ]),
    "construct-n700": ({}, [  # the n contiguous sets of sigma = 1 are every straggler set: an exhaustive audit
        ["construct", "--n", "700", "--smax", "1", "--out", "code.json"],
        ["verify", "code.json"],
    ]),
    "gd-demo-n64": ({}, [  # the decoding path at n=64, where almost every responsive set is new
        ["gd-demo", "--n", "64", "--smax", "8", "--m", "4096", "--c", "16", "--iterations", "200", "--seed", "3",
         "--out", "coded.csv"],
    ]),
    "gd-demo-gram": ({}, [  # c = 16 exceeds the 4 rows of a block, and m = 256 splits into 64 whole blocks
        ["gd-demo", "--n", "64", "--smax", "8", "--m", "256", "--c", "16", "--iterations", "37", "--seed", "3",
         "--out", "coded.csv"],
    ]),
    "gd-demo-repeats": ({}, [  # each decoded sigma repeats its few used sets hundreds of times in one call
        ["gd-demo", "--n", "4", "--smax", "2", "--m", "64", "--c", "4", "--iterations", "2000", "--seed", "3",
         "--out", "coded.csv"],
    ]),
    "gd-demo-stream": ({}, [  # resamples over 3+ chunks, padding of a block or more, m < n, the resample limit
        ["gd-demo", "--n", "12", "--smax", "1", "--pe", "0.3", "--m", "600", "--c", "4", "--iterations", "300",
         "--seed", "9", "--out", "resamples.csv"],
        ["gd-demo", "--n", "4", "--smax", "2", "--m", "5", "--c", "3", "--iterations", "20", "--out", "padded.csv"],
        ["gd-demo", "--n", "16", "--smax", "2", "--m", "5", "--c", "3", "--iterations", "5", "--out", "few-rows.csv"],
        ["gd-demo", "--n", "12", "--smax", "2", "--pe", "1", "--iterations", "5", "--out", "dead.csv"],
    ]),
    "usage-errors": ({}, [
        [], ["frobnicate"], ["--n", "3", "simulate"], ["simulate", "--out", "x.csv", "--bogus", "1"],
        ["construct"], ["analyze"], ["simulate"], ["gd-demo"],
    ]),
    "parser-paths": ({}, [  # an abbreviated flag, a type error in = form, a second positional, a repeated flag
        ["analyze", "--ste", "3", "--ou", "abbrev.csv"],
        ["analyze", "--n=x", "--out", "x.csv"],
        ["verify", "a.json", "b.json"],
        ["analyze", "--steps", "3", "--steps", "4", "--out", "repeated.csv"],
        ["gd-demo", "-h"],
    ]),
    "code-files": ({**MALFORMED, "tampered.json": json.dumps(CODE), "dense.json": json.dumps(DENSE),
                    "subnormal.json": json.dumps(SUBNORMAL)}, [
        ["construct", "--n", "4", "--smax", "4", "--seed", "1", "--out", "bad-tolerance.json"],
        ["construct", "--n", "6", "--smax", "2", "--seed", "3", "--out", "code.json"],
        *[step for n in ("1", "12") for step in (  # families that hold only the sigma = 0 component
            ["construct", "--n", n, "--smax", "0", "--out", f"c{n}.json"], ["verify", f"c{n}.json"])],
        *[["verify", "code.json", f"--tol={tol}"] for tol in ("nan", "-1", "inf")],
        ["verify", "nope.json"],
        ["verify", "tampered.json"],
        ["verify", "dense.json"],
        ["verify", "subnormal.json"],
        *[["verify", name] for name in MALFORMED],
    ]),
    "analyze-errors": ({}, [
        ["analyze", "--schemes", "uncoded", "--t-min", "5", "--t-max", "2", "--out", "x.csv"],
        ["analyze", "--schemes", "uncoded", "--steps", "1", "--out", "x.csv"],
        ["analyze", "--schemes", "nope:1", "--out", "x.csv"],
        ["analyze", "--schemes", "ngc:3", "--lambda", "nan", "--out", "x.csv"],
        ["analyze", "--schemes", "ngc:3", "--rho", "nan", "--out", "x.csv"],
        ["analyze", "--schemes", "ngc:3", "--eps", "inf", "--out", "x.csv"],
        ["analyze", "--schemes", "ngc:3", "--lambda", "5e-324", "--out", "x.csv"],
        ["analyze", "--n", HUGE, "--out", "x.csv"],
        ["analyze", "--steps", SIZE, "--out", "x.csv"],
    ]),
    "simulate-chunks": ({}, [  # ngc:3 at n=8 draws chunks of 1024 trials: one trial, one short of a chunk, one over
        *[["simulate", "--schemes", "ngc:3", "--n", "8", "--trials", trials, "--seed", "4", "--steps", "20",
           "--out", f"ngc3-{trials}.csv"] for trials in ("1", "1023", "1025")],
        ["simulate", "--schemes", "uncoded,ngc:0", "--n", "1", "--trials", "3000", "--seed", "4", "--steps", "20",
         "--out", "n1.csv"],
        ["simulate", "--schemes", "ngc:7", "--n", "8", "--pe", "0.3", "--trials", "3000", "--seed", "4",
         "--steps", "20", "--out", "ngc7.csv"],
        ["simulate", "--schemes", "uncoded,gc:3,ngc:3", "--pe", "1", "--trials", "1500", "--seed", "4",
         "--steps", "20", "--out", "pe1.csv"],
    ]),
    "simulate-errors": ({}, [
        ["simulate", "--schemes", "ngc:3", "--lambda", "nan", "--trials", "10", "--out", "x.csv"],
        ["simulate", "--schemes", "ngc:1", "--n", "4", "--lambda", "5e-324", "--out", "x.csv"],
        ["simulate", "--schemes", "ngc:1", *OVERFLOW, "--out", "x.csv"],
        ["simulate", "--schemes", "gc:7", "--n", "8", "--lambda", "3e-308", "--pe", "0", "--trials", "100",
         "--out", "x.csv"],
        ["simulate", "--trials", SIZE, "--out", "x.csv"],
    ]),
    "gd-demo-errors": ({}, [
        *[["gd-demo", *argv, "--out", "gd.csv"] for argv in (
            ["--m", "8", "--c", "2", "--iterations", "1", "--lambda", "5e-324"],
            ["--m", "8", "--c", "2", "--iterations", "1", *OVERFLOW],
            ["--smax", "7", "--n", "8", "--lambda", "3e-308", "--pe", "0"],
            ["--m", "8", "--c", "2", "--iterations", SIZE],
            ["--m", "8", "--c", "2", "--iterations", "1", "--pe", "1"],
            ["--m", "0"], ["--c", "0"], ["--eta", "nan", "--iterations", "3"], ["--noise", "nan"],
            ["--eta", "0"], ["--eta", "-inf"], ["--noise", "-1"])],
        ["gd-demo", "--eta", "1e300", "--iterations", "30", "--out", "diverged.csv"],
        ["gd-demo", "--n", "8", "--smax", "3", "--iterations", "1", "--m", "8", "--c", "2", "--noise", "1e300",
         "--seed", "3", "--out", "inf-loss.csv"],
    ]),
}


def run_case(tree: Path, files: dict, invocations: list, directory: Path):
    """[(exit code, stdout, stderr) per invocation], {file name: bytes} after the last."""
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"),
                                                                     os.environ.get("PYTHONPATH")]))}
    runs = []
    for argv in invocations:
        done = subprocess.run([sys.executable, "-m", "ngcodes.cli", *argv], cwd=directory, env=env,
                              capture_output=True, text=True)
        runs.append((done.returncode, *(s.replace(str(tree), "<tree>") for s in (done.stdout, done.stderr))))
    return runs, {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def differences(rev: str, old, new, invocations) -> list[str]:
    """One message per difference between the (runs, files) of REV and of the working tree."""
    found = []
    for argv, a, b in zip(invocations, old[0], new[0]):
        call = "ngcodes " + " ".join(argv)
        if a[0] != b[0]:
            found.append(f"{call}: exit code {a[0]} at {rev}, {b[0]} in the working tree")
        for stream, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
            if x != y:
                diff = difflib.unified_diff(x.splitlines(), y.splitlines(), rev, "working tree", lineterm="")
                found.append(f"{call}: {stream} differs\n  " + "\n  ".join(diff))
    for name in sorted(old[1].keys() | new[1].keys()):
        x, y = old[1].get(name), new[1].get(name)
        if x is None or y is None:
            found.append(f"file {name}: written only {'in the working tree' if x is None else f'at {rev}'}")
        elif x != y:
            at = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
            found.append(f"file {name}: bytes differ from byte {at} ({len(x)} bytes at {rev}, {len(y)} now)")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="git revision to compare the working tree with")
    rev = parser.parse_args(argv).rev
    total, found = 0, 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        worktree = Path(scratch) / "rev"
        added = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(worktree), rev],
                               capture_output=True, text=True)
        if added.returncode != 0:
            print(f"error: cannot check out {rev}: {added.stderr.strip()}", file=sys.stderr)
            return 2
        try:
            for name, (files, invocations) in CASES.items():
                old = run_case(worktree, files, invocations, Path(scratch) / f"{name}-rev")
                new = run_case(ROOT, files, invocations, Path(scratch) / f"{name}-now")
                for message in differences(rev, old, new, invocations):
                    print(f"[{name}] {message}")
                    found += 1
                total += len(invocations)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(worktree)], check=True)
    print(f"{total} invocations in {len(CASES)} cases against {rev}: {found} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
