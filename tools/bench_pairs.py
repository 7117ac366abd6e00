"""Alternating parent/change pairs of perfbench, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent <commit> --pairs 10 --seconds 20 --out BENCH_29.json

The parent side is ``git archive`` of ``--parent``; the change side is a copy
of this checkout's ``src/``, ``perfbench/`` and ``BENCHMARK.json``.  Both
lose every ``__pycache__`` and run under ``PYTHONDONTWRITEBYTECODE=1``, so
each compiles the program from source, as the benchmark does.  Pair i runs
the parent first when i is even.  After the pairs, each side runs once with
``--trace 1``, parent first.  The summary gives, per workload and
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles
(inclusive method) and the number of pairs in which the change was better,
and each side's failed operations and correctness.  Nothing under
``perfbench/`` is edited.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def export(parent: str, work: Path) -> dict:
    """The two checkouts under ``work``: ``git archive`` of ``parent`` and a
    copy of this checkout's files that the benchmark reads."""
    roots = {side: work / side for side in SIDES}
    roots["parent"].mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(roots["parent"])], input=archive, check=True)
    roots["change"].mkdir(parents=True)
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, roots["change"] / name)
    shutil.copy2(ROOT / "BENCHMARK.json", roots["change"] / "BENCHMARK.json")
    for root in roots.values():
        for cache in list(root.rglob("__pycache__")):
            shutil.rmtree(cache)
    return roots


def run_side(root: Path, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` of every workload in ``root``: its last line of output."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=root, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: list, change: list, end_to_end: list) -> dict:
    """Per workload: each end-to-end metric's median and quartiles on each
    side and the pairs in which the change was better, by the metric's
    ``better``; and each side's failed operations and correctness."""
    summary = {}
    for name in parent[0]["workloads"]:
        runs = {"parent": [run["workloads"][name] for run in parent],
                "change": [run["workloads"][name] for run in change]}
        entry = {}
        for metric in end_to_end:
            values = {side: [r["metrics"][metric["name"]]["value"] for r in runs[side]]
                      for side in SIDES}
            sign = 1 if metric["better"] == "lower" else -1
            entry[metric["name"]] = {
                **{side: quartiles(values[side]) for side in SIDES},
                "change_better_pairs": sum(sign * c < sign * p for p, c
                                           in zip(values["parent"], values["change"]))}
        entry["failed"] = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
        entry["correct"] = {side: all(r["correct"] for r in runs[side]) for side in SIDES}
        summary[name] = entry
    return summary


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs: quartiles need at least two pairs")
    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent], check=True,
                            capture_output=True, text=True).stdout.strip()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as work:
        roots = export(parent, Path(work))
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_side(roots[side], args.seconds, 0))
                print(f"pair {i} {side}: {json.dumps(runs[side][-1])}", flush=True)
        traced = {side: run_side(roots[side], args.seconds, 1) for side in SIDES}
    record = {
        "command": f"python3 perfbench/run.py --seconds {args.seconds:g}",
        "settings": (f"perfbench defaults but {args.seconds:g} s of rounds per workload: one "
                     "BLAS thread per workload process, seed 1; traced runs: python3 "
                     f"perfbench/run.py --trace 1 --seconds {args.seconds:g}"),
        "machine": (f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, Python "
                    f"{platform.python_version()}, numpy {version('numpy')}"),
        "pairs": (f"{args.pairs} pairs, alternating which side ran first (even-numbered pairs "
                  "from 0: parent first); then one traced run per side, parent first"),
        "parent_commit": parent,
        "change_note": ("each side ran from an export without git metadata and without "
                        "__pycache__, under PYTHONDONTWRITEBYTECODE=1: the parent from git "
                        "archive of its commit, the change from a copy of this change's src/, "
                        "perfbench/ and BENCHMARK.json"),
        **runs,
        "traced": traced,
        "summary": summarize(runs["parent"], runs["change"], spec["end_to_end"]),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
