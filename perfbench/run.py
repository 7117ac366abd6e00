"""Layered benchmark for jchsim.

One workload per process::

    python3 perfbench/run.py --workload pair_trapping --seed 1 --seconds 20 --trace 0

prints the end-to-end metrics of ``BENCHMARK.json`` (``--trace 1``: the
per-layer metrics instead) and, as the last line of standard output, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``--workload`` every workload runs, each in its own process, and a
summary follows.  ``--smoke`` shrinks every workload and keeps every check.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with an error.  See perfbench/README.md.
"""
import time

_T0 = time.perf_counter()   # set-up time counts from here, imports included

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("pair_trapping", "four_site", "gamma_c_sweep")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: one BLAS thread: run-to-run spread comes from the program, not from two
#: BLAS threads competing with whatever else shares the machine
BLAS_THREADS = "1"
#: the NumPy trajectory kernel is the reference path, numba or not
BACKEND = "numpy"
MIN_ROUNDS = 2                 # byte-identity needs a second round
SETUP_REPEATS = {False: 5, True: 2}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the rounds are repeated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every check on")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment():
    """Before NumPy loads: BLAS thread count and the trajectory backend."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["JCHSIM_BACKEND"] = BACKEND


def import_program():
    """Put the checkout's ``src`` first on the path; refuse any other jchsim."""
    if not (SRC / "jchsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'jchsim'} not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import jchsim
    if Path(jchsim.__file__).resolve().parent != (SRC / "jchsim").resolve():
        sys.exit(f"perfbench: imported {jchsim.__file__}, not the checkout's")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_sha():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    from jchsim.dynamics import BACKEND as backend
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "jchsim_backend": backend,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def setup_times(args) -> list:
    """Set-up in fresh processes: import, preset load, model, state, projectors."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(SETUP_REPEATS[args.smoke]):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    print("setup seconds", json.dumps([round(x, 4) for x in out]))
    return out


@dataclass
class Round:
    traced: bool
    tracer: object
    wall: float | None = None        # less the host-speed slices
    engine: float | None = None      # time in the workload's engine call, likewise
    scale: float | None = None       # host speed over the round, untraced rounds only
    bare: float | None = None        # traced rounds: the bare-ensemble probe
    error: str | None = None
    digest: str | None = None
    bytes: int = 0


def run_rounds(workload, prep, args, work: Path) -> list:
    """Repeat whole rounds until ``--seconds`` have passed (at least MIN_ROUNDS).

    With tracing on, untraced and traced rounds alternate so that the
    tracing overhead is their difference at equal conditions.  Untraced
    rounds run under a ``hostspeed.Sampler``; their times leave its slices out.
    """
    from contextlib import nullcontext
    from hostspeed import Sampler
    from spans import Tracer
    from workloads import artifact_digest
    kinds = (False, True) if args.trace else (False,)
    engine = workload.trace_targets(full=False)[0][2]
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        for traced in kinds:
            rnd = Round(traced, Tracer())
            out = work / f"round-{len(rounds)}"
            out.mkdir(parents=True)
            sampler = None if traced else Sampler(workload.host_parts)
            rnd.tracer.install(workload.trace_targets(full=traced))
            try:
                with sampler or nullcontext():
                    start = time.perf_counter()
                    workload.run_round(prep, out, rnd.tracer)
                    end = time.perf_counter()
            except Exception:          # a failed round is counted, not fatal
                rnd.error = traceback.format_exc()
            finally:
                rnd.tracer.uninstall()
            if rnd.error is None:
                spans = [(r.start, r.end) for r in rnd.tracer.spans if r.name == engine]
                rnd.wall, rnd.engine = end - start, sum(b - a for a, b in spans)
                if sampler is not None:
                    rnd.wall -= sampler.within(start, end)
                    rnd.engine -= sum(sampler.within(a, b) for a, b in spans)
                    rnd.scale = sampler.scale()
                rnd.digest, rnd.bytes = artifact_digest(out)
                if traced:
                    rnd.bare = workload.bare_ensemble(prep)
            rounds.append(rnd)
    return rounds


def run_checks(workload, prep, rounds, work: Path):
    """Checks on the first good round's files; byte identity for every round."""
    from workloads import Check
    good = [i for i, r in enumerate(rounds) if r.error is None]
    if not good:
        return [Check("rounds_completed", False, "every round raised")], {}
    try:
        checks, replay = workload.check(prep, work / f"round-{good[0]}")
    except Exception:
        checks, replay = [Check("checks_completed", False, traceback.format_exc())], {}
    digests = {r.digest for r in rounds if r.error is None}
    checks.append(Check("byte_identical_rounds", len(digests) == 1,
                        f"{len(good)} rounds of one seed, {len(digests)} distinct "
                        f"artifact digest(s)"))
    return checks, replay


def median_of(rounds, fn):
    values = [fn(r) for r in rounds]
    return statistics.median(values) if values else float("nan")


def end_to_end(workload, prep, rounds, setup_s, rss_mb) -> dict:
    """Times at nominal host speed, each sampled while it was measured."""
    plain = [r for r in rounds if r.error is None and not r.traced]
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": median_of(plain, lambda r: r.wall * r.scale),
        "traj_per_s": prep.units / median_of(plain, lambda r: r.engine * r.scale),
        "peak_rss_mb": rss_mb,
    }


def per_layer(workload, prep, rounds, replay, names) -> dict:
    plain = [r for r in rounds if r.error is None and not r.traced]
    traced = [r for r in rounds if r.error is None and r.traced]
    layers = {}
    for rnd in traced:
        for layer, seconds in rnd.tracer.self_times().items():
            layers.setdefault(layer, []).append(seconds)
    out = {f"{layer}_s": statistics.median(values) for layer, values in layers.items()}
    if traced:
        out["observables.negativity_samples"] = traced[0].tracer.count(
            "observables.negativity")
        out["runner.artifact_bytes"] = traced[0].bytes
        if traced[0].bare is not None:
            out["dynamics.ensemble_bare_s"] = median_of(traced, lambda r: r.bare)
    out["trace.overhead_s"] = (median_of(traced, lambda r: r.wall)
                               - median_of(plain, lambda r: r.wall))
    out.update(workload.probes(prep, replay))
    # a layer the workload never enters reads 0
    return {name: out.get(name, 0) for name in names}


def setup_probe(args) -> int:
    """One set-up, timed from process start; prints it at nominal host speed."""
    from hostspeed import Sampler
    with Sampler(("python",)) as sampler:       # NumPy is not loaded yet
        pin_environment()
        import_program()
        import workloads
        workloads.WORKLOADS[args.workload].setup(args.seed, args.smoke)
        end = time.perf_counter()
    print(repr((end - _T0 - sampler.within(_T0, end)) * sampler.scale()))
    return 0


def run_workload(args) -> int:
    if args.setup_probe:
        return setup_probe(args)
    pin_environment()
    import_program()
    import workloads
    workload = workloads.WORKLOADS[args.workload]

    spec = benchmark_spec()
    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup_s = [] if args.trace else setup_times(args)
    prep = workload.setup(args.seed, args.smoke)
    print("env", json.dumps(environment(), sort_keys=True))
    print("workload", args.workload, json.dumps(prep.info, sort_keys=True))

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        rounds = run_rounds(workload, prep, args, work)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks, replay = run_checks(workload, prep, rounds, work)
        if args.trace:
            values = per_layer(workload, prep, rounds, replay,
                               [m["name"] for m in metric_spec])
        else:
            values = end_to_end(workload, prep, rounds, setup_s, rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for rnd in rounds:
        if rnd.error:
            print("round error", rnd.error, file=sys.stderr)
    print("round seconds", json.dumps([None if r.wall is None else round(r.wall, 4)
                                       for r in rounds]))
    print("host speed", json.dumps([None if r.scale is None else round(r.scale, 4)
                                    for r in rounds]))
    for check in checks:
        print("check", "PASS" if check.passed else "FAIL", f"{check.name}: {check.detail}")
    correct = all(check.passed for check in checks)
    content_ok = all(c.passed for c in checks if c.name != "byte_identical_rounds")
    digest0 = next((r.digest for r in rounds if r.error is None), None)
    # every round writes the same bytes, so a rejected content fails them all
    failed = sum(1 for r in rounds
                 if r.error is not None or r.digest != digest0 or not content_ok)
    metrics = {}
    for m in metric_spec:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(f"operations attempted = {len(rounds)}, failed = {failed}")
    print(json.dumps({"correct": correct, "attempted": len(rounds), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report, then a summary."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            results[name] = None
            continue
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print("== summary")
    for name, res in results.items():
        if res is None:
            print(f"{name:14s} ERROR")
            continue
        cells = ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                          for k, v in res["metrics"].items())
        print(f"{name:14s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}: {cells}")
    ok = all(r is not None and r["correct"] and r["failed"] == 0 for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
