"""One round of a workload under cProfile: where the time goes, by function.

    python3 perfbench/profile_round.py --workload four_site [--seed 1] [--top 12]

Prints the functions with the most self time and the share of the round
spent inside ``jchsim._stepper._norm2_impl``.  cProfile charges every Python
call and none of the work inside NumPy, so its shares overstate pure-Python
loops; use it to find candidates and ``run.py`` to measure them.
"""
import argparse
import cProfile
import os
import pstats
import shutil
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=12)
    args = parser.parse_args(argv)

    run.pin_environment()
    run.import_program()
    import workloads
    from spans import Tracer
    workload = workloads.WORKLOADS[args.workload]
    prep = workload.setup(args.seed, smoke=False)
    out = run.WORK / f"profile-{args.workload}-{os.getpid()}"
    out.mkdir(parents=True)
    profiler = cProfile.Profile()
    try:
        profiler.runcall(workload.run_round, prep, out, Tracer())
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()

    stats = pstats.Stats(profiler)
    total = stats.total_tt
    rows = sorted(stats.stats.items(), key=lambda item: item[1][2], reverse=True)
    print(f"{args.workload}: {total:.3f} s under cProfile")
    print(f"{'self s':>9} {'share':>6} {'calls':>10}  function")
    for (path, line, func), (_, calls, tottime, _, _) in rows[:args.top]:
        print(f"{tottime:9.3f} {tottime / total:6.1%} {calls:10d}  "
              f"{Path(path).name}:{line}({func})")
    norm2 = sum(v[2] for k, v in stats.stats.items()
                if k[2] == "_norm2_impl" and k[0].endswith("_stepper.py"))
    print(f"_stepper._norm2_impl self time: {norm2:.3f} s = {norm2 / total:.1%} of the round")
    return 0


if __name__ == "__main__":
    sys.exit(main())
