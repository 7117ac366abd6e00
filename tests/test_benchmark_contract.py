"""The names and calls that ``perfbench/workloads.py`` relies on.

The benchmark wraps functions by module attribute under ``--trace 1`` and
prepares each workload through the preset API, so renaming or removing one
of them breaks the benchmark.  This runs the same look-ups and set-ups.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_workload_resolves_its_trace_targets_and_sets_up(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        for owner, attr, *_ in workload.trace_targets(full=True):
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
        prep = workload.setup(seed=1, smoke=True)
        assert prep.units >= 1 and prep.info["master_seed"] == 1, name
