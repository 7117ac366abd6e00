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


def test_every_workload_round_records_its_engine_span(monkeypatch, tmp_path):
    # traj_per_s divides by the time spent in the engine span, so a round that
    # bypasses the wrapped module attribute would leave the metric undefined
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        prep = workload.setup(seed=1, smoke=True)
        engine = workload.trace_targets(full=False)
        tracer = spans.Tracer()
        tracer.install(engine)
        try:
            workload.run_round(prep, tmp_path / name, tracer)
        finally:
            tracer.uninstall()
        for _, _, span_name, _ in engine:
            assert tracer.count(span_name) >= 1, f"{name}: {span_name}"
