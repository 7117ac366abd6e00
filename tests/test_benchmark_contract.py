"""The names and calls that ``perfbench/workloads.py`` relies on.

The benchmark wraps functions by module attribute under ``--trace 1`` and
prepares each workload through the preset API, so renaming or removing one
of them breaks the benchmark.  This runs the same look-ups and set-ups.
"""

from __future__ import annotations

from pathlib import Path

import pytest

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


@pytest.fixture(scope="module")
def full_trace_rounds(tmp_path_factory):
    """Each workload's smoke round with every ``--trace 1`` target wrapped.

    Maps the workload's name to its output directory, its targets and the
    tracer that recorded the round.
    """
    rounds = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import spans
        import workloads

        for name, workload in workloads.WORKLOADS.items():
            prep = workload.setup(seed=1, smoke=True)
            targets = workload.trace_targets(full=True)
            out_dir = tmp_path_factory.mktemp(name)
            tracer = spans.Tracer()
            tracer.install(targets)
            try:
                workload.run_round(prep, out_dir, tracer)
            finally:
                tracer.uninstall()
            rounds[name] = (out_dir, targets, tracer)
    return rounds


def test_every_workload_round_runs_under_its_full_trace(full_trace_rounds):
    # ``--trace 1`` wraps every target at once; a wrapper that breaks a call
    # would otherwise surface only in a traced benchmark run
    for name, (out_dir, _, _) in full_trace_rounds.items():
        assert any(out_dir.iterdir()), name


@pytest.mark.xfail(strict=True, reason=(
    "perfbench traces names that no run path calls: no_jump_branch, "
    "reduced_bipartition, negativity, negativity_series and "
    "ReducedSpace.embed_density, so their layers read 0; retargeting them "
    "to the block negativity and EnsembleResult.jump_free_branch makes "
    "this pass"))
def test_every_full_trace_target_is_entered_by_its_round(full_trace_rounds):
    # a traced layer whose span is never entered reads 0 in every BENCH file
    missed = [f"{name}: {span}" for name, (_, targets, tracer) in full_trace_rounds.items()
              for _, _, span, _ in targets if not tracer.count(span)]
    assert not missed, missed


def test_every_workload_prepares_the_inputs_the_run_builds(monkeypatch):
    # perfbench builds ψ0 by slicing the product-space vector and replays
    # trajectories from it (``ensemble_is_trajectory_mean``); the run builds
    # ψ0 and its projectors on the reduced basis, so the two must agree bitwise
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from jchsim import critical

    for name, workload in workloads.WORKLOADS.items():
        prep = workload.setup(seed=1, smoke=True)
        space = prep.model.space
        if name == "gamma_c_sweep":
            initial, specs = critical._INITIAL_LABELS, (critical._PINNED,)
            params = space.params
        else:
            initial, specs = prep.config.initial, prep.config.observables
            params = prep.config.model
        assert space.product_state(initial).tobytes() == prep.psi0.tobytes(), name
        assert list(prep.ops) == [spec.name for spec in specs], name
        for spec in specs:
            assert (spec.operator(params, space).tobytes()
                    == prep.ops[spec.name].tobytes()), (name, spec.name)


def test_every_workload_passes_its_checks_on_a_smoke_round(monkeypatch, tmp_path):
    # perfbench's checks compare a round's files with its own oracle and with
    # replayed trajectories; run in process, they hold tier-1 to the same bar
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        prep = workload.setup(seed=1, smoke=True)
        workload.run_round(prep, tmp_path / name, spans.Tracer())
        checks, _ = workload.check(prep, tmp_path / name)
        failed = [f"{check.name}: {check.detail}" for check in checks if not check.passed]
        assert checks and not failed, (name, failed)
