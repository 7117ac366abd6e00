"""Config loading, run artifacts, the damping sweep, presets, and the CLI."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jchsim import (config as config_module, critical, dynamics, model as model_module,
                    observables)
from jchsim.checks import SUITE_NAMES, run_suite
from jchsim.cli import main
from jchsim.config import (DEFAULT_GAMMA_RATIOS, CriticalitySweepConfig,
                           ScenarioConfig, config_content_hash,
                           load_scenario_config, load_sweep_config,
                           scenario_from_mapping, sweep_from_mapping)
from jchsim.dynamics import TimeGrid
from jchsim.critical import (CriticalityResult, CriticalityRow, classify_point,
                             estimate_critical_gamma, gamma_c_curve)
from jchsim.errors import ConfigError
from jchsim.model import ReducedSpace, build_reduced_model, excitation_basis
from jchsim.observables import PeakReport, recommended_spacing
from jchsim.presets import PRESET_NAMES, load_preset
from jchsim.runner import _text, _write_table, run_scenario, write_criticality_outputs

from conftest import dense_stack

SCENARIO_INI = textwrap.dedent("""\
    [model]
    n_sites = 2
    n_max = 2
    hop = 0.03
    gamma = 0.05

    [initial]
    labels = 2-, G

    [grid]
    t_end = 150
    spacing = auto

    [run]
    n_traj = 4
    master_seed = 7

    [observables]
    projectors = P20, P11, (1-;1-)+perm
    negativity = true

    [output]
    name = demo
    format = csv
""")

SCENARIO_MAPPING = {
    "model": {"n_sites": 2, "n_max": 2, "hop": 0.03, "gamma": 0.05},
    "initial": {"labels": ["2-", "G"]},
    "grid": {"t_end": 150, "spacing": "auto"},
    "run": {"n_traj": 4, "master_seed": 7},
    "observables": {"projectors": ["P20", "P11", "(1-;1-)+perm"],
                    "negativity": True},
    "output": {"name": "demo", "format": "csv"},
}


# every scenario key, written as the sidecar echoes it
EVERY_SCENARIO_KEY = {
    "model": {"n_sites": 2, "n_max": 2, "hop": [0.03], "gamma": [0.05, 0.04],
              "omega_a": 0.2, "g": [1.0, 1.1]},
    "initial": {"labels": ["2-", "G"]},
    "grid": {"t_end": 11.0, "dt": 0.005},
    "run": {"n_traj": 3, "master_seed": 9},
    "observables": {"projectors": ["P11", "P20+perm"], "negativity": True,
                    "bipartition_cut": 1},
    "output": {"name": "every", "format": "json"},
}

# every sweep key, written as the sidecar echoes it
EVERY_SWEEP_KEY = {
    "sweep": {"j_values": [0.02, 0.04, 0.06], "gamma_ratios": [0.5, 1.0, 2.0],
              "delta": 0.3},
    "model": {"g": 1.5},
    "grid": {"t_end": 120.0, "dt": 0.0025},
    "classifier": {"prominence_threshold": 0.1, "t_min": 3.0},
    "output": {"name": "every", "format": "json"},
}


def as_ini(mapping: dict) -> str:
    """INI text for a mapping; lists become comma-separated values."""
    lines = []
    for section, keys in mapping.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if isinstance(value, list):
                value = ", ".join(str(item) for item in value)
            lines.append(f"{key} = {str(value).lower() if isinstance(value, bool) else value}")
        lines.append("")
    return "\n".join(lines)


def load_both(tmp_path, mapping: dict, load):
    ini_path = tmp_path / "every.ini"
    ini_path.write_text(as_ini(mapping))
    json_path = tmp_path / "every.json"
    json_path.write_text(json.dumps(mapping))
    return load(ini_path), load(json_path)


def problems_of(build, mapping) -> list:
    with pytest.raises(ConfigError) as err:
        build(mapping)
    return err.value.problems


def tiny_scenario(**overrides) -> ScenarioConfig:
    mapping = json.loads(json.dumps(SCENARIO_MAPPING))
    mapping["grid"] = {"t_end": 10.0, "n_samples": 6}
    for section, values in overrides.items():
        mapping.setdefault(section, {}).update(values)
    return scenario_from_mapping(mapping)


class TestScenarioConfig:
    def test_ini_and_json_load_identically(self, tmp_path):
        ini_path = tmp_path / "demo.ini"
        ini_path.write_text(SCENARIO_INI)
        json_path = tmp_path / "demo.json"
        json_path.write_text(json.dumps(SCENARIO_MAPPING))
        from_ini = load_scenario_config(ini_path)
        from_json = load_scenario_config(json_path)
        assert from_ini == from_json
        assert config_content_hash(from_ini) == config_content_hash(from_json)

    @pytest.mark.parametrize("sampling", [{"spacing": 0.5}, {"n_samples": 21}])
    def test_every_key_loads_identically_from_ini_and_json(self, tmp_path, sampling):
        mapping = json.loads(json.dumps(EVERY_SCENARIO_KEY))
        mapping["grid"].update(sampling)
        from_ini, from_json = load_both(tmp_path, mapping, load_scenario_config)
        assert from_ini == from_json
        assert config_content_hash(from_ini) == config_content_hash(from_json)
        echo = from_json.to_mapping()
        for section, keys in mapping.items():
            for key, value in keys.items():
                assert echo[section][key] == value, f"{section}.{key}"

    def test_unknown_key_reported_in_every_section(self):
        bad = {section: {**keys, "bogus": 1}
               for section, keys in SCENARIO_MAPPING.items()}
        problems = problems_of(scenario_from_mapping, bad)
        for section in ("model", "initial", "grid", "run", "observables", "output"):
            assert f"{section}.bogus: unknown key" in problems

    def test_mixed_errors_all_reported(self):
        bad = json.loads(json.dumps(SCENARIO_MAPPING))
        bad["run"]["n_traj"] = "many"
        bad["initial"]["labels"] = ["2-", "G", "G"]
        bad["observables"].update(bipartition_cut=5, projectors=["P300"])
        problems = problems_of(scenario_from_mapping, bad)
        assert "run.n_traj: expected an integer, got 'many'" in problems
        assert "initial.labels: expected 2 site labels, got 3" in problems
        assert any(p.startswith("observables.bipartition_cut:") for p in problems)
        assert "observables.projectors: P300: expected 2 site labels, got 3" in problems

    @pytest.mark.parametrize("name", [None, ["x"], {"a": 1}])
    def test_output_name_that_is_not_text_refused(self, name):
        # once written with str(), these loaded as the file stems None, ['x'] and {'a': 1}
        bad = {**SCENARIO_MAPPING, "output": {"name": name}}
        assert problems_of(scenario_from_mapping, bad) == [
            f"output.name: expected text, got {name!r}"]
        assert problems_of(sweep_from_mapping, {**EVERY_SWEEP_KEY, "output": {"name": name}}) \
            == [f"output.name: expected text, got {name!r}"]

    def test_whole_number_written_as_decimal_text_loads_as_in_json(self, tmp_path):
        # INI n_traj = 2.0 is the JSON 2.0 that linalg.whole takes as 2
        mapping = json.loads(json.dumps(SCENARIO_MAPPING))
        mapping["run"] = {"n_traj": 2.0, "master_seed": 7.0}
        from_ini, from_json = load_both(tmp_path, mapping, load_scenario_config)
        assert from_ini == from_json
        assert (from_ini.n_traj, from_ini.master_seed) == (2, 7)
        big = "123456789012345678901234567890"         # int() keeps every digit
        assert tiny_scenario(run={"master_seed": big}).master_seed == int(big)
        for text in ("2.5", "nan", "inf", "1e400", "two"):
            assert problems_of(lambda run: tiny_scenario(run=run), {"n_traj": text}) == [
                f"run.n_traj: expected an integer, got {text!r}"], text

    def test_projector_named_twice_rejected(self):
        mapping = json.loads(json.dumps(SCENARIO_MAPPING))
        mapping["observables"]["projectors"] = ["P20", "P11", "P20"]
        assert problems_of(scenario_from_mapping, mapping) == [
            "observables.projectors: P20 is named 2 times"]
        config = tiny_scenario()
        with pytest.raises(ConfigError) as err:
            replace(config, observables=config.observables + config.observables[2:])
        assert err.value.problems == ["observables.projectors: P(1-,1-)+perm is named 2 times"]

    def test_projector_beyond_cutoff_rejected(self):
        problems = problems_of(scenario_from_mapping, {
            "model": {"n_sites": 2, "n_max": 1},
            "initial": {"labels": ["1-", "G"]},
            "grid": {"t_end": 10.0, "n_samples": 6},
            "observables": {"projectors": ["P20"]},
        })
        assert problems == [
            "observables.projectors: P20: |2-> needs 2 photons, cutoff is 1"]

    def test_initial_excitation_beyond_cutoff_rejected(self):
        # each label fits n_max = 1, their total of 2 excitations does not
        problems = problems_of(scenario_from_mapping, {
            "model": {"n_sites": 2, "n_max": 1},
            "initial": {"labels": ["1-", "1-"]},
            "grid": {"t_end": 10.0, "n_samples": 6},
            "observables": {"negativity": True},
        })
        assert len(problems) == 1
        assert problems[0].startswith("initial.labels, model.n_max: ")

    def test_projector_beyond_initial_excitation_rejected(self):
        problems = problems_of(scenario_from_mapping, {
            "model": {"n_sites": 2, "n_max": 2},
            "initial": {"labels": ["1-", "G"]},
            "grid": {"t_end": 10.0, "n_samples": 6},
            "observables": {"projectors": ["P11", "P20"]},
        })
        assert len(problems) == 2
        assert problems == [
            f"observables.projectors: {name}: 2 excitations in total, the basis holds at most 1"
            for name in ("P11", "P20")]

    @pytest.mark.parametrize("mapping, load", [(SCENARIO_MAPPING, load_scenario_config),
                                               (EVERY_SWEEP_KEY, load_sweep_config)],
                             ids=["scenario", "sweep"])
    def test_grid_start_is_not_a_key(self, tmp_path, mapping, load):
        # every grid starts at t = 0
        mapping = json.loads(json.dumps(mapping))
        mapping["grid"]["t_start"] = 0.0
        for path, text in ((tmp_path / "start.ini", as_ini(mapping)),
                           (tmp_path / "start.json", json.dumps(mapping))):
            path.write_text(text)
            with pytest.raises(ConfigError) as err:
                load(path)
            assert err.value.problems == ["grid.t_start: unknown key"]

    def test_cavity_frequency_is_not_a_key(self, tmp_path):
        # energies are in the cavity's rotating frame: omega_a is the detuning
        mapping = json.loads(json.dumps(SCENARIO_MAPPING))
        mapping["model"]["omega_c"] = 0.0
        for path, text in ((tmp_path / "cavity.ini", as_ini(mapping)),
                           (tmp_path / "cavity.json", json.dumps(mapping))):
            path.write_text(text)
            with pytest.raises(ConfigError) as err:
                load_scenario_config(path)
            assert err.value.problems == ["model.omega_c: unknown key"]

    def test_conditional_is_not_a_scenario_key(self):
        # every scenario runs the jump-free branch: there is nothing to switch on
        with pytest.raises(ConfigError) as err:
            tiny_scenario(observables={"conditional": True})
        assert err.value.problems == ["observables.conditional: unknown key"]

    @pytest.mark.parametrize("grid, problem", [
        ({"dt": 0.0, "spacing": 2.0}, "grid.dt: must be positive and finite, got 0.0"),
        ({"dt": 0.0, "spacing": "auto"}, "grid.dt: must be positive and finite, got 0.0"),
        ({"spacing": "inf"}, "grid.spacing: must be positive and finite, got inf"),
        # a sample count or step count beyond the float range
        ({"t_end": 1e308, "spacing": 1e-300, "dt": 1e-300},
         "grid.t_end/spacing: must be a finite number, got inf"),
        ({"spacing": 1e300, "dt": 1e-10}, "grid.spacing/dt: must be a finite number, got inf"),
    ])
    def test_degenerate_grid_reported(self, grid, problem):
        bad = {**SCENARIO_MAPPING, "grid": {"t_end": 10.0, **grid}}
        assert problems_of(scenario_from_mapping, bad) == [problem]

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        (tmp_path / "readme.ini").write_text(example)
        config = load_scenario_config(tmp_path / "readme.ini")
        assert config.output_name == "trapping"

    def test_readme_load_counts_match_the_code(self):
        # each count README gives under "At load", read off the ConfigError of
        # the config it describes, in README's space-grouped form; n4's also
        # in its preset row
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        damped = {"model": {"n_sites": 2, "n_max": 32, "gamma": 0.05},
                  "initial": {"labels": ["32-", "G"]},
                  "grid": {"t_end": 10.0, "n_samples": 6},
                  "observables": {"projectors": ["(32-;G)"]}}
        loads = [
            lambda: replace(load_preset("n4").scenarios[0], compute_negativity=True),
            lambda: load_preset("fig2").with_overrides(n_traj=1_000_000),
            lambda: scenario_from_mapping(damped),
            lambda: CriticalitySweepConfig(j_values=(0.02, 0.04, 0.06), t_end=1e7),
        ]
        counts = []
        for load in loads:
            with pytest.raises(ConfigError) as err:
                load()
            (problem,) = err.value.problems
            n_bytes = int(problem.split(" needs ")[1].split(" bytes")[0])
            counts.append(f"{n_bytes:,}".replace(",", " "))
            assert counts[-1] in readme, n_bytes
        assert f"the load-time count is {counts[0]} B" in readme

    def test_content_hash_tracks_content(self):
        base = scenario_from_mapping(SCENARIO_MAPPING)
        same = scenario_from_mapping(dict(SCENARIO_MAPPING))
        reseeded = tiny_scenario(run={"master_seed": 8})
        assert config_content_hash(base) == config_content_hash(same)
        assert config_content_hash(base) != config_content_hash(reseeded)

    def test_auto_spacing_matches_recommendation(self):
        config = scenario_from_mapping(SCENARIO_MAPPING)
        assert config.grid.spacing == pytest.approx(
            recommended_spacing(config.model))

    def test_projector_parsing(self):
        config = scenario_from_mapping(SCENARIO_MAPPING)
        names = [spec.name for spec in config.observables]
        assert names == ["P20", "P11", "P(1-,1-)+perm"]
        assert config.observables[2].symmetrize
        assert config.observables[2].resolved_labels == ("1-", "1-")

    def test_problems_are_aggregated(self):
        bad = json.loads(json.dumps(SCENARIO_MAPPING))
        bad["model"]["n_sites"] = 0
        bad["run"]["n_traj"] = -3
        bad["output"]["format"] = "xml"
        with pytest.raises(ConfigError) as err:
            scenario_from_mapping(bad)
        assert len(err.value.problems) >= 3
        text = str(err.value)
        assert "n_sites" in text and "n_traj" in text and "format" in text

    def test_unknown_keys_and_sections_reported(self):
        bad = json.loads(json.dumps(SCENARIO_MAPPING))
        bad["model"]["coupling_strength"] = 1.0
        bad["extras"] = {"x": 1}
        with pytest.raises(ConfigError) as err:
            scenario_from_mapping(bad)
        assert any("coupling_strength" in p for p in err.value.problems)
        assert any("extras" in p for p in err.value.problems)

    def test_thread_count_is_not_a_scenario_key(self):
        with pytest.raises(ConfigError) as err:
            tiny_scenario(run={"n_threads": 2})
        assert "run.n_threads: unknown key" in err.value.problems
        # nor a sweep key: a sweep has no run section at all
        problems = problems_of(sweep_from_mapping, {
            "sweep": {"j_values": [0.02, 0.04, 0.06]}, "run": {"n_threads": 1}})
        assert problems == ["run: unknown section"]

    @pytest.mark.parametrize("grid, problem", [
        ({"t_end": math.inf, "spacing": 2.0}, "grid.t_end: must be positive and finite, got inf"),
        ({"t_end": math.inf, "n_samples": 6}, "grid.t_end: must be positive and finite, got inf"),
        ({"t_end": -math.inf, "spacing": 2.0},
         "grid.t_end: must be positive and finite, got -inf"),
        ({"t_end": -math.inf, "n_samples": 6},
         "grid.t_end: must be positive and finite, got -inf"),
        ({"t_end": math.nan, "spacing": 2.0}, "grid.t_end: must be positive and finite, got nan"),
        ({"t_end": math.nan, "n_samples": 6}, "grid.t_end: must be positive and finite, got nan"),
    ])
    def test_non_finite_grid_bound_reported(self, grid, problem):
        bad = {**SCENARIO_MAPPING, "grid": grid}
        assert problems_of(scenario_from_mapping, bad) == [problem]

    @pytest.mark.parametrize("sampling", [{"spacing": 2.0}, {"spacing": "auto"},
                                          {"n_samples": 6}])
    def test_reversed_span_names_t_end(self, sampling):
        # every grid starts at 0, so a t_end at or below 0 spans nothing
        for t_end in (0.0, -1.0):
            bad = {**SCENARIO_MAPPING, "grid": {"t_end": t_end, **sampling}}
            assert problems_of(scenario_from_mapping, bad) == [
                f"grid.t_end: must be positive and finite, got {t_end}"]

    def test_spacing_and_samples_mutually_exclusive(self):
        with pytest.raises(ConfigError):
            tiny_scenario(grid={"spacing": 2.0, "n_samples": 6, "t_end": 10.0})
        with pytest.raises(ConfigError) as err:
            scenario_from_mapping({**SCENARIO_MAPPING, "grid": {"t_end": 10.0}})
        assert any("spacing" in p or "n_samples" in p for p in err.value.problems)

    def test_label_count_must_match_sites(self):
        with pytest.raises(ConfigError):
            tiny_scenario(initial={"labels": ["2-", "G", "G"]})

    def test_projector_label_count_must_match_sites(self):
        with pytest.raises(ConfigError):
            tiny_scenario(observables={"projectors": ["P300"]})

    def test_negativity_requires_two_sites(self):
        with pytest.raises(ConfigError):
            scenario_from_mapping({
                "model": {"n_sites": 1, "n_max": 2},
                "initial": {"labels": ["2-"]},
                "grid": {"t_end": 10.0, "n_samples": 6},
                "observables": {"negativity": True},
            })

    @pytest.mark.parametrize("n_sites,n_max,dim", [
        (5, 5, 11), (4, 7, 9), (6, 2, 13), (8, 1, 17),
    ], ids=["5-sites", "4-sites", "6-sites", "8-sites"])
    def test_models_past_the_product_cap_load_and_run(self, n_sites, n_max, dim):
        # 46 656 to 248 832 product states, past the old product cap of 16 384,
        # but one excitation: the run allocates its reduced model only
        labels = ["1-"] + ["G"] * (n_sites - 1)
        config = scenario_from_mapping({
            "model": {"n_sites": n_sites, "n_max": n_max, "hop": 0.03, "gamma": 0.05},
            "initial": {"labels": labels},
            "grid": {"t_end": 10.0, "n_samples": 6},
            "run": {"n_traj": 3},
            "observables": {"projectors": ["(" + ";".join(labels) + ")"]},
        })
        assert config.model.dim > 16384
        assert excitation_basis(config.model, config.max_excitation).dim == dim
        run = run_scenario(config)
        assert run.ensemble.jumps_per_channel.shape == (3, n_sites)
        column = run.columns["P(" + ",".join(labels) + ")"]
        assert column[0] == pytest.approx(1.0) and np.all(np.isfinite(column))

    def test_dense_model_over_budget_rejected(self):
        # 8065 reduced states: H and two loss operators need 3.1 GB; the basis
        # enumeration 64 · 2 · 8065 + 8192 bytes at its peak, and the one
        # trajectory's state with the sweep's copies, held crossing row and
        # waiting arrival, (8065 + 6 · 252) · 16 bytes more, with its objects
        # and a jump record for each of 63 sectors it can leave, 1 280 + 63 · 24,
        # the jump-free run's 6 states and survivals, 6 · (8065 · 16 + 8), and
        # one row of the jump pass, 10 · 252 · 16 + 512; the jump-free branch
        # writes on that run and, with no projector, adds nothing
        problems = problems_of(scenario_from_mapping, {
            "model": {"n_sites": 2, "n_max": 63, "gamma": 0.05},
            "initial": {"labels": ["63-", "G"]},
            "grid": {"t_end": 10.0, "n_samples": 6},
        })
        assert problems == [
            "model.n_sites, model.n_max, initial.labels, run.n_traj: the basis, H and the "
            "loss operators, the observable rows and live states of 1 trajectories needs "
            "3124134456 bytes, above the budget 268435456"]

    def test_projectors_counted_against_the_budget(self):
        # 2113 reduced states: H and two loss operators take 214 308 912 bytes,
        # and each projector is one more dense matrix of 71 436 304 bytes; the
        # basis enumeration peaks at 278 656 bytes, and the trajectory adds its
        # state, the sweep's copies, held crossing row and waiting arrival
        # ((2113 + 6 · 128) · 16 bytes), its objects and jump records
        # (1 280 + 32 · 24), one row per projector (48), the jump-free run's 6
        # states and survivals, 6 · (2113 · 16 + 8), and one row of the jump
        # pass, 10 · 128 · 16 + 512; the jump-free branch writes on that run and
        # adds its reduction's temporaries on the 128-state top sector,
        # 6 · (3 · 128 · 16 + 16 + 2 · 8)
        mapping = {
            "model": {"n_sites": 2, "n_max": 32, "gamma": 0.05},
            "initial": {"labels": ["32-", "G"]},
            "grid": {"t_end": 10.0, "n_samples": 6},
        }
        assert scenario_from_mapping(mapping).max_excitation == 32
        mapping["observables"] = {"projectors": ["(32-;G)"]}
        assert problems_of(scenario_from_mapping, mapping) == [
            "model.n_sites, model.n_max, initial.labels, observables.projectors, run.n_traj: "
            "the basis, H and the loss operators, the projectors, the jump-free branch, the "
            "observable rows and live states of 1 trajectories needs 286333008 bytes, above "
            "the budget 268435456"]

    def test_trajectory_rows_counted_against_the_budget(self):
        # fig2: each trajectory keeps 3 · 560 observable rows of 8 bytes and, while
        # the batch runs, its 13-dim state with six copies of the 8-state sector
        # (the sweep's, its held crossing row and its waiting arrival), its
        # objects and a jump record for each of the two sectors it can leave:
        # 13 440 + 976 + 1 280 + 2 · 24 bytes each, 15.7 GB at a million; the
        # model, projectors, ρ̄, its partial transpose, the jump-free branch's
        # reduction, the trajectories' jump-free run and a chunk of 2 340 rows of
        # their jump pass add 6 850 416 bytes
        bundle = load_preset("fig2")
        assert bundle.with_overrides(n_traj=2000).scenarios[0].n_traj == 2000
        with pytest.raises(ConfigError) as err:
            bundle.with_overrides(n_traj=1_000_000)
        (problem,) = err.value.problems
        assert problem.startswith("model.n_sites, model.n_max, initial.labels, "
                                  "observables.projectors, observables.negativity, "
                                  "observables.bipartition_cut, run.n_traj: ")
        assert problem.endswith("the observable rows and live states of 1000000 "
                                "trajectories needs 15750850416 bytes, above the budget "
                                "268435456")

    def test_huge_photon_cutoff_runs_on_its_reduced_model(self):
        # n_max = 10**9 gives a 2e9-dim site; one excitation keeps 3 states
        config = scenario_from_mapping({
            "model": {"n_sites": 1, "n_max": 10**9, "gamma": 0.05},
            "initial": {"labels": ["1-"]},
            "grid": {"t_end": 10.0, "n_samples": 6},
            "run": {"n_traj": 3},
            "observables": {"projectors": ["(1-)"]},
        })
        run = run_scenario(config)
        assert run.columns["P(1-)"][0] == pytest.approx(1.0)
        assert np.all(np.diff(run.columns["survival"]) < 0)

    def test_product_indices_beyond_int64_rejected(self):
        # at n_max = 1 a site has 4 states: 31 sites span 2**62, 32 sites 2**64
        def mapping(n_sites):
            return {"model": {"n_sites": n_sites, "n_max": 1},
                    "initial": {"labels": ["1-"] + ["G"] * (n_sites - 1)},
                    "grid": {"t_end": 10.0, "n_samples": 6}}
        assert scenario_from_mapping(mapping(31)).model.dim == 2**62
        for n_sites in (32, 33):
            assert problems_of(scenario_from_mapping, mapping(n_sites)) == [
                f"model.n_sites, model.n_max, initial.labels: {n_sites} sites with "
                "n_max = 1 span at least 2**63 product states, whose indices "
                "overflow int64"]

    def test_negativity_over_stack_cap_rejected(self):
        # n4's model with negativity on: ρ̄'s entries on the sectors of 1, 8, 32,
        # 88 and 192 states, (561 + 1) · 45 697 · 16 bytes with their rows and
        # columns, and the partial transpose's largest block across the cut,
        # at most 257 states: 561 · (2 · 257² + 257) · 16 bytes; the trajectory's
        # jump-free run holds 561 states of 321 amplitudes and their survival,
        # which the jump-free branch writes on, adding nothing with no projector
        mapping = {
            "model": {"n_sites": 4, "n_max": 4},
            "initial": {"labels": ["4-", "G", "G", "G"]},
            "grid": {"t_end": 1120.0, "n_samples": 561},
            "observables": {"negativity": True},
        }
        assert problems_of(scenario_from_mapping, mapping) == [
            "model.n_sites, model.n_max, initial.labels, observables.negativity, "
            "observables.bipartition_cut, run.n_traj: the basis, H and the loss operators, "
            "ρ̄'s block entries over 561 samples, the partial transpose's largest block of "
            "at most 257 states, the observable rows and live states of 1 trajectories "
            "needs 1603617592 bytes, above the budget 268435456"]
        # the preset: 560 samples, 2000 trajectories with 2 projectors, four damped
        # sites and the jump-free branch
        with pytest.raises(ConfigError, match="1687780304 bytes"):
            replace(load_preset("n4").scenarios[0], compute_negativity=True)

    def test_partial_transpose_beyond_the_budget_refused_at_load(self):
        # six sites from |2-, G, ...>: 85 states, but at cut 3 the partial
        # transpose's largest block holds 361, a (560, 361, 361) stack of
        # 1 167 676 160 bytes; without negativity the config loads
        mapping = {
            "model": {"n_sites": 6, "n_max": 2, "hop": 0.03, "gamma": 0.05},
            "initial": {"labels": ["2-"] + ["G"] * 5},
            "grid": {"t_end": 1500.0, "spacing": "auto"},
            "observables": {"negativity": False, "bipartition_cut": 3},
        }
        assert scenario_from_mapping(mapping).grid.n_samples == 560
        mapping["observables"]["negativity"] = True
        (problem,) = problems_of(scenario_from_mapping, mapping)
        assert problem.startswith("model.n_sites, model.n_max, initial.labels, "
                                  "observables.negativity, observables.bipartition_cut, "
                                  "run.n_traj: ")
        assert "the partial transpose's largest block of at most 361 states" in problem
        assert problem.endswith("above the budget 268435456")

    def test_negativity_beyond_the_operator_cap_runs(self):
        # 10^4 product states, but ρ̄ lives in the 9-dim one-excitation space
        config = scenario_from_mapping({
            "model": {"n_sites": 4, "n_max": 4, "hop": 0.03, "gamma": 0.05},
            "initial": {"labels": ["1-", "G", "G", "G"]},
            "grid": {"t_end": 40.0, "n_samples": 9},
            "run": {"n_traj": 3},
            "observables": {"negativity": True, "bipartition_cut": 2},
        })
        assert config.model.dim == 10_000
        run = run_scenario(config)
        assert dense_stack(run.ensemble.rho_blocks, 9).shape == (9, 9, 9)
        neg = run.columns["negativity"]
        assert neg[0] <= 1e-12 and neg.max() > 1e-3 and np.all(np.isfinite(neg))

    def test_mapping_echo_covers_every_model_field(self):
        config = scenario_from_mapping(SCENARIO_MAPPING)
        echo = config.to_mapping()["model"]
        assert set(echo) == {"n_sites", "n_max", "hop", "gamma", "omega_a", "g"}


class TestSweepConfig:
    def test_sample_count_beyond_the_budget_refused_at_load(self):
        # 3 731 344 samples: the master equation's returned stack alone is 9.4 GB
        with pytest.raises(ConfigError) as err:
            CriticalitySweepConfig(j_values=(0.02, 0.04, 0.06), t_end=1e7)
        assert err.value.problems == [
            "grid.t_end, grid.dt: two bases, two models' H and loss operators, "
            "the hop terms, the pinned-state projector, a point's H and loss operators, the "
            "master equation's generators and 3731344 samples, the partial transpose's "
            "largest block of at most 9 states needs 22716681680 bytes, above the budget "
            "268435456"]

    def test_grid_start_is_not_a_field(self):
        with pytest.raises(TypeError):
            CriticalitySweepConfig(j_values=(0.02, 0.04, 0.06), t_start=0.0)

    def test_defaults_and_grid(self):
        config = CriticalitySweepConfig(j_values=(0.02, 0.04, 0.06))
        assert config.gamma_ratios == DEFAULT_GAMMA_RATIOS
        params = config.model_for(0.04, 0.02)
        assert params.hop == (0.04,)
        assert params.gamma == (0.02, 0.02)
        grid = config.grid_for(params)
        assert grid.spacing == pytest.approx(recommended_spacing(params))

    def test_grids_must_increase(self):
        with pytest.raises(ConfigError):
            CriticalitySweepConfig(j_values=(0.06, 0.04, 0.02))
        with pytest.raises(ConfigError):
            CriticalitySweepConfig(j_values=(0.02, 0.04, 0.06),
                                   gamma_ratios=(1.0, 1.0))
        with pytest.raises(ConfigError):
            CriticalitySweepConfig(j_values=(-0.02, 0.04, 0.06))

    def test_source_checked(self):
        # a sweep file written when the ensemble could be chosen as source
        problems = problems_of(sweep_from_mapping, {
            "sweep": {"j_values": [0.02, 0.04, 0.06], "source": "ensemble"},
            "model": {"n_max": 2, "g": 1.0},
            "run": {"n_traj": 2000, "master_seed": 5}})
        assert sorted(problems) == ["model.n_max: unknown key", "run: unknown section",
                                    "sweep.source: unknown key"]

    @pytest.mark.parametrize("grid, problem", [
        ({"t_end": math.inf}, "grid.t_end: must be positive and finite, got inf"),
        ({"t_end": -math.inf}, "grid.t_end: must be positive and finite, got -inf"),
        ({"t_end": math.nan}, "grid.t_end: must be positive and finite, got nan"),
    ])
    def test_non_finite_grid_bound_reported(self, grid, problem):
        problems = problems_of(sweep_from_mapping, {
            "sweep": {"j_values": [0.02, 0.04, 0.06]}, "grid": grid})
        assert problems == [problem]

    def test_reversed_span_names_t_end(self):
        # every grid starts at 0, so a t_end at or below 0 spans nothing
        for t_end in (0.0, -5.0):
            problems = problems_of(sweep_from_mapping, {
                "sweep": {"j_values": [0.02, 0.04, 0.06]}, "grid": {"t_end": t_end}})
            assert problems == [f"grid.t_end: must be positive and finite, got {t_end}"]

    def test_every_value_checked_at_load(self):
        base = {"sweep": {"j_values": [0.02, 0.04, 0.06]}}
        cases = [
            ("sweep", {"j_values": [0.02, 0.04, math.inf]},
             "sweep.j_values: must be positive and finite, got inf"),
            ("sweep", {"delta": math.nan}, "sweep.delta: must be a finite number, got nan"),
            ("model", {"g": math.nan}, "model.g: must be positive and finite, got nan"),
            ("sweep", {"gamma_ratios": [0.5, math.inf]},
             "sweep.gamma_ratios: must be positive and finite, got inf"),
            ("grid", {"dt": 0.02}, "grid.dt: 0.02 exceeds the stability cap 0.01"),
            ("grid", {"t_end": 2.0},
             "grid.t_end: spacing 2.68 does not fit inside (0.0, 2.0)"),
            ("classifier", {"t_min": math.inf},
             "classifier.t_min: must be finite and >= 0, got inf"),
            ("classifier", {"t_min": 148.0},
             "classifier.t_min: must lie below the last sample time 147.4, got 148.0"),
        ]
        for section, values, problem in cases:
            mapping = {**base, section: {**base.get(section, {}), **values}}
            assert problems_of(sweep_from_mapping, mapping) == [problem], problem

    def test_ini_and_json_load_identically(self, tmp_path):
        ini_path = tmp_path / "sweep.ini"
        ini_path.write_text(textwrap.dedent("""\
            [sweep]
            j_values = 0.02, 0.04, 0.06
            gamma_ratios = 0.5, 1.0, 2.0

            [grid]
            t_end = 150

            [output]
            name = quick
        """))
        json_path = tmp_path / "sweep.json"
        json_path.write_text(json.dumps({
            "sweep": {"j_values": [0.02, 0.04, 0.06],
                      "gamma_ratios": [0.5, 1.0, 2.0]},
            "grid": {"t_end": 150},
            "output": {"name": "quick"},
        }))
        from_ini = load_sweep_config(ini_path)
        from_json = load_sweep_config(json_path)
        assert from_ini == from_json
        assert config_content_hash(from_ini) == config_content_hash(from_json)

    def test_unknown_section_reported(self):
        with pytest.raises(ConfigError) as err:
            sweep_from_mapping({"sweep": {"j_values": [0.02, 0.04, 0.06]},
                                "misc": {"a": 1}})
        assert any("misc" in p for p in err.value.problems)

    def test_every_key_loads_identically_from_ini_and_json(self, tmp_path):
        from_ini, from_json = load_both(tmp_path, EVERY_SWEEP_KEY, load_sweep_config)
        assert from_ini == from_json
        assert config_content_hash(from_ini) == config_content_hash(from_json)
        echo = from_json.to_mapping()
        for section, keys in EVERY_SWEEP_KEY.items():
            for key, value in keys.items():
                assert echo[section][key] == value, f"{section}.{key}"

    def test_unknown_key_reported_in_every_section(self):
        bad = {section: {**keys, "bogus": 1}
               for section, keys in EVERY_SWEEP_KEY.items()}
        problems = problems_of(sweep_from_mapping, bad)
        for section in EVERY_SWEEP_KEY:
            assert f"{section}.bogus: unknown key" in problems

    def test_mixed_errors_all_reported(self):
        problems = problems_of(sweep_from_mapping, {
            "sweep": {"j_values": [0.02, 0.04, 0.06], "delta": "nan"},
            "grid": {"dt": "small"},
            "classifier": {"t_min": -1},
        })
        assert "grid.dt: expected a number, got 'small'" in problems
        assert "sweep.delta: must be a finite number, got nan" in problems
        assert "classifier.t_min: must be finite and >= 0, got -1.0" in problems

    def test_missing_j_values_still_checks_run_and_output(self):
        # a sweep has no run section; its output is still checked
        problems = problems_of(sweep_from_mapping, {"output": {"format": "xml"}})
        assert problems[0] == "sweep.j_values: required key missing"
        assert problems[1].startswith("output.format:")
        assert len(problems) == 2


class TestValueRules:
    """One case for each config rule that no other test reaches."""

    @pytest.mark.parametrize("text, value", [("off", False), (" No ", False), ("0", False),
                                             ("on", True)])
    def test_boolean_text_loads(self, text, value):
        assert tiny_scenario(observables={"negativity": text}).compute_negativity is value

    def test_boolean_text_that_is_neither_refused(self):
        bad = {**SCENARIO_MAPPING, "observables": {"negativity": "maybe"}}
        assert problems_of(scenario_from_mapping, bad) == [
            "observables.negativity: expected a boolean, got 'maybe'"]

    @pytest.mark.parametrize("raw, problem", [
        (5, "expected a comma-separated list, got 5"),
        ([], "empty list"),
        (" , ", "empty list"),
    ])
    def test_list_that_is_not_one_or_is_empty_refused(self, raw, problem):
        assert problems_of(sweep_from_mapping, {"sweep": {"j_values": raw}}) == [
            f"sweep.j_values: {problem}"]

    def test_every_bad_list_item_reported(self):
        assert problems_of(sweep_from_mapping, {"sweep": {"j_values": [0.02, "a", None]}}) == [
            "sweep.j_values: expected a number, got 'a'",
            "sweep.j_values: expected a number, got None"]

    def test_bad_projector_refused_and_empty_list_asks_for_none(self):
        bad = {**SCENARIO_MAPPING, "observables": {"projectors": ["P20", "(2-; Q)"]}}
        [problem] = problems_of(scenario_from_mapping, bad)
        assert problem.startswith("observables.projectors: bad projector '(2-; Q)' (")
        for empty in ("", [], "  "):
            assert tiny_scenario(observables={"projectors": empty}).observables == ()

    @pytest.mark.parametrize("section", ["model", "output"])
    def test_section_that_is_not_a_mapping_refused(self, section):
        bad = {**SCENARIO_MAPPING, section: ["n_sites", 2]}
        assert f"{section}: expected a mapping of keys" in problems_of(scenario_from_mapping,
                                                                        bad)

    @pytest.mark.parametrize("name", ["", "runs/demo"])
    def test_output_name_that_is_not_a_bare_stem_refused(self, name):
        bad = {**SCENARIO_MAPPING, "output": {"name": name}}
        assert problems_of(scenario_from_mapping, bad) == [
            f"output.name: must be a bare file stem, got {name!r}"]

    @pytest.mark.parametrize("name", ["j_values", "gamma_ratios"])
    def test_empty_sweep_grid_refused(self, name):
        kwargs = {"j_values": (0.02, 0.04, 0.06), name: ()}
        with pytest.raises(ConfigError) as err:
            CriticalitySweepConfig(**kwargs)
        assert f"sweep.{name}: required and non-empty" in err.value.problems

    @pytest.mark.parametrize("suffix, text, problem", [
        (".json", "{", "invalid JSON ("),
        (".json", "[1, 2]", "top level must be an object"),
        (".ini", "[model]\nn_sites\n", "invalid config ("),
        (".ini", "n_sites = 2\n", "invalid config ("),
    ], ids=["json_syntax", "json_list", "ini_syntax", "ini_no_section"])
    def test_unreadable_file_refused_naming_it(self, tmp_path, suffix, text, problem):
        path = tmp_path / f"bad{suffix}"
        path.write_text(text)
        for load in (load_scenario_config, load_sweep_config):
            with pytest.raises(ConfigError) as err:
                load(path)
            [message] = err.value.problems
            assert message.startswith(f"{path}: {problem}"), message


def rowwise_table(path: Path, columns: dict) -> bytes:
    """The CSV table written a row at a time, each cell through ``_text``."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in zip(*columns.values()):
            writer.writerow([_text(value) for value in row])
    return path.read_bytes()


def table_at_blas_threads(out_dir: Path, preset: str, n_traj: int,
                          threads: str) -> tuple:
    """The (table, sidecar) bytes of a preset's first scenario at ``n_traj``
    trajectories, run in a fresh process at ``threads`` BLAS threads."""
    script = textwrap.dedent("""\
        import sys
        from jchsim.presets import load_preset
        from jchsim.runner import run_scenario
        bundle = load_preset(sys.argv[2]).with_overrides(n_traj=int(sys.argv[3]))
        run = run_scenario(bundle.scenarios[0], out_dir=sys.argv[1])
        sys.stdout.buffer.write(run.table_path.read_bytes() + b"\\0"
                                + run.sidecar_path.read_bytes())
        """)
    path = [str(Path(__file__).resolve().parents[1] / "src"),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script, str(out_dir), preset, str(n_traj)],
                          env=env, capture_output=True, check=True, timeout=120)
    return tuple(done.stdout.split(b"\0"))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    result = run_scenario(tiny_scenario(), out_dir=out)
    return out, result


class TestRunnerArtifacts:

    def test_column_order(self, run_dir):
        _, result = run_dir
        assert tuple(result.columns) == (
            "t", "P20", "P20_stderr", "P11", "P11_stderr",
            "P(1-,1-)+perm", "P(1-,1-)+perm_stderr", "negativity",
            "survival", "P20_cond", "P11_cond", "P(1-,1-)+perm_cond")

    def test_csv_shape_and_line_endings(self, run_dir):
        out, result = run_dir
        raw = result.table_path.read_bytes()
        assert b"\r\n" in raw and b"\r\r" not in raw
        with open(result.table_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(result.columns)
        assert len(rows) == 1 + len(result.columns["t"])
        parsed = np.array([[float(x) for x in row] for row in rows[1:]])
        assert parsed[:, 0] == pytest.approx(result.columns["t"])

    def test_sidecar_echoes_config(self, run_dir):
        _, result = run_dir
        sidecar = json.loads(result.sidecar_path.read_text())
        assert sidecar["kind"] == "scenario"
        assert sidecar["content_hash"] == config_content_hash(result.config)
        assert sidecar["columns"] == list(result.columns)
        assert sidecar["config"] == result.config.to_mapping()
        assert sidecar["table_file"] == result.table_path.name

    def test_sidecar_records_jump_diagnostics(self, tmp_path):
        # fig2 from |2-, G>: every trajectory makes both jumps and ends in the vacuum
        config = load_preset("fig2").with_overrides(n_traj=5).scenarios[0]
        result = run_scenario(config, out_dir=tmp_path)
        sidecar = json.loads(result.sidecar_path.read_text())
        ens = result.ensemble
        assert sidecar["jumps_per_channel"] == ens.jumps_per_channel.sum(axis=0).tolist()
        assert sum(sidecar["jumps_per_channel"]) == 2 * 5
        entry = ens.absorbing_entry
        assert sidecar["absorbing_entry"] == {
            "min": entry.min(), "median_lower": sorted(entry)[2], "max": entry.max(),
            "never": 0}
        values = sidecar["jumps_per_channel"] + list(sidecar["absorbing_entry"].values())
        assert all(type(v) is int for v in values)

    def test_scenario_builds_its_blocks_once(self, monkeypatch):
        from jchsim import dynamics
        calls = []
        build = dynamics._build_machinery

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(dynamics, "_build_machinery", counted)
        config = load_preset("fig2").with_overrides(n_traj=3).scenarios[0]
        result = run_scenario(config)
        assert len(calls) == 1
        assert "survival" in result.columns

    def test_reruns_are_byte_identical(self, run_dir, tmp_path):
        out, result = run_dir
        rerun = run_scenario(tiny_scenario(), out_dir=tmp_path)
        assert rerun.table_path.read_bytes() == result.table_path.read_bytes()
        assert rerun.sidecar_path.read_bytes() == result.sidecar_path.read_bytes()

    def test_table_independent_of_blas_threads(self, tmp_path):
        # fig2 in fresh processes at 1 and 2 BLAS threads: with a few trajectories,
        # and with a batch of 300, whose block products are large enough to thread
        for n_traj in (5, 300):
            one, two = (table_at_blas_threads(tmp_path / str(n_traj) / threads,
                                              "fig2", n_traj, threads)
                        for threads in ("1", "2"))
            assert one == two, n_traj
            assert b"negativity" in one[0].split(b"\r\n")[0]
            assert b'"n_traj": ' + str(n_traj).encode() in one[1]

    @pytest.mark.xfail(strict=True, reason=(
        "n3's rho-bar sums each sample's rows of a block below the start block with "
        "one matmul whose inner dimension is the count of rows there; OpenBLAS "
        "splits it over threads in an order that depends on the thread count, so at "
        "the preset's 2000 trajectories the negativity column differs in its last "
        "bits at 1 and 2 threads on a 2-core machine.  The start block sums no rows: "
        "the trajectories that have not jumped are one shared state"))
    def test_n3_table_independent_of_blas_threads(self, tmp_path):
        one, two = (table_at_blas_threads(tmp_path / threads, "n3", 2000, threads)[0]
                    for threads in ("1", "2"))
        assert one == two

    def test_survival_and_conditional_columns_are_sane(self, run_dir):
        _, result = run_dir
        survival = result.columns["survival"]
        assert survival[0] == pytest.approx(1.0)
        assert np.all(np.diff(survival) <= 1e-12)
        cond = result.columns["P20_cond"]
        assert np.all((cond >= -1e-12) & (cond <= 1.0 + 1e-12))

    def test_column_writer_is_the_row_writer(self, tmp_path):
        # float64 columns are formatted whole, 64 rows at a time; 150 rows span
        # three chunks, the last one short
        specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1, -2.5e-17]
        floats = np.array(specials * 19)[:150]
        columns = {"t": np.linspace(0.0, 1500.0, 150), "special": floats,
                   "scalars": [np.float64(v) for v in floats[::-1]],
                   "counts": np.arange(150), "float32": np.linspace(-1.0, 1.0, 150, dtype=np.float32)}
        _write_table(tmp_path / "floats.csv", columns, "csv")
        written = (tmp_path / "floats.csv").read_bytes()
        assert written == rowwise_table(tmp_path / "rows.csv", columns)
        for text in (b",-0.0,", b",nan,", b",inf,", b",-inf,", b",5e-324,", b",1e+300,"):
            assert text in written
        # a sweep's table: lists of str, int, None, bool and float cells
        columns = {"hop": [0.02, 0.04, np.float64(0.06)], "classification": ["single",
                   "multi, \"quoted\"", ""], "n_peaks": [1, np.int64(3), 0],
                   "gamma_c": [None, 0.75, math.nan], "pinned": [True, np.bool_(False), False],
                   "flags": ["", "not_bracketed;non_monotonic", None]}
        _write_table(tmp_path / "sweep.csv", columns, "csv")
        written = (tmp_path / "sweep.csv").read_bytes()
        assert written == rowwise_table(tmp_path / "sweep_rows.csv", columns)
        assert written.count(b"\r\n") == 4 and b"true" in written and b"false" in written
        # no columns, and columns of unequal length, as zip reads them
        for columns in ({}, {"t": np.arange(3.0), "short": [1, 2]}):
            _write_table(tmp_path / "odd.csv", columns, "csv")
            assert (tmp_path / "odd.csv").read_bytes() == rowwise_table(
                tmp_path / "odd_rows.csv", columns)

    def test_json_table_format(self, tmp_path):
        config = tiny_scenario(output={"format": "json", "name": "tbl"})
        result = run_scenario(config, out_dir=tmp_path)
        assert result.table_path.name == "tbl.json"
        assert result.sidecar_path.name == "tbl.meta.json"
        payload = json.loads(result.table_path.read_text())
        assert payload["columns"] == list(result.columns)
        assert payload["data"]["t"] == pytest.approx(result.columns["t"])

    def test_time_only_table(self, tmp_path):
        config = scenario_from_mapping({
            "model": {"n_sites": 2, "n_max": 2, "hop": 0.03},
            "initial": {"labels": ["2-", "G"]},
            "grid": {"t_end": 10.0, "n_samples": 6},
            "output": {"name": "bare"},
        })
        # no projector and no negativity: the times and the jump-free branch's survival
        result = run_scenario(config, out_dir=tmp_path)
        assert tuple(result.columns) == ("t", "survival")
        with open(result.table_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "survival"]
        assert len(rows) == 7


def fake_report(count: int, height: float) -> PeakReport:
    return PeakReport(peak_times=np.arange(count, dtype=float),
                      peak_heights=np.full(count, height),
                      global_max=height if count else 0.0,
                      prominences=np.full(count, height))


def fake_row(gamma: float, count: int, height: float = 0.1) -> CriticalityRow:
    return CriticalityRow(hop=0.06, gamma=gamma, report=fake_report(count, height),
                          max_pinned=0.1)


def sweep_config(**kwargs) -> CriticalitySweepConfig:
    kwargs.setdefault("j_values", (0.02, 0.04, 0.06))
    return CriticalitySweepConfig(**kwargs)


class TestEstimatorFlags:
    def test_smallest_single_wins(self):
        # the first single-peak damping, not the taller single peak above it
        rows = (fake_row(0.018, 3), fake_row(0.03, 2),
                fake_row(0.045, 1, height=0.22), fake_row(0.06, 1, height=0.30),
                fake_row(0.09, 1, height=0.12))
        est = estimate_critical_gamma(sweep_config(), 0.06, rows=rows)
        assert est.gamma_c == pytest.approx(0.045)
        assert est.flags == ()
        assert est.ratio == pytest.approx(0.75)

    def test_all_multi_rows_not_bracketed(self):
        rows = tuple(fake_row(g, 3) for g in (0.02, 0.04, 0.06))
        est = estimate_critical_gamma(sweep_config(), 0.06, rows=rows)
        assert est.gamma_c is None
        assert "not_bracketed" in est.flags

    def test_all_single_rows_flagged_but_estimated(self):
        rows = tuple(fake_row(g, 1, height=0.1 + 0.01 * i)
                     for i, g in enumerate((0.02, 0.04, 0.06)))
        est = estimate_critical_gamma(sweep_config(), 0.06, rows=rows)
        assert est.gamma_c == pytest.approx(0.02)
        assert "not_bracketed" in est.flags

    def test_reentrant_rows_flagged_non_monotonic(self):
        rows = (fake_row(0.02, 2), fake_row(0.04, 1), fake_row(0.06, 2),
                fake_row(0.09, 1))
        est = estimate_critical_gamma(sweep_config(), 0.06, rows=rows)
        assert "non_monotonic" in est.flags

    def test_no_peak_rows_flagged(self):
        rows = (fake_row(0.02, 2), fake_row(0.04, 0), fake_row(0.06, 1))
        est = estimate_critical_gamma(sweep_config(), 0.06, rows=rows)
        assert "no_peak_rows" in est.flags

    def test_degenerate_grids_flagged(self):
        single = sweep_config(gamma_ratios=(1.0,))
        est = estimate_critical_gamma(single, 0.06, rows=(fake_row(0.06, 1),))
        assert "single_point" in est.flags
        narrow = sweep_config(gamma_ratios=(0.5, 1.0))
        est = estimate_critical_gamma(
            narrow, 0.06, rows=(fake_row(0.03, 2), fake_row(0.06, 1)))
        assert "narrow_grid" in est.flags

    def test_curve_needs_three_hop_values(self):
        # the slope fit's need is checked at load, before any point runs
        problems = problems_of(sweep_from_mapping, {"sweep": {"j_values": [0.02, 0.04]}})
        assert problems == ["sweep.j_values: need at least 3 hop values for a slope fit, got 2"]


class TestSweepOutputs:
    def test_json_tables_and_sidecar(self, tmp_path):
        config = sweep_config(output_name="sw", output_format="json")
        rows = (fake_row(0.03, 3), fake_row(0.06, 2))
        result = CriticalityResult(
            config=config, slope=None,
            estimates=(estimate_critical_gamma(config, 0.06, rows=rows),))
        paths = write_criticality_outputs(result, tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == {
            "sw_rows.json", "sw_estimates.json", "sw.meta.json"}
        table = json.loads(paths["rows"].read_text())
        assert table["columns"][:5] == ["hop", "gamma", "gamma_ratio",
                                        "classification", "n_peaks"]
        data = table["data"]
        assert data["gamma"] == [0.03, 0.06]
        assert data["classification"] == ["MultiPeak(3)", "MultiPeak(2)"]
        assert data["n_peaks"] == [3, 2]
        assert data["boundary_peak"] == [False, False]
        assert data["peak_times"] == ["0.0;1.0;2.0", "0.0;1.0"]
        estimates = json.loads(paths["estimates"].read_text())
        assert estimates["columns"] == ["hop", "gamma_c", "gamma_c_ratio", "flags"]
        assert estimates["data"]["gamma_c"] == [None]
        assert estimates["data"]["flags"] == ["not_bracketed"]
        sidecar = json.loads(paths["sidecar"].read_text())
        assert sidecar["kind"] == "criticality"
        assert sidecar["slope"] is None
        assert sidecar["row_file"] == "sw_rows.json"
        assert sidecar["estimate_file"] == "sw_estimates.json"
        assert sidecar["content_hash"] == config_content_hash(config)
        assert sidecar["config"] == config.to_mapping()

    def test_cells_derived_as_fig4_is_written(self, resonant_curve, tmp_path):
        # gamma_ratio, n_peaks, classification and gamma_c_ratio are computed
        # from the records as the tables are written, not stored in them
        assert resonant_curve.config == replace(load_preset("fig4").sweep,
                                                output_name="criticality")
        paths = write_criticality_outputs(resonant_curve, tmp_path)
        with open(paths["rows"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * len(DEFAULT_GAMMA_RATIOS)
        for row in rows:
            assert float(row["gamma_ratio"]) == float(row["gamma"]) / float(row["hop"])
            n_peaks = len(row["peak_times"].split(";")) if row["peak_times"] else 0
            assert int(row["n_peaks"]) == n_peaks
            assert row["classification"] == (
                {0: "NoPeak", 1: "SinglePeak"}.get(n_peaks, f"MultiPeak({n_peaks})"))
        with open(paths["estimates"], newline="") as fh:
            estimates = list(csv.DictReader(fh))
        assert len(estimates) == 4
        for est in estimates:
            assert float(est["gamma_c_ratio"]) == float(est["gamma_c"]) / float(est["hop"])


@pytest.fixture(scope="module")
def resonant_curve():
    return gamma_c_curve(sweep_config(j_values=(0.02, 0.04, 0.06, 0.08)))


@pytest.fixture(scope="module")
def detuned_curve():
    return gamma_c_curve(sweep_config(j_values=(0.02, 0.04, 0.06, 0.08), delta=0.5))


# sha256 of every file the fig1 and fig4 presets write, and fig2 and fig3 at
# --traj 20 and n3 and n4 at --traj 2: outputs are pinned across commits, and a
# change that moves them on purpose records new digests here
PRESET_DIGESTS = {
    "fig2.csv": "d1e8ca11858659ebfe04cbab3f92cc4223da4d152c7b0f190908bf375f240624",
    "fig2.json": "7924e48c6e64477817ed00d04ec891c64c65c9d48a1ae25cd953cfc146fb2060",
    "fig3_above_critical.csv": "9e148a3aae2d1537f23ae3d14169c66fba33c91d76f67b0693f342ffe68b254f",
    "fig3_above_critical.json": "f19f9fdb6026cc60482979691a4264fe90d661b1b907a46e3b57eeedbe619a74",
    "fig3_below_critical.csv": "051824570363a10630d4781b04a5ea79b6f2b92c780e6c11e699761523a2da37",
    "fig3_below_critical.json": "103f8b4ae5fba8a06e92162b5b076cf373a7dc39a036cfa324c75dbeace04df6",
    "n3.csv": "3649554cbfd07fcf1f219b97c3618bc487f66c512982f08ed55ae083bd28a4ee",
    "n3.json": "32ad2b2edc5bac5e0a7b4f17ab5487cc5b035e176bba7b4c509a0fe9a7df7d68",
    "n4.csv": "6d5d082f52c0c33bcd53e3b6c6184aef84e068cd12cf7af69d094395a3120ff8",
    "n4.json": "1a8ea8be8dfef71cc2027f87dc653ab7a2aff4536de9413ea8e8c60809033706",
    "fig1_delta0.csv": "4bc3b8e0349f3afefaef16922152940a09dbdd3c203d279afcbd2d6d42ef8e88",
    "fig1_delta0.json": "0a5ee5f492b075f417813ae7d8ba501cc70bf12eee2615dd94b320efb2f395e5",
    "fig1_delta09.csv": "d78ac26b172a7abeeb102d115f85aae348a3f8fa31657c150599cef0630ddbb0",
    "fig1_delta09.json": "5a42e8f68280e828b97a31b91f91c28e78a69103a2d125f337875f56951825fa",
    "fig4.json": "7d7123ce38acdf0ca9f767096adb0dc5ad5032ed228e5e092594d7aba2d57fbc",
    "fig4_estimates.csv": "f9c8870d65c2626715abb52f5bf6d250ed6a885cf27757a030f50c06d11549b4",
    "fig4_rows.csv": "befd9bfe5e0d03f78f79eee85a02d63255a585f98cf4f09132bb60129375a571",
}


def test_fig1_and_fig4_outputs_match_their_digests(resonant_curve, tmp_path):
    # fig4 is the module's sweep, written under the preset's own name
    fig4 = load_preset("fig4").sweep
    assert resonant_curve.config == replace(fig4, output_name="criticality")
    write_criticality_outputs(replace(resonant_curve, config=fig4), tmp_path)
    for name, n_traj in (("fig1", None), ("fig2", 20), ("fig3", 20), ("n3", 2), ("n4", 2)):
        for config in load_preset(name).with_overrides(n_traj=n_traj).scenarios:
            run_scenario(config, out_dir=tmp_path)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == PRESET_DIGESTS


class TestSweepOnModel:
    """Exact-evolution sweep over the standard grid; the slow part (~1 s)."""

    def test_every_hop_value_is_bracketed(self, resonant_curve):
        for est in resonant_curve.estimates:
            assert est.gamma_c is not None
            assert "not_bracketed" not in est.flags
            assert "non_monotonic" not in est.flags

    def test_two_regions_split_cleanly(self, resonant_curve):
        # well above the estimate only single peaks; well below only revivals
        for est in resonant_curve.estimates:
            for row in est.rows:
                if row.gamma > 1.5 * est.gamma_c:
                    assert row.report.classification.kind == "SinglePeak"
                if row.gamma < 0.45 * est.gamma_c:
                    assert row.report.classification.kind == "MultiPeak"

    def test_critical_damping_grows_with_hop(self, resonant_curve):
        values = [est.gamma_c for est in resonant_curve.estimates]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_fitted_slope_near_unity(self, resonant_curve):
        assert 0.7 <= resonant_curve.slope <= 1.3

    def test_outputs_written(self, resonant_curve, tmp_path):
        paths = write_criticality_outputs(resonant_curve, tmp_path)
        with open(paths["rows"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["hop", "gamma", "gamma_ratio", "classification"]
        assert len(rows) == 1 + 4 * len(DEFAULT_GAMMA_RATIOS)
        with open(paths["estimates"], newline="") as fh:
            estimates = list(csv.reader(fh))
        assert len(estimates) == 1 + 4
        sidecar = json.loads(paths["sidecar"].read_text())
        assert sidecar["slope"] == pytest.approx(resonant_curve.slope)

    @pytest.mark.parametrize("kwargs", [{}, {"delta": 0.5}, {"coupling": 0.7, "delta": -0.3}])
    def test_each_point_runs_the_operators_of_its_own_build(self, kwargs, monkeypatch):
        # H0 + J·K and √γ·A equal a fresh build at (J, γ) bit for bit
        config = sweep_config(j_values=(0.02, 0.04, 0.06, 0.08), **kwargs)
        seen = []
        evolve = critical.lindblad_evolve

        def record(h, collapse, rho0, grid, *, structure):
            seen.append((h, collapse))
            return evolve(h, collapse, rho0, grid, structure=structure)

        monkeypatch.setattr(critical, "lindblad_evolve", record)
        result = gamma_c_curve(config)
        assert len(seen) == len(list(result.rows()))
        for row, (h, collapse) in zip(result.rows(), seen, strict=True):
            built = build_reduced_model(config.model_for(row.hop, row.gamma), max_exc=2)
            assert h.tobytes() == built.h.tobytes()
            assert [op.tobytes() for op in collapse] == [op.tobytes() for op in built.collapse]

    def test_sweep_rows_equal_point_rows(self, resonant_curve):
        def cells(row):
            report = row.report
            return (row.hop, row.gamma, report.peak_times.tobytes(),
                    report.peak_heights.tobytes(), report.prominences.tobytes(),
                    report.global_max, report.boundary_peak, report.beat_filtered,
                    row.max_pinned)

        config = resonant_curve.config
        for row in resonant_curve.rows():
            assert cells(classify_point(config, row.hop, row.gamma)) == cells(row)

    @pytest.mark.parametrize("j_values,gamma_ratios", [
        ((0.02, 0.04, 0.06), (0.5,)), ((0.02, 0.04, 0.06, 0.08), DEFAULT_GAMMA_RATIOS)])
    def test_sweep_builds_its_models_once(self, j_values, gamma_ratios, monkeypatch):
        calls = {"build_reduced_model": 0, "lindblad_evolve": 0}
        for name in calls:
            def counted(*args, _name=name, _call=getattr(critical, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(critical, name, counted)
        gamma_c_curve(sweep_config(j_values=j_values, gamma_ratios=gamma_ratios))
        assert calls == {"build_reduced_model": 2,
                         "lindblad_evolve": len(j_values) * len(gamma_ratios)}

    @pytest.mark.parametrize("j_values,gamma_ratios", [
        ((0.02, 0.04, 0.06), (0.5,)), ((0.02, 0.04, 0.06, 0.08), DEFAULT_GAMMA_RATIOS)])
    def test_sweep_reads_its_patterns_once(self, j_values, gamma_ratios, monkeypatch):
        # the master equation's blocks, however many points
        calls = []
        read = dynamics._block_labels
        monkeypatch.setattr(dynamics, "_block_labels",
                            lambda *args: calls.append(args) or read(*args))
        gamma_c_curve(sweep_config(j_values=j_values, gamma_ratios=gamma_ratios))
        assert len(calls) == 1

    def test_sweep_structures_give_the_bits_of_fresh_ones(self, monkeypatch):
        # the master equation's at every fig4 point, and each point's negativity
        seen, negs = [], []
        evolve, negativity = critical.lindblad_evolve, critical.block_negativity

        def record(h, collapse, rho0, grid, *, structure):
            rhos = evolve(h, collapse, rho0, grid, structure=structure)
            seen.append((h, collapse, rho0, grid, structure, rhos))
            return rhos

        def record_negativity(rhos, space, cut):
            negs.append((rhos, space, negativity(rhos, space, cut)))
            return negs[-1][-1]

        monkeypatch.setattr(critical, "lindblad_evolve", record)
        monkeypatch.setattr(critical, "block_negativity", record_negativity)
        config = load_preset("fig4").sweep
        gamma_c_curve(config)
        assert len(seen) == len(negs) == len(config.j_values) * len(config.gamma_ratios) == 36
        assert len({id(structure) for *_, structure, _ in seen}) == 1
        for (h, collapse, rho0, grid, _, rhos), (stack, space, neg) in zip(seen, negs):
            assert stack is rhos
            assert rhos.tobytes() == evolve(h, collapse, rho0, grid).tobytes()
            assert neg.tobytes() == negativity(rhos, space, 1).tobytes()

    def test_classification_invariant_under_frequency_rescale(self):
        # doubling every rate (coupling, hop, damping) halves every time
        # scale but preserves which regime each point lands in
        base = classify_point(sweep_config(), 0.06, 0.03)
        scaled_config = sweep_config(coupling=2.0, t_end=75.0)
        scaled = classify_point(scaled_config, 0.12, 0.06)
        assert base.report.classification.kind == \
            scaled.report.classification.kind

    def test_point_independent_of_blas_threads(self):
        # the same fig4 point in fresh processes at 1 and 2 BLAS threads
        script = textwrap.dedent("""\
            import json
            from jchsim.critical import classify_point
            from jchsim.presets import load_preset
            row = classify_point(load_preset("fig4").sweep, 0.04, 0.04)
            report = row.report
            print(json.dumps([str(report.classification), report.peak_times.tolist(),
                              report.peak_heights.tolist(), report.prominences.tolist(),
                              report.global_max, row.max_pinned]))
            """)
        path = [str(Path(__file__).resolve().parents[1] / "src"),
                os.environ.get("PYTHONPATH", "")]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, path)))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True, timeout=120)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])[0] == "SinglePeak"

    @pytest.mark.xfail(strict=True, reason=(
        "on the default damping grid the detuned sweep loses its slow "
        "revival before the lowest grid rung, so the fitted slope drops "
        "instead of rising; the estimator is only quantitative on resonance"))
    def test_detuned_slope_not_smaller(self, resonant_curve, detuned_curve):
        assert detuned_curve.slope >= resonant_curve.slope

    def test_detuned_estimates_pinned(self, detuned_curve):
        # δ = 0.5: at J = 0.04 and 0.08 every rung shows a single peak, so
        # the transition lies below the grid
        estimates = detuned_curve.estimates
        assert [est.gamma_c for est in estimates] == [0.01, 0.012, 0.03, 0.024]
        assert [est.hop for est in estimates if "not_bracketed" in est.flags] == [0.04, 0.08]


class TestPresets:
    def test_registry(self):
        assert PRESET_NAMES == ("fig1", "fig2", "fig3", "fig4", "n3", "n4")
        with pytest.raises(ConfigError):
            load_preset("fig99")

    def test_bundle_shapes(self):
        for name in PRESET_NAMES:
            bundle = load_preset(name)
            assert bundle.name == name
            if bundle.sweep is not None:
                assert bundle.sweep is not None and not bundle.scenarios
            else:
                assert bundle.sweep is None and bundle.scenarios

    def test_master_seeds_distinct(self):
        seeds = []
        for name in PRESET_NAMES:
            bundle = load_preset(name)
            seeds += [cfg.master_seed for cfg in bundle.scenarios]
        assert len(seeds) == len(set(seeds))

    def test_overrides_propagate(self):
        bundle = load_preset("fig3").with_overrides(n_traj=7, master_seed=123)
        assert all(cfg.n_traj == 7 for cfg in bundle.scenarios)
        assert all(cfg.master_seed == 123 for cfg in bundle.scenarios)
        # a sweep runs no trajectories: it has nothing to override
        untouched = load_preset("fig4").with_overrides(n_traj=7, master_seed=123)
        assert untouched.sweep == load_preset("fig4").sweep

    def test_negativity_on_every_preset_but_n4(self):
        # n4's ρ̄ (560 samples of 45 697 block entries) and its partial transpose
        # (blocks of up to 257 states) are above the memory budget
        assert {name: load_preset(name).scenarios[0].compute_negativity
                for name in ("fig2", "fig3", "n3", "n4")} == {
            "fig2": True, "fig3": True, "n3": True, "n4": False}

    @pytest.mark.parametrize("negativity", [False, True])
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "n3", "n4"])
    def test_load_count_covers_every_guard_of_the_run(self, name, negativity, monkeypatch):
        # each preset on 20 of its samples with at most 20 trajectories, so that
        # n4's ρ̄ stays small: every count grows with both alike
        loaded, guarded = [], []
        monkeypatch.setattr(config_module, "check_budget", lambda n, what: loaded.append(n))
        for module in (model_module, observables, dynamics):
            monkeypatch.setattr(module, "check_budget", lambda n, what: guarded.append(n))
        for preset in load_preset(name).scenarios:
            grid = TimeGrid(t_end=19 * preset.grid.spacing, n_samples=20, dt=preset.grid.dt)
            loaded.clear()
            guarded.clear()
            config = replace(preset, grid=grid, n_traj=min(preset.n_traj, 20),
                             compute_negativity=negativity)
            run_scenario(config)
            # the basis, H, each projector, the ensemble, the branch, and the
            # partial transpose when the config asks for it
            assert len(guarded) == 4 + len(config.observables) + negativity
            assert loaded == [loaded[0]] and loaded[0] >= sum(guarded)

    def test_sweep_load_count_covers_every_guard_of_a_point(self, monkeypatch):
        loaded, guarded = [], []
        monkeypatch.setattr(config_module, "check_budget", lambda n, what: loaded.append(n))
        for module in (model_module, observables, dynamics, critical):
            monkeypatch.setattr(module, "check_budget", lambda n, what: guarded.append(n))
        sweep = load_preset("fig4").sweep
        classify_point(sweep, sweep.j_values[0], sweep.gamma_ratios[0] * sweep.j_values[0])
        # built once: two bases, two models, the hop terms and the pinned-state
        # projector; then the point's H and loss operators, its master equation
        # and its partial transpose
        assert len(guarded) == 9
        assert loaded == [loaded[0]] and loaded[0] >= sum(guarded)

    def test_scenario_presets_cover_system_sizes(self):
        sizes = {cfg.model.n_sites
                 for name in ("fig1", "fig2", "fig3", "n3", "n4")
                 for cfg in load_preset(name).scenarios}
        assert sizes == {2, 3, 4}


class TestValidationSuites:
    def test_suite_names(self):
        assert SUITE_NAMES == ("mapping", "analytic", "oracle")
        with pytest.raises(ConfigError):
            run_suite("everything")

    @pytest.mark.parametrize("suite", ["mapping", "analytic"])
    def test_fast_suites_reject_trajectory_overrides(self, suite):
        with pytest.raises(ConfigError) as err:
            run_suite(suite, n_traj=5, master_seed=3)
        assert [p.split(":")[0] for p in err.value.problems] == ["n_traj", "master_seed"]

    @pytest.mark.parametrize("suite", ["mapping", "analytic"])
    def test_fast_suites_pass(self, suite):
        report = run_suite(suite)
        assert report.passed
        *items, footer = report.summary_lines()
        assert all(line.startswith("[PASS]") for line in items)
        assert footer == f"suite {suite}: PASS"

    def test_oracle_suite_passes_with_modest_ensemble(self):
        report = run_suite("oracle", n_traj=300)
        assert report.passed
        payload = report.to_mapping()
        assert payload["suite"] == "oracle"
        assert all(item["passed"] for item in payload["items"])


def test_run_paths_never_enter_the_product_space(monkeypatch, tmp_path):
    # the product-space slicing and embedding stay only as test and benchmark
    # references; every run path builds on the reduced basis
    def refuse(*args, **kwargs):
        raise AssertionError("a run path entered the product space")

    monkeypatch.setattr(ReducedSpace, "reduce_vector", refuse)
    monkeypatch.setattr(ReducedSpace, "embed_density", refuse)
    assert main(["run", "--preset", "fig2", "--traj", "4", "--out", str(tmp_path)]) == 0
    classify_point(load_preset("fig4").sweep, 0.04, 0.04)
    for suite in ("analytic", "mapping"):
        assert run_suite(suite).passed


class TestCli:
    def test_validate_exit_codes(self, capsys):
        assert main(["validate", "--suite", "mapping"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_validate_json_output(self, capsys):
        assert main(["validate", "--suite", "analytic", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "analytic"

    def test_run_preset_writes_bundle(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig3", "--traj", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {"fig3_below_critical.csv", "fig3_below_critical.json",
                "fig3_above_critical.csv", "fig3_above_critical.json"} <= names

    def test_run_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "tiny.json"
        mapping = json.loads(json.dumps(SCENARIO_MAPPING))
        mapping["grid"] = {"t_end": 10.0, "n_samples": 6}
        config_path.write_text(json.dumps(mapping))
        assert main(["run", "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "demo.csv").exists()

    def test_unreadable_config_exits_1_with_an_io_error(self, tmp_path, capsys):
        # a directory exists, so it passes the missing-file check and fails to read
        assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("i/o error: [Errno 21] Is a directory")
        assert not (tmp_path / "out").exists()

    def test_critical_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.ini"
        config_path.write_text(textwrap.dedent("""\
            [sweep]
            j_values = 0.02, 0.04, 0.06
            gamma_ratios = 0.5, 1.0, 2.0

            [output]
            name = quick
        """))
        assert main(["critical", "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "slope" in out
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert {"quick_rows.csv", "quick_estimates.csv", "quick.json"} <= names

    def test_threads_rejected_outside_sweeps(self, tmp_path, capsys):
        # no command takes --threads, a sweep included
        config_path = tmp_path / "scenario.ini"
        config_path.write_text(SCENARIO_INI)
        for argv in (["run", "--config", str(config_path)],
                     ["run", "--preset", "fig4"],
                     ["critical", "--config", str(config_path)]):
            with pytest.raises(SystemExit):
                main([*argv, "--threads", "2", "--out", str(tmp_path / "out")])
            assert "--threads" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["validate", "--suite", "mapping", "--threads", "2"])
        assert not (tmp_path / "out").exists()

    def test_overrides_rejected_where_unused(self, tmp_path, capsys):
        # a sweep and the mapping/analytic suites run no trajectories
        for argv in (["run", "--preset", "fig4", "--out", str(tmp_path / "out")],
                     ["validate", "--suite", "mapping"],
                     ["validate", "--suite", "analytic"]):
            for flag in ("--traj", "--seed"):
                assert main([*argv, flag, "5"]) == 1
                assert f"error: {flag}: " in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["critical", "--config", "x.ini", "--seed", "1",
                  "--out", str(tmp_path / "out")])
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_critical_non_finite_bound_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.ini"
        config_path.write_text("[sweep]\nj_values = 0.02, 0.04, 0.06\n\n"
                               "[grid]\nt_end = inf\n")
        assert main(["critical", "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 1
        assert "grid.t_end: must be positive and finite" in capsys.readouterr().err

    def test_run_sample_count_beyond_the_float_range_exits_one(self, tmp_path, capsys):
        # t_end / spacing overflows a float: a problem naming the grid, not a traceback
        config_path = tmp_path / "scenario.ini"
        config_path.write_text("[model]\nn_sites = 2\nn_max = 2\nhop = 0.03\ngamma = 0.05, 0.0\n\n"
                               "[initial]\nlabels = 2-, G\n\n"
                               "[grid]\nt_end = 1e308\nspacing = 1e-300\ndt = 1e-300\n")
        assert main(["run", "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 1
        assert ("grid.t_end/spacing: must be a finite number, got inf"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_stiff_model_exits_one_naming_dt(self, tmp_path):
        # hop 300 at dt 0.005 is past the integrator's stability limit: the run
        # once looped in the trajectory kernel, and the sweep (hops 200-800)
        # ended in numpy's LinAlgError from the negativity; hop 250 runs
        scenario = {"model": {"n_sites": 2, "n_max": 2, "hop": 300, "gamma": 0.05},
                    "initial": {"labels": "2-, G"},
                    "grid": {"t_end": 20, "spacing": 1.0},
                    "run": {"n_traj": 20, "master_seed": 1},
                    "observables": {"projectors": "P20, P11", "negativity": True}}
        sweep = {"sweep": {"j_values": "200, 400, 800"}, "grid": {"t_end": 20}}
        path = [str(Path(__file__).resolve().parents[1] / "src"),
                os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

        def cli(command, mapping):
            config_path = tmp_path / f"{command}.json"
            config_path.write_text(json.dumps(mapping))
            return subprocess.run([sys.executable, "-m", "jchsim.cli", command, "--config",
                                   str(config_path), "--out", str(tmp_path / "out")],
                                  env=env, capture_output=True, text=True, timeout=60)

        for command, mapping in (("run", scenario), ("critical", sweep)):
            done = cli(command, mapping)
            assert done.returncode == 1, done.stderr
            # the error line alone: no NumPy warning from the overflowing products
            [line] = done.stderr.splitlines()
            assert line.startswith("error: ") and "dt = 0.005" in line, done.stderr
        # at hop 1e80 the step itself overflows: its check refuses it silently
        scenario["model"]["hop"] = 1e80
        done = cli("run", scenario)
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "error: a step can multiply the jump-free squared norm by inf; dt = 0.005 is too "
            "coarse for the spectrum of H"]
        scenario["model"]["hop"] = 250
        assert cli("run", scenario).returncode == 0

    def test_bad_config_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"model": {"n_sites": 0}}))
        assert main(["run", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_requires_exactly_one_source(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--out", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["run", "--preset", "fig3", "--config", "x.ini",
                  "--out", str(tmp_path)])
