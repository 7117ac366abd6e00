"""Config loading, run artifacts, the damping sweep, presets, and the CLI."""

from __future__ import annotations

import csv
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

from jchsim.checks import SUITE_NAMES, run_suite
from jchsim.cli import main
from jchsim.config import (DEFAULT_GAMMA_RATIOS, CriticalitySweepConfig,
                           ScenarioConfig, config_content_hash,
                           load_scenario_config, load_sweep_config,
                           scenario_from_mapping, sweep_from_mapping)
from jchsim.critical import (PRIMARY_METHOD, CriticalityResult, CriticalityRow,
                             classify_point, estimate_critical_gamma,
                             gamma_c_curve)
from jchsim.errors import ConfigError
from jchsim.observables import (PeakClassification, PeakReport,
                                recommended_spacing)
from jchsim.presets import PRESET_NAMES, load_preset
from jchsim.runner import run_scenario, write_criticality_outputs

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
    conditional = true

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
                    "negativity": True, "conditional": True},
    "output": {"name": "demo", "format": "csv"},
}


# every scenario key, written as the sidecar echoes it
EVERY_SCENARIO_KEY = {
    "model": {"n_sites": 2, "n_max": 2, "hop": [0.03], "gamma": [0.05, 0.04],
              "omega_a": 0.2, "omega_c": 0.1, "g": [1.0, 1.1]},
    "initial": {"labels": ["2-", "G"]},
    "grid": {"t_end": 11.0, "t_start": 1.0, "dt": 0.005},
    "run": {"n_traj": 3, "master_seed": 9},
    "observables": {"projectors": ["P11", "P20+perm"], "negativity": True,
                    "bipartition_cut": 1, "conditional": True},
    "output": {"name": "every", "format": "json"},
}

# every sweep key, written as the sidecar echoes it
EVERY_SWEEP_KEY = {
    "sweep": {"j_values": [0.02, 0.04, 0.06], "gamma_ratios": [0.5, 1.0, 2.0],
              "delta": 0.3},
    "model": {"g": 1.5},
    "grid": {"t_end": 120.0, "t_start": 2.0, "dt": 0.0025},
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
        assert "observables.projectors: P300 has 3 labels for 2 sites" in problems

    def test_projector_beyond_cutoff_rejected(self):
        problems = problems_of(scenario_from_mapping, {
            "model": {"n_sites": 2, "n_max": 1},
            "initial": {"labels": ["1-", "G"]},
            "grid": {"t_end": 10.0, "n_samples": 6},
            "observables": {"projectors": ["P20"]},
        })
        assert problems == [
            "observables.projectors: P20 needs 2 photons on one site, cutoff is 1"]

    def test_projector_beyond_initial_excitation_rejected(self):
        problems = problems_of(scenario_from_mapping, {
            "model": {"n_sites": 2, "n_max": 2},
            "initial": {"labels": ["1-", "G"]},
            "grid": {"t_end": 10.0, "n_samples": 6},
            "observables": {"projectors": ["P11", "P20"]},
        })
        assert len(problems) == 2
        assert all(p.startswith("observables.projectors: P") and
                   "excitations, more than the initial state's 1" in p
                   for p in problems)

    @pytest.mark.parametrize("grid, problem", [
        ({"dt": 0.0, "spacing": 2.0}, "grid.dt: must be positive, got 0.0"),
        ({"dt": 0.0, "spacing": "auto"}, "grid.dt: must be positive, got 0.0"),
        ({"spacing": "inf"}, "grid.spacing: must be positive and finite, got inf"),
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
        assert config.include_conditional

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
        ({"t_end": math.inf, "spacing": 2.0}, "grid.t_end: must be finite, got inf"),
        ({"t_end": math.inf, "n_samples": 6}, "grid.t_end: must be finite, got inf"),
        ({"t_end": 10.0, "t_start": -math.inf, "spacing": 2.0},
         "grid.t_start: must be finite, got -inf"),
        ({"t_end": 10.0, "t_start": -math.inf, "n_samples": 6},
         "grid.t_start: must be finite, got -inf"),
    ])
    def test_non_finite_grid_bound_reported(self, grid, problem):
        bad = {**SCENARIO_MAPPING, "grid": grid}
        assert problems_of(scenario_from_mapping, bad) == [problem]

    @pytest.mark.parametrize("sampling", [{"spacing": 2.0}, {"spacing": "auto"},
                                          {"n_samples": 6}])
    def test_reversed_span_names_t_end(self, sampling):
        bad = {**SCENARIO_MAPPING, "grid": {"t_end": 1.0, "t_start": 10.0, **sampling}}
        assert problems_of(scenario_from_mapping, bad) == [
            "grid.t_end: must exceed t_start, got 1.0 <= 10.0"]

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

    def test_product_space_over_cap_rejected(self):
        problems = problems_of(scenario_from_mapping, {
            "model": {"n_sites": 5, "n_max": 5},
            "initial": {"labels": ["1-", "G", "G", "G", "G"]},
            "grid": {"t_end": 10.0, "n_samples": 6},
        })
        assert problems == ["model.n_sites, model.n_max: 5 sites with n_max = 5 span "
                            "248832 product states, above the cap 16384"]

    def test_negativity_over_stack_cap_rejected(self):
        # n4's model with negativity on: 561 samples of the 321-dim ρ̄
        mapping = {
            "model": {"n_sites": 4, "n_max": 4},
            "initial": {"labels": ["4-", "G", "G", "G"]},
            "grid": {"t_end": 1120.0, "n_samples": 561},
            "observables": {"negativity": True},
        }
        assert problems_of(scenario_from_mapping, mapping) == [
            "observables.negativity: the averaged-state stack of 561 samples of "
            "321-dim matrices needs 924896016 bytes, above the cap 268435456"]
        with pytest.raises(ConfigError, match="923247360 bytes"):
            replace(load_preset("n4").scenarios[0], compute_negativity=True)

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
        assert run.ensemble.rho_avg.shape == (9, 9, 9)
        neg = run.columns["negativity"]
        assert neg[0] <= 1e-12 and neg.max() > 1e-3 and np.all(np.isfinite(neg))

    def test_mapping_echo_covers_every_model_field(self):
        config = scenario_from_mapping(SCENARIO_MAPPING)
        echo = config.to_mapping()["model"]
        for key in ("n_sites", "n_max", "hop", "gamma", "omega_a", "omega_c",
                    "g", "detuning"):
            assert key in echo


class TestSweepConfig:
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
            CriticalitySweepConfig(j_values=(0.04, 0.02))
        with pytest.raises(ConfigError):
            CriticalitySweepConfig(j_values=(0.02, 0.04),
                                   gamma_ratios=(1.0, 1.0))
        with pytest.raises(ConfigError):
            CriticalitySweepConfig(j_values=(-0.02, 0.04))

    def test_source_checked(self):
        # a sweep file written when the ensemble could be chosen as source
        problems = problems_of(sweep_from_mapping, {
            "sweep": {"j_values": [0.02, 0.04, 0.06], "source": "ensemble"},
            "model": {"n_max": 2, "g": 1.0},
            "run": {"n_traj": 2000, "master_seed": 5}})
        assert sorted(problems) == ["model.n_max: unknown key", "run: unknown section",
                                    "sweep.source: unknown key"]

    @pytest.mark.parametrize("grid, problem", [
        ({"t_end": math.inf}, "grid.t_end: must be finite, got inf"),
        ({"t_start": -math.inf}, "grid.t_start: must be finite, got -inf"),
    ])
    def test_non_finite_grid_bound_reported(self, grid, problem):
        problems = problems_of(sweep_from_mapping, {
            "sweep": {"j_values": [0.02, 0.04, 0.06]}, "grid": grid})
        assert problems == [problem]

    def test_reversed_span_names_t_end(self):
        problems = problems_of(sweep_from_mapping, {
            "sweep": {"j_values": [0.02, 0.04, 0.06]},
            "grid": {"t_end": 5.0, "t_start": 10.0}})
        assert problems == ["grid.t_end: must exceed t_start, got 5.0 <= 10.0"]

    def test_every_value_checked_at_load(self):
        base = {"sweep": {"j_values": [0.02, 0.04, 0.06]}}
        cases = [
            ("sweep", {"j_values": [0.02, 0.04, math.inf]},
             "sweep.j_values: hop values must be positive and finite"),
            ("sweep", {"delta": math.nan}, "sweep.delta: non-finite"),
            ("model", {"g": math.nan}, "model.g: non-finite entry"),
            ("sweep", {"gamma_ratios": [0.5, math.inf]},
             "sweep.gamma_ratios: ratios must be positive and finite"),
            ("grid", {"dt": 0.02}, "grid.dt: 0.02 exceeds the stability cap 0.01"),
            ("grid", {"t_end": 2.0},
             "grid.t_end: spacing 2.68 does not fit inside (0.0, 2.0)"),
            ("classifier", {"t_min": math.inf},
             "classifier.t_min: must lie below the last sample time 147.4, got inf"),
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
            sweep_from_mapping({"sweep": {"j_values": [0.02, 0.04]},
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
            "sweep": {"j_values": [0.02, 0.04], "delta": "nan"},
            "grid": {"dt": "small"},
            "classifier": {"t_min": -1},
        })
        assert "grid.dt: expected a number, got 'small'" in problems
        assert "sweep.delta: non-finite" in problems
        assert "classifier.t_min: must be >= 0, got -1.0" in problems

    def test_missing_j_values_still_checks_run_and_output(self):
        # a sweep has no run section; its output is still checked
        problems = problems_of(sweep_from_mapping, {"output": {"format": "xml"}})
        assert problems[0] == "sweep.j_values: required key missing"
        assert problems[1].startswith("output.format:")
        assert len(problems) == 2


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    result = run_scenario(tiny_scenario(), out_dir=out)
    return out, result


class TestRunnerArtifacts:

    def test_column_order(self, run_dir):
        _, result = run_dir
        assert result.column_names == (
            "t", "P20", "P20_stderr", "P11", "P11_stderr",
            "P(1-,1-)+perm", "P(1-,1-)+perm_stderr", "negativity",
            "survival", "P20_cond", "P11_cond", "P(1-,1-)+perm_cond")

    def test_csv_shape_and_line_endings(self, run_dir):
        out, result = run_dir
        raw = result.table_path.read_bytes()
        assert b"\r\n" in raw and b"\r\r" not in raw
        with open(result.table_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(result.column_names)
        assert len(rows) == 1 + len(result.columns["t"])
        parsed = np.array([[float(x) for x in row] for row in rows[1:]])
        assert parsed[:, 0] == pytest.approx(result.columns["t"])

    def test_sidecar_echoes_config(self, run_dir):
        _, result = run_dir
        sidecar = json.loads(result.sidecar_path.read_text())
        assert sidecar["kind"] == "scenario"
        assert sidecar["content_hash"] == config_content_hash(result.config)
        assert sidecar["columns"] == list(result.column_names)
        assert sidecar["config"] == result.config.to_mapping()
        assert sidecar["backend"] == "numpy"
        assert sidecar["table_file"] == result.table_path.name

    def test_reruns_are_byte_identical(self, run_dir, tmp_path):
        out, result = run_dir
        rerun = run_scenario(tiny_scenario(), out_dir=tmp_path)
        assert rerun.table_path.read_bytes() == result.table_path.read_bytes()
        assert rerun.sidecar_path.read_bytes() == result.sidecar_path.read_bytes()

    def test_table_independent_of_blas_threads(self, tmp_path):
        # fig2 with a few trajectories, in fresh processes at 1 and 2 BLAS threads
        script = textwrap.dedent("""\
            import sys
            from jchsim.presets import load_preset
            from jchsim.runner import run_scenario
            config = load_preset("fig2").with_overrides(n_traj=5).scenarios[0]
            run = run_scenario(config, out_dir=sys.argv[1])
            sys.stdout.buffer.write(run.table_path.read_bytes())
            """)
        path = [str(Path(__file__).resolve().parents[1] / "src"),
                os.environ.get("PYTHONPATH", "")]
        tables = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, path)))
            done = subprocess.run([sys.executable, "-c", script, str(tmp_path / threads)],
                                  env=env, capture_output=True, check=True, timeout=120)
            tables.append(done.stdout)
        assert tables[0] == tables[1]
        assert b"negativity" in tables[0].split(b"\r\n")[0]

    def test_survival_and_conditional_columns_are_sane(self, run_dir):
        _, result = run_dir
        survival = result.columns["survival"]
        assert survival[0] == pytest.approx(1.0)
        assert np.all(np.diff(survival) <= 1e-12)
        cond = result.columns["P20_cond"]
        assert np.all((cond >= -1e-12) & (cond <= 1.0 + 1e-12))

    def test_json_table_format(self, tmp_path):
        config = tiny_scenario(output={"format": "json", "name": "tbl"})
        result = run_scenario(config, out_dir=tmp_path)
        assert result.table_path.name == "tbl.json"
        assert result.sidecar_path.name == "tbl.meta.json"
        payload = json.loads(result.table_path.read_text())
        assert payload["columns"] == list(result.column_names)
        assert payload["data"]["t"] == pytest.approx(result.columns["t"])

    def test_time_only_table(self, tmp_path):
        config = scenario_from_mapping({
            "model": {"n_sites": 2, "n_max": 2, "hop": 0.03},
            "initial": {"labels": ["2-", "G"]},
            "grid": {"t_end": 10.0, "n_samples": 6},
            "output": {"name": "bare"},
        })
        result = run_scenario(config, out_dir=tmp_path)
        assert result.column_names == ("t",)
        with open(result.table_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t"]
        assert len(rows) == 7


def fake_report(count: int, height: float) -> PeakReport:
    kinds = {0: "NoPeak", 1: "SinglePeak"}
    kind = kinds.get(count, "MultiPeak")
    return PeakReport(peak_times=np.arange(count, dtype=float),
                      peak_heights=np.full(count, height),
                      classification=PeakClassification(kind, count),
                      global_max=height if count else 0.0,
                      prominence_threshold=0.05,
                      prominences=np.full(count, height))


def fake_row(gamma: float, count: int, height: float = 0.1) -> CriticalityRow:
    return CriticalityRow(hop=0.06, gamma=gamma, gamma_ratio=gamma / 0.06,
                          report=fake_report(count, height),
                          max_pinned=0.1, t_half_pinned=None)


def sweep_config(**kwargs) -> CriticalitySweepConfig:
    kwargs.setdefault("j_values", (0.02, 0.04, 0.06))
    return CriticalitySweepConfig(**kwargs)


class TestEstimatorFlags:
    def test_tallest_single_wins(self):
        rows = (fake_row(0.018, 3), fake_row(0.03, 2),
                fake_row(0.045, 1, height=0.22), fake_row(0.06, 1, height=0.30),
                fake_row(0.09, 1, height=0.12))
        est = estimate_critical_gamma(sweep_config(), 0.06, rows=rows)
        assert est.gamma_c == pytest.approx(0.06)
        assert est.gamma_c_secondary == pytest.approx(0.045)
        assert est.method == PRIMARY_METHOD
        assert est.flags == ()
        assert est.ratio == pytest.approx(1.0)

    def test_all_multi_rows_not_bracketed(self):
        rows = tuple(fake_row(g, 3) for g in (0.02, 0.04, 0.06))
        est = estimate_critical_gamma(sweep_config(), 0.06, rows=rows)
        assert est.gamma_c is None
        assert est.gamma_c_secondary is None
        assert "not_bracketed" in est.flags

    def test_all_single_rows_flagged_but_estimated(self):
        rows = tuple(fake_row(g, 1, height=0.1 + 0.01 * i)
                     for i, g in enumerate((0.02, 0.04, 0.06)))
        est = estimate_critical_gamma(sweep_config(), 0.06, rows=rows)
        assert est.gamma_c == pytest.approx(0.06)
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
        with pytest.raises(ConfigError):
            gamma_c_curve(CriticalitySweepConfig(j_values=(0.02, 0.04)))


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
        assert data["t_half_pinned"] == [None, None]
        assert data["peak_times"] == ["0.0;1.0;2.0", "0.0;1.0"]
        estimates = json.loads(paths["estimates"].read_text())
        assert estimates["columns"] == ["hop", "gamma_c", "gamma_c_ratio",
                                        "gamma_c_secondary", "method", "flags"]
        assert estimates["data"]["gamma_c"] == [None]
        assert estimates["data"]["flags"] == ["not_bracketed"]
        sidecar = json.loads(paths["sidecar"].read_text())
        assert sidecar["kind"] == "criticality"
        assert sidecar["slope"] is None
        assert sidecar["row_file"] == "sw_rows.json"
        assert sidecar["estimate_file"] == "sw_estimates.json"
        assert sidecar["content_hash"] == config_content_hash(config)
        assert sidecar["config"] == config.to_mapping()


@pytest.fixture(scope="module")
def resonant_curve():
    return gamma_c_curve(sweep_config(j_values=(0.02, 0.04, 0.06, 0.08)))


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
                    assert row.report.classification.is_single
                if row.gamma < 0.45 * est.gamma_c:
                    assert row.report.classification.is_multi

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
                              report.global_max, row.max_pinned, row.t_half_pinned]))
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
    def test_detuned_slope_not_smaller(self):
        resonant = gamma_c_curve(sweep_config(j_values=(0.02, 0.04, 0.06, 0.08)))
        detuned = gamma_c_curve(sweep_config(j_values=(0.02, 0.04, 0.06, 0.08),
                                             delta=0.5))
        assert detuned.slope >= resonant.slope


class TestPresets:
    def test_registry(self):
        assert PRESET_NAMES == ("fig1", "fig2", "fig3", "fig4", "n3", "n4")
        with pytest.raises(ConfigError):
            load_preset("fig99")

    def test_bundle_shapes(self):
        for name in PRESET_NAMES:
            bundle = load_preset(name)
            assert bundle.name == name
            if bundle.kind == "sweep":
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
        assert "grid.t_end: must be finite" in capsys.readouterr().err

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
