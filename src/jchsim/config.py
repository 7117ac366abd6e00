"""Run configuration: flat ``key = value`` sections (INI) or JSON.

Two shapes are understood: a *scenario* (one model, one initial state, one
ensemble run) and a *criticality sweep* (a grid of hopping strengths and
damping ratios classified into single- vs multi-peak entanglement traces).
Both formats carry the same sections whether written as INI or JSON; a JSON
file is simply the nested ``{section: {key: value}}`` mapping.  Validation
collects every problem before raising, so a bad file reports all offending
fields at once.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .dynamics import DEFAULT_DT, TimeGrid
from .errors import ConfigError
from .model import ModelParams, PolaritonLabel, total_excitation_of_labels
from .observables import (
    DEFAULT_BURN_IN,
    DEFAULT_PROMINENCE_THRESHOLD,
    ProjectorSpec,
    recommended_spacing,
)

DEFAULT_GAMMA_RATIOS = (0.3, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
OUTPUT_FORMATS = ("csv", "json")
SWEEP_SOURCES = ("oracle", "ensemble")

_SCENARIO_SECTIONS = {
    "model": ("n_sites", "n_max", "hop", "gamma", "omega_a", "omega_c", "g"),
    "initial": ("labels",),
    "grid": ("t_end", "t_start", "dt", "spacing", "n_samples"),
    "run": ("n_traj", "master_seed"),
    "observables": ("projectors", "negativity", "bipartition_cut", "conditional"),
    "output": ("name", "format"),
}
_SWEEP_SECTIONS = {
    "sweep": ("j_values", "gamma_ratios", "delta", "source"),
    "model": ("n_max", "g"),
    "grid": ("t_end", "t_start", "dt"),
    "classifier": ("prominence_threshold", "t_min"),
    "run": ("n_traj", "master_seed", "n_threads"),
    "output": ("name", "format"),
}


# ---------------------------------------------------------------------------
# raw-value coercion (INI gives strings, JSON gives typed values)

def _as_bool(raw: Any, where: str, problems: list) -> bool:
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
    problems.append(f"{where}: expected a boolean, got {raw!r}")
    return False


def _as_int(raw: Any, where: str, problems: list) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        problems.append(f"{where}: expected an integer, got {raw!r}")
        return 0
    try:
        return int(raw)
    except (TypeError, ValueError):
        problems.append(f"{where}: expected an integer, got {raw!r}")
        return 0


def _as_float(raw: Any, where: str, problems: list) -> float:
    if isinstance(raw, bool):
        problems.append(f"{where}: expected a number, got {raw!r}")
        return 0.0
    try:
        return float(raw)
    except (TypeError, ValueError):
        problems.append(f"{where}: expected a number, got {raw!r}")
        return 0.0


def _split_items(raw: Any, where: str, problems: list) -> list:
    """Return a list of raw items from a comma string or a JSON list."""
    if isinstance(raw, str):
        items = [part.strip() for part in raw.split(",")]
        items = [part for part in items if part]
        if not items:
            problems.append(f"{where}: empty list")
        return items
    if isinstance(raw, (list, tuple)):
        if not raw:
            problems.append(f"{where}: empty list")
        return list(raw)
    problems.append(f"{where}: expected a comma-separated list, got {raw!r}")
    return []


def _as_float_list(raw: Any, where: str, problems: list) -> tuple:
    before = len(problems)
    items = _split_items(raw, where, problems)
    values = tuple(_as_float(item, where, problems) for item in items)
    return values if len(problems) == before else ()


def _as_float_or_list(raw: Any, where: str, problems: list):
    """A scalar rate or one value per site/bond."""
    if isinstance(raw, str) and "," in raw:
        return _as_float_list(raw, where, problems)
    if isinstance(raw, (list, tuple)):
        return _as_float_list(raw, where, problems)
    return _as_float(raw, where, problems)


def _run_problems(n_traj: int, master_seed: int, n_threads: int = 1) -> list:
    problems = []
    if n_traj < 1:
        problems.append(f"run.n_traj: must be >= 1, got {n_traj}")
    if master_seed < 0:
        problems.append(f"run.master_seed: must be >= 0, got {master_seed}")
    if n_threads < 1:
        problems.append(f"run.n_threads: must be >= 1, got {n_threads}")
    return problems


def _output_problems(name: str, fmt: str) -> list:
    problems = []
    if fmt not in OUTPUT_FORMATS:
        problems.append(
            f"output.format: expected one of {OUTPUT_FORMATS}, got {fmt!r}")
    if not name or "/" in name:
        problems.append(f"output.name: must be a bare file stem, got {name!r}")
    return problems


def _parse_projector_item(text: str, where: str, problems: list) -> ProjectorSpec | None:
    """One projector: a preset name or ``(label, label, ...)``, with an
    optional ``+perm`` suffix requesting the site-permutation sum."""
    item = text.strip()
    symmetrize = False
    if item.endswith("+perm"):
        symmetrize = True
        item = item[: -len("+perm")].strip()
    try:
        if item.startswith("(") and item.endswith(")"):
            labels = tuple(part.strip() for part in item[1:-1].split(";"))
            return ProjectorSpec(labels=labels, symmetrize=symmetrize)
        return ProjectorSpec(preset=item, symmetrize=symmetrize)
    except (ConfigError, ValueError) as exc:
        problems.append(f"{where}: bad projector {text!r} ({exc})")
        return None


# ---------------------------------------------------------------------------
# section plumbing

def _check_sections(mapping: Mapping[str, Any], allowed: Mapping[str, tuple],
                    problems: list) -> None:
    for section, content in mapping.items():
        if section not in allowed:
            problems.append(f"{section}: unknown section")
            continue
        if not isinstance(content, Mapping):
            problems.append(f"{section}: expected a mapping of keys")
            continue
        for key in content:
            if key not in allowed[section]:
                problems.append(f"{section}.{key}: unknown key")


def _section(mapping: Mapping[str, Any], name: str) -> Mapping[str, Any]:
    content = mapping.get(name, {})
    return content if isinstance(content, Mapping) else {}


def _require(section: Mapping[str, Any], section_name: str, key: str,
             problems: list) -> Any:
    if key not in section:
        problems.append(f"{section_name}.{key}: required key missing")
        return None
    return section[key]


# ---------------------------------------------------------------------------
# configuration types

@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one ensemble scenario and write its table."""

    model: ModelParams
    initial: tuple[str, ...]
    grid: TimeGrid
    n_traj: int = 1
    master_seed: int = 0
    observables: tuple[ProjectorSpec, ...] = ()
    compute_negativity: bool = False
    bipartition_cut: int = 1
    include_conditional: bool = False
    output_name: str = "scenario"
    output_format: str = "csv"

    def __post_init__(self):
        problems = []
        if len(self.initial) != self.model.n_sites:
            problems.append(
                f"initial.labels: expected {self.model.n_sites} site labels, "
                f"got {len(self.initial)}")
        canonical = []
        for raw in self.initial:
            try:
                label = PolaritonLabel.parse(str(raw))
            except Exception as exc:  # noqa: BLE001 - collected as config problem
                problems.append(f"initial.labels: bad label {raw!r} ({exc})")
                continue
            if label.n > self.model.n_max:
                problems.append(
                    f"initial.labels: |{label}> needs {label.n} photons, "
                    f"cutoff is {self.model.n_max}")
            canonical.append(str(label))
        if len(canonical) == len(self.initial):
            object.__setattr__(self, "initial", tuple(canonical))
        problems += _run_problems(self.n_traj, self.master_seed)
        for spec in self.observables:
            if len(spec.resolved_labels) != self.model.n_sites:
                problems.append(
                    f"observables.projectors: {spec.name} has "
                    f"{len(spec.resolved_labels)} labels for "
                    f"{self.model.n_sites} sites")
        if self.compute_negativity and self.model.n_sites < 2:
            problems.append(
                "observables.negativity: needs at least two sites")
        if not 1 <= self.bipartition_cut < max(self.model.n_sites, 2):
            problems.append(
                "observables.bipartition_cut: must satisfy "
                f"1 <= cut < {self.model.n_sites}, got {self.bipartition_cut}")
        problems += _output_problems(self.output_name, self.output_format)
        if problems:
            raise ConfigError(problems)

    @property
    def max_excitation(self) -> int:
        return total_excitation_of_labels(self.initial)

    def to_mapping(self) -> dict:
        """Plain nested dict echoing every consumed parameter (sidecar form)."""
        return {
            "model": {
                "n_sites": self.model.n_sites,
                "n_max": self.model.n_max,
                "hop": list(self.model.hop),
                "gamma": list(self.model.gamma),
                "omega_a": self.model.omega_a,
                "omega_c": self.model.omega_c,
                "g": list(self.model.g),
                "detuning": self.model.detuning,
            },
            "initial": {"labels": list(self.initial),
                        "max_excitation": self.max_excitation},
            "grid": {
                "t_start": self.grid.t_start,
                "t_end": self.grid.t_end,
                "dt": self.grid.dt,
                "spacing": self.grid.spacing,
                "n_samples": self.grid.n_samples,
            },
            "run": {"n_traj": self.n_traj, "master_seed": self.master_seed},
            "observables": {
                "projectors": [spec.name for spec in self.observables],
                "negativity": self.compute_negativity,
                "bipartition_cut": self.bipartition_cut,
                "conditional": self.include_conditional,
            },
            "output": {"name": self.output_name, "format": self.output_format},
        }


@dataclass(frozen=True)
class CriticalitySweepConfig:
    """Grid of (hop, damping-ratio) points for the critical-damping hunt.

    The sweep is defined for the two-site model; ``delta`` detunes the atoms
    from the cavities, damping grids are expressed as multiples of each hop
    value, and classification runs on the deterministic master-equation
    negativity trace unless ``source`` selects the trajectory ensemble.
    """

    j_values: tuple[float, ...]
    gamma_ratios: tuple[float, ...] = DEFAULT_GAMMA_RATIOS
    delta: float = 0.0
    source: str = "oracle"
    n_max: int = 2
    coupling: float = 1.0
    t_end: float = 150.0
    t_start: float = 0.0
    dt: float = DEFAULT_DT
    prominence_threshold: float = DEFAULT_PROMINENCE_THRESHOLD
    t_min: float = DEFAULT_BURN_IN
    n_traj: int = 2000
    master_seed: int = 0
    n_threads: int = 1
    output_name: str = "criticality"
    output_format: str = "csv"

    def __post_init__(self):
        problems = []
        js = tuple(float(j) for j in self.j_values)
        ratios = tuple(float(r) for r in self.gamma_ratios)
        if not js:
            problems.append("sweep.j_values: required and non-empty")
        elif any(j <= 0 for j in js):
            problems.append("sweep.j_values: hop values must be positive")
        elif any(b <= a for a, b in zip(js, js[1:])):
            problems.append("sweep.j_values: must be strictly increasing")
        if not ratios:
            problems.append("sweep.gamma_ratios: required and non-empty")
        elif any(r <= 0 for r in ratios):
            problems.append("sweep.gamma_ratios: ratios must be positive")
        elif any(b <= a for a, b in zip(ratios, ratios[1:])):
            problems.append("sweep.gamma_ratios: must be strictly increasing")
        if self.source not in SWEEP_SOURCES:
            problems.append(
                f"sweep.source: expected one of {SWEEP_SOURCES}, got {self.source!r}")
        if self.n_max < 2:
            problems.append(f"model.n_max: sweep needs n_max >= 2, got {self.n_max}")
        if self.coupling <= 0:
            problems.append(f"model.g: coupling must be positive, got {self.coupling}")
        if self.t_end <= self.t_start:
            problems.append("grid.t_end: must exceed grid.t_start")
        if self.dt <= 0:
            problems.append(f"grid.dt: must be positive, got {self.dt}")
        if not 0 < self.prominence_threshold < 1:
            problems.append(
                "classifier.prominence_threshold: must lie in (0, 1), got "
                f"{self.prominence_threshold}")
        if self.t_min < 0:
            problems.append(f"classifier.t_min: must be >= 0, got {self.t_min}")
        problems += _run_problems(self.n_traj, self.master_seed, self.n_threads)
        problems += _output_problems(self.output_name, self.output_format)
        if problems:
            raise ConfigError(problems)
        object.__setattr__(self, "j_values", js)
        object.__setattr__(self, "gamma_ratios", ratios)

    def model_for(self, hop: float, gamma: float) -> ModelParams:
        return ModelParams(n_sites=2, omega_a=self.delta, omega_c=0.0,
                           g=self.coupling, hop=hop, gamma=gamma,
                           n_max=self.n_max)

    def grid_for(self, params: ModelParams) -> TimeGrid:
        spacing = recommended_spacing(params, self.dt)
        return TimeGrid.with_spacing(self.t_end, spacing, dt=self.dt,
                                     t_start=self.t_start)

    def to_mapping(self) -> dict:
        return {
            "sweep": {"j_values": list(self.j_values),
                      "gamma_ratios": list(self.gamma_ratios),
                      "delta": self.delta, "source": self.source},
            "model": {"n_sites": 2, "n_max": self.n_max, "g": self.coupling,
                      "omega_a": self.delta, "omega_c": 0.0},
            "grid": {"t_start": self.t_start, "t_end": self.t_end, "dt": self.dt},
            "classifier": {"prominence_threshold": self.prominence_threshold,
                           "t_min": self.t_min},
            "run": {"n_traj": self.n_traj, "master_seed": self.master_seed,
                    "n_threads": self.n_threads},
            "output": {"name": self.output_name, "format": self.output_format},
        }


# ---------------------------------------------------------------------------
# mapping -> config

def scenario_from_mapping(mapping: Mapping[str, Any]) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig`, reporting every problem at once."""
    problems: list = []
    _check_sections(mapping, _SCENARIO_SECTIONS, problems)
    model_sec = _section(mapping, "model")
    initial_sec = _section(mapping, "initial")
    grid_sec = _section(mapping, "grid")
    run_sec = _section(mapping, "run")
    obs_sec = _section(mapping, "observables")
    out_sec = _section(mapping, "output")

    if "n_sites" in model_sec:
        n_sites = _as_int(model_sec["n_sites"], "model.n_sites", problems)
    else:
        problems.append("model.n_sites: required key missing")
        n_sites = 2
    if "n_max" in model_sec:
        n_max = _as_int(model_sec["n_max"], "model.n_max", problems)
    else:
        problems.append("model.n_max: required key missing")
        n_max = 1
    hop = (_as_float_or_list(model_sec["hop"], "model.hop", problems)
           if "hop" in model_sec else 0.0)
    gamma = (_as_float_or_list(model_sec["gamma"], "model.gamma", problems)
             if "gamma" in model_sec else 0.0)
    omega_a = _as_float(model_sec.get("omega_a", 0.0), "model.omega_a", problems)
    omega_c = _as_float(model_sec.get("omega_c", 0.0), "model.omega_c", problems)
    g = (_as_float_or_list(model_sec["g"], "model.g", problems)
         if "g" in model_sec else 1.0)

    labels_raw = _require(initial_sec, "initial", "labels", problems)
    labels = tuple(str(item).strip() for item in
                   _split_items(labels_raw, "initial.labels", problems)) \
        if labels_raw is not None else ()

    model = None
    if not problems:
        try:
            model = ModelParams(n_sites=n_sites, omega_a=omega_a, omega_c=omega_c,
                                g=g, hop=hop, gamma=gamma, n_max=n_max)
        except ConfigError as exc:
            problems.extend(f"model.{p}" for p in exc.problems)

    t_end = (_as_float(grid_sec["t_end"], "grid.t_end", problems)
             if "t_end" in grid_sec else None)
    if t_end is None:
        problems.append("grid.t_end: required key missing")
        t_end = 1.0
    t_start = _as_float(grid_sec.get("t_start", 0.0), "grid.t_start", problems)
    dt = _as_float(grid_sec.get("dt", DEFAULT_DT), "grid.dt", problems)
    has_spacing = "spacing" in grid_sec
    has_samples = "n_samples" in grid_sec
    if has_spacing and has_samples:
        problems.append("grid: give either spacing or n_samples, not both")
    if not has_spacing and not has_samples:
        problems.append("grid: one of spacing or n_samples is required")

    grid = None
    if not problems:
        try:
            if has_spacing:
                raw = grid_sec["spacing"]
                if isinstance(raw, str) and raw.strip().lower() == "auto":
                    spacing = recommended_spacing(model, dt)
                else:
                    spacing = _as_float(raw, "grid.spacing", problems)
                if not problems:
                    grid = TimeGrid.with_spacing(t_end, spacing, dt=dt, t_start=t_start)
            else:
                n_samples = _as_int(grid_sec["n_samples"], "grid.n_samples", problems)
                if not problems:
                    grid = TimeGrid(t_end, n_samples, dt=dt, t_start=t_start)
        except (ConfigError, ValueError) as exc:
            problems.append(f"grid: {exc}")

    before_run = len(problems)
    n_traj = _as_int(run_sec.get("n_traj", 1), "run.n_traj", problems)
    master_seed = _as_int(run_sec.get("master_seed", 0), "run.master_seed", problems)
    run_parsed = len(problems) == before_run

    projectors: list = []
    if "projectors" in obs_sec:
        raw_items = obs_sec["projectors"]
        empty = (isinstance(raw_items, str) and not raw_items.strip()) or \
            (isinstance(raw_items, (list, tuple)) and not raw_items)
        items = [] if empty else _split_items(raw_items, "observables.projectors",
                                              problems)
        for item in items:
            spec = _parse_projector_item(str(item), "observables.projectors", problems)
            if spec is not None:
                projectors.append(spec)
    negativity = _as_bool(obs_sec.get("negativity", False),
                          "observables.negativity", problems)
    cut = _as_int(obs_sec.get("bipartition_cut", 1),
                  "observables.bipartition_cut", problems)
    conditional = _as_bool(obs_sec.get("conditional", False),
                           "observables.conditional", problems)

    name = str(out_sec.get("name", "scenario"))
    fmt = str(out_sec.get("format", "csv")).lower()

    if problems:
        # the dataclass never gets built, so replicate its scalar checks to
        # keep the report complete
        if run_parsed:
            problems += _run_problems(n_traj, master_seed)
        problems += _output_problems(name, fmt)
        raise ConfigError(problems)
    return ScenarioConfig(model=model, initial=labels, grid=grid,
                          n_traj=n_traj, master_seed=master_seed,
                          observables=tuple(projectors),
                          compute_negativity=negativity, bipartition_cut=cut,
                          include_conditional=conditional,
                          output_name=name, output_format=fmt)


def sweep_from_mapping(mapping: Mapping[str, Any]) -> CriticalitySweepConfig:
    problems: list = []
    _check_sections(mapping, _SWEEP_SECTIONS, problems)
    sweep_sec = _section(mapping, "sweep")
    model_sec = _section(mapping, "model")
    grid_sec = _section(mapping, "grid")
    cls_sec = _section(mapping, "classifier")
    run_sec = _section(mapping, "run")
    out_sec = _section(mapping, "output")

    raw_js = _require(sweep_sec, "sweep", "j_values", problems)
    j_values = (_as_float_list(raw_js, "sweep.j_values", problems)
                if raw_js is not None else ())
    ratios = (_as_float_list(sweep_sec["gamma_ratios"], "sweep.gamma_ratios", problems)
              if "gamma_ratios" in sweep_sec else DEFAULT_GAMMA_RATIOS)
    delta = _as_float(sweep_sec.get("delta", 0.0), "sweep.delta", problems)
    source = str(sweep_sec.get("source", "oracle")).lower()

    n_max = _as_int(model_sec.get("n_max", 2), "model.n_max", problems)
    coupling = _as_float(model_sec.get("g", 1.0), "model.g", problems)

    t_end = _as_float(grid_sec.get("t_end", 150.0), "grid.t_end", problems)
    t_start = _as_float(grid_sec.get("t_start", 0.0), "grid.t_start", problems)
    dt = _as_float(grid_sec.get("dt", DEFAULT_DT), "grid.dt", problems)

    threshold = _as_float(cls_sec.get("prominence_threshold",
                                      DEFAULT_PROMINENCE_THRESHOLD),
                          "classifier.prominence_threshold", problems)
    t_min = _as_float(cls_sec.get("t_min", DEFAULT_BURN_IN),
                      "classifier.t_min", problems)

    before_run = len(problems)
    n_traj = _as_int(run_sec.get("n_traj", 2000), "run.n_traj", problems)
    master_seed = _as_int(run_sec.get("master_seed", 0), "run.master_seed", problems)
    n_threads = _as_int(run_sec.get("n_threads", 1), "run.n_threads", problems)
    run_parsed = len(problems) == before_run

    name = str(out_sec.get("name", "criticality"))
    fmt = str(out_sec.get("format", "csv")).lower()

    if problems:
        if run_parsed:
            problems += _run_problems(n_traj, master_seed, n_threads)
        problems += _output_problems(name, fmt)
        raise ConfigError(problems)
    return CriticalitySweepConfig(
        j_values=j_values, gamma_ratios=ratios, delta=delta, source=source,
        n_max=n_max, coupling=coupling, t_end=t_end, t_start=t_start, dt=dt,
        prominence_threshold=threshold, t_min=t_min, n_traj=n_traj,
        master_seed=master_seed, n_threads=n_threads,
        output_name=name, output_format=fmt)


# ---------------------------------------------------------------------------
# file loading

def _mapping_from_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"{path}: no such file"])
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: invalid JSON ({exc})"]) from exc
        if not isinstance(loaded, dict):
            raise ConfigError([f"{path}: top level must be an object"])
        return loaded
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError([f"{path}: invalid config ({exc})"]) from exc
    return {section: dict(parser[section]) for section in parser.sections()}


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    """Read a scenario from an INI or JSON file."""
    return scenario_from_mapping(_mapping_from_file(path))


def load_sweep_config(path: str | Path) -> CriticalitySweepConfig:
    """Read a criticality sweep from an INI or JSON file."""
    return sweep_from_mapping(_mapping_from_file(path))


def config_content_hash(config: ScenarioConfig | CriticalitySweepConfig) -> str:
    """Content-addressed identity: sha256 of the canonical JSON echo."""
    canonical = json.dumps(config.to_mapping(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
