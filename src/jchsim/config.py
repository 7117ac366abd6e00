"""Run configuration: flat ``key = value`` sections (INI) or JSON.

Two shapes are understood: a *scenario* (one model, one initial state, one
ensemble run) and a *criticality sweep* (a grid of hopping strengths and
damping ratios classified into single- vs multi-peak entanglement traces).
Both formats carry the same sections whether written as INI or JSON; a JSON
file is simply the nested ``{section: {key: value}}`` mapping.

Each config type has one key table: per section, each key's field, the
coercion of its raw value (INI gives strings, JSON typed values) and whether
it is required.  Defaults and checks live only on the types
(:class:`~jchsim.model.ModelParams`, :class:`~jchsim.dynamics.TimeGrid`,
:class:`ScenarioConfig`, :class:`CriticalitySweepConfig`).  A key that is
absent, or whose value fails to coerce, takes the type's default and the type
is still built, so its checks still run: a bad file reports every offending
field at once.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional

from .dynamics import DEFAULT_DT, RHO_MEMORY_CAP, TimeGrid
from .errors import ConfigError
from .linalg import DEFAULT_DIM_CAP
from .model import ModelParams, PolaritonLabel, excitation_basis, total_excitation_of_labels
from .observables import (
    DEFAULT_BURN_IN,
    DEFAULT_PROMINENCE_THRESHOLD,
    ProjectorSpec,
    recommended_spacing,
)

DEFAULT_GAMMA_RATIOS = (0.3, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
OUTPUT_FORMATS = ("csv", "json")


# ---------------------------------------------------------------------------
# raw-value coercion; each raises ConfigError with the problems of one value

def _as_bool(raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _as_int(raw: Any) -> int:
    # bool is an int subclass; reject it explicitly
    if not isinstance(raw, bool) and not (isinstance(raw, float) and not raw.is_integer()):
        try:
            return int(raw)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"expected an integer, got {raw!r}")


def _as_float(raw: Any) -> float:
    if not isinstance(raw, bool):
        try:
            return float(raw)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"expected a number, got {raw!r}")


def _as_lower(raw: Any) -> str:
    return str(raw).lower()


def _split_items(raw: Any) -> list:
    """Return a list of raw items from a comma string or a JSON list."""
    if isinstance(raw, str):
        items = [part.strip() for part in raw.split(",") if part.strip()]
    elif isinstance(raw, (list, tuple)):
        items = list(raw)
    else:
        raise ConfigError(f"expected a comma-separated list, got {raw!r}")
    if not items:
        raise ConfigError("empty list")
    return items


def _each(coerce: Callable[[Any], Any], raw: Any) -> tuple:
    """``coerce`` applied to every list item, reporting every item that fails."""
    values, problems = [], []
    for item in _split_items(raw):
        try:
            values.append(coerce(item))
        except ConfigError as exc:
            problems += exc.problems
    if problems:
        raise ConfigError(problems)
    return tuple(values)


def _as_floats(raw: Any) -> tuple:
    return _each(_as_float, raw)


def _as_rates(raw: Any):
    """A scalar rate or one value per site/bond."""
    if isinstance(raw, (list, tuple)) or (isinstance(raw, str) and "," in raw):
        return _as_floats(raw)
    return _as_float(raw)


def _as_labels(raw: Any) -> tuple:
    return tuple(str(item).strip() for item in _split_items(raw))


def _as_spacing(raw: Any):
    """A sample spacing, or ``"auto"`` for the model's recommendation."""
    if isinstance(raw, str) and raw.strip().lower() == "auto":
        return "auto"
    return _as_float(raw)


def _as_projector(raw: Any) -> ProjectorSpec:
    """One projector: a preset name or ``(label; label; ...)``, with an
    optional ``+perm`` suffix requesting the site-permutation sum."""
    item = str(raw).strip()
    symmetrize = item.endswith("+perm")
    if symmetrize:
        item = item[: -len("+perm")].strip()
    try:
        if item.startswith("(") and item.endswith(")"):
            labels = tuple(part.strip() for part in item[1:-1].split(";"))
            return ProjectorSpec(labels=labels, symmetrize=symmetrize)
        return ProjectorSpec(preset=item, symmetrize=symmetrize)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"bad projector {str(raw)!r} ({exc})") from None


def _as_projectors(raw: Any) -> tuple:
    """A projector list; an empty string or list asks for none."""
    if (isinstance(raw, str) and not raw.strip()) or (
            isinstance(raw, (list, tuple)) and not raw):
        return ()
    return _each(_as_projector, raw)


# ---------------------------------------------------------------------------
# key tables: section -> key -> the field it sets, its coercion, required?

class _Key(NamedTuple):
    field: str
    coerce: Callable[[Any], Any]
    required: bool = False


_OUTPUT = {"name": _Key("output_name", str),
           "format": _Key("output_format", _as_lower)}

_SCENARIO_KEYS = {
    "model": {
        "n_sites": _Key("n_sites", _as_int, required=True),
        "n_max": _Key("n_max", _as_int, required=True),
        "hop": _Key("hop", _as_rates),
        "gamma": _Key("gamma", _as_rates),
        "omega_a": _Key("omega_a", _as_float),
        "omega_c": _Key("omega_c", _as_float),
        "g": _Key("g", _as_rates),
    },
    "initial": {"labels": _Key("initial", _as_labels, required=True)},
    "grid": {
        "t_end": _Key("t_end", _as_float, required=True),
        "t_start": _Key("t_start", _as_float),
        "dt": _Key("dt", _as_float),
        "spacing": _Key("spacing", _as_spacing),
        "n_samples": _Key("n_samples", _as_int),
    },
    "run": {"n_traj": _Key("n_traj", _as_int), "master_seed": _Key("master_seed", _as_int)},
    "observables": {
        "projectors": _Key("observables", _as_projectors),
        "negativity": _Key("compute_negativity", _as_bool),
        "bipartition_cut": _Key("bipartition_cut", _as_int),
        "conditional": _Key("include_conditional", _as_bool),
    },
    "output": _OUTPUT,
}

_SWEEP_KEYS = {
    "sweep": {
        "j_values": _Key("j_values", _as_floats, required=True),
        "gamma_ratios": _Key("gamma_ratios", _as_floats),
        "delta": _Key("delta", _as_float),
    },
    "model": {"g": _Key("coupling", _as_float)},
    "grid": {
        "t_end": _Key("t_end", _as_float),
        "t_start": _Key("t_start", _as_float),
        "dt": _Key("dt", _as_float),
    },
    "classifier": {
        "prominence_threshold": _Key("prominence_threshold", _as_float),
        "t_min": _Key("t_min", _as_float),
    },
    "output": _OUTPUT,
}


def _read(mapping: Mapping[str, Any], table: Mapping[str, Mapping[str, _Key]]):
    """Check ``mapping`` against a key table; return its values and problems.

    The values are ``{section: {field: coerced value}}``.  A value that fails
    to coerce is left out, so its field takes the type's default; a section
    that lacks a required value maps to None.  The problems name unknown
    sections and keys, values that fail to coerce and missing required keys.
    """
    problems = [f"{section}: unknown section" for section in mapping
                if section not in table]
    values: dict = {}
    for section, keys in table.items():
        content = mapping.get(section, {})
        if not isinstance(content, Mapping):
            problems.append(f"{section}: expected a mapping of keys")
            content = {}
        problems += [f"{section}.{name}: unknown key" for name in content
                     if name not in keys]
        coerced = {}
        for name, key in keys.items():
            if name not in content:
                if key.required:
                    problems.append(f"{section}.{name}: required key missing")
                continue
            try:
                coerced[key.field] = key.coerce(content[name])
            except ConfigError as exc:
                problems += [f"{section}.{name}: {p}" for p in exc.problems]
        complete = all(key.field in coerced for key in keys.values() if key.required)
        values[section] = coerced if complete else None
    return values, problems


def _echo(table: Mapping[str, Mapping[str, _Key]], config, **owners) -> dict:
    """Every key of ``table`` with the value of its field (the sidecar form).

    A section's fields are read from its object in ``owners``, else from
    ``config``; tuples become lists and projectors their names.
    """
    return {section: {name: _plain(getattr(owners.get(section, config), key.field))
                      for name, key in keys.items()}
            for section, keys in table.items()}


def _plain(value):
    if isinstance(value, tuple):
        return [getattr(item, "name", item) for item in value]
    return value


def _build(make: Callable[..., Any], values: Optional[dict], problems: list,
           prefix: str = ""):
    """``make(**values)``; None, with its problems added, if it cannot be built."""
    if values is None:
        return None
    try:
        return make(**values)
    except ConfigError as exc:
        problems += [prefix + p for p in exc.problems]
        return None


def _finish(cls, values: dict, problems: list, *checks: Callable[[Mapping], list]):
    """Build ``cls`` from ``values`` and raise if any problem was found.

    When a field the type requires is missing (a part that could not be
    read or built), only ``checks``, which need none of them, still run;
    fields absent from ``values`` take the defaults of ``cls``.
    """
    if any(values.get(f.name) is None for f in fields(cls) if f.default is MISSING):
        v = {**{f.name: f.default for f in fields(cls) if f.default is not MISSING}, **values}
        raise ConfigError(problems + [p for check in checks for p in check(v)])
    config = _build(cls, values, problems)
    if problems:
        raise ConfigError(problems)
    return config


# ---------------------------------------------------------------------------
# configuration types

def _run_problems(v: Mapping[str, Any]) -> list:
    """Checks of a scenario's run settings, which need no model or grid."""
    problems = []
    if v["n_traj"] < 1:
        problems.append(f"run.n_traj: must be >= 1, got {v['n_traj']}")
    if v["master_seed"] < 0:
        problems.append(f"run.master_seed: must be >= 0, got {v['master_seed']}")
    return problems


def _output_problems(v: Mapping[str, Any]) -> list:
    """Checks of the output settings, which need no model or grid."""
    problems = []
    if v["output_format"] not in OUTPUT_FORMATS:
        problems.append(f"output.format: expected one of {OUTPUT_FORMATS}, "
                        f"got {v['output_format']!r}")
    if not v["output_name"] or "/" in v["output_name"]:
        problems.append(f"output.name: must be a bare file stem, got {v['output_name']!r}")
    return problems


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
        n_sites, n_max = self.model.n_sites, self.model.n_max
        if len(self.initial) != n_sites:
            problems.append(
                f"initial.labels: expected {n_sites} site labels, "
                f"got {len(self.initial)}")
        canonical = []
        for raw in self.initial:
            try:
                label = PolaritonLabel.parse(str(raw))
            except Exception as exc:  # noqa: BLE001 - collected as config problem
                problems.append(f"initial.labels: bad label {raw!r} ({exc})")
                continue
            if label.n > n_max:
                problems.append(
                    f"initial.labels: |{label}> needs {label.n} photons, "
                    f"cutoff is {n_max}")
            canonical.append(str(label))
        if len(canonical) == len(self.initial):
            object.__setattr__(self, "initial", tuple(canonical))
        problems += _run_problems(vars(self)) + _output_problems(vars(self))
        for spec in self.observables:
            # the run builds each projector inside the excitation subspace of
            # the initial state, so it must fit the cutoff and that subspace
            ns = [PolaritonLabel.parse(label).n for label in spec.resolved_labels]
            if len(ns) != n_sites:
                problems.append(f"observables.projectors: {spec.name} has "
                                f"{len(ns)} labels for {n_sites} sites")
            elif max(ns) > n_max:
                problems.append(f"observables.projectors: {spec.name} needs "
                                f"{max(ns)} photons on one site, cutoff is {n_max}")
            elif len(canonical) == len(self.initial) and sum(ns) > self.max_excitation:
                problems.append(f"observables.projectors: {spec.name} holds {sum(ns)} "
                                "excitations, more than the initial state's "
                                f"{self.max_excitation}")
        # the initial state is prepared in the product space
        full_dim = self.model.dim
        if full_dim > DEFAULT_DIM_CAP:
            problems.append(
                f"model.n_sites, model.n_max: {n_sites} sites with n_max = {n_max} span "
                f"{full_dim} product states, above the cap {DEFAULT_DIM_CAP}")
        if self.compute_negativity and n_sites < 2:
            problems.append(
                "observables.negativity: needs at least two sites")
        if (self.compute_negativity and len(canonical) == len(self.initial)
                and self.max_excitation <= n_max):
            # negativity is taken on the averaged-state stack the ensemble keeps
            dim = excitation_basis(self.model, self.max_excitation).dim
            stack_bytes = self.grid.n_samples * dim * dim * 16
            if stack_bytes > RHO_MEMORY_CAP:
                problems.append(
                    f"observables.negativity: the averaged-state stack of "
                    f"{self.grid.n_samples} samples of {dim}-dim matrices needs "
                    f"{stack_bytes} bytes, above the cap {RHO_MEMORY_CAP}")
        if not 1 <= self.bipartition_cut < max(n_sites, 2):
            problems.append(
                "observables.bipartition_cut: must satisfy "
                f"1 <= cut < {n_sites}, got {self.bipartition_cut}")
        if problems:
            raise ConfigError(problems)

    @property
    def max_excitation(self) -> int:
        return total_excitation_of_labels(self.initial)

    def to_mapping(self) -> dict:
        """Plain nested dict echoing every consumed parameter (sidecar form)."""
        echo = _echo(_SCENARIO_KEYS, self, model=self.model, grid=self.grid)
        echo["model"]["detuning"] = self.model.detuning
        echo["initial"]["max_excitation"] = self.max_excitation
        return echo


# the sweep key behind each field its model or grid can reject; the spacing
# is a quarter beat on the dt lattice, so one that does not fit needs a later t_end
_SWEEP_MODEL_KEYS = {"omega_a": "sweep.delta:", "g": "model.g:", "dt": "grid.dt:",
                     "t_start": "grid.t_start:", "t_end": "grid.t_end:",
                     "spacing": "grid.t_end: spacing"}


@dataclass(frozen=True)
class CriticalitySweepConfig:
    """Grid of (hop, damping-ratio) points for the critical-damping hunt.

    The sweep is defined for the two-site model started in ``|2-, G>``, with
    the fixed cutoff ``n_max = 2`` its two excitations need.  ``delta``
    detunes the atoms from the cavities, damping grids are multiples of each
    hop value, and every point is classified from its exact master-equation
    negativity trace.  The sample grid depends on neither hop nor damping,
    so it is built, and checked, once.
    """

    j_values: tuple[float, ...]
    gamma_ratios: tuple[float, ...] = DEFAULT_GAMMA_RATIOS
    delta: float = 0.0
    coupling: float = 1.0
    t_end: float = 150.0
    t_start: float = 0.0
    dt: float = DEFAULT_DT
    prominence_threshold: float = DEFAULT_PROMINENCE_THRESHOLD
    t_min: float = DEFAULT_BURN_IN
    output_name: str = "criticality"
    output_format: str = "csv"

    def __post_init__(self):
        problems = []
        js = tuple(float(j) for j in self.j_values)
        ratios = tuple(float(r) for r in self.gamma_ratios)
        for where, values, what in (("sweep.j_values", js, "hop values"),
                                    ("sweep.gamma_ratios", ratios, "ratios")):
            if not values:
                problems.append(f"{where}: required and non-empty")
            elif not all(0 < v < math.inf for v in values):
                problems.append(f"{where}: {what} must be positive and finite")
            elif any(b <= a for a, b in zip(values, values[1:])):
                problems.append(f"{where}: must be strictly increasing")
        grid = None
        try:
            grid = TimeGrid.with_spacing(
                self.t_end, recommended_spacing(self.model_for(0.0, 0.0), self.dt),
                dt=self.dt, t_start=self.t_start)
        except ConfigError as exc:
            for problem in exc.problems:
                name, _, rest = problem.partition(": ")
                problems.append(f"{_SWEEP_MODEL_KEYS.get(name, 'grid: ' + name)} {rest}")
        t_last = self.t_end if grid is None else grid.t_end   # t_end trimmed to a sample
        if not 0 < self.prominence_threshold < 1:
            problems.append(
                "classifier.prominence_threshold: must lie in (0, 1), got "
                f"{self.prominence_threshold}")
        if self.t_min < 0:
            problems.append(f"classifier.t_min: must be >= 0, got {self.t_min}")
        elif not self.t_min < t_last:
            problems.append(
                f"classifier.t_min: must lie below the last sample time {t_last}, got {self.t_min}")
        problems += _output_problems(vars(self))
        if problems:
            raise ConfigError(problems)
        object.__setattr__(self, "j_values", js)
        object.__setattr__(self, "gamma_ratios", ratios)
        object.__setattr__(self, "_grid", grid)

    def model_for(self, hop: float, gamma: float) -> ModelParams:
        return ModelParams(n_sites=2, omega_a=self.delta, omega_c=0.0,
                           g=self.coupling, hop=hop, gamma=gamma, n_max=2)

    def grid_for(self, params: ModelParams) -> TimeGrid:
        """The sample grid of every point: it depends on neither hop nor damping."""
        return self._grid

    def to_mapping(self) -> dict:
        echo = _echo(_SWEEP_KEYS, self)
        echo["model"].update(n_sites=2, n_max=2, omega_a=self.delta, omega_c=0.0)
        return echo


def apply_overrides(config: ScenarioConfig, n_traj: Optional[int] = None,
                    master_seed: Optional[int] = None) -> ScenarioConfig:
    """``config`` with the command-line overrides that are set.

    ``n_traj`` is ``--traj`` and ``master_seed`` is ``--seed``; a sweep,
    which runs no trajectories, has neither.
    """
    updates = {"n_traj": n_traj, "master_seed": master_seed}
    return replace(config, **{k: v for k, v in updates.items() if v is not None})


# ---------------------------------------------------------------------------
# mapping -> config

def _scenario_grid(raw: Any, grid: Optional[dict], model: Optional[ModelParams],
                   problems: list) -> Optional[TimeGrid]:
    """The sample grid from ``spacing`` (a number or ``auto``) or
    ``n_samples``, given in the raw section; never both."""
    given = raw.keys() & {"spacing", "n_samples"} if isinstance(raw, Mapping) else set()
    if len(given) != 1:
        problems.append("grid: give either spacing or n_samples, not both" if given
                        else "grid: one of spacing or n_samples is required")
        return None
    auto = grid is not None and grid.get("spacing") == "auto"
    if grid is None or not given <= grid.keys() or (auto and model is None):
        return None                  # the value it needs was reported already
    try:
        if auto:
            # TimeGrid.dt is the grid's own default step
            grid["spacing"] = recommended_spacing(model, grid.get("dt", TimeGrid.dt))
        return (TimeGrid.with_spacing if "spacing" in grid else TimeGrid)(**grid)
    except ConfigError as exc:
        problems += ["grid." + p for p in exc.problems]
        return None


def scenario_from_mapping(mapping: Mapping[str, Any]) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig`, reporting every problem at once."""
    values, problems = _read(mapping, _SCENARIO_KEYS)
    model = _build(ModelParams, values["model"], problems, prefix="model.")
    grid = _scenario_grid(mapping.get("grid"), values["grid"], model, problems)
    return _finish(ScenarioConfig, {
        "model": model, "grid": grid, **(values["initial"] or {}),
        **values["run"], **values["observables"], **values["output"]}, problems,
        _run_problems, _output_problems)


def sweep_from_mapping(mapping: Mapping[str, Any]) -> CriticalitySweepConfig:
    """Build a :class:`CriticalitySweepConfig`, reporting every problem at once."""
    values, problems = _read(mapping, _SWEEP_KEYS)
    return _finish(CriticalitySweepConfig, {
        field: value for section in values.values() if section
        for field, value in section.items()}, problems, _output_problems)


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
