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

A config states no rule or byte count of its own: its load pass calls
the checks of the modules that own each input, naming this config's keys,
gathers what they raise with ``errors.collect``, and sums the byte counts
of the run's guards from their own functions.  A scenario has no key for
the jump-free branch, which every run records: its count is reported
under the model keys, which size it.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional

from .dynamics import (DEFAULT_DT, TimeGrid, batch_bytes, ensemble_problems, lindblad_bytes,
                       rho_bytes)
from .errors import ConfigError, collect
from .linalg import check_budget, real, reals, whole
from .model import (ModelParams, PolaritonLabel, basis_bytes, check_product_index,
                    checked_labels, checked_max_exc, model_bytes, sector_dims)
from .observables import (
    DEFAULT_BURN_IN,
    DEFAULT_PROMINENCE_THRESHOLD,
    ProjectorSpec,
    checked_cut,
    recommended_spacing,
    transpose_block_bound,
    transpose_bytes,
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
    """A whole number, or text that ``int`` or ``float`` reads as one, so
    ``2.0`` passes as text as it does as a number; the field's type checks
    its range."""
    try:
        return whole(_as_number(raw) if isinstance(raw, str) else raw, -math.inf, "")
    except ValueError:                    # float()'s, or the rule's ConfigError
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _as_number(text: str):
    """``text`` as ``int`` reads it, exact at any size, else as ``float`` reads it."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _as_float(raw: Any) -> float:
    if not isinstance(raw, bool):
        try:
            return float(raw)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"expected a number, got {raw!r}")


def _as_lower(raw: Any) -> str:
    return str(raw).lower()


def _as_text(raw: Any) -> str:
    if isinstance(raw, str):
        return raw
    raise ConfigError(f"expected text, got {raw!r}")


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


_OUTPUT = {"name": _Key("output_name", _as_text),
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


def _finish(cls, values: dict, problems: list, *checks: Callable[[Mapping], list]):
    """Build ``cls`` from ``values`` and raise if any problem was found.

    When a field the type requires is missing (a part that could not be
    read or built), only ``checks``, which need none of them, still run;
    fields absent from ``values`` take the defaults of ``cls``.
    """
    if any(values.get(f.name) is None for f in fields(cls) if f.default is MISSING):
        v = {**{f.name: f.default for f in fields(cls) if f.default is not MISSING}, **values}
        raise ConfigError(problems + [p for check in checks for p in check(v)])
    config = collect(problems, cls, **values)
    if problems:
        raise ConfigError(problems)
    return config


# ---------------------------------------------------------------------------
# configuration types

def _budget(terms: list) -> tuple:
    """The bytes of the nonzero ``(keys, bytes, what)`` terms of a load
    count, and what they hold under which keys, as ``check_budget`` takes them."""
    terms = [term for term in terms if term[1]]
    names = dict.fromkeys(key for keys, _, _ in terms for key in keys.split(", "))
    return (sum(n_bytes for _, n_bytes, _ in terms),
            f"{', '.join(names)}: {', '.join(what for _, _, what in terms)}")


def _run_problems(v: Mapping[str, Any]) -> list:
    """The ensemble's checks of a scenario's run settings, which need no model or grid."""
    return ["run." + p for p in ensemble_problems(v["n_traj"], v["master_seed"])]


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
    output_name: str = "scenario"
    output_format: str = "csv"

    def __post_init__(self):
        problems = []
        params, n_sites = self.model, self.model.n_sites
        collect(problems, check_product_index, params,
                field="model.n_sites, model.n_max, initial.labels")
        labels = collect(problems, checked_labels, self.initial, params, field="initial.labels")
        max_exc = None
        if labels is not None:
            object.__setattr__(self, "initial", tuple(map(str, labels)))
            # the run's basis holds the initial excitations, and n_max must hold them
            max_exc = collect(problems, checked_max_exc, params, self.max_excitation,
                              field="initial.labels, model.n_max")
        run_problems = _run_problems(vars(self))
        if not run_problems:
            object.__setattr__(self, "n_traj", int(self.n_traj))
            object.__setattr__(self, "master_seed", int(self.master_seed))
        problems += run_problems + _output_problems(vars(self))
        names = [spec.name for spec in self.observables]
        problems += [f"observables.projectors: {name} is named {names.count(name)} times"
                     for name in dict.fromkeys(names) if names.count(name) > 1]
        for spec in self.observables:
            collect(problems, checked_labels, spec.resolved_labels, params, max_exc,
                    field=f"observables.projectors: {spec.name}")
        if self.compute_negativity and n_sites < 2:
            problems.append("observables.negativity: needs at least two sites")
        # a one-site model keeps the default cut, which nothing reads
        cut = collect(problems, checked_cut, self.bipartition_cut, max(n_sites, 2),
                      field="observables.bipartition_cut")
        if cut is not None:
            object.__setattr__(self, "bipartition_cut", cut)
        if max_exc is not None and cut is not None and not run_problems:
            collect(problems, check_budget, *self._load_count(max_exc))
        if problems:
            raise ConfigError(problems)

    def _load_count(self, max_exc: int) -> tuple:
        """The sum of the run's guards' own counts, and what they hold under
        which keys.  The run's blocks lie in the sectors, so their sizes
        bound every block the counts read, without enumerating the basis."""
        params, n = self.model, self.grid.n_samples
        sectors = sector_dims(params.n_sites, max_exc)
        n_obs = len(self.observables)
        model_keys = "model.n_sites, model.n_max, initial.labels"
        terms = [(model_keys, basis_bytes(params, max_exc), "the basis"),
                 (model_keys, model_bytes(params, max_exc), "H and the loss operators"),
                 ("observables.projectors", model_bytes(params, max_exc, n_obs),
                  "the projectors"),
                 # the branch writes on the ensemble's run, counted below: it adds its reduction
                 (model_keys, batch_bytes(1, n_obs, n, sectors, record=True)
                  - batch_bytes(1, 0, n, sectors, record=True), "the jump-free branch")]
        if self.compute_negativity:
            block = transpose_block_bound(params.n_sites, max_exc, self.bipartition_cut)
            terms += [("observables.negativity", rho_bytes(n, sectors),
                       f"ρ̄'s block entries over {n} samples"),
                      ("observables.negativity, observables.bipartition_cut",
                       transpose_bytes(n, block),
                       f"the partial transpose's largest block of at most {block} states")]
        terms.append(("run.n_traj", batch_bytes(self.n_traj, n_obs, n, sectors),
                      f"the observable rows and live states of {self.n_traj} trajectories"))
        return _budget(terms)

    @property
    def max_excitation(self) -> int:
        return sum(PolaritonLabel.parse(label).n for label in self.initial)

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
    negativity trace; the slope fit needs at least three hop values.  The
    sample grid depends on neither hop nor damping, so it is built, and
    checked, once.
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
        values = {name: collect(problems, reals, getattr(self, name), f"sweep.{name}", above=0.0)
                  for name in ("j_values", "gamma_ratios")}
        for name, value in values.items():
            if value == ():
                problems.append(f"sweep.{name}: required and non-empty")
            elif value and any(b <= a for a, b in zip(value, value[1:])):
                problems.append(f"sweep.{name}: must be strictly increasing")
        if 0 < len(self.j_values) < 3:
            problems.append(f"sweep.j_values: need at least 3 hop values for a slope fit, "
                            f"got {len(self.j_values)}")
        grid = None
        try:
            grid = TimeGrid.with_spacing(
                self.t_end, recommended_spacing(self.model_for(0.0, 0.0), self.dt),
                dt=self.dt, t_start=self.t_start)
        except ConfigError as exc:
            for problem in exc.problems:
                name, _, rest = problem.partition(": ")
                problems.append(f"{_SWEEP_MODEL_KEYS.get(name, 'grid: ' + name)} {rest}")
        values["prominence_threshold"] = collect(
            problems, real, self.prominence_threshold, "classifier.prominence_threshold",
            above=0.0, below=1.0)
        t_min = values["t_min"] = collect(problems, real, self.t_min, "classifier.t_min", 0.0)
        if None not in (t_min, grid) and not t_min < grid.t_end:   # t_end trimmed to a sample
            problems.append(f"classifier.t_min: must lie below the last sample time "
                            f"{grid.t_end}, got {self.t_min}")
        if grid is not None:
            collect(problems, check_budget, *self._load_count(grid))
        problems += _output_problems(vars(self))
        if problems:
            raise ConfigError(problems)
        for name, value in {**values, "_grid": grid}.items():
            object.__setattr__(self, name, value)

    def _load_count(self, grid: TimeGrid) -> tuple:
        """The sum of the guards' own counts: of what the sweep builds once
        and of one point.  Every point runs the damped two-site model
        started in |2-, G>, so only the sample count, which the grid keys
        set, differs between sweeps."""
        params, n = self.model_for(1.0, 1.0), grid.n_samples
        sectors = sector_dims(2, params.n_max)
        block = transpose_block_bound(2, params.n_max, 1)
        keys = "grid.t_end, grid.t_start, grid.dt"
        return _budget([
            (keys, 2 * basis_bytes(params, params.n_max), "two bases"),
            (keys, 2 * model_bytes(params, params.n_max), "two models' H and loss operators"),
            (keys, model_bytes(params, params.n_max, 1), "the hop terms"),
            (keys, model_bytes(params, params.n_max, 1), "the pinned-state projector"),
            (keys, model_bytes(params, params.n_max), "a point's H and loss operators"),
            (keys, lindblad_bytes(n, sum(sectors), sectors),
             f"the master equation's generators and {n} samples"),
            (keys, transpose_bytes(n, block),
             f"the partial transpose's largest block of at most {block} states")])

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
    model = (None if values["model"] is None
             else collect(problems, ModelParams, prefix="model.", **values["model"]))
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
