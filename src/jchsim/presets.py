"""Named, reproducible parameter presets.

Each preset fixes every physical and sampling parameter (including, for a
scenario, the master seed) so that rerunning it reproduces identical
files.  Sample spacing is chosen automatically as a quarter of the
two-excitation beat period, which puts classifier-ready sampling on the
stored grid.

Scenario presets:

``fig1``   lossless two-site blockade, J = 0.03, at zero detuning and at
           detuning 0.9 (one deterministic trajectory each); negativity.
``fig2``   damped two-site transfer, J = 0.03, gamma = 0.05: the pinned
           one-excitation-per-site population plateaus while the initial
           doubly-excited state drains; negativity.
``fig3``   J = 0.06 below (gamma = 0.02) and above (gamma = 0.06) the
           critical damping; negativity.
``n3``     three sites, initial |3-, G, G>, populations, negativity across
           the default cut.
``n4``     four sites, initial |4-, G, G, G>, populations (no negativity:
           the averaged state's 560 samples of 45 697 block entries,
           409 MB, alone exceed the memory budget).

Every scenario's table also holds the jump-free branch: its survival and
each projector's conditional mean.

Sweep preset:

``fig4``   the critical-damping sweep over J in {0.02, 0.04, 0.06, 0.08}
           at zero detuning, each point classified from its exact
           master-equation trace (no trajectories, so no count or seed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .config import (
    CriticalitySweepConfig,
    ScenarioConfig,
    apply_overrides,
    scenario_from_mapping,
    sweep_from_mapping,
)
from .errors import ConfigError

__all__ = ["PresetBundle", "PRESET_NAMES", "load_preset"]

_BASE_SEED = 20260825


def _scenario(name: str, seed_offset: int, *, n_sites: int, n_max: int,
              hop: float, gamma: float, omega_a: float, initial: str,
              projectors: str, t_end: float, negativity: bool,
              n_traj: int) -> ScenarioConfig:
    return scenario_from_mapping({
        "model": {"n_sites": n_sites, "n_max": n_max, "hop": hop,
                  "gamma": gamma, "omega_a": omega_a},
        "initial": {"labels": initial},
        "grid": {"t_end": t_end, "dt": 0.005, "spacing": "auto"},
        "run": {"n_traj": n_traj, "master_seed": _BASE_SEED + seed_offset},
        "observables": {"projectors": projectors, "negativity": negativity,
                        "bipartition_cut": 1},
        "output": {"name": name, "format": "csv"},
    })


def _build_fig1() -> tuple:
    common = dict(n_sites=2, n_max=2, hop=0.03, gamma=0.0, initial="2-, G",
                  projectors="P20, P02, P11", t_end=1500.0, negativity=True,
                  n_traj=1)
    return (
        _scenario("fig1_delta0", 1, omega_a=0.0, **common),
        _scenario("fig1_delta09", 2, omega_a=0.9, **common),
    )


def _build_fig2() -> tuple:
    return (_scenario("fig2", 3, n_sites=2, n_max=2, hop=0.03, gamma=0.05,
                      omega_a=0.0, initial="2-, G", projectors="P20, P02, P11",
                      t_end=1500.0, negativity=True, n_traj=2000),)


def _build_fig3() -> tuple:
    common = dict(n_sites=2, n_max=2, hop=0.06, omega_a=0.0, initial="2-, G",
                  projectors="P20, P02, P11", t_end=150.0, negativity=True,
                  n_traj=2000)
    return (
        _scenario("fig3_below_critical", 4, gamma=0.02, **common),
        _scenario("fig3_above_critical", 5, gamma=0.06, **common),
    )


def _build_n3() -> tuple:
    return (_scenario("n3", 6, n_sites=3, n_max=3, hop=0.03, gamma=0.05,
                      omega_a=0.0, initial="3-, G, G",
                      projectors="P300, P111", t_end=1500.0,
                      negativity=True, n_traj=2000),)


def _build_n4() -> tuple:
    return (_scenario("n4", 7, n_sites=4, n_max=4, hop=0.03, gamma=0.05,
                      omega_a=0.0, initial="4-, G, G, G",
                      projectors="P4000, P1111", t_end=1500.0,
                      negativity=False, n_traj=2000),)


def _build_fig4() -> CriticalitySweepConfig:
    return sweep_from_mapping({
        "sweep": {"j_values": "0.02, 0.04, 0.06, 0.08", "delta": 0.0},
        "grid": {"t_end": 150.0, "dt": 0.005},
        "output": {"name": "fig4", "format": "csv"},
    })


@dataclass(frozen=True)
class PresetBundle:
    """A named preset: either scenario configs or one sweep config."""

    name: str
    scenarios: tuple = ()
    sweep: Optional[CriticalitySweepConfig] = None

    def with_overrides(self, **overrides) -> "PresetBundle":
        """Apply :func:`~jchsim.config.apply_overrides` to every scenario (not the sweep)."""
        return replace(self, scenarios=tuple(apply_overrides(cfg, **overrides)
                                             for cfg in self.scenarios))


_BUILDERS = {
    "fig1": lambda: PresetBundle("fig1", scenarios=_build_fig1()),
    "fig2": lambda: PresetBundle("fig2", scenarios=_build_fig2()),
    "fig3": lambda: PresetBundle("fig3", scenarios=_build_fig3()),
    "fig4": lambda: PresetBundle("fig4", sweep=_build_fig4()),
    "n3": lambda: PresetBundle("n3", scenarios=_build_n3()),
    "n4": lambda: PresetBundle("n4", scenarios=_build_n4()),
}

PRESET_NAMES = tuple(sorted(_BUILDERS))


def load_preset(name: str) -> PresetBundle:
    """Look up a preset bundle by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError([f"preset: unknown name {name!r}; "
                           f"known: {list(PRESET_NAMES)}"]) from None
    return builder()
