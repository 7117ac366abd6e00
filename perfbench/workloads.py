"""The benchmark's workloads: set-up, one timed round, checks and layer probes.

A round is what a user of ``jchsim run --preset <name>`` waits for: the
public call that turns a prepared configuration into files on disk.  Every
round of a run uses the same seed, so every round must write the same bytes.
The checks run once per run on the first round's files; they compare the
program's output with ``oracle`` (built without ``jchsim``) and with
properties the waiting-time method guarantees.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from jchsim import critical, observables, runner
from jchsim.dynamics import (TimeGrid, lindblad_evolve, mcwf_ensemble,
                             mcwf_trajectory)
from jchsim.model import (ReducedSpace, build_reduced_model,
                          prepare_product_polariton_state)
from jchsim.observables import PROJECTOR_PRESETS, ProjectorSpec
from jchsim.presets import load_preset

#: false-alarm probability of each statistical band, per run
ALPHA = 1e-6
#: criterion 5 compares ρ̄'s negativity with the exact one to 0.02 at 2000
#: trajectories; ρ̄'s sampling error shrinks as 1/sqrt(n_traj)
NEGATIVITY_TOL = 0.02
NEGATIVITY_TOL_TRAJ = 2000


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class Prepared:
    """What set-up hands to the rounds."""

    config: object
    model: object
    psi0: np.ndarray
    ops: dict
    units: int                 # trajectories (or master-equation runs) per round
    info: dict = field(default_factory=dict)


def dkw_band(n: int) -> float:
    """Dvoretzky–Kiefer–Wolfowitz: P(sup_t |S_n(t) − S(t)| > ε) ≤ 2exp(−2nε²) = ALPHA."""
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * n))


def rk4_state_bound(gen_norm: float, dt: float, t) -> np.ndarray:
    """Bound on |‖ψ_num‖² − ‖ψ‖²| after time t of the degree-4 Taylor stepper.

    Each step of a contractive flow misses the exponential by at most
    (dt‖G‖)⁵/5!·e^(dt‖G‖); errors add over t/dt steps.
    """
    x = dt * gen_norm
    err = np.asarray(t) / dt * x ** 5 / 120.0 * math.exp(x)
    return 2.0 * err + err * err + 1e-10


def artifact_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 over every file's name and bytes, and the bytes in total."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        total += len(data)
    return digest.hexdigest(), total


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _projector_excitation(name: str) -> int:
    return sum(0 if lab == "G" else int(lab[:-1]) for lab in PROJECTOR_PRESETS[name])


def _oracle_model(params, max_exc: int):
    import oracle
    if len(set(params.hop)) > 1 or len(set(params.gamma)) > 1 or len(set(params.g)) > 1:
        raise ValueError("the oracle builds uniform chains only")
    return oracle.bare_model(params.n_sites, params.n_max, params.hop[0],
                             params.gamma[0], max_exc, g=params.g[0],
                             omega_a=params.omega_a, omega_c=params.omega_c)


# ---------------------------------------------------------------------------
# ensemble scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioWorkload:
    """A trajectory-ensemble preset run through ``runner.run_scenario``."""

    preset: str
    n_traj: int
    smoke_n_traj: int
    fit_repeats: int                 # trajectories per point of the jump-count fit
    smoke_t_end: float | None        # shorter grid in smoke mode
    master_eq: bool                  # dense master-equation oracle affordable
    host_parts: tuple = ("python", "small_numpy", "gemm")   # see hostspeed

    def trace_targets(self, full: bool) -> list:
        engine = [(runner, "mcwf_ensemble", "dynamics.mcwf_ensemble", "dynamics.ensemble")]
        if not full:
            return engine
        return engine + [
            (runner, "build_reduced_model", "model.build_reduced_model", "model.build"),
            (ProjectorSpec, "operator", "observables.ProjectorSpec.operator",
             "observables.projector_build"),
            (runner, "no_jump_branch", "dynamics.no_jump_branch", "dynamics.conditional"),
            (runner, "reduced_bipartition", "observables.reduced_bipartition",
             "observables.negativity"),
            (runner, "negativity", "observables.negativity", "observables.negativity"),
            (ReducedSpace, "embed_density", "model.ReducedSpace.embed_density",
             "observables.negativity"),
        ]

    def setup(self, seed: int, smoke: bool) -> Prepared:
        n_traj = self.smoke_n_traj if smoke else self.n_traj
        bundle = load_preset(self.preset).with_overrides(n_traj=n_traj, master_seed=seed)
        config = bundle.scenarios[0]
        if smoke and self.smoke_t_end is not None:
            config = replace(config, grid=TimeGrid.with_spacing(
                self.smoke_t_end, config.grid.spacing, dt=config.grid.dt))
        model = build_reduced_model(config.model, max_exc=config.max_excitation)
        psi0 = model.space.reduce_vector(
            prepare_product_polariton_state(config.initial, config.model))
        ops = {spec.name: spec.operator(config.model, model.space)
               for spec in config.observables}
        sectors = np.bincount(model.n_tot).tolist()
        return Prepared(config=config, model=model, psi0=psi0, ops=ops, units=n_traj,
                        info={"preset": self.preset, "n_traj": n_traj,
                              "n_samples": config.grid.n_samples, "dim": model.dim,
                              "sectors": sectors, "master_seed": seed})

    def run_round(self, prep: Prepared, out_dir: Path, tracer) -> None:
        with tracer.span("runner.run_scenario", "runner.write"):
            runner.run_scenario(prep.config, out_dir)

    # -- checks -------------------------------------------------------------

    def check(self, prep: Prepared, out_dir: Path) -> tuple[list, dict]:
        """Checks on one round's files; also returns per-trajectory timings."""
        import oracle       # imported here so that set-up time leaves it out
        config = prep.config
        rows = _read_csv(out_dir / f"{config.output_name}.csv")
        table = {k: np.array([float(row[k]) for row in rows])
                 for k in self._columns(config)}
        times = table["t"]
        n = prep.units
        n0 = config.max_excitation
        checks = []

        replay = self._replay_trajectories(prep)
        checks.append(self._check_trajectory_mean(prep, table, replay))
        checks.append(self._check_jump_records(prep, replay, n0))

        bare = _oracle_model(config.model, n0)
        psi0 = bare.product_state(config.initial)
        survival, top, states, gen_norm = oracle.no_jump_branch(bare, psi0, times)
        bound = rk4_state_bound(gen_norm, config.grid.dt, times)
        dev = np.abs(table["survival"] - survival)
        checks.append(Check(
            "survival_vs_expm_multiply", bool(np.all(dev <= bound)),
            f"max |survival - oracle| = {dev.max():.3e}, 4th-order bound at "
            f"t_end = {bound[-1]:.3e}"))

        band = dkw_band(n)
        top_names = [s.name for s in config.observables
                     if _projector_excitation(s.name) == n0]
        worst = 0.0
        for name in top_names:
            dev = np.abs(table[name] - table["survival"] * table[f"{name}_cond"])
            worst = max(worst, float((dev / (band * table[f"{name}_cond"] + 1e-9)).max()))
        checks.append(Check(
            "top_sector_identity", worst <= 1.0,
            f"E[P](t) = survival(t) P_cond(t) for {', '.join(top_names)}: worst "
            f"deviation {worst:.2f} of the DKW band ({band:.3f} at n = {n})"))

        if self.master_eq:
            checks += self._check_master_equation(config, table, bare, psi0,
                                                  survival, states, top, band)
        return checks, replay

    @staticmethod
    def _columns(config) -> list:
        names = ["t", "survival"]
        for spec in config.observables:
            names += [spec.name, f"{spec.name}_cond"]
        if config.compute_negativity:
            names.append("negativity")
        return names

    def _replay_trajectories(self, prep: Prepared) -> dict:
        """Every ensemble member again, one ``mcwf_trajectory`` call each."""
        config = prep.config
        sums = {name: np.zeros(config.grid.n_samples) for name in prep.ops}
        jumps, seconds = [], []
        for j in range(prep.units):
            start = time.perf_counter()
            res = mcwf_trajectory(prep.model.h, prep.model.collapse, prep.psi0,
                                  config.grid, (config.master_seed, j))
            seconds.append(time.perf_counter() - start)
            jumps.append(res.jumps)
            for name, op in prep.ops.items():
                sums[name] += np.einsum("ni,ij,nj->n", res.states.conj(), op,
                                        res.states).real
        return {"means": {k: v / prep.units for k, v in sums.items()},
                "jumps": jumps, "seconds": seconds}

    @staticmethod
    def _check_trajectory_mean(prep, table, replay) -> Check:
        worst = max(float(np.abs(table[name] - replay["means"][name]).max())
                    for name in prep.ops)
        return Check("ensemble_is_trajectory_mean", worst <= 1e-9,
                     f"max |ensemble mean - mean of mcwf_trajectory(seed, j)| = "
                     f"{worst:.2e} <= 1e-9 over {prep.units} trajectories")

    @staticmethod
    def _check_jump_records(prep, replay, n0: int) -> Check:
        grid = prep.config.grid
        n_chan = len(prep.model.collapse)
        bad = []
        for j, record in enumerate(replay["jumps"]):
            times = [t for t, _ in record]
            if (len(record) > n0 or any(b <= a for a, b in zip(times, times[1:]))
                    or any(not grid.t_start < t <= grid.t_end for t in times)
                    or any(not 0 <= c < n_chan for _, c in record)):
                bad.append(j)
        counts = np.bincount([len(r) for r in replay["jumps"]], minlength=n0 + 1)
        return Check("jump_records", not bad,
                     f"at most N0 = {n0} jumps at strictly increasing times in "
                     f"(t_start, t_end]; jump-count histogram {counts.tolist()}"
                     + (f"; bad trajectories {bad[:5]}" if bad else ""))

    @staticmethod
    def _check_master_equation(config, table, bare, psi0, survival, states, top,
                               band) -> list:
        import oracle
        n = config.n_traj
        rhos = oracle.master_equation(bare, psi0, table["t"])
        checks = []
        worst = 0.0
        for name in ("P20", "P11"):
            vec = bare.product_state(PROJECTOR_PRESETS[name])
            exact = np.einsum("i,nij,j->n", vec.conj(), rhos, vec).real
            amp = np.abs(states @ vec[top].conj()) ** 2
            p_cond = np.clip(amp / np.maximum(survival, 1e-300), 0.0, 1.0)
            allowed = np.maximum(0.02, band * p_cond)
            worst = max(worst, float((np.abs(table[name] - exact) / allowed).max()))
        checks.append(Check(
            "populations_vs_master_equation", worst <= 1.0,
            f"P20, P11 against expm of the Lindblad superoperator: worst "
            f"deviation {worst:.2f} of max(0.02, DKW band x P_cond)"))

        left = bare.site_dim ** config.bipartition_cut
        right = bare.site_dim ** (bare.n_sites - config.bipartition_cut)
        exact_neg = np.array([oracle.negativity(bare.embed(r), left, right)
                              for r in rhos])
        tol = max(NEGATIVITY_TOL, NEGATIVITY_TOL * math.sqrt(NEGATIVITY_TOL_TRAJ / n))
        dev = float(np.abs(table["negativity"] - exact_neg).max())
        checks.append(Check(
            "negativity_vs_master_equation", dev <= tol,
            f"max |N(rho_bar) - N(rho)| = {dev:.4f} <= {tol:.4f} "
            f"(peak N(rho) = {exact_neg.max():.4f})"))
        return checks

    # -- traced-run probes --------------------------------------------------

    def bare_ensemble(self, prep: Prepared) -> float:
        """The round's trajectories and seeds without observables or ρ̄."""
        config, model = prep.config, prep.model
        start = time.perf_counter()
        mcwf_ensemble(model.h, model.collapse, prep.psi0, config.grid,
                      n_traj=prep.units, master_seed=config.master_seed)
        return time.perf_counter() - start

    def probes(self, prep: Prepared, replay: dict) -> dict:
        config, model = prep.config, prep.model
        # trajectory time against jump count: |k-, G, ...> makes at most k jumps
        points = []
        n_sites = config.model.n_sites
        for k in range(config.max_excitation + 1):
            labels = ("G" if k == 0 else f"{k}-",) + ("G",) * (n_sites - 1)
            psi = model.space.reduce_vector(
                prepare_product_polariton_state(labels, config.model))
            for j in range(self.fit_repeats):
                start = time.perf_counter()
                res = mcwf_trajectory(model.h, model.collapse, psi, config.grid,
                                      (config.master_seed, j))
                points.append((len(res.jumps), 1e3 * (time.perf_counter() - start)))
        slope, intercept = np.polyfit([p[0] for p in points], [p[1] for p in points], 1)
        n_jumps = sum(len(r) for r in replay["jumps"])
        return {
            "dynamics.traj_ms": 1e3 * float(np.median(replay["seconds"])),
            "dynamics.jumps_per_traj": n_jumps / len(replay["jumps"]),
            "dynamics.stride_ms": float(intercept),
            "dynamics.ms_per_jump": float(slope),
            "model.basis_dim": model.dim,
        }


# ---------------------------------------------------------------------------
# critical-damping sweep
# ---------------------------------------------------------------------------

class SweepWorkload:
    """The ``fig4`` damping sweep: ``gamma_c_curve`` plus its files."""

    preset = "fig4"
    host_parts = ("python", "small_numpy", "gemm")          # see hostspeed

    def trace_targets(self, full: bool) -> list:
        engine = [(critical, "lindblad_evolve", "dynamics.lindblad_evolve",
                   "dynamics.lindblad")]
        if not full:
            return engine
        return engine + [
            (critical, "classify_point", "critical.classify_point", "critical.point"),
            (critical, "build_reduced_model", "model.build_reduced_model", "model.build"),
            (ProjectorSpec, "operator", "observables.ProjectorSpec.operator",
             "observables.projector_build"),
            (critical, "negativity_series", "observables.negativity_series",
             "observables.negativity"),
            (observables, "negativity", "observables.negativity", "observables.negativity"),
            (ReducedSpace, "embed_density", "model.ReducedSpace.embed_density",
             "observables.negativity"),
            (critical, "classify_series", "observables.classify_series",
             "observables.classify"),
        ]

    def setup(self, seed: int, smoke: bool) -> Prepared:
        config = load_preset(self.preset).with_overrides(master_seed=seed).sweep
        hop = config.j_values[0]
        params = config.model_for(hop, config.gamma_ratios[0] * hop)
        model = build_reduced_model(params, max_exc=2)
        psi0 = model.space.reduce_vector(
            prepare_product_polariton_state(("2-", "G"), params))
        ops = {"P11": ProjectorSpec(preset="P11").operator(params, model.space)}
        n_points = len(config.j_values) * len(config.gamma_ratios)
        return Prepared(config=config, model=model, psi0=psi0, ops=ops, units=n_points,
                        info={"preset": self.preset, "points": n_points,
                              "n_samples": config.grid_for(params).n_samples,
                              "dim": model.dim, "master_seed": seed})

    def run_round(self, prep: Prepared, out_dir: Path, tracer) -> None:
        with tracer.span("critical.gamma_c_curve", "critical.point"):
            result = critical.gamma_c_curve(prep.config)
        with tracer.span("runner.write_criticality_outputs", "runner.write"):
            runner.write_criticality_outputs(result, out_dir)

    def _points(self, config):
        for hop in config.j_values:
            for ratio in config.gamma_ratios:
                yield hop, ratio * hop

    def check(self, prep: Prepared, out_dir: Path) -> tuple[list, dict]:
        import oracle       # imported here so that set-up time leaves it out
        config = prep.config
        rows = _read_csv(out_dir / f"{config.output_name}_rows.csv")
        sidecar = json.loads((out_dir / f"{config.output_name}.json").read_text())
        checks = []

        worst_trace = worst_eig = 0.0
        worst_pinned = max_dev = 0.0
        pinned_tol = 0.0
        for (hop, gamma), row in zip(self._points(config), rows, strict=True):
            params = config.model_for(hop, gamma)
            model = build_reduced_model(params, max_exc=2)
            psi0 = model.space.reduce_vector(
                prepare_product_polariton_state(("2-", "G"), params))
            grid = config.grid_for(params)
            rhos = lindblad_evolve(model.h, model.collapse,
                                   np.outer(psi0, psi0.conj()), grid)
            worst_trace = max(worst_trace, float(np.abs(
                np.einsum("nii->n", rhos).real - 1.0).max()))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rhos).min()))

            bare = oracle.bare_model(2, params.n_max, hop, gamma, 2, g=params.g[0],
                                     omega_a=params.omega_a, omega_c=params.omega_c)
            start = bare.product_state(("2-", "G"))
            vec = bare.product_state(("1-", "1-"))
            exact = oracle.master_equation(bare, start, grid.times)
            pinned = np.einsum("i,nij,j->n", vec.conj(), exact, vec).real
            sup_norm = float(np.linalg.norm(oracle.superoperator(bare), 2))
            tol = 2.0 * float(rk4_state_bound(sup_norm, grid.dt, grid.t_end))
            pinned_tol = max(pinned_tol, tol)
            dev = abs(float(row["max_pinned"]) - float(pinned.max()))
            max_dev = max(max_dev, dev)
            worst_pinned = max(worst_pinned, dev / tol)
            if abs(float(row["hop"]) - hop) > 1e-12 or abs(float(row["gamma"]) - gamma) > 1e-12:
                worst_pinned = math.inf

        checks.append(Check(
            "rho_unit_trace_psd", worst_trace <= 1e-9 and worst_eig >= -1e-9,
            f"{len(rows)} points: max |tr rho - 1| = {worst_trace:.1e}, "
            f"min eigenvalue = {worst_eig:.1e} (limits 1e-9)"))
        checks.append(Check(
            "max_pinned_vs_master_equation", worst_pinned <= 1.0,
            f"max_pinned of every row against expm of the superoperator: max "
            f"|deviation| {max_dev:.1e}, worst {worst_pinned:.2f} of the 4th-order "
            f"bound ({pinned_tol:.1e})"))
        slope = sidecar.get("slope")
        checks.append(Check(
            "slope_in_criterion_8_range", slope is not None and 0.7 <= slope <= 1.3,
            f"gamma_c slope = {slope} in [0.7, 1.3]"))
        return checks, {}

    def bare_ensemble(self, prep: Prepared):
        return None                      # no trajectories in this workload

    def probes(self, prep: Prepared, replay: dict) -> dict:
        return {"model.basis_dim": prep.model.dim}


WORKLOADS = {
    "pair_trapping": ScenarioWorkload("fig2", n_traj=200, smoke_n_traj=16,
                                      fit_repeats=10, smoke_t_end=None, master_eq=True,
                                      host_parts=("python", "small_numpy")),
    "four_site": ScenarioWorkload("n4", n_traj=6, smoke_n_traj=2, fit_repeats=2,
                                  smoke_t_end=300.0, master_eq=False),
    "gamma_c_sweep": SweepWorkload(),
}
