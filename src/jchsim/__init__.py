"""Dissipative Jaynes-Cummings-Hubbard cavity arrays.

Quantum-trajectory and master-equation dynamics of coupled atom-cavity
sites in the polariton picture: photon-blockade-protected states, loss
triggered population transfer, and inter-site entanglement negativity.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, IntegratorError, JchsimError, NotHermitianError,
                     SizeError, TruncationError)
from .linalg import TensorDims, kron, partial_transpose
from .model import (HoppingCoefficients, ModelParams, PolaritonLabel, ReducedModel,
                    ReducedSpace, SiteOperatorSet, build_full_hamiltonian,
                    build_reduced_model, collapse_operators,
                    creation_in_polariton_basis, dressed_basis_matrix, dressed_state,
                    excitation_basis, hopping_coefficients, mixing_angle,
                    polariton_energy, prepare_product_polariton_state,
                    site_operators, total_excitation_operator,
                    transform_to_dressed_basis)
from .dynamics import (BACKEND, ConditionalBranch, EnsembleResult, TimeGrid,
                       TrajectoryResult, lindblad_evolve, mcwf_ensemble,
                       mcwf_trajectory, no_jump_branch)
from .observables import (PROJECTOR_PRESETS, PeakClassification, PeakReport,
                          ProjectorSpec, block_negativity, blockade_beat_period,
                          classify_series, find_peaks, negativity, negativity_series,
                          recommended_spacing, reduced_bipartition)
from .config import (CriticalitySweepConfig, ScenarioConfig, config_content_hash,
                     load_scenario_config, load_sweep_config,
                     scenario_from_mapping, sweep_from_mapping)
from .critical import (CriticalityEstimate, CriticalityResult, CriticalityRow,
                       classify_point, estimate_critical_gamma, gamma_c_curve)
from .runner import ScenarioRunResult, run_scenario, write_criticality_outputs
from .presets import PRESET_NAMES, PresetBundle, load_preset
from .checks import CheckItem, CheckReport, SUITE_NAMES, run_suite
