"""Oscillator representation of the free fermionic field on momentum lattices.

The quantization lives on N exchangeable copies of a single-oscillator
space (lattice modes tensored with a 16-dim ladder register).  Canonical
anticommutators close on central elements instead of numbers, and vacuum
matrix elements of smeared operator products approach the usual Fock
determinants as N grows.  The package builds all of this as explicit
sparse matrices (plus an N-independent set-partition expansion), and ships
residual check suites with a CLI harness.
"""

from .config import LatticeConfig, ProfileConfig, RunConfig, default_config, load_config
from .modes import (
    MomentumLattice,
    SingleOscillatorSpace,
    VacuumProfile,
    build_lattice,
    gaussian_profile,
    grid_lattice,
    point_profile,
    rapidity_lattice,
    restricted_lattice,
    uniform_profile,
)
from .noscillator import (
    NRegister,
    OpSpec,
    determinant_limit_convergence,
    vacuum_matrix_element,
)
from .register import JWRegister, build_register
from .suites import SUITE_ORDER, run_report, run_suite

__version__ = "0.1.0"

__all__ = [
    "JWRegister",
    "LatticeConfig",
    "MomentumLattice",
    "NRegister",
    "OpSpec",
    "ProfileConfig",
    "RunConfig",
    "SingleOscillatorSpace",
    "SUITE_ORDER",
    "VacuumProfile",
    "build_lattice",
    "build_register",
    "default_config",
    "gaussian_profile",
    "grid_lattice",
    "load_config",
    "point_profile",
    "rapidity_lattice",
    "restricted_lattice",
    "run_report",
    "run_suite",
    "determinant_limit_convergence",
    "uniform_profile",
    "vacuum_matrix_element",
    "__version__",
]
