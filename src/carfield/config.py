"""Run configuration: plain dataclasses with strict JSON round-tripping."""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateVacuumError, PreconditionError
from .modes import (
    GRID_3D,
    RAPIDITY_1D,
    MomentumLattice,
    VacuumProfile,
    build_lattice,
    gaussian_profile,
    point_profile,
    uniform_profile,
)
from .noscillator import MATRIX_CHECK_N
from .register import REGISTER_DIM
from .sparse import MAX_DIM
from .spinors import dot_point, row_norms

PROFILE_KINDS = ("uniform", "gaussian", "point")

# the most lattice modes M for which the report's N-slot matrices fit:
# (16 M)^N <= MAX_DIM at N = MATRIX_CHECK_N
MAX_MODES = int(MAX_DIM ** (1 / MATRIX_CHECK_N)) // REGISTER_DIM

# the largest rapidity asinh(|p|/m) a lattice may reach: rounding in the boost
# residuals grows like e^(2 eta) and meets their 1e-12 tolerance near eta = 4
# (CONVENTIONS.md, "Rapidity bound")
MAX_RAPIDITY = 3.6

# the largest energy sqrt(m^2 + |p|^2) a lattice may reach: the dimensionful
# spinor.dirac_kernel residual grows like eps E and meets its absolute 1e-12
# tolerance near E = 130 (CONVENTIONS.md, "Energy bound")
MAX_ENERGY = 64.0

# a rejected value is echoed cut to a few dozen characters, so that the
# error stays one short line whatever the config holds
_SHORT = reprlib.Repr()
_SHORT.maxlong = _SHORT.maxstring = _SHORT.maxother = 20
_shown = _SHORT.repr


def _require_finite(name: str, *values) -> None:
    """Reject non-numbers and NaN or inf: a NaN residual slips through max()."""
    for v in values:
        try:
            finite = not isinstance(v, bool) and isinstance(v, numbers.Real) and math.isfinite(v)
        except OverflowError:  # an integer past the float range
            finite = False
        if not finite:
            raise ConfigError(f"{name} must be a finite number, got {_shown(v)}")


def _require_int(name: str, *values) -> None:
    """Reject non-integers, bool included: true would otherwise run as 1."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{name} must be an integer, got {_shown(v)}")


@dataclass(frozen=True)
class LatticeConfig:
    mode: str = RAPIDITY_1D
    m: float = 1.0
    j_max: int = 6
    delta_eta: float = 0.4
    grid_n: int = 2
    grid_spacing: float = 1.0

    def __post_init__(self):
        for name in ("m", "delta_eta", "grid_spacing"):
            _require_finite(name, getattr(self, name))
            # an integer past int64 would reach numpy's cosh as an object
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("j_max", "grid_n"):
            _require_int(name, getattr(self, name))
        if self.mode not in (RAPIDITY_1D, GRID_3D):
            raise ConfigError(f"lattice mode must be one of {RAPIDITY_1D!r}, {GRID_3D!r}")
        if self.m <= 0:
            raise ConfigError(f"mass must be positive, got {_shown(self.m)}")
        # checked before a huge j_max is built; the translation generator is
        # diagonal, so its exponential takes the diagonal rule and no dense
        # exponential of a 16 M-dim matrix ever runs
        modes = 2 * self.j_max + 1 if self.mode == RAPIDITY_1D else self.grid_n**3
        if modes > MAX_MODES:
            raise ConfigError(f"the lattice has more than {MAX_MODES} modes; "
                              "reduce j_max or grid_n")
        # e.g. delta_eta = 400: m sinh(j delta_eta) is inf, or its square overflows
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                momenta = self.build().momenta
            except PreconditionError:
                # a non-finite entry, or an on-shell check whose m^2 overflows
                raise ConfigError("lattice momenta overflow a float; "
                                  "reduce m, delta_eta or grid_spacing") from None
            edge = float(np.max(np.arcsinh(row_norms(momenta[:, 1:]) / self.m)))
        if not edge <= MAX_RAPIDITY:
            raise ConfigError(f"the lattice reaches rapidity {edge:.3g}, past {MAX_RAPIDITY}; "
                              "reduce j_max, delta_eta or grid_spacing")
        energy = float(np.max(momenta[:, 0]))
        if not energy <= MAX_ENERGY:
            raise ConfigError(f"the lattice reaches energy {energy:.3g}, past {MAX_ENERGY:g}; "
                              "reduce m, j_max, delta_eta or grid_spacing")

    def build(self) -> MomentumLattice:
        return build_lattice(
            self.mode,
            self.m,
            j_max=self.j_max,
            delta_eta=self.delta_eta,
            grid_n=self.grid_n,
            grid_spacing=self.grid_spacing,
        )


@dataclass(frozen=True)
class ProfileConfig:
    kind: str = "gaussian"
    width: float = 1.0
    center: float = 0.0
    index: int = 0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ConfigError(f"profile kind must be one of {PROFILE_KINDS}")
        for name in ("width", "center"):
            _require_finite(name, getattr(self, name))
        _require_int("index", self.index)
        if self.width <= 0:
            raise ConfigError(f"profile width must be positive, got {_shown(self.width)}")

    def build(self, lattice: MomentumLattice) -> VacuumProfile:
        if self.kind == "uniform":
            return uniform_profile(lattice)
        if self.kind == "gaussian":
            return gaussian_profile(lattice, width=self.width, center=self.center)
        return point_profile(lattice, self.index)


@dataclass(frozen=True)
class RunConfig:
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    seed: int = 7
    boost_steps: int = 1
    displacement: tuple[float, float, float, float] = (0.3, 0.05, -0.1, 0.2)
    field_point: tuple[float, float, float, float] = (0.15, -0.3, 0.2, 0.4)

    def __post_init__(self):
        for name in ("seed", "boost_steps"):
            _require_int(name, getattr(self, name))
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {_shown(self.seed)}")
        lattice = self.lattice.build()
        if self.profile.kind == "point" and not 0 <= self.profile.index < lattice.size:
            raise ConfigError("point profile index must lie on the lattice, "
                              f"got {_shown(self.profile.index)}")
        # a Gaussian far off the lattice underflows to 0 on every mode, and the
        # report would stop at the first suite that builds the vacuum
        try:
            self.profile.build(lattice)
        except DegenerateVacuumError as exc:
            raise ConfigError("the vacuum profile is identically zero on this lattice; "
                              "widen it or move its center") from exc
        if self.boost_steps == 0:
            raise ConfigError("boost steps must be nonzero")
        if self.lattice.mode == RAPIDITY_1D and abs(self.boost_steps) > self.lattice.j_max:
            raise ConfigError("|boost_steps| > j_max empties the interior, "
                              f"got {_shown(self.boost_steps)}")
        for name in ("displacement", "field_point"):
            value = tuple(getattr(self, name))
            if len(value) != 4:
                raise ConfigError(f"{name} must be a 4-vector, got {_shown(value)}")
            _require_finite(name, *value)
            object.__setattr__(self, name, tuple(float(v) for v in value))
        # with y.p = 0 on every mode the translation is the identity, and the
        # checks of its action would compare a state or operator with itself
        if not dot_point(lattice.momenta, self.displacement).any():
            raise ConfigError("the displacement moves no lattice mode: y.p = 0 on every mode")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["displacement"] = list(self.displacement)
        out["field_point"] = list(self.field_point)
        return out


def _from_mapping(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {_shown(sorted(unknown))}")
    return cls(**data)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
    data = dict(data)
    lattice = _from_mapping(LatticeConfig, data.pop("lattice", {}), "lattice")
    profile = _from_mapping(ProfileConfig, data.pop("profile", {}), "profile")
    for name in ("displacement", "field_point"):
        if name in data:
            if not isinstance(data[name], (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {type(data[name]).__name__}")
            data[name] = tuple(data[name])
    allowed = {f.name for f in fields(RunConfig)} - {"lattice", "profile"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {_shown(sorted(unknown))}")
    return RunConfig(lattice=lattice, profile=profile, **data)


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        # str(exc) repeats the path
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} cannot be parsed as JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the int-to-str digit limit
        raise ConfigError(f"config file {path} holds an integer of too many digits") from exc
    except RecursionError as exc:
        raise ConfigError(f"config file {path} nests deeper than the JSON decoder can") from exc
    return config_from_dict(data)


def default_config() -> RunConfig:
    return RunConfig()
