"""Run configuration: plain dataclasses with strict JSON round-tripping."""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
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
from .register import REGISTER_DIM
from .sparse import DENSE_EXP_LIMIT, MAX_DIM

PROFILE_KINDS = ("uniform", "gaussian", "point")

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
        for name in ("j_max", "grid_n"):
            _require_int(name, getattr(self, name))
        if self.mode not in (RAPIDITY_1D, GRID_3D):
            raise ConfigError(f"lattice mode must be one of {RAPIDITY_1D!r}, {GRID_3D!r}")
        if self.m <= 0:
            raise ConfigError(f"mass must be positive, got {_shown(self.m)}")
        # the translation route exponentiates the 16 M-dim single-oscillator
        # generator densely; this also keeps a huge j_max from being built
        modes = 2 * self.j_max + 1 if self.mode == RAPIDITY_1D else self.grid_n**3
        if REGISTER_DIM * modes > DENSE_EXP_LIMIT:
            raise ConfigError(f"the lattice has more than {DENSE_EXP_LIMIT // REGISTER_DIM} "
                              "modes; reduce j_max or grid_n")
        # e.g. delta_eta = 400: m sinh(j delta_eta) is inf, or its square overflows
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                finite = all(np.isfinite(p.as_vector()).all() for p in self.build().points)
            except OverflowError:
                finite = False
        if not finite:
            raise ConfigError("lattice momenta overflow a float; reduce m, delta_eta or grid_spacing")

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
    e0: float = 1.0
    boost_steps: int = 1
    displacement: tuple[float, float, float, float] = (0.3, 0.05, -0.1, 0.2)
    field_point: tuple[float, float, float, float] = (0.15, -0.3, 0.2, 0.4)
    n_values_single: tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    n_values_double: tuple[int, ...] = (2, 4, 8)
    matrix_check_n: int = 2

    def __post_init__(self):
        for name in ("seed", "boost_steps", "matrix_check_n"):
            _require_int(name, getattr(self, name))
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {_shown(self.seed)}")
        if self.profile.kind == "point" and not 0 <= self.profile.index < self.lattice.build().size:
            raise ConfigError("point profile index must lie on the lattice, "
                              f"got {_shown(self.profile.index)}")
        if self.boost_steps == 0:
            raise ConfigError("boost steps must be nonzero")
        if self.lattice.mode == RAPIDITY_1D and abs(self.boost_steps) > self.lattice.j_max:
            raise ConfigError("|boost_steps| > j_max empties the interior, "
                              f"got {_shown(self.boost_steps)}")
        _require_finite("e0", self.e0)
        for name in ("displacement", "field_point"):
            value = tuple(getattr(self, name))
            if len(value) != 4:
                raise ConfigError(f"{name} must be a 4-vector, got {_shown(value)}")
            _require_finite(name, *value)
            object.__setattr__(self, name, tuple(float(v) for v in value))
        for name in ("n_values_single", "n_values_double"):
            value = tuple(getattr(self, name))
            _require_int(name, *value)
            if len(value) == 0 or value[0] < 1 or list(value) != sorted(value):
                raise ConfigError(f"{name} must be ascending positive integers, "
                                  f"got {_shown(value)}")
            object.__setattr__(self, name, value)
        if not {8, 64} <= set(self.n_values_single):  # the quarter checks compare these
            raise ConfigError("n_values_single must contain 8 and 64, "
                              f"got {_shown(self.n_values_single)}")
        if self.matrix_check_n < 1:
            raise ConfigError(f"matrix_check_n must be >= 1, got {_shown(self.matrix_check_n)}")
        # the N-slot checks build (16 M)^N matrices on this lattice and on the
        # two-mode engine lattice; as 16 M >= 32, N >= 21 is past the cap
        # without forming the power
        factor = REGISTER_DIM * max(self.lattice.build().size, 2)
        n = self.matrix_check_n
        if n >= MAX_DIM.bit_length() or factor**n > MAX_DIM:
            raise ConfigError(f"(16 M)^N > {MAX_DIM} at 16 M = {factor}, N = {_shown(n)}; "
                              "reduce matrix_check_n or the lattice")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["displacement"] = list(self.displacement)
        out["field_point"] = list(self.field_point)
        out["n_values_single"] = list(self.n_values_single)
        out["n_values_double"] = list(self.n_values_double)
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
    for name in ("displacement", "field_point", "n_values_single", "n_values_double"):
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
