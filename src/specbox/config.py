"""Run configuration: one JSON document drives every subcommand.

Complex numbers are encoded as [re, im] pairs throughout; measures use the
literal form {"atoms": [[x, w], ...], "pieces": [{"interval": [a, b],
"poly": [c0, c1, ...]}, ...]}.  All validation errors carry the offending
field path.

The parameter types the numerical layers take (``CouplingParams``,
``EpsilonLadder`` and ``Tolerances``) are defined here, in the module every
command executes first, so that parsing a config executes none of those
layers; ``resolvent`` and ``boundary`` import them from here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blackbox import BlackBoxModel, SystemBlock
from .errors import ConfigError, DomainError, InvalidModelError
from .measures import SpectralMeasure

__all__ = [
    "CouplingParams",
    "EpsilonLadder",
    "Tolerances",
    "RunConfig",
    "load_config",
    "build_run_config",
]

_FORMATS = ("json", "csv")

#: largest grid accepted, checked before anything is allocated
MAX_GRID_POINTS = 1_000_000
#: most oracle quadrature nodes per density piece, checked before anything is
#: allocated: the n-point Gauss-Legendre rule is an n x n eigensolve (at
#: n = 2000 about 1.15 s and 31 MB on one BLAS thread), the largest cost of
#: ``scenario remark2``, which applies H through its bond blocks
MAX_NODES_PER_PIECE = 2000
#: most rungs a ladder may have, checked before any rung is allocated
MAX_RUNGS = 10_000


@dataclass(frozen=True)
class CouplingParams:
    """The real coupling pair; ``lam`` scales the left bond, ``nu`` the right.

    Either field may be an array of bond strengths (the quadrature nodes of
    the averaged transform); it then broadcasts against the evaluation points.
    """

    lam: float | np.ndarray
    nu: float | np.ndarray

    def __post_init__(self):
        # D(z) needs lam**2 and nu**2, so the squares must be finite as well;
        # an overflowing square is the error here, not a numpy warning.  A
        # Python float squares without numpy (an overflow reads inf)
        if not all(math.isfinite(x * x) if type(x) is float else _finite_square(x)
                   for x in (self.lam, self.nu)):
            raise DomainError("coupling parameters must be finite with finite squares")


def _finite_square(x) -> bool:
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.square(np.asarray(x, dtype=float))).all())


@dataclass(frozen=True)
class Tolerances:
    """The thresholds every layer reads: ladder classification (div_tol,
    zero_tol), the dissipative sets (im_tol), the certificate floor on
    |D(E + i0)| (d_floor) and the quadrature duel (quad_tol)."""

    div_tol: float = 1e6
    zero_tol: float = 1e-6
    im_tol: float = 1e-8
    #: below this |D(E + i0)| the verdict is withheld rather than risked: the
    #: theory guarantees D != 0 but not a quantitative lower bound
    d_floor: float = 1e-8
    quad_tol: float = 1e-9


@dataclass(frozen=True)
class EpsilonLadder:
    """Geometric ladder eps_max * ratio^k clipped at eps_min."""

    eps_max: float = 1e-1
    eps_min: float = 1e-9
    ratio: float = 0.5

    def __post_init__(self):
        if not 0 < self.eps_min < self.eps_max:
            raise DomainError(
                f"need 0 < eps_min < eps_max, got ({self.eps_min}, {self.eps_max})"
            )
        if not 0 < self.ratio < 1:
            raise DomainError(f"ratio must be in (0, 1), got {self.ratio}")
        if self.eps_min / self.eps_max == 0:  # the log in _rungs would fail
            raise DomainError(
                f"eps_min / eps_max underflows to 0 for ({self.eps_min}, {self.eps_max})"
            )
        rungs = self._rungs()
        if rungs < 4:  # point_mass compares the last three steps
            raise DomainError("the ladder needs at least 4 rungs")
        if rungs > MAX_RUNGS:
            raise DomainError(f"the ladder may have at most {MAX_RUNGS} rungs, got {rungs}")

    def _rungs(self) -> int:
        return int(math.floor(math.log(self.eps_min / self.eps_max) / math.log(self.ratio))) + 1

    def epsilons(self) -> np.ndarray:
        return self.eps_max * self.ratio ** np.arange(self._rungs())


@dataclass
class RunConfig:
    model: BlackBoxModel | None = None
    coupling: CouplingParams = field(default_factory=lambda: CouplingParams(0.0, 0.0))
    grid: np.ndarray | None = None
    ladder: EpsilonLadder = field(default_factory=EpsilonLadder)
    nodes_per_piece: int = 400
    tolerances: Tolerances = field(default_factory=Tolerances)
    greens_im_z: float = 1e-2
    average_eps: float = 1e-3
    seed: int = 0
    out_format: str = "json"
    out_path: str | None = None

    def require_model(self) -> BlackBoxModel:
        if self.model is None:
            raise ConfigError("this command needs a model; pass --config", field="model")
        return self.model

    def require_grid(self) -> np.ndarray:
        if self.grid is None or len(self.grid) == 0:
            raise ConfigError("this command needs a grid", field="grid")
        return self.grid


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", field=where)
    if not math.isfinite(value):
        raise ConfigError("number must be finite", field=where)
    return float(value)


def _complex_vector(raw, where: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("expected a nonempty list of [re, im] pairs", field=where)
    out = []
    for i, entry in enumerate(raw):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ConfigError("expected an [re, im] pair", field=f"{where}[{i}]")
        out.append(complex(_number(entry[0], f"{where}[{i}][0]"),
                           _number(entry[1], f"{where}[{i}][1]")))
    return np.array(out)


def _measure(raw, where: str) -> SpectralMeasure:
    if not isinstance(raw, dict):
        raise ConfigError("expected a measure object", field=where)
    atoms = raw.get("atoms", [])
    pieces = raw.get("pieces", [])
    if not isinstance(atoms, list) or not isinstance(pieces, list):
        raise ConfigError("atoms and pieces must be lists", field=where)
    parsed_pieces = []
    for i, piece in enumerate(pieces):
        pw = f"{where}.pieces[{i}]"
        if not isinstance(piece, dict) or "interval" not in piece or "poly" not in piece:
            raise ConfigError("piece needs 'interval' and 'poly'", field=pw)
        interval = piece["interval"]
        if not (isinstance(interval, list) and len(interval) == 2):
            raise ConfigError("interval must be [a, b]", field=f"{pw}.interval")
        a = _number(interval[0], f"{pw}.interval[0]")
        b = _number(interval[1], f"{pw}.interval[1]")
        if not isinstance(piece["poly"], list):
            raise ConfigError("poly must be a list of coefficients", field=f"{pw}.poly")
        poly = [_number(c, f"{pw}.poly[{j}]") for j, c in enumerate(piece["poly"])]
        parsed_pieces.append(([a, b], poly))
    parsed_atoms = []
    for i, atom in enumerate(atoms):
        aw = f"{where}.atoms[{i}]"
        if not (isinstance(atom, list) and len(atom) == 2):
            raise ConfigError("atom must be [position, weight]", field=aw)
        parsed_atoms.append((_number(atom[0], f"{aw}[0]"), _number(atom[1], f"{aw}[1]")))
    try:
        return SpectralMeasure(atoms=parsed_atoms, pieces=parsed_pieces)
    except InvalidModelError as exc:
        raise ConfigError(str(exc), field=where) from exc


def _model(raw, where: str = "model") -> BlackBoxModel:
    if not isinstance(raw, dict):
        raise ConfigError("expected a model object", field=where)
    for key in ("system", "reservoir_left", "reservoir_right"):
        if key not in raw:
            raise ConfigError(f"missing '{key}'", field=where)
    sysd = raw["system"]
    if not isinstance(sysd, dict) or "matrix" not in sysd:
        raise ConfigError("system needs a 'matrix'", field=f"{where}.system")
    rows = sysd["matrix"]
    if not isinstance(rows, list) or not rows:
        raise ConfigError("matrix must be a nonempty list of rows", field=f"{where}.system.matrix")
    mat = []
    for i, row in enumerate(rows):
        mat.append(_complex_vector(row, f"{where}.system.matrix[{i}]"))
        if len(row) != len(rows):
            raise ConfigError(f"the matrix is square: each row needs {len(rows)} entries",
                              field=f"{where}.system.matrix[{i}]")
    matrix = np.array(mat)
    delta_l = _complex_vector(sysd.get("delta_l"), f"{where}.system.delta_l")
    delta_r = _complex_vector(sysd.get("delta_r"), f"{where}.system.delta_r")
    try:
        block = SystemBlock(matrix, delta_l, delta_r)
        return BlackBoxModel(
            block,
            _measure(raw["reservoir_left"], f"{where}.reservoir_left"),
            _measure(raw["reservoir_right"], f"{where}.reservoir_right"),
        )
    except InvalidModelError as exc:
        raise ConfigError(str(exc), field=where) from exc


def _tolerances(raw: dict) -> Tolerances:
    values = {}
    for key, value in raw.items():
        if key not in Tolerances.__dataclass_fields__:
            raise ConfigError(f"unknown tolerance {key!r}", field=f"tolerances.{key}")
        values[key] = _number(value, f"tolerances.{key}")
        if values[key] <= 0:
            raise ConfigError("tolerance must be positive", field=f"tolerances.{key}")
    return Tolerances(**values)


def _grid(raw, where: str = "grid") -> np.ndarray:
    if isinstance(raw, dict) and "list" in raw:
        if not isinstance(raw["list"], list) or not 1 <= len(raw["list"]) <= MAX_GRID_POINTS:
            raise ConfigError(f"grid list must hold 1 to {MAX_GRID_POINTS} numbers",
                              field=f"{where}.list")
        return np.array([_number(v, f"{where}.list[{i}]") for i, v in enumerate(raw["list"])])
    if isinstance(raw, dict) and {"start", "stop", "points"} <= set(raw):
        start = _number(raw["start"], f"{where}.start")
        stop = _number(raw["stop"], f"{where}.stop")
        points = raw["points"]
        if not isinstance(points, int) or not 1 <= points <= MAX_GRID_POINTS:
            raise ConfigError(f"points must be an integer from 1 to {MAX_GRID_POINTS}",
                              field=f"{where}.points")
        if not math.isfinite(stop - start):
            raise ConfigError("stop - start overflows", field=where)
        return np.linspace(start, stop, points)
    raise ConfigError(
        "grid must be {'start','stop','points'} or {'list': [...]}", field=where
    )


def _grid_flag(text: str) -> dict:
    """The grid section that the CLI shorthand a:b:n stands for."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("grid flag must look like a:b:n", field="--grid")
    try:
        return {"start": float(parts[0]), "stop": float(parts[1]), "points": int(parts[2])}
    except ValueError as exc:
        raise ConfigError(f"bad grid flag: {exc}", field="--grid") from exc


def parse_grid_flag(text: str) -> np.ndarray:
    """CLI shorthand a:b:n."""
    return _grid(_grid_flag(text))


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", field="--config") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}", field="--config") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level must be an object", field="--config")
    return raw


def _section(doc: dict, name: str) -> dict:
    """A top-level section: {} when absent, an error when not an object."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object", field=name)
    return section


# flag -> (section, key) of the document field it overrides; --grid is apart
# because it replaces the whole grid section
_FLAG_FIELDS = {
    "lam": ("coupling", "lambda"),
    "nu": ("coupling", "nu"),
    "eps_min": ("ladder", "eps_min"),
    "eps_max": ("ladder", "eps_max"),
    "nodes": ("oracle", "nodes_per_piece"),
    "seed": (None, "seed"),
    "out_format": ("output", "format"),
    "out_path": ("output", "path"),
}


def build_run_config(raw: dict | None, overrides: dict | None = None) -> RunConfig:
    """Parse a config document after writing each given flag into the
    document field it overrides; flags left at None change nothing."""
    doc = dict(raw or {})
    for flag, value in (overrides or {}).items():
        if value is None:
            continue
        if flag == "grid":
            doc["grid"] = _grid_flag(value)
            continue
        section, key = _FLAG_FIELDS[flag]
        if section is None:
            doc[key] = value
        else:
            doc[section] = {**_section(doc, section), key: value}

    cfg = RunConfig()
    if "model" in doc:
        cfg.model = _model(doc["model"])
    if "grid" in doc:
        cfg.grid = _grid(doc["grid"])

    coupling = _section(doc, "coupling")
    try:
        cfg.coupling = CouplingParams(
            _number(coupling.get("lambda", 0.0), "coupling.lambda"),
            _number(coupling.get("nu", 0.0), "coupling.nu"),
        )
    except DomainError as exc:
        raise ConfigError(str(exc), field="coupling") from exc

    ladder = _section(doc, "ladder")
    try:
        cfg.ladder = EpsilonLadder(**{
            key: _number(ladder[key], f"ladder.{key}")
            for key in ("eps_max", "eps_min", "ratio") if key in ladder
        })
    except DomainError as exc:
        raise ConfigError(str(exc), field="ladder") from exc

    nodes = _section(doc, "oracle").get("nodes_per_piece", cfg.nodes_per_piece)
    if not isinstance(nodes, int) or not 2 <= nodes <= MAX_NODES_PER_PIECE:
        raise ConfigError(f"nodes_per_piece must be an integer from 2 to {MAX_NODES_PER_PIECE}",
                          field="oracle.nodes_per_piece")
    cfg.nodes_per_piece = nodes

    cfg.tolerances = _tolerances(_section(doc, "tolerances"))
    cfg.greens_im_z = _number(_section(doc, "greens").get("im_z", cfg.greens_im_z),
                              "greens.im_z")
    if cfg.greens_im_z == 0:
        raise ConfigError("im_z must be nonzero: z = E + i im_z stays off the real axis",
                          field="greens.im_z")
    cfg.average_eps = _number(_section(doc, "average").get("eps", cfg.average_eps),
                              "average.eps")
    if cfg.average_eps <= 0:
        raise ConfigError("eps must be > 0", field="average.eps")
    seed = doc.get("seed", cfg.seed)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed must be an integer", field="seed")
    cfg.seed = seed

    output = _section(doc, "output")
    cfg.out_format = output.get("format", cfg.out_format)
    if cfg.out_format not in _FORMATS:
        raise ConfigError(f"format must be one of {_FORMATS}", field="output.format")
    if output.get("path") is not None:
        cfg.out_path = str(output["path"])
    return cfg
