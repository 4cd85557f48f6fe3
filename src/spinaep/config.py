"""Flat key = value experiment configs.

The grammar is line-oriented UTF-8: one ``key = value`` pair per line, blank
lines and ``#`` comments ignored, repeated keys forming lists where a list is
expected. Unknown keys are rejected. The full grammar lives in
docs/config-format.md and is versioned through ``CONFIG_FORMAT_VERSION``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .errors import ConfigError
from .interaction import GroundStateConfig, Interaction, LocalTerm, canonical_support, preset_tfim
from .lattice import DEFAULT_QUBIT_CAP

CONFIG_FORMAT_VERSION = 1

_TERM_FIELDS = {"support", "classical", "quantum"}
_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep parameters; its field defaults are the config defaults."""

    model: str = "tfim"
    d: int = 1
    J: float = 1.0
    h_field: float = 0.5
    lam: float = 0.2
    c: float = 1.0
    beta: float = 2.0
    volumes: tuple[int, ...] = (1, 2)
    deltas: tuple[float, ...] = (0.15,)
    boundary: str = "all-up"
    boundary_periods: tuple[int, ...] | None = None
    boundary_cell: tuple[int, ...] | None = None
    h_ref: float | None = None  # None = per-volume entropy rate
    ts: tuple[float, ...] = (1.0,)
    rates: tuple[float, ...] = (0.25,)
    seed: int = 12345
    max_qubits: int = DEFAULT_QUBIT_CAP
    out: str | None = None
    terms: tuple[LocalTerm, ...] = ()
    warnings: tuple[str, ...] = field(default=(), compare=False)


class _Issues:
    def __init__(self) -> None:
        self.messages: list[str] = []

    def add(self, line: int | None, fieldname: str, message: str) -> None:
        where = f"line {line}: " if line is not None else ""
        self.messages.append(f"{where}{fieldname}: {message}")

    def raise_if_any(self) -> None:
        if self.messages:
            raise ConfigError("invalid config:\n" + "\n".join(self.messages))


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _checked(parse: Callable[[str], Any], ok: Callable[[Any], bool], requirement: str):
    """``parse``, then reject a value failing ``ok`` as ``<requirement>, got <value>``."""
    def rule(raw: str):
        value = parse(raw)
        if not ok(value):
            raise ValueError(f"{requirement}, got {value}")
        return value
    return rule


def _choice(requirement: str, *choices: str):
    def rule(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"{requirement}, got {raw!r}")
        return raw
    return rule


def _split(sep: str, parse: Callable[[str], Any]):
    """A ``sep``-separated list; each stripped item goes through ``parse``."""
    return lambda raw: tuple(parse(part.strip()) for part in raw.split(sep))


def _spin(raw: str) -> int:
    if raw in ("+1", "1"):
        return 1
    if raw == "-1":
        return -1
    raise ValueError(f"values must be +1 or -1, got {raw!r}")


def _h_ref(raw: str) -> float | None:
    return None if raw == "per-volume" else _number(raw)


def _matrix_entry(dim: int):
    """A ``row,col,re,im`` quadruple inside a ``dim`` x ``dim`` matrix."""
    def rule(chunk: str) -> tuple[int, int, float, float]:
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise ValueError(f"entries are row,col,re,im quadruples, got {chunk!r}")
        row, col, re_, im = _integer(parts[0]), _integer(parts[1]), _number(parts[2]), _number(parts[3])
        if not (0 <= row < dim and 0 <= col < dim):
            raise ValueError(f"entry ({row}, {col}) outside the {dim}x{dim} matrix")
        return row, col, re_, im
    return rule


@dataclass(frozen=True)
class _Key:
    attr: str  # the ExperimentConfig field the key sets
    rule: Callable[[str], Any]  # one raw value to its field value; ValueError carries the diagnostic
    repeated: bool = False  # repeated lines form a tuple instead of being rejected


# Every top-level key of the format. Defaults live on ExperimentConfig only;
# checks that involve more than one key are in parse_config.
_KEYS = {
    "model": _Key("model", _choice("must be 'tfim' or 'generic'", "tfim", "generic")),
    "d": _Key("d", _checked(_integer, lambda v: v >= 1, "must be >= 1")),
    "J": _Key("J", _number),
    "h_field": _Key("h_field", _number),
    "lambda": _Key("lam", _checked(_number, lambda v: 0 <= v < 1, "must lie in [0, 1)")),
    "c": _Key("c", _checked(_number, lambda v: v >= 0, "must be >= 0")),
    "beta": _Key("beta", _checked(_number, lambda v: v > 0, "must be > 0")),
    "volume": _Key("volumes", _checked(_integer, lambda v: v >= 0, "must be >= 0"), repeated=True),
    "delta": _Key("deltas", _checked(_number, lambda v: v > 0, "must be > 0"), repeated=True),
    "boundary": _Key("boundary", _choice("must be all-up, all-down, or cell", "all-up", "all-down", "cell")),
    "boundary_periods": _Key(
        "boundary_periods", _split(",", _checked(_integer, lambda v: v >= 1, "periods must be >= 1"))
    ),
    "boundary_cell": _Key("boundary_cell", _split(";", _spin)),
    "h_ref": _Key("h_ref", _h_ref),
    "t": _Key("ts", _number, repeated=True),
    "rate": _Key("rates", _checked(_number, lambda v: v >= 0, "must be >= 0"), repeated=True),
    "seed": _Key("seed", _checked(_integer, lambda v: 0 <= v <= _U64_MAX, "must fit in an unsigned 64-bit integer")),
    "max_qubits": _Key("max_qubits", _checked(_integer, lambda v: v >= 1, "must be >= 1")),
    "out": _Key("out", str),
}


def _parse_term(idx: int, entry: dict[str, tuple[str, int]], d: int, issues: _Issues) -> LocalTerm | None:
    """One ``term.<idx>.*`` block, or ``None`` once its first problem is in ``issues``."""
    if "support" not in entry or "classical" not in entry:
        issues.add(next(iter(entry.values()))[1], f"term.{idx}", "needs support and classical fields")
        return None
    part = "support"  # the field a ValueError below belongs to
    try:
        support = _split(";", _split(",", _integer))(entry["support"][0])
        if any(len(s) != d for s in support):
            raise ValueError(f"sites must have dimension {d}")
        support = canonical_support(support)
        part = "classical"
        classical = tuple(_number(v) for v in entry["classical"][0].replace(",", " ").split())
        dim = 2 ** len(support)
        if len(classical) != dim:
            raise ValueError(f"need {dim} entries for {len(support)} sites, got {len(classical)}")
        quantum = np.zeros((dim, dim), dtype=complex)
        if "quantum" in entry:
            part = "quantum"
            for row, col, re_, im in _split(";", _matrix_entry(dim))(entry["quantum"][0]):
                quantum[row, col] += re_ + 1j * im
        # all that LocalTerm checks beyond the above is that the quantum part is Hermitian
        return LocalTerm(support=support, classical_part=classical, quantum_part=quantum)
    except ValueError as exc:
        issues.add(entry[part][1], f"term.{idx}.{part}", str(exc))
        return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config document.

    Raises :class:`ConfigError` with one diagnostic per problem; parse-time
    warnings are collected on the returned config.
    """
    issues = _Issues()
    raws: dict[str, list[tuple[str, int]]] = {}
    term_fields: dict[int, dict[str, tuple[str, int]]] = {}

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            issues.add(lineno, "syntax", f"expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _KEYS:
            if key in raws and not _KEYS[key].repeated:
                issues.add(lineno, key, "repeated; this key takes a single value")
            raws.setdefault(key, []).append((value, lineno))
        elif key.startswith("term."):
            parts = key.split(".")
            try:
                idx = int(parts[1]) if len(parts) == 3 and parts[2] in _TERM_FIELDS else None
            except ValueError:
                idx = None
            if idx is None:
                issues.add(lineno, key, "term keys must look like term.<index>.<support|classical|quantum>")
                continue
            entry = term_fields.setdefault(idx, {})
            if parts[2] in entry:
                issues.add(lineno, key, "repeated term field")
            entry[parts[2]] = (value, lineno)
        else:
            issues.add(lineno, key, "unknown key")
    issues.raise_if_any()

    parsed: dict[str, list[tuple[Any, int]]] = {}
    for key, entries in raws.items():
        for raw, line in entries:
            try:
                value = _KEYS[key].rule(raw)
            except ValueError as exc:
                issues.add(line, key, str(exc))
                continue
            parsed.setdefault(key, []).append((value, line))
    # a key that is absent, or none of whose values parsed, keeps its default
    config = ExperimentConfig(**{
        _KEYS[key].attr: tuple(v for v, _ in entries) if _KEYS[key].repeated else entries[0][0]
        for key, entries in parsed.items()
    })

    def line_of(key: str) -> int | None:
        return raws[key][0][1] if key in raws else None

    volumes = parsed.get("volume", [])
    for (a, _), (b, line) in zip(volumes, volumes[1:]):
        if b <= a:
            issues.add(line, "volume", f"volumes must be strictly increasing, got {list(config.volumes)}")
            break

    if config.boundary == "cell":
        if "boundary_periods" not in raws or "boundary_cell" not in raws:
            issues.add(
                line_of("boundary"), "boundary", "boundary = cell needs boundary_periods and boundary_cell"
            )
        elif config.boundary_periods is not None:
            periods, cell = config.boundary_periods, config.boundary_cell
            if len(periods) != config.d:
                issues.add(
                    line_of("boundary_periods"), "boundary_periods", f"need {config.d} periods, got {len(periods)}"
                )
            elif cell is not None and len(cell) != math.prod(periods):
                issues.add(
                    line_of("boundary_cell"), "boundary_cell",
                    f"need {math.prod(periods)} values for the cell, got {len(cell)}",
                )
    else:
        for key in ("boundary_periods", "boundary_cell"):
            if key in raws:
                issues.add(line_of(key), key, "only meaningful with boundary = cell")

    terms: list[LocalTerm] = []
    warnings: list[str] = []
    # an invalid model has its diagnostic already; checks against either model would add noise
    model = config.model if "model" in parsed or "model" not in raws else None
    if model == "tfim":
        if term_fields:
            first = term_fields[min(term_fields)]
            issues.add(next(iter(first.values()))[1], "term", "term definitions require model = generic")
        if config.d != 1:
            issues.add(line_of("d"), "d", "the tfim preset is one-dimensional")
    elif model == "generic":
        if not term_fields:
            issues.add(None, "term", "model = generic needs at least one term.<index>.* block")
        for idx in sorted(term_fields):
            term = _parse_term(idx, term_fields[idx], config.d, issues)
            if term is not None:
                terms.append(term)
        if "lambda" in raws and terms and not any(t.quantum_part.any() for t in terms):
            warnings.append("lambda is set but no generic term carries a quantum part")

    issues.raise_if_any()
    return replace(config, terms=tuple(terms), warnings=tuple(warnings))


def override(config: ExperimentConfig, key: str, raw: str) -> ExperimentConfig:
    """``config`` with the single-valued ``key`` set from ``raw`` by that key's config rule."""
    spec = _KEYS[key]
    try:
        return replace(config, **{spec.attr: spec.rule(raw)})
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def build_boundary(config: ExperimentConfig) -> GroundStateConfig:
    """The configured boundary configuration outside the volume."""
    if config.boundary != "cell":
        return GroundStateConfig.uniform(config.d, +1 if config.boundary == "all-up" else -1)
    cell_sites = itertools.product(*(range(p) for p in config.boundary_periods))
    return GroundStateConfig(
        periods=config.boundary_periods, cell_values=dict(zip(cell_sites, config.boundary_cell))
    )


def build_interaction(config: ExperimentConfig) -> Interaction:
    """Materialize the configured model as an interaction."""
    if config.model == "tfim":
        return preset_tfim(config.J, config.h_field, config.lam, c=config.c)
    return Interaction(terms=config.terms, lam=config.lam, c=config.c)
