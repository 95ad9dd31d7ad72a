"""Flat key-value run configuration with strict key checking.

The format is one ``section.key = value`` assignment per line, ``#`` starts
a comment, blank lines are ignored.  Sections: ``exp.`` for hardware,
``src.`` for fixed source parameters (``_b`` suffix for the second party),
``opt.`` for optimization settings, ``budget.`` for failure probabilities
and ``run.`` for the method, the pairing-stage mode and the output path.
Unknown keys are rejected with the offending line number.

The ``exp.``, ``src.`` and ``budget.`` sections, the search keys of
``opt.``, ``run.method`` and ``run.zigzag`` build one OptimizationProblem;
only keys that are set are passed, so every default is the dataclass's.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

from .budget import SecurityBudget
from .channel import ExperimentalParams, SourceParams
from .optimizer import OptimizationProblem

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_assignments"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_TYPES = {"float": float, "int": int, "str": str}
_EXP_KEYS = {f.name: _TYPES[f.type] for f in fields(ExperimentalParams)}
_EXP_REQUIRED = frozenset(f.name for f in fields(ExperimentalParams) if f.default is MISSING)
_SRC_KEYS = {f.name: float for f in fields(SourceParams)}
_SRC_SIDE = tuple(name for name in _SRC_KEYS if not name.endswith("_b"))
_OPT_KEYS = {
    "mode": str, "restarts": int, "max_evals": int, "seed": int,
    "distances": str, "delta_L": float,
}
_BUDGET_KEYS = {f.name: float for f in fields(SecurityBudget)}
_RUN_KEYS = {"method": str, "zigzag": str, "out": str}

_SECTIONS = {
    "exp": _EXP_KEYS,
    "src": _SRC_KEYS,
    "opt": _OPT_KEYS,
    "budget": _BUDGET_KEYS,
    "run": _RUN_KEYS,
}


@dataclass
class RunConfig:
    """Parsed configuration: the search problem (``problem.x0`` is the fixed
    source, None when only optimization is set up), the scan grid, which
    keeps the configured arms' L_A - L_B, and the output path."""

    problem: OptimizationProblem
    distances: tuple[float, ...]
    out: str | None


def _assignment(text: str, where: str) -> tuple[str, str]:
    """Split one ``section.key = value`` and check its key; ``where`` prefixes errors."""
    if "=" not in text:
        raise ConfigError(f"{where}expected 'section.key = value', got {text!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if "." not in key:
        raise ConfigError(f"{where}key {key!r} is missing its section prefix")
    section, name = key.split(".", 1)
    if section not in _SECTIONS:
        raise ConfigError(f"{where}unknown section {section!r}")
    if name not in _SECTIONS[section]:
        raise ConfigError(f"{where}unknown key {key!r}")
    return key, value


def parse_assignments(text: str, origin: str = "<config>") -> dict[str, str]:
    """Split config text into a flat {section.key: value} map, validating keys."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _assignment(line, f"{origin}:{lineno}: ")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _convert(key: str, value: str):
    section, name = key.split(".", 1)
    typ = _SECTIONS[section][name]
    if typ is str:
        return value
    if typ is int:
        try:
            return int(value)  # exact; forms such as 1e3 go through float below
        except ValueError:
            pass
    try:
        number = float(value)
    except ValueError as err:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {typ.__name__}") from err
    if typ is int:
        # So 1e3 reads as 1000; inf, nan and fractions fail.
        if not number.is_integer():
            raise ConfigError(f"key {key!r}: {value!r} is not a finite integer")
        return int(number)
    return number


def build_config(values: dict[str, str]) -> RunConfig:
    """Turn a validated assignment map into typed run settings."""
    typed: dict[str, dict] = {section: {} for section in _SECTIONS}
    for key, raw in values.items():
        section, name = key.split(".", 1)
        typed[section][name] = _convert(key, raw)

    missing = _EXP_REQUIRED - set(typed["exp"])
    if missing:
        raise ConfigError(f"missing required exp keys: {', '.join(sorted(missing))}")
    try:
        exp = ExperimentalParams(**typed["exp"])
    except ValueError as err:
        raise ConfigError(f"invalid exp parameters: {err}") from err

    src_kwargs = typed["src"]
    src: SourceParams | None = None
    if src_kwargs:
        base = {k: v for k, v in src_kwargs.items() if not k.endswith("_b")}
        missing_src = set(_SRC_SIDE) - set(base)
        if missing_src:
            raise ConfigError(f"missing required src keys: {', '.join(sorted(missing_src))}")
        side_b = {k + "_b": src_kwargs.get(k + "_b", base[k]) for k in _SRC_SIDE}
        try:
            src = SourceParams(**base, **side_b)
        except ValueError as err:
            raise ConfigError(f"invalid src parameters: {err}") from err

    try:
        budget = SecurityBudget(**typed["budget"])
    except ValueError as err:
        raise ConfigError(f"invalid budget parameters: {err}") from err

    search = typed["opt"]
    distances: tuple[float, ...] = ()
    text = search.pop("distances", "").strip()
    if text:
        try:
            distances = tuple(float(part) for part in text.split(","))
        except ValueError as err:
            raise ConfigError(f"opt.distances: cannot parse {text!r}") from err
    if not all(0.0 <= L < math.inf for L in distances):
        raise ConfigError(f"opt.distances: every distance must be finite and >= 0, got {text!r}")
    # opt.delta_L only restates the arms' offset, which every scan keeps.
    delta_L = search.pop("delta_L", None)
    offset = exp.L_A - exp.L_B
    if delta_L is not None and not math.isclose(delta_L, offset, rel_tol=1e-12, abs_tol=1e-9):
        raise ConfigError(
            f"opt.delta_L = {delta_L!r} differs from exp.L_A - exp.L_B = {offset!r}"
        )
    for L in distances:
        try:
            exp.at_distance(L)  # both arms must stay finite and non-negative
        except ValueError as err:
            raise ConfigError(
                f"opt.distances: at {L:g} km with exp.L_A - exp.L_B = {offset!r}, {err}"
            ) from err

    run = typed["run"]
    out = run.pop("out", None)
    if "zigzag" in run:
        search["zigzag_mode"] = run.pop("zigzag")
    try:
        problem = OptimizationProblem(exp=exp, security=budget, x0=src, **search, **run)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return RunConfig(problem, distances, out)


def parse_config(path: str, overrides: "list[str] | None" = None,
                 flags: "dict[str, str] | None" = None) -> RunConfig:
    """Read a config file, apply ``key=value`` override strings, then the
    ``flags`` {key: value} map, whose values are taken verbatim."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    values = parse_assignments(text, origin=path)
    values.update(_assignment(item, "override: ") for item in overrides or [])
    values.update(flags or {})
    return build_config(values)
