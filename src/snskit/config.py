"""Flat key-value run configuration with strict key checking.

The format is one ``section.key = value`` assignment per line, ``#`` starts
a comment, blank lines are ignored.  Sections: ``exp.`` for hardware,
``src.`` for fixed source parameters (``_b`` suffix for the second party),
``opt.`` for optimization settings, ``budget.`` for failure probabilities
and ``run.`` for method/mode/output defaults that command-line flags can
override (``--seed`` overrides ``opt.seed``).  Unknown keys are rejected
with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .budget import SecurityBudget, security_budget
from .channel import ExperimentalParams, SourceParams

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_assignments"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_EXP_KEYS = {
    "p_d": float, "e_d": float, "eta_d": float, "f": float, "alpha_f": float,
    "N": float, "L_A": float, "L_B": float, "M_slices": int, "slice_mode": str,
}
_SRC_KEYS = {f.name: float for f in fields(SourceParams)}
_SRC_SIDE = tuple(name for name in _SRC_KEYS if not name.endswith("_b"))
_OPT_KEYS = {
    "mode": str, "restarts": int, "max_evals": int, "seed": int,
    "distances": str, "delta_L": float,
    "mu_lo": float, "mu_hi": float, "p_lo": float, "p_hi": float,
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
    """Parsed configuration; ``src`` is None when only optimization is set up."""

    exp: ExperimentalParams
    src: SourceParams | None
    budget: SecurityBudget
    method: str = "A"
    zigzag: str = "approx"
    seed: int = 0
    out: str | None = None
    opt_mode: str = "symmetric"
    restarts: int = 8
    max_evals: int = 5000
    delta_L: float = 0.0
    distances: tuple[float, ...] = field(default_factory=tuple)
    box: dict = field(default_factory=dict)


def parse_assignments(text: str, origin: str = "<config>") -> dict[str, str]:
    """Split config text into a flat {section.key: value} map, validating keys."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'section.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"{origin}:{lineno}: key {key!r} is missing its section prefix")
        section, name = key.split(".", 1)
        table = _SECTIONS.get(section)
        if table is None:
            raise ConfigError(f"{origin}:{lineno}: unknown section {section!r}")
        if name not in table:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _convert(key: str, value: str):
    section, name = key.split(".", 1)
    typ = _SECTIONS[section][name]
    if typ is str:
        return value
    try:
        number = float(value)
    except ValueError as err:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {typ.__name__}") from err
    if typ is int:
        # Parsed as a float so that 1e3 reads as 1000; inf, nan and fractions fail.
        if not number.is_integer():
            raise ConfigError(f"key {key!r}: {value!r} is not a finite integer")
        return int(number)
    return number


def build_config(values: dict[str, str]) -> RunConfig:
    """Turn a validated assignment map into typed run settings."""
    typed = {key: _convert(key, raw) for key, raw in values.items()}

    exp_kwargs = {name: typed[f"exp.{name}"] for name in _EXP_KEYS if f"exp.{name}" in typed}
    missing = {"p_d", "e_d", "eta_d", "f", "alpha_f", "N", "L_A", "L_B"} - set(exp_kwargs)
    if missing:
        raise ConfigError(f"missing required exp keys: {', '.join(sorted(missing))}")
    try:
        exp = ExperimentalParams(**exp_kwargs)
    except ValueError as err:
        raise ConfigError(f"invalid exp parameters: {err}") from err

    src_kwargs = {name: typed[f"src.{name}"] for name in _SRC_KEYS if f"src.{name}" in typed}
    src: SourceParams | None = None
    if src_kwargs:
        base = {k: v for k, v in src_kwargs.items() if not k.endswith("_b")}
        missing_src = set(_SRC_SIDE) - set(base)
        if missing_src:
            raise ConfigError(f"missing required src keys: {', '.join(sorted(missing_src))}")
        full = {k: src_kwargs.get(k + "_b", base[k]) for k in _SRC_SIDE}
        try:
            src = SourceParams(**base, **{k + "_b": v for k, v in full.items()})
        except ValueError as err:
            raise ConfigError(f"invalid src parameters: {err}") from err

    budget_kwargs = {
        name: typed[f"budget.{name}"] for name in _BUDGET_KEYS if f"budget.{name}" in typed
    }
    try:
        budget = security_budget(**budget_kwargs)
    except ValueError as err:
        raise ConfigError(f"invalid budget parameters: {err}") from err

    distances: tuple[float, ...] = ()
    if "opt.distances" in typed:
        text = typed["opt.distances"].strip()
        if text:
            try:
                distances = tuple(float(part) for part in text.split(","))
            except ValueError as err:
                raise ConfigError(f"opt.distances: cannot parse {text!r}") from err

    opt_mode = typed.get("opt.mode", "symmetric")
    if opt_mode not in ("symmetric", "asymmetric"):
        raise ConfigError(f"opt.mode must be 'symmetric' or 'asymmetric', got {opt_mode!r}")
    method = typed.get("run.method", "A")
    if method not in ("A", "B"):
        raise ConfigError(f"run.method must be 'A' or 'B', got {method!r}")
    zigzag = typed.get("run.zigzag", "approx")
    if zigzag not in ("approx", "exact"):
        raise ConfigError(f"run.zigzag must be 'approx' or 'exact', got {zigzag!r}")

    box = {
        name: typed[f"opt.{name}"]
        for name in ("mu_lo", "mu_hi", "p_lo", "p_hi")
        if f"opt.{name}" in typed
    }
    return RunConfig(
        exp=exp,
        src=src,
        budget=budget,
        method=method,
        zigzag=zigzag,
        seed=typed.get("opt.seed", 0),
        out=typed.get("run.out"),
        opt_mode=opt_mode,
        restarts=typed.get("opt.restarts", 8),
        max_evals=typed.get("opt.max_evals", 5000),
        delta_L=typed.get("opt.delta_L", 0.0),
        distances=distances,
        box=box,
    )


def parse_config(path: str, overrides: "list[str] | None" = None) -> RunConfig:
    """Read a config file and apply ``key=value`` override strings."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    values = parse_assignments(text, origin=path)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if "." not in key:
            raise ConfigError(f"override key {key!r} is missing its section prefix")
        section, name = key.split(".", 1)
        if section not in _SECTIONS or name not in _SECTIONS[section]:
            raise ConfigError(f"override references unknown key {key!r}")
        values[key] = value
    return build_config(values)
