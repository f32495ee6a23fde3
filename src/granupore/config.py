"""Flat key = value configuration files (SI units).

Material and gas parameters share one file; angles accept an explicit unit
suffix (``delta = 30 deg`` or ``delta = 0.5236 rad``, bare numbers are
radians) because tan-21-degree-style constants invite silent unit bugs.
Unknown keys are rejected, and every parse error carries its line number.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .materials import GasParams, MaterialParams

__all__ = [
    "ConfigError",
    "read_kv_file",
    "parse_angle",
    "load_parameters",
    "parameters_text",
    "read_symbol_config",
]

ANGLE_KEYS = {"delta"}
MATERIAL_KEYS = {f.name for f in fields(MaterialParams)}
GAS_KEYS = {f.name for f in fields(GasParams)}


class ConfigError(ValueError):
    """Malformed configuration input."""


def read_kv_file(path) -> dict[str, tuple[str, int]]:
    """Parse ``key = value`` lines into {key: (raw value, line number)}.

    Blank lines and ``#`` comments are ignored; duplicate keys are errors.
    """
    entries: dict[str, tuple[str, int]] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            if key in entries:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} (first on line {entries[key][1]})"
                )
            entries[key] = (value, lineno)
    return entries


def parse_angle(raw: str, where: str = "") -> float:
    """Angle in radians from '<number>', '<number> rad' or '<number> deg'."""
    parts = raw.split()
    try:
        if len(parts) == 1:
            return float(parts[0])
        if len(parts) == 2 and parts[1] in ("rad", "deg"):
            value = float(parts[0])
            return math.radians(value) if parts[1] == "deg" else value
    except ValueError:
        pass
    raise ConfigError(f"{where}: cannot parse angle from {raw!r} (use e.g. '30 deg')")


def load_parameters(path) -> tuple[MaterialParams, GasParams]:
    """Material and gas parameters from one file, defaults filling the gaps.

    Raises:
        ConfigError: On unknown keys, bad numbers or invalid parameter
            combinations, always with the offending line number.
    """
    entries = read_kv_file(path)
    mat_kwargs, gas_kwargs = {}, {}
    for key, (raw, lineno) in entries.items():
        where = f"{path}:{lineno}"
        if key in ANGLE_KEYS:
            mat_kwargs[key] = parse_angle(raw, where)
            continue
        target = mat_kwargs if key in MATERIAL_KEYS else (
            gas_kwargs if key in GAS_KEYS else None
        )
        if target is None:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            target[key] = float(raw)
        except ValueError:
            raise ConfigError(f"{where}: cannot parse number from {raw!r}") from None
    try:
        return MaterialParams(**mat_kwargs), GasParams(**gas_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parameters_text(mat: MaterialParams, gas: GasParams) -> str:
    """Resolved parameters as key = value lines (report provenance block)."""
    lines = []
    for params in (mat, gas):
        lines += [f"{f.name} = {getattr(params, f.name)!r}" for f in fields(params)]
    return "\n".join(lines)


#: Parser of each extended-symbol key; a parse failure raises ValueError.
_SYMBOL_PARSERS = {
    "n_matrix": lambda raw: np.array(
        [[complex(token) for token in row.split()] for row in raw.split(";")], dtype=complex
    ),
    "xi": lambda raw: np.array([float(tok) for tok in raw.split()]),
    "momentum_rows": lambda raw: tuple(int(tok) for tok in raw.split()),
    "c": float,
}


def read_symbol_config(path) -> dict:
    """Extended-symbol input: the granular block, wavevector and diffusivity.

    Keys: ``n_matrix`` (rows separated by ';', entries by spaces; complex
    entries use Python syntax like ``1+2j``), ``xi`` (space-separated),
    ``momentum_rows`` (space-separated 0-based indices), ``c``.  The
    ``n_matrix``, ``xi`` and ``c`` values must be finite, ``n_matrix``
    square, and the momentum rows distinct rows of ``n_matrix``, no more of
    them than ``xi`` has components.

    Raises:
        ConfigError: Naming the file, and the line where there is one, on an
            unknown or missing key, a value that does not parse, a
            non-finite value, a non-square ``n_matrix`` or a bad momentum
            row.
    """
    entries = read_kv_file(path)
    unknown = entries.keys() - _SYMBOL_PARSERS.keys()
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = _SYMBOL_PARSERS.keys() - entries.keys()
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")
    parsed = {}
    for key, parse in _SYMBOL_PARSERS.items():
        raw, lineno = entries[key]
        try:
            parsed[key] = parse(raw)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: cannot parse {key} from {raw!r}") from None
        if key != "momentum_rows" and not np.all(np.isfinite(parsed[key])):
            raise ConfigError(f"{path}:{lineno}: {key} must be finite")
    N, rows, dim = parsed["n_matrix"], parsed["momentum_rows"], parsed["xi"].size
    k = len(N)
    if N.shape != (k, k):
        raise ConfigError(
            f"{path}:{entries['n_matrix'][1]}: n_matrix must be square, "
            f"got {k} rows of {N.shape[1]}"
        )
    where = f"{path}:{entries['momentum_rows'][1]}: momentum_rows {rows}"
    if len(set(rows)) != len(rows):
        raise ConfigError(f"{where} repeat a row")
    if not all(0 <= r < k for r in rows):
        raise ConfigError(f"{where} out of range for the {k} rows of n_matrix")
    if len(rows) > dim:
        raise ConfigError(f"{where} exceed the {dim} components of xi")
    return {"N": parsed.pop("n_matrix"), **parsed}
