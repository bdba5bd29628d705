"""Run configuration: a flat key = value file plus command-line overrides.

Relative paths in the file are resolved against the file's own directory,
so a config can travel with its data. Credentials never appear in the file
or on the command line; the file only names the environment variable that
holds the API key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .coverage import DEFAULT_CUMULATIVE_CAP, DEFAULT_PER_AS_FLOOR, check_thresholds
from .errors import ConfigError
from .fetch import DEFAULT_RATE_LIMIT

_PATH_KEYS = {
    "population",
    "country_users",
    "probes",
    "capitals",
    "traceroutes",
    "prefix2as",
    "geo",
    "out_dir",
}


@dataclass(frozen=True)
class RunConfig:
    population: Path | None = None
    country_users: Path | None = None
    probes: Path | None = None
    capitals: Path | None = None
    traceroutes: Path | None = None
    prefix2as: Path | None = None
    geo: Path | None = None
    out_dir: Path = field(default_factory=lambda: Path("out"))
    country: str | None = None  # None means all countries
    cumulative_cap: float = DEFAULT_CUMULATIVE_CAP
    per_as_floor: float = DEFAULT_PER_AS_FLOOR
    http_base_url: str | None = None
    rate_limit: float = DEFAULT_RATE_LIMIT
    credential_env: str | None = None
    measurement_ids: tuple[int, ...] = ()

    def validate_thresholds(self) -> None:
        try:
            check_thresholds(self.cumulative_cap, self.per_as_floor)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.rate_limit <= 0:
            raise ConfigError(f"rate_limit must be positive: {self.rate_limit}")

    def require_inputs(self, *names: str) -> None:
        """Fail with the offending file named unless every input is readable."""
        for name in names:
            path: Path | None = getattr(self, name)
            if path is None:
                raise ConfigError(f"config does not set required input '{name}'")
            if not path.is_file():
                raise ConfigError(f"required input '{name}' not found: {path}")

    def api_key(self) -> str | None:
        if not self.credential_env:
            return None
        return os.environ.get(self.credential_env)


def load_config(path: Path | str) -> RunConfig:
    """Parse a key = value config file (# comments, blank lines allowed)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    base = path.parent
    known = {f.name for f in fields(RunConfig)}
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in _PATH_KEYS:
                values[key] = (base / value).resolve() if not Path(value).is_absolute() else Path(value)
            elif key in ("cumulative_cap", "per_as_floor", "rate_limit"):
                values[key] = float(value)
            elif key == "measurement_ids":
                values[key] = tuple(int(v) for v in value.split(",") if v.strip())
            elif key == "country":
                values[key] = value.upper()
            else:
                values[key] = value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return RunConfig(**values)


def apply_overrides(
    config: RunConfig,
    country: str | None = None,
    all_countries: bool = False,
    out_dir: str | None = None,
    cumulative_cap: float | None = None,
    per_as_floor: float | None = None,
) -> RunConfig:
    updates: dict = {}
    if all_countries:
        updates["country"] = None
    elif country is not None:
        updates["country"] = country.upper()
    if out_dir is not None:
        updates["out_dir"] = Path(out_dir)
    if cumulative_cap is not None:
        updates["cumulative_cap"] = cumulative_cap
    if per_as_floor is not None:
        updates["per_as_floor"] = per_as_floor
    return replace(config, **updates) if updates else config
