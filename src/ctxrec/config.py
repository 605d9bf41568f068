"""Pipeline configuration: defaults, file/flag parsing, validation, hashing.

Config files are flat ``key=value`` text; every key can be overridden by a
command-line flag of the same name, and the ``CTXREC_SEED`` environment
variable overrides the seed with the highest precedence.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

SEED_ENV_VAR = "CTXREC_SEED"


class ConfigError(ValueError):
    """Raised when a configuration violates its invariants."""


@dataclass
class PipelineConfig:
    # data preparation
    idle_threshold_s: int = 3600
    min_user_interactions: int = 10
    # contextualization
    num_contexts: int = 40
    top_k_contexts: int = 3
    session_emb_dim: int = 64
    # model dimensions
    user_dim: int = 256
    item_dim: int = 256
    context_dim: int = 32
    lstm_hidden: int = 128
    max_seq_len: int = 50
    # optimization
    lr: float = 0.001
    batch: int = 1024
    max_epochs: int = 200
    patience: int = 10
    clip_norm: float = 5.0
    # graph encoder training
    graph_base_dim: int = 64
    graph_lr: float = 0.01
    graph_epochs: int = 10
    graph_batch: int = 512
    graph_fanout1: int = 10
    graph_fanout2: int = 10
    graph_negatives: int = 5
    # clustering
    kmeans_max_iters: int = 100
    kmeans_n_init: int = 4
    # experiment protocol
    repetitions: int = 5
    seed: int = 0

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)):
                raise ConfigError(f"{f.name} must be numeric, got {value!r}")
            if f.name != "seed" and value <= 0:
                raise ConfigError(f"{f.name} must be positive, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.top_k_contexts > self.num_contexts:
            raise ConfigError(
                f"top_k_contexts ({self.top_k_contexts}) must not exceed "
                f"num_contexts ({self.num_contexts})"
            )

    def to_text(self) -> str:
        lines = []
        for f in sorted(dataclasses.fields(self), key=lambda f: f.name):
            lines.append(f"{f.name}={getattr(self, f.name)!r}".replace("'", ""))
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    def replace(self, **kwargs) -> "PipelineConfig":
        cfg = dataclasses.replace(self, **kwargs)
        cfg.validate()
        return cfg


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key}")
    typ = _FIELD_TYPES[key]
    try:
        return float(raw) if typ in ("float", float) else int(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_file(path: str | Path) -> dict:
    """Parse flat key=value text; '#' starts a comment, blank lines ignored."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        values[key.strip()] = _coerce(key.strip(), raw.strip())
    return values


def resolve_config(
    file_path: str | Path | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> PipelineConfig:
    """Build a validated config: defaults < file < flag overrides < seed env var."""
    values: dict = {}
    if file_path is not None:
        values.update(parse_config_file(file_path))
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            values[key] = _coerce(key, str(val))
    env = os.environ if env is None else env
    if SEED_ENV_VAR in env:
        values["seed"] = _coerce("seed", env[SEED_ENV_VAR])
    cfg = PipelineConfig(**values)
    cfg.validate()
    return cfg
