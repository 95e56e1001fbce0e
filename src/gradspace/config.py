"""Experiment configuration: a flat `key = value` text format.

Grammar: one `key = value` pair per line; `#` starts a comment; blank lines
are ignored. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config"]

_MODELS = ("cos2", "cos37", "ridge", "quadratic", "pde")


class ConfigError(ValueError):
    """Invalid configuration file or values."""


@dataclass
class ExperimentConfig:
    model: str = "cos2"
    k: int = 200
    a: str = "auto"  # "auto" or a positive integer as text
    n_design: int = 200
    eval_points: int = 2000
    seed: int = 0
    output_dir: str = "out"
    gamma_sweep: tuple[float, ...] = ()
    schedule_step: int = 0  # 0 selects max(1, k // 10)
    replicates: int = 1
    gradient_mode: str = "exact"  # "exact" or "fd"
    fd_step: float = 1e-6
    full_eval: str = "auto"  # "auto" | "true" | "false"

    # analytic model knobs
    ridge_direction: tuple[float, ...] = (1.0, 2.0, 3.0)
    ridge_half_width: float = 1.0
    quad_dim: int = 6
    quad_half_width: float = 1.0
    quad_seed: int = 7

    # elliptic demonstration knobs
    pde_n: int = 33
    pde_d: int = 50
    pde_rho1: float = 1.0
    pde_rho2: float = 0.05
    pde_half_width: float = 2.0

    # completion study knobs
    svt_tau: float = 100.0
    svt_delta: float = 1.0
    svt_tol: float = 1e-4
    svt_eps: float = 1e-6
    svt_max_iter: int = 1000
    svt_synthetic: bool = False
    svt_rank: int = 5
    svt_rows: int = 100
    svt_cols: int = 400

    # surrogate knobs; smoothing < 0 means auto (0 for analytic models,
    # 1e-6 for the elliptic demo, whose reduced-space data carry scatter)
    rbf_shape: float = 0.0  # 0 selects the median-distance default
    rbf_smoothing: float = -1.0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if isinstance(value, (float, tuple)) and not all(map(math.isfinite, values)):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.model not in _MODELS:
            raise ConfigError(f"unknown model '{self.model}' (choose from {_MODELS})")
        for name in ("k", "n_design", "eval_points", "replicates"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.a != "auto":
            try:
                a = int(self.a)
            except ValueError as exc:
                raise ConfigError("a must be 'auto' or a positive integer") from exc
            if a < 1:
                raise ConfigError("a must be >= 1")
            if self.svt_synthetic and a > self.svt_rank:
                raise ConfigError(f"a={a} exceeds svt_rank={self.svt_rank} of the synthetic matrix")
        for name in ("seed", "quad_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for g in self.gamma_sweep:
            if not 0.0 < g <= 1.0:
                raise ConfigError(f"gamma value {g} outside (0, 1]")
        if self.gradient_mode not in ("exact", "fd"):
            raise ConfigError("gradient_mode must be 'exact' or 'fd'")
        if self.full_eval not in ("auto", "true", "false"):
            raise ConfigError("full_eval must be auto/true/false")
        if self.fd_step <= 0:
            raise ConfigError("fd_step must be positive")
        for name in ("svt_tau", "svt_delta", "svt_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.svt_eps < 0:
            raise ConfigError("svt_eps must be nonnegative")
        if min(self.svt_max_iter, self.svt_rank, self.svt_rows, self.svt_cols) < 1:
            raise ConfigError("svt_max_iter, svt_rank, svt_rows, svt_cols must be >= 1")
        if self.svt_rank > min(self.svt_rows, self.svt_cols):
            raise ConfigError("svt_rank must not exceed svt_rows or svt_cols")
        if self.pde_n < 2 or self.pde_d < 1:
            raise ConfigError("pde_n must be >= 2 and pde_d >= 1")
        if self.model == "pde" and self.pde_d > self.pde_n**2:
            raise ConfigError(f"pde_d={self.pde_d} exceeds the {self.pde_n**2} cells of the grid")
        for name in ("pde_rho1", "pde_rho2", "pde_half_width", "ridge_half_width", "quad_half_width"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.model == "ridge" and not any(self.ridge_direction):
            raise ConfigError("ridge_direction must be a nonzero vector")
        if self.quad_dim < 1:
            raise ConfigError("quad_dim must be >= 1")
        if self.rbf_shape < 0:
            raise ConfigError("rbf_shape must be >= 0 (0 = median default)")

    def truncation(self) -> int | None:
        """Explicit truncation, or None when it should be suggested from the spectrum."""
        return None if self.a == "auto" else int(self.a)

    def schedule(self) -> list[int]:
        """Sample counts for the convergence study: step, 2*step, ..., up to k."""
        step = self.schedule_step if self.schedule_step > 0 else max(1, self.k // 10)
        ms = list(range(step, self.k + 1, step))
        if not ms or ms[-1] != self.k:
            ms.append(self.k)
        return ms

    def smoothing_scale(self) -> float:
        if self.rbf_smoothing >= 0:
            return self.rbf_smoothing
        return 1e-6 if self.model == "pde" else 0.0

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def _parse_value(key: str, text: str, kind):
    try:
        if kind is bool:
            low = text.lower()
            if low not in ("true", "false"):
                raise ValueError(text)
            return low == "true"
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is str:
            return text
        # tuple of floats, comma separated; empty means ()
        if text.strip() == "":
            return ()
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {text!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    types = {f.name: type(getattr(cfg, f.name)) for f in fields(cfg)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key == "a":  # stored as text: either "auto" or an integer
            setattr(cfg, key, value)
        else:
            setattr(cfg, key, _parse_value(key, value, types[key]))
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)
