"""Gaussian-copula generation of temporally correlated net-load scenarios.

Marginal forecast distributions arrive as per-lead-time quantile tables.
Temporal dependence across lead times is imposed in Gaussian space through an
exponential covariance, and the correlated normals are mapped back through the
inverse quantile functions. The module also derives PV-surplus series from
net load.

scipy is imported inside `transform_to_scenarios`, its one user, so that the
commands that never generate scenarios (search, train, classify, validate)
start without paying for `scipy.special`, which costs more than the rest of
the package import.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._inputs import finite, integer, read_table, whole

__all__ = [
    "MarginalForecast",
    "CopulaConfig",
    "ScenarioSet",
    "build_covariance",
    "sample_gaussian_copula",
    "transform_to_scenarios",
    "generate_scenarios",
    "pv_surplus",
    "read_marginals_csv",
    "write_marginals_csv",
]

# Diagonal jitter applied once if Cholesky fails; the exponential covariance is
# positive definite in exact arithmetic, so this only guards round-off.
_CHOLESKY_JITTER = 1e-10


@dataclass(frozen=True)
class MarginalForecast:
    """Quantile table of the net-load distribution for one lead time [kW]."""

    lead_time: int
    probabilities: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if probs.ndim != 1 or probs.shape != vals.shape or probs.size == 0:
            raise ValueError("quantile table needs matching 1-D probabilities and values")
        if not np.all((probs > 0.0) & (probs < 1.0)):
            raise ValueError("quantile probabilities must lie strictly inside (0, 1)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("quantile values must be finite")
        if np.any(np.diff(probs) <= 0.0):
            raise ValueError("quantile probabilities must be strictly increasing")
        if np.any(np.diff(vals) < 0.0):
            raise ValueError("quantile values must be non-decreasing")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "values", vals)

    def inverse(self, u):
        """Inverse quantile function: piecewise linear between knots, clamped
        to the extreme provided quantiles outside the table's range."""
        return np.interp(u, self.probabilities, self.values)


@dataclass(frozen=True)
class CopulaConfig:
    """Scenario-generation settings: draw count, covariance range, seed. The
    horizon is the number of marginals."""

    count: int = 100
    nu_cov: float = 4.0
    seed: int = 0

    def __post_init__(self):
        integer("count", self.count, 1)
        if not finite("nu_cov", self.nu_cov) > 0.0:
            raise ValueError(f"covariance range nu_cov must be positive, got {self.nu_cov!r}")


@dataclass(frozen=True)
class ScenarioSet:
    """M x T matrix of net-load scenarios [kW], one scenario per row."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError("scenario matrix must be 2-D and non-empty")
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[1]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"h{k}" for k in range(1, self.horizon + 1)])
            for row in self.values:
                writer.writerow([f"{x:.6f}" for x in row])

    @classmethod
    def read_csv(cls, path) -> "ScenarioSet":
        path, header, table = read_table(path)
        if header != [f"h{k}" for k in range(1, len(header) + 1)]:
            raise ValueError(f"{path}: expected the scenario header h1..h{len(header)}")
        if not table.shape[0]:
            raise ValueError(f"{path}: no scenario rows")
        return cls(table)


def build_covariance(horizon: int, nu_cov: float) -> np.ndarray:
    """Exponential covariance over lead times: entry (k1, k2) = exp(-|k1-k2|/nu)."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not nu_cov > 0.0:
        raise ValueError("covariance range nu_cov must be positive")
    lags = np.abs(np.subtract.outer(np.arange(horizon), np.arange(horizon)))
    return np.exp(-lags / nu_cov)


def sample_gaussian_copula(cov: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Draw `count` rows from a zero-mean multivariate normal with covariance `cov`.

    Uses a Cholesky factor so a fixed seed yields a bit-identical matrix.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if not np.allclose(cov, cov.T):
        raise ValueError("covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(cov + _CHOLESKY_JITTER * np.eye(cov.shape[0]))
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((count, cov.shape[0]))
    return normals @ chol.T


def transform_to_scenarios(z: np.ndarray, marginals: list[MarginalForecast]) -> ScenarioSet:
    """Map correlated standard normals into net-load space, column by column,
    through each lead time's inverse quantile function.

    `ndtr` is imported here rather than at module level: this is the only
    scipy call in the package, and importing `scipy.special` is the largest
    fixed cost of starting any command that does not generate scenarios."""
    from scipy.special import ndtr

    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("z must be an M x T matrix")
    if z.shape[1] != len(marginals):
        raise ValueError(f"{z.shape[1]} columns but {len(marginals)} marginals")
    out = np.empty_like(z)
    for k, marginal in enumerate(marginals):
        out[:, k] = marginal.inverse(ndtr(z[:, k]))
    return ScenarioSet(out)


def generate_scenarios(marginals: list[MarginalForecast], config: CopulaConfig) -> ScenarioSet:
    """Full pipeline: covariance, correlated normals, inverse-quantile mapping."""
    ordered = sorted(marginals, key=lambda m: m.lead_time)
    cov = build_covariance(len(ordered), config.nu_cov)
    z = sample_gaussian_copula(cov, config.count, config.seed)
    return transform_to_scenarios(z, ordered)


def pv_surplus(net_load: np.ndarray) -> np.ndarray:
    """PV generation exceeding inflexible load: max(0, -net_load), elementwise."""
    return np.maximum(0.0, -np.asarray(net_load, dtype=float))


def read_marginals_csv(path) -> list[MarginalForecast]:
    """Read quantile tables from CSV rows under the header `t,p,q`, one row
    per quantile knot; the lead times t must run exactly 1..T."""
    path, header, table = read_table(path)
    if header != ["t", "p", "q"]:
        raise ValueError(f"{path}: expected header t,p,q")
    if not table.shape[0]:
        raise ValueError(f"{path}: no quantile rows")
    lead = whole(path, "t", table[:, 0])
    # Knots in order of lead time, then probability, then value.
    order = np.lexsort((table[:, 2], table[:, 1], lead))
    lead, probs, values = lead[order], table[order, 1], table[order, 2]
    lead_times = np.unique(lead).tolist()
    if lead_times != list(range(1, len(lead_times) + 1)):
        raise ValueError(f"{path}: lead times t must run 1..{len(lead_times)}")
    try:
        return [MarginalForecast(t, probs[lead == t], values[lead == t]) for t in lead_times]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_marginals_csv(path, marginals: list[MarginalForecast]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "p", "q"])
        for marginal in marginals:
            for prob, value in zip(marginal.probabilities, marginal.values):
                writer.writerow([marginal.lead_time, f"{prob:g}", f"{value:.6f}"])
