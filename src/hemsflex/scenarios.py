"""Gaussian-copula generation of temporally correlated net-load scenarios.

Marginal forecast distributions arrive as per-lead-time quantile tables.
Temporal dependence across lead times is imposed in Gaussian space through an
exponential covariance, and the correlated normals are mapped back through the
inverse quantile functions. The module also derives PV-surplus series from
net load.

The standard normal CDF is a port of the Cephes `ndtr` routine that
`scipy.special.ndtr` runs, bit for bit on finite input (the tests check it
against scipy), so that no command imports scipy: its import costs more time
and memory than the rest of a `gen-scenarios` run.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._inputs import finite, finite_array, integer, read_table, whole

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
]

# Diagonal jitter applied once if Cholesky fails; the exponential covariance is
# positive definite in exact arithmetic, so this only guards round-off.
_CHOLESKY_JITTER = 1e-10

# Cephes `ndtr.c` coefficients, highest power first. The denominators'
# tables `_ERF_U`, `_ERFC_Q` and `_ERFC_S` start with the 1.0 that Cephes'
# `p1evl` leaves implicit: `1.0 * x` is exact, so the first Horner step gives
# p1evl's `x + c[0]`.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# log(DBL_MAX): erfc(x) is 0 where x * x exceeds it.
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1


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
    """M x T matrix of finite net-load scenarios [kW], one scenario per row."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError("scenario matrix must be 2-D and non-empty")
        object.__setattr__(self, "values", finite_array("scenarios", vals))

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


def _horner(x: np.ndarray, coefficients) -> np.ndarray:
    """Cephes `polevl`: the polynomial with `coefficients`, highest power first,
    at `x`, one multiply and one add per step."""
    value = coefficients[0]
    for c in coefficients[1:]:
        value = value * x + c
    return value


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes `erf` for |x| < 1, the only range `_ndtr` asks of it. Cephes
    returns -erf(-x) for x < 0, which has the same bits: rounding is
    symmetric in sign."""
    square = x * x
    return x * _horner(square, _ERF_T) / _horner(square, _ERF_U)


def _erfc_tail(x: np.ndarray) -> np.ndarray:
    """Cephes `erfc` for x >= 1. Its `exp` is libm's, which `math.exp` calls
    and `np.exp` does not: the two differ in the last bit."""
    out = np.zeros_like(x)
    # A square beyond the float range is past MAXLOG, as it is in C.
    with np.errstate(over="ignore"):
        square = x * x
    live = square <= _MAXLOG
    out[live] = np.fromiter(map(math.exp, (-square[live]).tolist()), float, np.count_nonzero(live))
    for band, p, q in ((live & (x < 8.0), _ERFC_P, _ERFC_Q), (live & (x >= 8.0), _ERFC_R, _ERFC_S)):
        out[band] = out[band] * _horner(x[band], p) / _horner(x[band], q)
    return out


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF of finite `a`: Cephes `ndtr`, the routine
    `scipy.special.ndtr` runs, with the same operations in the same order.
    Each branch is evaluated on its own elements only."""
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    central = z < _SQRT1_2
    y[central] = 0.5 + 0.5 * _erf(x[central])
    near = ~central & (z < 1.0)
    y[near] = 0.5 * (1.0 - _erf(z[near]))
    tail = z >= 1.0
    y[tail] = 0.5 * _erfc_tail(z[tail])
    upper = ~central & (x > 0.0)
    y[upper] = 1.0 - y[upper]
    return y


def transform_to_scenarios(z: np.ndarray, marginals: list[MarginalForecast]) -> ScenarioSet:
    """Map correlated standard normals into net-load space: each column goes
    through the standard normal CDF, then its lead time's inverse quantile
    function. `z` must be finite; the CDF is the Cephes port above, whose
    values match `scipy.special.ndtr` bit for bit, so scipy is not imported."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("z must be an M x T matrix")
    if z.shape[1] != len(marginals):
        raise ValueError(f"{z.shape[1]} columns but {len(marginals)} marginals")
    u = _ndtr(finite_array("z", z))
    out = np.empty_like(z)
    for k, marginal in enumerate(marginals):
        out[:, k] = marginal.inverse(u[:, k])
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
