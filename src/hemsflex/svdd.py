"""One-class support-vector boundary over normalized trajectory space.

Trains the nu-parameterized one-class dual with a coordinate-pair (SMO-style)
solver, keeps only the support vectors and their coefficients, and classifies
new trajectories by comparing their radius in kernel space against the
boundary radius. The serialized model carries nothing but support vectors,
coefficients, kernel settings, normalization bounds, and the threshold, so it
can be shared without exposing raw household data.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from ._inputs import build, check_keys, finite, finite_array, integer, json_object

__all__ = [
    "KernelSpec",
    "TrainingConfig",
    "SvddModel",
    "ConvergenceError",
    "kernel_matrix",
    "derive_bounds",
    "normalize",
    "train",
    "fit_trajectories",
    "radius_squared",
    "score_trajectories",
    "classify",
    "within_boundary",
    "serialize",
    "deserialize",
    "save_model",
    "load_model",
]

KERNEL_KINDS = ("rbf", "poly", "sigmoid")

# The dual solver stops once its KKT gap is at most DUAL_TOLERANCE, and raises
# ConvergenceError after DUAL_MAX_PASSES pair updates.
DUAL_TOLERANCE = 1e-6
DUAL_MAX_PASSES = 100_000

# Slack absorbing the dual-solver tolerance so boundary support vectors land
# inside the sphere they define.
_BOUNDARY_SLACK = 1e-5

# Dual coefficients below this fraction of the box bound are treated as zero.
_ALPHA_CUTOFF = 1e-8

# Largest distance from 1 of a model file's coefficient sum; training
# normalizes the coefficients, so theirs is off by rounding only.
_COEFFICIENT_SUM_TOL = 1e-9

# Trajectories scored per kernel-matrix product: large enough to amortize the
# per-call overhead, small enough that scoring a large set adds little memory.
SCORE_BLOCK = 64


class ConvergenceError(RuntimeError):
    """Dual solver failed to reach the tolerance within its iteration cap."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and coefficients: rbf, poly, or sigmoid."""

    kind: str = "sigmoid"
    gamma: float = 0.05
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}, expected one of {KERNEL_KINDS}")
        finite("kernel coef0", self.coef0)
        # With gamma 0 every kernel value is the same, so every row scores the
        # same r2; a negative gamma turns the kernel's sense of similarity around.
        if not finite("kernel gamma", self.gamma) > 0.0:
            raise ValueError(f"{self.kind} kernel needs gamma > 0")
        integer("polynomial degree", self.degree, 1)


@dataclass(frozen=True)
class TrainingConfig:
    """Training-error bound nu of the one-class dual."""

    nu: float = 0.15

    def __post_init__(self):
        if not 0.0 < finite("nu", self.nu) < 1.0:
            raise ValueError(f"nu must lie strictly inside (0, 1), got {self.nu!r}")


@dataclass
class SvddModel:
    """Boundary surrogate: support vectors with coefficients summing to one,
    the kernel, per-coordinate normalization bounds, the squared boundary
    radius, and the cached coefficient-kernel double sum."""

    support_vectors: np.ndarray
    coefficients: np.ndarray
    kernel: KernelSpec
    norm_bounds: np.ndarray
    radius2_threshold: float
    const_term: float
    nu: float

    @property
    def n_support(self) -> int:
        return self.support_vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.support_vectors.shape[1]


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel values for all row pairs of A and B."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"kernel arguments differ in dimension: {A.shape[1]} vs {B.shape[1]}")
    if spec.kind == "rbf":
        sq = (
            np.sum(A**2, axis=1)[:, None]
            + np.sum(B**2, axis=1)[None, :]
            - 2.0 * (A @ B.T)
        )
        return np.exp(-spec.gamma * np.maximum(sq, 0.0))
    if spec.kind == "poly":
        return (spec.gamma * (A @ B.T) + spec.coef0) ** spec.degree
    return np.tanh(spec.gamma * (A @ B.T) + spec.coef0)


def derive_bounds(vectors: np.ndarray) -> np.ndarray:
    """Per-coordinate (min, max) over a training matrix, shaped (d, 2)."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    return np.stack([vectors.min(axis=0), vectors.max(axis=0)], axis=1)


def normalize(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Min-max scale a flat vector or a matrix of row vectors into [0, 1] per
    coordinate (the last axis).

    Out-of-range inputs clip to the unit interval; degenerate coordinates
    (equal min and max) map to 0.5.
    """
    x = np.asarray(x, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if x.shape[-1] != bounds.shape[0]:
        raise ValueError(f"vector has {x.shape[-1]} coordinates, bounds {bounds.shape[0]}")
    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo
    degenerate = span <= 0.0
    scaled = np.where(degenerate, 0.5, (x - lo) / np.where(degenerate, 1.0, span))
    return np.clip(scaled, 0.0, 1.0)


def _solve_dual(K: np.ndarray, nu: float, tolerance: float, max_passes: int) -> np.ndarray:
    """Minimize 0.5 a'Ka over the capped simplex {0 <= a_i <= 1/(nu N),
    sum a = 1} by repeatedly optimizing the maximal violating pair.

    The pair is picked from two masked copies of the gradient: `up` holds +inf
    where a coefficient sits at the cap and cannot rise, `down` holds -inf
    where it sits at zero and cannot fall. Each step adds the same gradient
    change to both copies as to the gradient itself (the infinities absorb
    it), then resets the masks of the two coefficients it moved, the only ones
    whose mobility can change. The masked entries thus stay bit-identical to
    masking the gradient afresh each pass. Kernel columns are read as rows of
    one contiguous copy of K.T, and the coefficients and pair scalars are
    Python floats.
    """
    n = K.shape[0]
    cap = 1.0 / (nu * n)
    below_cap, above_zero = cap * (1.0 - 1e-12), cap * 1e-12
    alpha = np.full(n, 1.0 / n)
    grad = K @ alpha
    alpha = alpha.tolist()
    up = np.where([a < below_cap for a in alpha], grad, np.inf)
    down = np.where([a > above_zero for a in alpha], grad, -np.inf)
    columns = np.ascontiguousarray(K.T)
    diag = K.diagonal().tolist()

    gap = np.inf
    for _ in range(max_passes):
        i = int(up.argmin())
        j = int(down.argmax())
        low, high = float(up[i]), float(down[j])
        if low == np.inf or high == -np.inf:
            # no coefficient can rise, or none can fall
            break
        gap = high - low
        if gap <= tolerance:
            break
        eta = diag[i] + diag[j] - 2.0 * float(K[i, j])
        step_max = min(cap - alpha[i], alpha[j])
        if eta > 1e-12:
            step = min(step_max, gap / eta)
        else:
            # Indefinite direction: the objective decreases all the way, take
            # the full box step.
            step = step_max
        alpha[i] += step
        alpha[j] -= step
        delta = step * (columns[i] - columns[j])
        grad += delta
        up += delta
        down += delta
        for k in (i, j):
            up[k] = grad[k] if alpha[k] < below_cap else np.inf
            down[k] = grad[k] if alpha[k] > above_zero else -np.inf
    else:
        raise ConvergenceError(
            f"dual solver stopped after {max_passes} passes with KKT gap {gap:.3e}",
            residual=float(gap),
        )
    return np.array(alpha)


def _merge_coincident(rows: np.ndarray, weights: np.ndarray):
    """The distinct rows of an (n, d) matrix and the summed weights of each,
    as `np.unique(rows, axis=0, return_inverse=True)` and `np.add.at` give
    them, or None when no two rows coincide.

    np.unique sorts the rows lexicographically, with -0.0 equal to 0.0, and
    keeps one row of each run of equal rows. A lexsort ranks finite rows in
    the same order for a fraction of its cost. np.unique itself decides
    where the rows of a run differ in their bits (-0.0 against 0.0), since
    which of them it keeps depends on its sort."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    bits = ranked.view(np.int64)
    if (first[1:] | (bits[1:] == bits[:-1]).all(axis=1)).all():
        if first.all():
            return None
        unique, inverse = ranked[first], np.empty_like(order)
        inverse[order] = np.cumsum(first) - 1
    else:
        unique, inverse = np.unique(rows, axis=0, return_inverse=True)
        if unique.shape[0] == rows.shape[0]:
            return None
    merged = np.zeros(unique.shape[0])
    np.add.at(merged, inverse, weights)
    return unique, merged


def train(
    vectors: np.ndarray,
    kernel: KernelSpec,
    cfg: TrainingConfig,
    norm_bounds: np.ndarray | None = None,
) -> SvddModel:
    """Fit the boundary on normalized training vectors (one row per sample).

    Support vectors are the rows with nonzero dual coefficients; coincident
    rows are merged with their coefficients summed. The squared boundary
    radius is the mean radius over boundary support vectors (those strictly
    inside the box), or the smallest support-vector radius if every
    coefficient sits at the box bound. `norm_bounds` records the raw-space
    scaling the caller applied; without it the bounds of the (already
    normalized) inputs are stored.
    """
    X = finite_array("vectors", np.atleast_2d(np.asarray(vectors, dtype=float)))
    if norm_bounds is not None:
        norm_bounds = finite_array("norm_bounds", np.asarray(norm_bounds, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise ValueError("training needs at least 2 vectors")
    K = kernel_matrix(kernel, X, X)
    if not np.isfinite(K).all():
        raise ValueError(f"{kernel} gives non-finite kernel values on the training set")
    # A kernel this sharp sees no two rows as alike: each training row sits
    # alone inside the boundary, and every unseen row lands outside.
    if np.abs(K).max(where=~np.eye(n, dtype=bool), initial=0.0) <= DUAL_TOLERANCE:
        raise ValueError(f"{kernel} gives every training row the same or a non-finite r2")
    alpha = _solve_dual(K, cfg.nu, DUAL_TOLERANCE, DUAL_MAX_PASSES)

    cap = 1.0 / (cfg.nu * n)
    sv_mask = alpha > cap * _ALPHA_CUTOFF
    # The solver's zero test and this cutoff are fractions of the cap
    # 1 / (nu n), so a tiny nu, such as 1e-300, puts them above every
    # coefficient and leaves no row to define the boundary.
    if not sv_mask.any():
        raise ValueError(f"nu {cfg.nu!r} is too small for {n} training rows: no support vector is left")
    sv_alpha = alpha[sv_mask]
    sv_alpha = sv_alpha / sv_alpha.sum()
    sv_x = X[sv_mask]

    K_sv = K[np.ix_(sv_mask.nonzero()[0], sv_mask.nonzero()[0])]
    const_term = float(sv_alpha @ K_sv @ sv_alpha)
    radii = _radius2(K_sv, sv_alpha, const_term)

    # Boundary support vectors sit strictly below the box bound.
    boundary = alpha[sv_mask] < cap * (1.0 - 1e-6)
    if boundary.any():
        radius2_threshold = float(np.mean(radii[boundary]))
    else:
        radius2_threshold = float(np.min(radii))

    # A kernel saturated or too sharp to tell rows apart gives every training
    # row the same radius; up to two distinct rows score alike by symmetry.
    r2 = _radius2(K[:, sv_mask], sv_alpha, const_term)
    flat = r2.min() == r2.max() and np.unique(X, axis=0).shape[0] > 2
    if flat or not np.isfinite(np.append(r2, [radius2_threshold, const_term])).all():
        raise ValueError(f"{kernel} gives every training row the same or a non-finite r2")

    # Merge coincident support vectors; the kernel cannot tell them apart.
    coincident = _merge_coincident(sv_x, sv_alpha)
    if coincident is not None:
        sv_x, sv_alpha = coincident
        const_term = float(sv_alpha @ kernel_matrix(kernel, sv_x, sv_x) @ sv_alpha)

    return SvddModel(
        support_vectors=sv_x,
        coefficients=sv_alpha,
        kernel=kernel,
        norm_bounds=norm_bounds if norm_bounds is not None else derive_bounds(X),
        radius2_threshold=radius2_threshold,
        const_term=const_term,
        nu=cfg.nu,
    )


def fit_trajectories(vectors: np.ndarray, kernel: KernelSpec, cfg: TrainingConfig) -> SvddModel:
    """Derive raw-space bounds from an (n, d) matrix of raw trajectory rows,
    normalize, and train; the model then scores raw rows directly."""
    bounds = derive_bounds(vectors)
    return train(normalize(vectors, bounds), kernel, cfg, norm_bounds=bounds)


def _radius2(K: np.ndarray, coefficients: np.ndarray, const_term: float) -> np.ndarray:
    """Squared radius of each row of K, the row's kernel values against the
    support vectors: 1 - 2 sum_i b_i k(x_i, x) + sum_ij b_i b_j k(x_i, x_j)."""
    return 1.0 - 2.0 * (K @ coefficients) + const_term


def radius_squared(model: SvddModel, x: np.ndarray) -> np.ndarray:
    """Squared kernel-space radii of the rows of a normalized (n, d) matrix
    relative to the sphere center (see `_radius2`), from one kernel-matrix
    product."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.dimension:
        raise ValueError(f"expected an (n, {model.dimension}) matrix, got shape {x.shape}")
    return _radius2(kernel_matrix(model.kernel, x, model.support_vectors), model.coefficients, model.const_term)


def score_trajectories(model: SvddModel, vectors: np.ndarray, *, scaled: bool = False) -> np.ndarray:
    """Squared radii of the rows of a raw (n, d) matrix, normalized with the
    model's bounds and scored SCORE_BLOCK rows at a time, so memory stays flat
    however many rows there are. Rows that are `scaled` already are scored in
    the same blocks, so each radius keeps its bits. The width is checked even
    with no rows."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != model.dimension:
        raise ValueError(f"trajectories of shape {vectors.shape}, the model expects {model.dimension} coordinates")
    r2 = np.empty(vectors.shape[0])
    for start in range(0, vectors.shape[0], SCORE_BLOCK):
        block = vectors[start : start + SCORE_BLOCK]
        block = block if scaled else normalize(block, model.norm_bounds)
        r2[start : start + block.shape[0]] = radius_squared(model, block)
    return r2


def classify(model: SvddModel, scaled: np.ndarray) -> np.ndarray:
    """One boolean per row of an (n, d) matrix normalized with the model's
    bounds: True when its radius, scored by `score_trajectories`, stays
    within the boundary radius."""
    return within_boundary(model, score_trajectories(model, scaled, scaled=True))


def within_boundary(model: SvddModel, r2):
    """True when a squared radius lies inside the boundary, up to the solver
    slack; elementwise for an array of radii."""
    return r2 <= model.radius2_threshold + _BOUNDARY_SLACK


def serialize(model: SvddModel) -> str:
    """JSON text with full-precision numbers; contains only the surrogate."""
    doc = {
        "kernel": asdict(model.kernel),
        "nu": model.nu,
        "norm_bounds": [[float(lo), float(hi)] for lo, hi in model.norm_bounds],
        "support_vectors": [[float(v) for v in row] for row in model.support_vectors],
        "coefficients": [float(c) for c in model.coefficients],
        "radius2_threshold": model.radius2_threshold,
        "const_term": model.const_term,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def deserialize(text: str) -> SvddModel:
    """Parse a serialized model, reporting which field is malformed."""
    doc = json_object("model file", text)
    keys = ("kernel", "nu", "norm_bounds", "support_vectors", "coefficients", "radius2_threshold", "const_term")
    check_keys("model file", doc, set(keys))
    for key in keys:
        if key not in doc:
            raise ValueError(f"model file: missing field {key!r}")
    kernel = build("model file: field 'kernel'", KernelSpec, doc["kernel"])
    for key in ("kind", "gamma"):
        if key not in doc["kernel"]:
            raise ValueError(f"model file: missing field kernel.{key}")
    # Only JSON numbers count, as float() and numpy would take "0.5" and true;
    # each field is one pass over its leaves, `depth` lists deep.
    for name, depth in (("nu", 0), ("radius2_threshold", 0), ("const_term", 0),
                        ("coefficients", 1), ("support_vectors", 2), ("norm_bounds", 2)):
        leaves = iter([doc[name]])
        for _ in range(depth):
            leaves = chain.from_iterable(leaves)
        try:
            other = set(map(type, leaves)) - {int, float}
        except TypeError:
            raise ValueError(f"model file: malformed field {name!r}") from None
        if other:
            raise ValueError(f"model file: {name} holds a {min(t.__name__ for t in other)}, not a number")
    try:
        support_vectors = np.array(doc["support_vectors"], dtype=float)
        coefficients = np.array(doc["coefficients"], dtype=float)
        norm_bounds = np.array(doc["norm_bounds"], dtype=float)
        model = SvddModel(
            support_vectors=np.atleast_2d(support_vectors),
            coefficients=coefficients,
            kernel=kernel,
            norm_bounds=norm_bounds,
            radius2_threshold=float(doc["radius2_threshold"]),
            const_term=float(doc["const_term"]),
            nu=float(doc["nu"]),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file: malformed field ({exc})") from exc
    # A NaN threshold would call every row infeasible, and a NaN or infinite
    # vector, coefficient, bound or constant makes every r2 nan or inf.
    for name in ("support_vectors", "coefficients", "norm_bounds", "radius2_threshold", "const_term", "nu"):
        if not np.isfinite(getattr(model, name)).all():
            raise ValueError(f"model file: {name} holds a non-finite value")
    build("model file", TrainingConfig, {"nu": model.nu})
    # Training leaves a distribution; one coefficient of 1e308 would make
    # every r2 -inf and call every row feasible.
    if (model.coefficients < 0.0).any():
        raise ValueError("model file: coefficients must not be negative")
    if not abs(model.coefficients.sum() - 1.0) <= _COEFFICIENT_SUM_TOL:
        raise ValueError(f"model file: coefficients sum to {model.coefficients.sum()!r}, not 1")
    if model.support_vectors.shape[0] != model.coefficients.shape[0]:
        raise ValueError("model file: support_vectors and coefficients disagree in count")
    if model.norm_bounds.ndim != 2 or model.norm_bounds.shape != (model.dimension, 2):
        raise ValueError("model file: norm_bounds must hold one (min, max) pair per coordinate")
    # Swapped pairs would map every coordinate to 0.5 and score every row
    # alike; equal ones are what training writes for a constant coordinate.
    swapped = np.flatnonzero(model.norm_bounds[:, 0] > model.norm_bounds[:, 1])
    if swapped.size:
        raise ValueError(f"model file: norm_bounds pair {swapped[0]} has its min above its max")
    return model


def save_model(model: SvddModel, path) -> None:
    Path(path).write_text(serialize(model))


def load_model(path) -> SvddModel:
    return deserialize(Path(path).read_text())
