"""Boundary-model checks: kernel evaluation, normalization, the dual solver's
nu-property, radius computation, classification, and serialization."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hemsflex import epso, svdd
from hemsflex.hems import FlexTrajectory, TrajectorySet
from hemsflex.svdd import (
    ConvergenceError,
    KernelSpec,
    TrainingConfig,
    classify,
    derive_bounds,
    deserialize,
    fit_trajectories,
    kernel_matrix,
    load_model,
    normalize,
    radius_squared,
    save_model,
    serialize,
    train,
    within_boundary,
)


def kernel_eval(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Scalar reference: the kernel value for a single vector pair."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"kernel arguments differ in shape: {a.shape} vs {b.shape}")
    if spec.kind == "rbf":
        diff = a - b
        return float(np.exp(-spec.gamma * np.dot(diff, diff)))
    if spec.kind == "poly":
        return float((spec.gamma * np.dot(a, b) + spec.coef0) ** spec.degree)
    return float(np.tanh(spec.gamma * np.dot(a, b) + spec.coef0))


def radius_of(model, x):
    """Squared radius of one normalized vector, scored as a one-row matrix."""
    return radius_squared(model, np.asarray(x)[None])[0]


def inside(model, x):
    """Boundary verdict of one normalized vector."""
    return within_boundary(model, radius_of(model, x))


class TestKernelEval:
    def test_rbf_identity(self):
        spec = KernelSpec(kind="rbf", gamma=0.7)
        x = np.array([0.1, 0.5, 0.9])
        assert kernel_eval(spec, x, x) == 1.0

    def test_rbf_known_distance(self):
        spec = KernelSpec(kind="rbf", gamma=1.0)
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        assert kernel_eval(spec, a, b) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_sigmoid_at_zero(self):
        spec = KernelSpec(kind="sigmoid", gamma=0.05)
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert kernel_eval(spec, a, b) == 0.0

    def test_poly_direct_value(self):
        spec = KernelSpec(kind="poly", gamma=1.0, degree=2, coef0=0.0)
        a = np.array([1.0, 1.0, 1.0])
        b = np.array([1.0, 1.0, 1.0])
        assert kernel_eval(spec, a, b) == pytest.approx(9.0, abs=1e-12)

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(1)
        A = rng.random((6, 4))
        B = rng.random((5, 4))
        for spec in (
            KernelSpec("rbf", gamma=0.3),
            KernelSpec("poly", gamma=0.5, degree=3, coef0=0.2),
            KernelSpec("sigmoid", gamma=0.05, coef0=0.1),
        ):
            K = kernel_matrix(spec, A, B)
            for i in range(6):
                for j in range(5):
                    assert K[i, j] == pytest.approx(kernel_eval(spec, A[i], B[j]), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        spec = KernelSpec(kind="rbf", gamma=1.0)
        with pytest.raises(ValueError):
            kernel_eval(spec, np.zeros(3), np.zeros(4))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="linear", gamma=1.0)
        with pytest.raises(ValueError):
            KernelSpec(kind="rbf", gamma=0.0)
        with pytest.raises(ValueError):
            KernelSpec(kind="poly", gamma=1.0, degree=0)


class TestNormalize:
    def test_extremes_map_to_corners(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-2.0, 2.0, (20, 6))
        bounds = derive_bounds(X)
        assert np.allclose(normalize(X.min(axis=0), bounds), 0.0)
        assert np.allclose(normalize(X.max(axis=0), bounds), 1.0)

    def test_midpoint_maps_to_half(self):
        bounds = np.array([[0.0, 2.0], [-1.0, 1.0]])
        assert np.allclose(normalize(np.array([1.0, 0.0]), bounds), 0.5)

    def test_out_of_range_clips(self):
        bounds = np.array([[0.0, 1.0]])
        assert normalize(np.array([5.0]), bounds)[0] == 1.0
        assert normalize(np.array([-5.0]), bounds)[0] == 0.0

    def test_degenerate_coordinate_maps_to_half(self):
        bounds = np.array([[0.3, 0.3], [0.0, 1.0]])
        out = normalize(np.array([0.3, 0.25]), bounds)
        assert out[0] == 0.5
        assert out[1] == 0.25

    def test_trajectory_flattens_battery_then_ewh(self):
        traj = FlexTrajectory(p_bat=np.array([1.0, -1.0]), p_ewh=np.array([0.5, 0.0]))
        bounds = np.array([[-1.0, 1.0]] * 2 + [[0.0, 0.5]] * 2)
        out = normalize(traj.as_vector(), bounds)
        assert np.allclose(out, [1.0, 0.0, 1.0, 0.0])


class TestTrain:
    def test_single_distinct_point_collapses(self):
        X = np.tile(np.array([0.2, 0.8, 0.5]), (3, 1))
        model = train(X, KernelSpec("rbf", gamma=0.5), TrainingConfig(nu=0.5))
        assert model.n_support == 1
        assert model.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert radius_of(model, X[0]) == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            train(np.zeros((1, 3)), KernelSpec("rbf", gamma=1.0), TrainingConfig())

    @pytest.mark.parametrize("kind", ["rbf", "poly", "sigmoid"])
    @pytest.mark.parametrize("nu", [0.01, 0.1, 0.15, 0.2])
    def test_nu_property(self, kind, nu):
        rng = np.random.default_rng(5)
        X = rng.random((1000, 32))
        model = train(X, KernelSpec(kind, gamma=0.05), TrainingConfig(nu=nu))
        sv_fraction = model.n_support / 1000
        outliers = sum(1 for x in X if not inside(model, x)) / 1000
        assert sv_fraction >= nu - 0.02
        assert outliers <= nu + 0.02

    def test_coefficients_form_a_distribution(self):
        rng = np.random.default_rng(6)
        X = rng.random((200, 8))
        model = train(X, KernelSpec("rbf", gamma=0.2), TrainingConfig(nu=0.2))
        assert np.all(model.coefficients >= 0.0)
        assert model.coefficients.sum() == pytest.approx(1.0, abs=1e-9)

    def test_duplicated_training_set_keeps_boundary(self):
        rng = np.random.default_rng(7)
        X = rng.random((150, 6))
        cfg = TrainingConfig(nu=0.15)
        spec = KernelSpec("rbf", gamma=0.3)
        single = train(X, spec, cfg)
        doubled = train(np.vstack([X, X]), spec, cfg)
        assert doubled.radius2_threshold == pytest.approx(single.radius2_threshold, abs=5e-3)
        # classification agrees on fresh points
        probes = rng.random((200, 6))
        agree = sum(inside(single, p) == inside(doubled, p) for p in probes)
        assert agree >= 195

    def test_interior_points_classify_feasible(self):
        rng = np.random.default_rng(8)
        X = rng.random((300, 10))
        model = train(X, KernelSpec("rbf", gamma=0.1), TrainingConfig(nu=0.1))
        radii = np.array([radius_of(model, x) for x in X])
        interior = radii < model.radius2_threshold - 1e-6
        assert all(inside(model, x) for x in X[interior])

    def test_nonconvergence_reports_residual(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = rng.random((100, 4))
        monkeypatch.setattr(svdd, "DUAL_MAX_PASSES", 2)
        with pytest.raises(ConvergenceError) as exc_info:
            train(X, KernelSpec("rbf", gamma=5.0), TrainingConfig(nu=0.1))
        assert exc_info.value.residual > 0.0



def _unique_merge(rows, weights):
    """The merge of coincident support vectors as `svdd.train` wrote it
    with np.unique: the reference `svdd._merge_coincident` must match."""
    unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    if unique.shape[0] == rows.shape[0]:
        return None
    merged = np.zeros(unique.shape[0])
    np.add.at(merged, inverse, weights)
    return unique, merged


class TestMergeCoincident:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_the_np_unique_merge(self, data):
        # Few distinct values, so that rows repeat, and more rows than
        # np.unique's sort orders by insertion; -0.0 beside 0.0. Training
        # rows are finite, so support vectors hold no NaN or inf.
        width = data.draw(st.integers(1, 4), label="width")
        values = st.sampled_from([0.0, -0.0, 1.0, 0.5, -2.0])
        pool = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 4)), width), elements=values), label="pool")
        picks = data.draw(st.lists(st.integers(0, pool.shape[0] - 1), min_size=1, max_size=60), label="picks")
        rows = pool[picks]
        weights = data.draw(hnp.arrays(float, len(picks), elements=st.floats(0.0, 1.0)), label="weights")
        got, expected = svdd._merge_coincident(rows, weights), _unique_merge(rows, weights)
        if expected is None:
            assert got is None
        else:
            for a, b in zip(got, expected):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_long_runs_of_signed_zeros_keep_the_row_np_unique_keeps(self):
        # Past 16 rows np.unique's sort may reorder equal rows, so the row it
        # keeps of a run mixing -0.0 and 0.0 is not always the first one.
        rng = np.random.default_rng(37)
        for _ in range(200):
            rows = rng.choice([0.0, -0.0, 1.0], size=(int(rng.integers(2, 80)), int(rng.integers(1, 3))))
            weights = rng.random(rows.shape[0])
            got, expected = svdd._merge_coincident(rows, weights), _unique_merge(rows, weights)
            assert (got is None) == (expected is None)
            if expected is not None:
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))

    def test_train_merges_a_doubled_set(self):
        X = np.random.default_rng(36).random((30, 4))
        model = train(np.vstack([X, X]), KernelSpec("rbf", gamma=0.5), TrainingConfig(nu=0.2))
        assert _unique_merge(model.support_vectors, model.coefficients) is None
        assert model.coefficients.sum() == pytest.approx(1.0, abs=1e-12)

class TestRadiusSquared:
    def test_single_support_vector_at_itself(self):
        X = np.tile(np.array([0.4, 0.6]), (2, 1))
        model = train(X, KernelSpec("rbf", gamma=1.0), TrainingConfig(nu=0.5))
        assert radius_of(model, np.array([0.4, 0.6])) == pytest.approx(0.0, abs=1e-12)

    def test_single_support_vector_unit_distance(self):
        X = np.tile(np.array([0.0, 0.0]), (2, 1))
        model = train(X, KernelSpec("rbf", gamma=1.0), TrainingConfig(nu=0.5))
        # distance 1 from the single support vector: 2 (1 - e^-1)
        value = radius_of(model, np.array([1.0, 0.0]))
        assert value == pytest.approx(2.0 * (1.0 - np.exp(-1.0)), abs=1e-12)

    def test_rbf_radius_bounded(self):
        rng = np.random.default_rng(10)
        X = rng.random((100, 5))
        model = train(X, KernelSpec("rbf", gamma=0.4), TrainingConfig(nu=0.2))
        for _ in range(100):
            x = rng.uniform(-3, 3, 5)
            assert 0.0 <= radius_of(model, x) <= 4.0

    def test_symmetric_under_support_vector_permutation(self):
        rng = np.random.default_rng(11)
        X = rng.random((80, 4))
        model = train(X, KernelSpec("sigmoid", gamma=0.05), TrainingConfig(nu=0.2))
        perm = rng.permutation(model.n_support)
        shuffled = svdd.SvddModel(
            support_vectors=model.support_vectors[perm],
            coefficients=model.coefficients[perm],
            kernel=model.kernel,
            norm_bounds=model.norm_bounds,
            radius2_threshold=model.radius2_threshold,
            const_term=model.const_term,
            nu=model.nu,
        )
        for _ in range(20):
            x = rng.random(4)
            assert radius_of(shuffled, x) == pytest.approx(radius_of(model, x), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        X = np.tile(np.array([0.4, 0.6]), (2, 1))
        model = train(X, KernelSpec("rbf", gamma=1.0), TrainingConfig(nu=0.5))
        with pytest.raises(ValueError):
            radius_squared(model, np.zeros(3))
        with pytest.raises(ValueError):
            radius_squared(model, np.zeros((1, 1, 2)))


class TestClassify:
    def test_boundary_support_vectors_classify_feasible(self):
        rng = np.random.default_rng(12)
        X = rng.random((400, 8))
        model = train(X, KernelSpec("rbf", gamma=0.2), TrainingConfig(nu=0.15))
        # every support vector at or inside the boundary must come back feasible
        radii = np.array([radius_of(model, sv) for sv in model.support_vectors])
        on_boundary = np.abs(radii - model.radius2_threshold) < 1e-5
        assert on_boundary.any()
        assert all(inside(model, sv) for sv in model.support_vectors[on_boundary])

    def test_far_outside_training_range_is_infeasible_rbf(self):
        # rbf: kernel values vanish far away, so the radius exceeds any
        # threshold. (Dot-product kernels lack this property: their score is
        # monotone in x.y, so positive-orthant extremes score as inside.)
        rng = np.random.default_rng(13)
        X = rng.random((200, 6))
        model = train(X, KernelSpec("rbf", gamma=0.5), TrainingConfig(nu=0.1))
        assert not inside(model, np.full(6, 10.0))
        # raw trajectories clip into the training box during normalization,
        # and the box corner lies outside a uniform cloud's boundary
        corner = np.ones(6)
        assert radius_of(model, corner) > model.radius2_threshold

    def test_deepest_training_point_is_feasible(self):
        rng = np.random.default_rng(14)
        X = rng.random((200, 6))
        model = train(X, KernelSpec("rbf", gamma=0.5), TrainingConfig(nu=0.1))
        radii = [radius_of(model, x) for x in X]
        assert inside(model, X[int(np.argmin(radii))])


class TestBlockedScoring:
    @staticmethod
    def _trajectories(rng, count, scale=0.4):
        """`count` raw 8-step trajectories as the rows of a (count, 16) matrix."""
        rows = [
            FlexTrajectory(p_bat=rng.normal(0.0, scale, 8), p_ewh=np.where(rng.random(8) < 0.5, 0.5, 0.0)).as_vector()
            for _ in range(count)
        ]
        return np.array(rows).reshape(count, 16)

    @pytest.mark.parametrize("kind", ["rbf", "poly", "sigmoid"])
    @pytest.mark.parametrize("count", [0, 1, svdd.SCORE_BLOCK - 1, svdd.SCORE_BLOCK, svdd.SCORE_BLOCK + 1])
    def test_blocked_radii_match_per_vector(self, kind, count):
        rng = np.random.default_rng(20)
        model = fit_trajectories(
            self._trajectories(rng, 120), KernelSpec(kind, gamma=0.2, coef0=0.1), TrainingConfig(nu=0.15)
        )
        trajs = self._trajectories(rng, count, scale=0.8)  # wider: some clip during normalization
        blocked = svdd.score_trajectories(model, trajs)
        assert blocked.shape == (count,)
        for r2, row in zip(blocked, trajs):
            x = normalize(row, model.norm_bounds)
            # Per-vector reference: the expansion summed pair by pair.
            direct = 1.0 + model.const_term - 2.0 * sum(
                b * kernel_eval(model.kernel, sv, x) for b, sv in zip(model.coefficients, model.support_vectors)
            )
            assert r2 == pytest.approx(direct, abs=1e-12)
            assert r2 == pytest.approx(radius_of(model, x), abs=1e-12)
        scaled = normalize(trajs, model.norm_bounds)
        verdicts = classify(model, scaled)
        assert verdicts.tolist() == [classify(model, row[None])[0] for row in scaled]
        assert verdicts.tolist() == within_boundary(model, blocked).tolist()

    def test_matrix_normalization_matches_rows(self):
        rng = np.random.default_rng(21)
        bounds = np.array([[-1.0, 1.0], [0.0, 0.0], [0.2, 0.7]])
        X = rng.uniform(-2.0, 2.0, (9, 3))
        assert np.array_equal(normalize(X, bounds), np.stack([normalize(x, bounds) for x in X]))
        with pytest.raises(ValueError):
            normalize(X[:, :2], bounds)


class TestScaledSet:
    """`validate` scales the training set once for all its fits and scores
    raw set matrices, such as a file's strided columns; that must train and
    score exactly as fitting and scoring contiguous stacked rows does, block
    edges included."""

    @pytest.mark.parametrize("kind", ["rbf", "poly", "sigmoid"])
    def test_scaled_set_matches_raw_trajectories_bit_for_bit(self, kind, tmp_path):
        rng = np.random.default_rng(22)
        train_set = TestBlockedScoring._trajectories(rng, 130)
        others = TestBlockedScoring._trajectories(rng, 2 * svdd.SCORE_BLOCK + 3, scale=0.8)
        spec, cfg = KernelSpec(kind, gamma=0.2, coef0=0.1), TrainingConfig(nu=0.15)
        raw_model = fit_trajectories(train_set, spec, cfg)
        bounds = derive_bounds(train_set)
        model = train(normalize(train_set, bounds), spec, cfg, norm_bounds=bounds)
        assert serialize(model) == serialize(raw_model)
        for name, raw in (("train", train_set), ("others", others)):
            epso.write_trajectories_csv(tmp_path / f"{name}.csv", TrajectorySet(raw))
            rows = epso.read_trajectories_csv(tmp_path / f"{name}.csv")[0].matrix
            assert not rows.flags.c_contiguous and len(rows) == len(raw)
            r2 = svdd.score_trajectories(model, rows)
            assert np.array_equal(r2.view(np.int64), svdd.score_trajectories(raw_model, raw).view(np.int64))
            # Normalized once as a whole, then scored in the same blocks.
            prescaled = svdd.score_trajectories(model, normalize(rows, bounds), scaled=True)
            assert np.array_equal(prescaled.view(np.int64), r2.view(np.int64))
            assert classify(model, normalize(rows, bounds)).tolist() == within_boundary(raw_model, r2).tolist()

    def test_matrix_of_another_width_rejected(self):
        rng = np.random.default_rng(23)
        trajs = TestBlockedScoring._trajectories(rng, 20)
        model = fit_trajectories(trajs, KernelSpec("rbf", gamma=0.2), TrainingConfig(nu=0.15))
        # With no rows there is nothing to normalize, so only the width can tell.
        for wrong in (trajs[:, :12], trajs[:0, :4], trajs[0]):
            with pytest.raises(ValueError, match="the model expects 16 coordinates"):
                svdd.score_trajectories(model, wrong)
            with pytest.raises(ValueError, match="the model expects 16 coordinates"):
                classify(model, wrong)


class TestSerialization:
    def _model(self, seed=15):
        rng = np.random.default_rng(seed)
        trajs = [
            FlexTrajectory(
                p_bat=rng.uniform(-1.5, 1.5, 8), p_ewh=np.where(rng.random(8) < 0.5, 0.5, 0.0)
            )
            for _ in range(120)
        ]
        rows = np.stack([t.as_vector() for t in trajs])
        return trajs, fit_trajectories(rows, KernelSpec("sigmoid", gamma=0.05), TrainingConfig(nu=0.15))

    def test_round_trip_bit_exact(self):
        _, model = self._model()
        back = deserialize(serialize(model))
        assert np.array_equal(back.support_vectors, model.support_vectors)
        assert np.array_equal(back.coefficients, model.coefficients)
        assert np.array_equal(back.norm_bounds, model.norm_bounds)
        assert back.radius2_threshold == model.radius2_threshold
        assert back.const_term == model.const_term
        assert back.kernel == model.kernel
        assert back.nu == model.nu

    @pytest.mark.parametrize(
        "field, value",
        [("support_vectors", float("nan")), ("coefficients", float("nan")), ("norm_bounds", float("inf")),
         ("radius2_threshold", float("nan")), ("const_term", float("inf")), ("nu", float("nan"))],
    )
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"model file: {field} holds a non-finite value"):
            deserialize(self._with_leaf(field, value))

    @pytest.mark.parametrize("value", [True, "0.5"])
    @pytest.mark.parametrize(
        "field", ["radius2_threshold", "const_term", "nu", "coefficients", "support_vectors", "norm_bounds"]
    )
    def test_non_number_field_rejected(self, field, value):
        # float() and numpy would read JSON true as 1 and "0.5" as 0.5.
        with pytest.raises(ValueError, match=f"model file: {field} holds a {type(value).__name__}, not a number"):
            deserialize(self._with_leaf(field, value))

    @pytest.mark.parametrize("field", ["coefficients", "support_vectors", "norm_bounds"])
    def test_array_field_must_be_nested_lists(self, field):
        with pytest.raises(ValueError, match=f"model file: malformed field '{field}'"):
            deserialize(self._with_leaf(field, 0.5, whole=True))

    def _with_leaf(self, field, value, whole=False):
        """Serialized model text with the first number of `field` (or, with
        `whole`, the field itself) replaced by `value`."""
        _, model = self._model()
        doc = json.loads(serialize(model))
        if whole or field not in ("support_vectors", "norm_bounds", "coefficients"):
            doc[field] = value
        elif field == "coefficients":
            doc[field][0] = value
        else:
            doc[field][0][0] = value
        return json.dumps(doc)

    def test_file_contains_only_surrogate_fields(self):
        _, model = self._model()
        doc = json.loads(serialize(model))
        assert set(doc) == {
            "kernel", "nu", "norm_bounds", "support_vectors", "coefficients",
            "radius2_threshold", "const_term",
        }
        # only support vectors ship, not the full training set
        assert len(doc["support_vectors"]) == model.n_support
        assert model.n_support < 120

    def test_classification_invariant_under_round_trip(self):
        trajs, model = self._model()
        back = deserialize(serialize(model))
        rng = np.random.default_rng(16)
        for _ in range(1000):
            traj = FlexTrajectory(
                p_bat=rng.uniform(-2.0, 2.0, 8), p_ewh=np.where(rng.random(8) < 0.5, 0.5, 0.0)
            )
            row = traj.as_vector()[None]
            assert classify(model, normalize(row, model.norm_bounds))[0] == classify(
                back, normalize(row, back.norm_bounds)
            )[0]

    def test_save_load_file(self, tmp_path):
        _, model = self._model()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.support_vectors, model.support_vectors)

    def test_malformed_file_reports_field(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            deserialize("{ nope")
        with pytest.raises(ValueError, match="missing field 'coefficients'"):
            deserialize(
                '{"kernel": {"kind": "rbf", "gamma": 1.0}, "nu": 0.1, "norm_bounds": [],'
                ' "support_vectors": [], "radius2_threshold": 0, "const_term": 0}'
            )
        with pytest.raises(ValueError, match="disagree in count"):
            deserialize(
                '{"kernel": {"kind": "rbf", "gamma": 1.0}, "nu": 0.1,'
                ' "norm_bounds": [[0, 1], [0, 1]],'
                ' "support_vectors": [[0.1, 0.2]], "coefficients": [0.5, 0.5],'
                ' "radius2_threshold": 0.3, "const_term": 0.9}'
            )

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"model"', "null"])
    def test_non_object_file_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="model file: the top level must be a JSON object"):
            load_model(path)

    @pytest.mark.parametrize("kernel", [5, "rbf", ["kind", "gamma"], None])
    def test_non_object_kernel_rejected(self, kernel):
        doc = json.loads(serialize(self._model()[1]))
        doc["kernel"] = kernel
        with pytest.raises(ValueError, match="model file: field 'kernel' must be a JSON object"):
            deserialize(json.dumps(doc))

    def _edited(self, edit):
        doc = json.loads(serialize(self._model()[1]))
        edit(doc)
        return json.dumps(doc)

    def test_coefficients_must_sum_to_one(self):
        # One coefficient of 1e308 scores every row -inf, inside the boundary.
        with pytest.raises(ValueError, match="model file: coefficients sum to .*, not 1"):
            deserialize(self._edited(lambda doc: doc["coefficients"].__setitem__(0, 1e308)))

    def test_negative_coefficient_rejected(self):
        def edit(doc):
            # The sum stays 1, so only the sign rule can reject it.
            coefficients = doc["coefficients"]
            coefficients[1] += coefficients[0] + 0.01
            coefficients[0] = -0.01

        with pytest.raises(ValueError, match="model file: coefficients must not be negative"):
            deserialize(self._edited(edit))

    def test_swapped_norm_bounds_rejected(self):
        # Swapped, every coordinate would normalize to 0.5 and every row
        # would score alike; a pair of equal values is what training writes
        # for a constant coordinate.
        with pytest.raises(ValueError, match="model file: norm_bounds pair 0 has its min above its max"):
            deserialize(self._edited(lambda doc: doc["norm_bounds"][0].reverse()))
        equal = deserialize(self._edited(lambda doc: doc["norm_bounds"][0].__setitem__(1, doc["norm_bounds"][0][0])))
        assert equal.norm_bounds[0, 0] == equal.norm_bounds[0, 1]

    def test_nu_checked_as_in_training(self):
        with pytest.raises(ValueError, match=r"model file: nu must lie strictly inside \(0, 1\), got 5"):
            deserialize(self._edited(lambda doc: doc.update(nu=5)))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match=re.escape("model file: unknown key(s) note")):
            deserialize(self._edited(lambda doc: doc.update(note="hand-edited")))

    @pytest.mark.parametrize("path", ["perfbench/reference_model.json", "out/small/model.json"])
    def test_shipped_models_load(self, path):
        model = load_model(Path(__file__).resolve().parent.parent / path)
        assert (model.coefficients >= 0.0).all() and abs(model.coefficients.sum() - 1.0) <= 1e-12


class TestStackVectors:
    """The stacked [p_bat | p_ewh] matrix that svdd reads, as a trajectory
    file holds it, against one concatenation per row, and the rows that the
    set gives back."""

    @pytest.mark.parametrize("horizon", [1, 2, 96])
    def test_matches_as_vector_rows_bit_for_bit(self, horizon, tmp_path):
        rng = np.random.default_rng(36)
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1.5]
        trajs = [
            FlexTrajectory(p_bat=rng.choice(specials, horizon), p_ewh=rng.choice(specials, horizon))
            for _ in range(70)
        ] + [FlexTrajectory(p_bat=rng.uniform(-1.5, 1.5, horizon), p_ewh=np.full(horizon, -0.0))]
        for rows in (trajs, trajs[:1], trajs[-1:]):
            expected = np.stack([t.as_vector() for t in rows])
            epso.write_trajectories_csv(tmp_path / "rows.csv", rows)
            for stacked in (epso.read_trajectories_csv(tmp_path / "rows.csv")[0], TrajectorySet(expected)):
                assert stacked.matrix.shape == expected.shape
                # bytes, so that -0.0 against 0.0 counts as a difference
                assert np.ascontiguousarray(stacked.matrix).tobytes() == expected.tobytes()
                assert b"".join(t.as_vector().tobytes() for t in stacked) == expected.tobytes()

    def test_empty_and_ragged_inputs_raise_value_error(self):
        short = FlexTrajectory(p_bat=np.zeros(3), p_ewh=np.zeros(3))
        long = FlexTrajectory(p_bat=np.zeros(4), p_ewh=np.zeros(4))
        spec, cfg = KernelSpec("rbf", gamma=1.0), TrainingConfig(nu=0.5)
        with pytest.raises(ValueError):
            fit_trajectories(np.empty((0, 6)), spec, cfg)
        for rows in ([short, long], [long, short], [short, short, long], [long, long, short]):
            with pytest.raises(ValueError):
                fit_trajectories([t.as_vector() for t in rows], spec, cfg)
        model = fit_trajectories(np.stack([short.as_vector(), np.r_[np.ones(3), np.zeros(3)]]), spec, cfg)
        with pytest.raises(ValueError):
            svdd.score_trajectories(model, [short.as_vector(), long.as_vector()])
        assert svdd.score_trajectories(model, np.empty((0, 6))).shape == (0,)


class TestFitTrajectories:
    def test_model_classifies_raw_trajectories(self):
        rng = np.random.default_rng(17)
        trajs = [
            FlexTrajectory(
                p_bat=rng.uniform(-1.0, 1.0, 6), p_ewh=np.where(rng.random(6) < 0.5, 0.5, 0.0)
            )
            for _ in range(150)
        ]
        rows = np.stack([t.as_vector() for t in trajs])
        model = fit_trajectories(rows, KernelSpec("rbf", gamma=0.1), TrainingConfig(nu=0.1))
        feasible_share = np.mean([classify(model, row[None])[0] for row in normalize(rows, model.norm_bounds)])
        assert feasible_share >= 0.85  # most training members inside
        # far outside the training band
        wild = FlexTrajectory(p_bat=np.full(6, 50.0), p_ewh=np.full(6, 50.0))
        normalized = normalize(wild.as_vector(), model.norm_bounds)
        assert np.all(normalized <= 1.0)  # clipping keeps the vector sane


def _reference_solve_dual(K, nu, tolerance, max_passes):
    """The dual solver as a plain masked-gradient loop, kept as the reference
    that `svdd._solve_dual` must match bit for bit."""
    n = K.shape[0]
    cap = 1.0 / (nu * n)
    alpha = np.full(n, 1.0 / n)
    grad = K @ alpha

    gap = np.inf
    for _ in range(max_passes):
        movable_up = alpha < cap * (1.0 - 1e-12)
        movable_down = alpha > cap * 1e-12
        if not movable_up.any() or not movable_down.any():
            break
        i = int(np.argmin(np.where(movable_up, grad, np.inf)))
        j = int(np.argmax(np.where(movable_down, grad, -np.inf)))
        gap = grad[j] - grad[i]
        if gap <= tolerance:
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        step_max = min(cap - alpha[i], alpha[j])
        if eta > 1e-12:
            step = min(step_max, gap / eta)
        else:
            # Indefinite direction: the objective decreases all the way, take
            # the full box step.
            step = step_max
        alpha[i] += step
        alpha[j] -= step
        grad += step * (K[:, i] - K[:, j])
    else:
        raise ConvergenceError(
            f"dual solver stopped after {max_passes} passes with KKT gap {gap:.3e}",
            residual=float(gap),
        )
    return alpha


class TestSolverTwin:
    """The in-place working-set solver against the reference loop: equal
    coefficients, or the same ConvergenceError residual."""

    @pytest.mark.parametrize("nu", [0.05, 0.15, 0.5, 0.9])
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec("rbf", gamma=0.3), KernelSpec("poly", gamma=0.5, degree=2, coef0=1.0),
         KernelSpec("sigmoid", gamma=0.05)],
        ids=["rbf", "poly", "sigmoid"],
    )
    def test_random_data_matches_reference(self, spec, nu):
        X = np.random.default_rng(31).random((60, 8))
        K = kernel_matrix(spec, X, X)
        expected = _reference_solve_dual(K, nu, 1e-6, 100_000)
        assert np.array_equal(svdd._solve_dual(K, nu, 1e-6, 100_000), expected)

    def test_duplicated_rows_take_full_steps(self):
        # K = -v v' has eta = -(v_i - v_j)^2 <= 0 for every pair, so every
        # step is the full box step; the repeated entries of v duplicate rows
        # of K and tie gradients, which the first-index pick must break alike.
        v = np.repeat(np.random.default_rng(32).random(15), 2)
        K = -np.outer(v, v)
        for nu in (0.1, 0.3):
            expected = _reference_solve_dual(K, nu, 1e-6, 100_000)
            assert np.array_equal(svdd._solve_dual(K, nu, 1e-6, 100_000), expected)

    def test_duplicated_data_under_indefinite_sigmoid(self):
        X = np.random.default_rng(34).random((20, 5))
        X = np.vstack([X, X])
        K = kernel_matrix(KernelSpec("sigmoid", gamma=1.0, coef0=-1.0), X, X)
        for nu in (0.05, 0.2, 0.5):
            expected = _reference_solve_dual(K, nu, 1e-6, 100_000)
            assert np.array_equal(svdd._solve_dual(K, nu, 1e-6, 100_000), expected)

    def test_iteration_cap_raises_the_same_residual(self):
        X = np.random.default_rng(35).random((60, 8))
        K = kernel_matrix(KernelSpec("rbf", gamma=5.0), X, X)
        with pytest.raises(ConvergenceError) as expected:
            _reference_solve_dual(K, 0.1, 1e-6, 3)
        with pytest.raises(ConvergenceError) as actual:
            svdd._solve_dual(K, 0.1, 1e-6, 3)
        assert actual.value.residual == expected.value.residual
        assert str(actual.value) == str(expected.value)


class TestDegenerateTraining:
    """A kernel that overflows or saturates on the training set is an input
    error that names the kernel, not a model that classifies nothing."""

    @pytest.mark.parametrize(
        "kernel",
        [KernelSpec("poly", gamma=1e300), KernelSpec("sigmoid", gamma=1e6), KernelSpec("sigmoid", coef0=1e6)],
    )
    def test_train_rejects_a_kernel_that_tells_no_rows_apart(self, kernel):
        X = np.random.default_rng(30).random((40, 6))
        # The poly kernel overflows on purpose here.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=re.escape(repr(kernel))):
            train(X, kernel, TrainingConfig(nu=0.15))

    @pytest.mark.parametrize("gamma", [1e6, 1e3])
    def test_train_rejects_a_kernel_that_sees_no_rows_alike(self, gamma):
        # Every off-diagonal kernel value is at most 1e-11: each training row
        # would sit alone inside the boundary, and every unseen row outside.
        X = np.random.default_rng(30).random((40, 6))
        kernel = KernelSpec("rbf", gamma=gamma)
        with pytest.raises(ValueError, match=re.escape(repr(kernel))):
            train(X, kernel, TrainingConfig(nu=0.15))
        # The tests' sharpest rbf kernel still trains on these rows.
        train(X, KernelSpec("rbf", gamma=5.0), TrainingConfig(nu=0.15))

    @pytest.mark.parametrize("kind", ["rbf", "poly", "sigmoid"])
    def test_train_rejects_a_nu_too_small_to_keep_a_support_vector(self, kind):
        X = np.random.default_rng(30).random((40, 6))
        with pytest.raises(ValueError, match="nu 1e-300 is too small for 40 training rows"):
            train(X, KernelSpec(kind, gamma=0.5), TrainingConfig(nu=1e-300))

    def test_serialize_refuses_non_finite_numbers(self):
        X = np.random.default_rng(31).random((20, 3))
        model = train(X, KernelSpec("rbf", gamma=0.5), TrainingConfig(nu=0.2))
        model.radius2_threshold = float("nan")
        with pytest.raises(ValueError):
            serialize(model)
