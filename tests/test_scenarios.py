"""Scenario-engine checks: covariance shape, copula statistics, quantile
mapping, the normal CDF against scipy's, and PV surplus."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from hemsflex import scenarios
from hemsflex.scenarios import (
    CopulaConfig,
    MarginalForecast,
    ScenarioSet,
    build_covariance,
    generate_scenarios,
    pv_surplus,
    sample_gaussian_copula,
    transform_to_scenarios,
)
from tests.conftest import example_inputs


class TestBuildCovariance:
    def test_unit_diagonal(self):
        cov = build_covariance(8, 3.0)
        assert np.allclose(np.diag(cov), 1.0)

    def test_lag_two_nu_two(self):
        cov = build_covariance(5, 2.0)
        assert cov[0, 2] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_tiny_nu_approaches_independence(self):
        cov = build_covariance(4, 1e-6)
        off_diag = cov[~np.eye(4, dtype=bool)]
        assert np.all(off_diag < 1e-12)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 4.0, 16.0])
    @pytest.mark.parametrize("horizon", [2, 16, 64])
    def test_symmetric_unit_diagonal_pd(self, horizon, nu):
        cov = build_covariance(horizon, nu)
        assert np.array_equal(cov, cov.T)
        assert np.allclose(np.diag(cov), 1.0)
        assert np.all(np.linalg.eigvalsh(cov) > 0.0)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            build_covariance(4, 0.0)
        with pytest.raises(ValueError):
            build_covariance(4, -1.0)


class TestSampleGaussianCopula:
    def test_identity_covariance_moments(self):
        z = sample_gaussian_copula(np.eye(8), 100_000, seed=11)
        assert np.all(np.abs(z.mean(axis=0)) < 0.02)
        assert np.all(np.abs(z.var(axis=0) - 1.0) < 0.03)

    def test_lag_one_correlation_matches_covariance(self):
        cov = build_covariance(8, 4.0)
        z = sample_gaussian_copula(cov, 100_000, seed=12)
        corr = np.mean(
            [np.corrcoef(z[:, k], z[:, k + 1])[0, 1] for k in range(7)]
        )
        assert corr == pytest.approx(np.exp(-0.25), abs=0.02)

    @pytest.mark.parametrize("lag", [1, 2, 4])
    def test_lagged_correlations_track_the_model(self, lag):
        nu = 4.0
        z = sample_gaussian_copula(build_covariance(12, nu), 100_000, seed=14)
        corrs = [np.corrcoef(z[:, k], z[:, k + lag])[0, 1] for k in range(12 - lag)]
        assert np.mean(corrs) == pytest.approx(np.exp(-lag / nu), abs=0.03)

    def test_same_seed_bit_identical(self):
        cov = build_covariance(6, 2.0)
        a = sample_gaussian_copula(cov, 50, seed=5)
        b = sample_gaussian_copula(cov, 50, seed=5)
        assert np.array_equal(a, b)

    def test_column_normality(self):
        z = sample_gaussian_copula(build_covariance(6, 4.0), 100_000, seed=13)
        centered = z - z.mean(axis=0)
        std = centered.std(axis=0)
        skew = np.mean(centered**3, axis=0) / std**3
        kurt = np.mean(centered**4, axis=0) / std**4 - 3.0
        assert np.all(np.abs(skew) < 0.05)
        assert np.all(np.abs(kurt) < 0.1)

    def test_rejects_asymmetric_covariance(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            sample_gaussian_copula(bad, 10, seed=1)


class TestTransformToScenarios:
    def test_median_maps_to_median(self):
        marginal = MarginalForecast(1, [0.1, 0.5, 0.9], [0.4, 1.2, 2.0])
        out = transform_to_scenarios(np.array([[0.0]]), [marginal])
        assert out.values[0, 0] == pytest.approx(1.2, abs=1e-12)

    def test_quantile_lookup(self):
        marginal = MarginalForecast(1, [0.1, 0.9], [0.0, 2.0])
        z = ndtri(0.9)
        out = transform_to_scenarios(np.array([[z]]), [marginal])
        assert out.values[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_degenerate_marginal_is_constant(self):
        marginal = MarginalForecast(1, [0.2, 0.5, 0.8], [0.7, 0.7, 0.7])
        z = np.linspace(-4, 4, 11)[:, None]
        out = transform_to_scenarios(z, [marginal])
        assert np.all(out.values == 0.7)

    def test_tails_clamp_to_extreme_quantiles(self):
        marginal = MarginalForecast(1, [0.25, 0.75], [-1.0, 1.0])
        out = transform_to_scenarios(np.array([[-10.0], [10.0]]), [marginal])
        assert out.values[0, 0] == -1.0
        assert out.values[1, 0] == 1.0

    def test_monotone_in_z(self):
        rng = np.random.default_rng(8)
        marginal = MarginalForecast(
            1, [0.05, 0.3, 0.5, 0.7, 0.95], np.sort(rng.normal(size=5))
        )
        z = np.sort(rng.normal(size=200))
        out = transform_to_scenarios(z[:, None], [marginal]).values[:, 0]
        assert np.all(np.diff(out) >= 0.0)

    def test_marginal_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            MarginalForecast(1, [0.5, 0.5], [0.0, 1.0])  # not strictly increasing
        with pytest.raises(ValueError):
            MarginalForecast(1, [0.2, 0.8], [1.0, 0.0])  # decreasing values
        with pytest.raises(ValueError):
            MarginalForecast(1, [0.0, 0.5], [0.0, 1.0])  # prob at 0
        for probs, values in (([np.nan, 0.5], [0.0, 1.0]), ([0.5], [np.nan]), ([0.2, 0.8], [0.0, np.inf])):
            with pytest.raises(ValueError):
                MarginalForecast(1, probs, values)  # non-finite


class TestNormalCdf:
    """`scenarios._ndtr` ports the Cephes routine that `scipy.special.ndtr`
    runs; on finite input it must return scipy's value bit for bit."""

    # |a| where the routine changes branch: erf below 1, 1 - erf below
    # sqrt(2), the P/Q tail below 8 sqrt(2), the R/S tail up to sqrt(2 MAXLOG),
    # and 0 or 1 beyond it.
    EDGES = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * scenarios._MAXLOG)]

    @staticmethod
    def _assert_scipy_bits(a):
        a = np.asarray(a, dtype=float)
        want, got = ndtr(a), scenarios._ndtr(a)
        assert got.shape == a.shape
        bad = np.flatnonzero(want.view(np.int64) != got.view(np.int64))
        assert not bad.size, f"{bad.size} of {a.size} differ, the first at a = {a.ravel()[bad[0]]!r}"

    def test_seeded_normals(self):
        self._assert_scipy_bits(np.random.default_rng(30).normal(0.0, 3.0, (1000, 1000)))

    def test_dense_grid(self):
        self._assert_scipy_bits(np.linspace(-40.0, 40.0, 2_000_001))

    def test_deep_lower_tail(self):
        self._assert_scipy_bits(np.random.default_rng(31).uniform(-39.0, -30.0, 200_000))

    def test_zeros_subnormals_and_extremes(self):
        tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
        values = [0.0, tiny, 1e-310, np.finfo(float).tiny, 1e-300, 1e-8, 1e300, 1e308, big]
        self._assert_scipy_bits(values + [-v for v in values])

    @pytest.mark.parametrize("edge", EDGES)
    def test_both_sides_of_each_branch_edge(self, edge):
        below, above = [edge], [edge]
        for _ in range(64):
            below.append(np.nextafter(below[-1], -np.inf))
            above.append(np.nextafter(above[-1], np.inf))
        cloud = edge + np.random.default_rng(32).uniform(-1e-3, 1e-3, 100_000)
        points = np.concatenate([below, above, cloud])
        self._assert_scipy_bits(np.concatenate([points, -points]))


class TestPvSurplus:
    def test_definition(self):
        assert np.allclose(pv_surplus([0.5, -0.3, 0.0]), [0.0, 0.3, 0.0])

    def test_all_positive_net_load(self):
        assert np.all(pv_surplus(np.full(10, 0.4)) == 0.0)

    def test_positive_only_where_negative(self):
        rng = np.random.default_rng(3)
        net = rng.normal(size=50)
        surplus = pv_surplus(net)
        assert np.all(surplus[net >= 0] == 0.0)
        assert np.all(surplus[net < 0] > 0.0)


class TestGenerateScenarios:
    def test_fixed_seed_bit_identical(self):
        base = np.linspace(0.5, -0.5, 12)
        marginals = [
            MarginalForecast(t + 1, [0.1, 0.5, 0.9], [b - 0.2, b, b + 0.2])
            for t, b in enumerate(base)
        ]
        config = CopulaConfig(count=30, nu_cov=4.0, seed=21)
        a = generate_scenarios(marginals, config)
        b = generate_scenarios(marginals, config)
        assert np.array_equal(a.values, b.values)

    def test_shape_and_finiteness(self):
        marginals = [MarginalForecast(t + 1, [0.1, 0.9], [0.0, 1.0]) for t in range(5)]
        out = generate_scenarios(marginals, CopulaConfig(7, 2.0, seed=1))
        assert out.count == 7 and out.horizon == 5
        assert np.all(np.isfinite(out.values))

    def test_csv_round_trip(self, tmp_path):
        marginals = [MarginalForecast(t + 1, [0.1, 0.9], [-1.0, 1.0]) for t in range(4)]
        out = generate_scenarios(marginals, CopulaConfig(6, 2.0, seed=9))
        path = tmp_path / "scen.csv"
        out.write_csv(path)
        loaded = ScenarioSet.read_csv(path)
        assert loaded.values.shape == out.values.shape
        assert np.allclose(loaded.values, out.values, atol=5e-7)

    def test_marginals_csv_round_trip(self, tmp_path):
        marginals = [
            MarginalForecast(t + 1, [0.25, 0.5, 0.75], [0.1 * t, 0.1 * t + 0.5, 0.1 * t + 1.0])
            for t in range(3)
        ]
        path = tmp_path / "marginals.csv"
        example_inputs.write_marginals_csv(path, marginals)
        loaded = scenarios.read_marginals_csv(path)
        assert len(loaded) == 3
        for orig, back in zip(marginals, loaded):
            assert orig.lead_time == back.lead_time
            assert np.allclose(orig.probabilities, back.probabilities)
            assert np.allclose(orig.values, back.values, atol=5e-7)

    @pytest.mark.parametrize("relabel", [(2, 4), (3, 5), (1, 0)])
    def test_marginals_csv_lead_times_must_run_one_to_t(self, tmp_path, relabel):
        old, new = relabel
        marginals = [
            MarginalForecast(new if t + 1 == old else t + 1, [0.25, 0.75], [0.0, 1.0]) for t in range(3)
        ]
        path = tmp_path / "marginals.csv"
        example_inputs.write_marginals_csv(path, marginals)
        with pytest.raises(ValueError, match=r"lead times t must run 1\.\.3"):
            scenarios.read_marginals_csv(path)


class TestCsvShape:
    @pytest.mark.parametrize(
        "text",
        ["h1,h2,h3\n0.1,0.2\n0.3,0.4\n", "h1,hx\n0.1,0.2\n", "h2,h1\n0.1,0.2\n", "h1,h2\n0.1,0.2,0.3\n",
         "h1,h2\n0.1,nan\n", "h1,h2\n", ""],
    )
    def test_scenario_csv_needs_header_h1_to_ht_and_rows_t_wide(self, tmp_path, text):
        # A header wider than its rows used to load as the rows' horizon.
        path = tmp_path / "scen.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="scen.csv"):
            ScenarioSet.read_csv(path)

    @pytest.mark.parametrize(
        "text",
        ["p,t,q\n0.5,1,0.0\n", "t,p,q,x\n1,0.5,0.0,1\n", "t,p\n1,0.5\n", "t,p,q\n1.5,0.5,0.0\n",
         "t,p,q\n1,1.2,0.0\n", "t,p,q\n1,0.5,inf\n", "t,p,q\n"],
    )
    def test_marginals_csv_errors_name_the_file(self, tmp_path, text):
        path = tmp_path / "marg.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="marg.csv"):
            scenarios.read_marginals_csv(path)

    def test_marginals_lead_time_may_be_written_as_a_whole_float(self, tmp_path):
        path = tmp_path / "marg.csv"
        path.write_text("t,p,q\n2.0,0.5,1.0\n1,0.75,0.5\n1.0,0.25,0.0\n")
        first, second = scenarios.read_marginals_csv(path)
        assert (first.lead_time, second.lead_time) == (1, 2)
        assert first.probabilities.tolist() == [0.25, 0.75] and first.values.tolist() == [0.0, 0.5]
