"""End-to-end integration tests of the paper's headline claims.

Each test wires together mechanisms → protocol → framework → HDR4ME at a
small but statistically meaningful scale and checks a claim from the
paper's abstract/evaluation:

1. the analytical framework predicts the experimental deviation
   distribution and MSE;
2. HDR4ME enhances high-dimensional mean estimation for Laplace and
   Piecewise without touching the mechanisms;
3. the enhancement does not apply to the Square wave (deviations below
   the Lemma 4/5 thresholds);
4. the frequency extension works end-to-end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import gaussian_fit, mse, true_mean
from repro.experiments import simulate_dimension_deviations
from repro.framework import ValueDistribution, build_deviation_model
from repro.hdr4me import Recalibrator, postprocess_frequencies, true_frequencies
from repro.mechanisms import get_mechanism
from repro.protocol import build_populations, collect_means
from repro.session import CategoricalAttribute, LDPClient, LDPServer, Schema
from testutil import full_report_model


class TestFrameworkPredictsExperiment:
    @pytest.mark.parametrize("name", ["laplace", "staircase", "piecewise",
                                      "duchi", "hybrid"])
    def test_deviation_gaussian_fits(self, name, rng):
        mech = get_mechanism(name)
        column = rng.uniform(-1, 1, 1500)
        population = ValueDistribution.from_data(column, bins=None)
        eps, repeats = 0.2, 250
        model = build_deviation_model(mech, eps, column.size, population)
        deviations = simulate_dimension_deviations(
            mech, column, eps, 1.0, repeats, rng
        )
        fit = gaussian_fit(deviations, model)
        assert fit.mean_error < 0.3 * model.sigma
        assert 0.8 < fit.std_ratio < 1.2

    def test_mse_prediction_full_pipeline(self, rng):
        d, n = 50, 4000
        data = rng.uniform(-1, 1, size=(n, d))
        mech = get_mechanism("piecewise")
        model = full_report_model(mech, 1.0, n, d, build_populations(data))
        observed = np.mean([
            mse(collect_means(mech, 1.0, data, rng).numeric_means(), true_mean(data))
            for _ in range(8)
        ])
        assert observed == pytest.approx(model.predicted_mse(), rel=0.25)


class TestHdr4meEnhancement:
    @pytest.mark.parametrize("name", ["laplace", "piecewise"])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_enhances_high_dimensional_estimation(self, name, norm, rng):
        d, n, eps = 150, 4000, 0.4
        data = rng.normal(0.0, 1.0 / 16.0, size=(n, d))
        data[:, :15] += 0.9
        data = np.clip(data, -1, 1)
        mech = get_mechanism(name)
        theta_hat = collect_means(mech, eps, data, rng).numeric_means()
        model = full_report_model(
            mech, eps, n, d, build_populations(data) if mech.bounded else None
        )
        enhanced = Recalibrator(norm=norm).recalibrate(theta_hat, model)
        truth = true_mean(data)
        assert mse(enhanced.theta_star, truth) < 0.5 * mse(theta_hat, truth)
        # Theorem 3/4 should be near-certain in this regime.
        assert enhanced.guarantee.paper_bound > 0.99

    def test_square_wave_not_enhanced(self, rng):
        # The paper's caveat: Square wave deviations are tiny, thresholds
        # unmet, so re-calibration gives no big win (L1 may zero good
        # estimates and hurt).
        d, n, eps = 100, 4000, 0.4
        data = np.clip(rng.normal(0.3, 0.2, size=(n, d)), -1, 1)
        mech = get_mechanism("square_wave")
        theta_hat = collect_means(mech, eps, data, rng).numeric_means()
        model = full_report_model(mech, eps, n, d, build_populations(data))
        enhanced = Recalibrator(norm="l1").recalibrate(theta_hat, model)
        truth = true_mean(data)
        improvement = mse(theta_hat, truth) / mse(
            enhanced.theta_star, truth
        )
        # No order-of-magnitude gain (contrast with the Laplace/Piecewise
        # cases above where the gain exceeds 2x).
        assert improvement < 2.0

    def test_mechanism_untouched_by_recalibration(self, rng):
        """HDR4ME acts only on the aggregate: same reports, same theta_hat."""
        d, n = 20, 1000
        data = rng.uniform(-1, 1, size=(n, d))
        mech = get_mechanism("laplace")
        theta_hat = collect_means(mech, 0.5, data, rng=5).numeric_means()
        model = full_report_model(mech, 0.5, n, d)
        before = theta_hat.copy()
        Recalibrator(norm="l1").recalibrate(theta_hat, model)
        Recalibrator(norm="l2").recalibrate(theta_hat, model)
        np.testing.assert_array_equal(theta_hat, before)


class TestFrequencyExtension:
    def test_end_to_end_with_enhancement(self, rng):
        labels = rng.choice(16, size=30_000)
        schema = Schema([CategoricalAttribute("c", n_categories=16)])
        client = LDPClient(schema, 2.0, protocols="piecewise")
        server = LDPServer(schema, 2.0, protocols="piecewise")
        server.ingest(client.report_batch(labels[:, None], rng=11))
        truth = true_frequencies(labels, 16)
        est_plain = server.estimate().frequencies("c")
        est_enh = server.estimate(postprocess=Recalibrator(norm="l2")).frequencies("c")
        # One set of reports, two readings; both recover the truth sanely.
        assert np.mean((postprocess_frequencies(est_plain) - truth) ** 2) < 1e-3
        assert np.mean((postprocess_frequencies(est_enh) - truth) ** 2) < 1e-3


class TestPrivacyAccounting:
    def test_per_dimension_budget_composes(self, rng):
        """m-dimension reporting uses eps/m per dimension: the noise scale
        observed in reports matches the diluted budget, not the full one."""
        from repro.protocol import BudgetPlan, Client

        d, m, eps = 10, 2, 1.0
        plan = BudgetPlan(epsilon=eps, dimensions=d, sampled_dimensions=m)
        mech = get_mechanism("laplace")
        client = Client(mech, plan)
        values = np.concatenate(
            [client.report(np.zeros(d), rng).values for _ in range(4000)]
        )
        diluted_std = np.sqrt(mech.noise_variance(eps / m))
        full_std = np.sqrt(mech.noise_variance(eps))
        assert abs(values.std() - diluted_std) < abs(values.std() - full_std)
