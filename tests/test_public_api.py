"""Sanity tests of the public package surface."""

from __future__ import annotations

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.analysis",
    "repro.datasets",
    "repro.experiments",
    "repro.framework",
    "repro.hdr4me",
    "repro.mechanisms",
    "repro.protocol",
    "repro.session",
    "repro.storage",
    "repro.transport",
    "repro.wire",
]


class TestImports:
    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_subpackage_imports(self, module):
        importlib.import_module(module)

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), "%s.%s" % (module, name)

    def test_exceptions_form_hierarchy(self):
        from repro import (
            AggregationError,
            CalibrationError,
            DimensionError,
            DistributionError,
            DomainError,
            PrivacyBudgetError,
            ReproError,
        )

        for exc in (
            AggregationError,
            CalibrationError,
            DimensionError,
            DistributionError,
            DomainError,
            PrivacyBudgetError,
        ):
            assert issubclass(exc, ReproError)

    def test_quickstart_docstring_runs(self):
        """The usage example in the package docstring must stay valid."""
        import numpy as np

        from repro import (
            CategoricalAttribute,
            LDPClient,
            LDPServer,
            NumericAttribute,
            Recalibrator,
            Schema,
        )

        schema = Schema(
            [
                NumericAttribute("screen_time"),
                CategoricalAttribute("top_app", n_categories=16),
            ]
        )
        client = LDPClient(schema, epsilon=1.0, protocols="piecewise")
        server = LDPServer(schema, epsilon=1.0, protocols="piecewise")
        gen = np.random.default_rng(0)
        records = np.column_stack(
            [gen.uniform(-1, 1, 5_000), gen.integers(0, 16, 5_000)]
        )
        for batch in np.array_split(records, 10):
            server.ingest(client.report_batch(batch, rng=gen))
        estimate = server.estimate(postprocess=Recalibrator(norm="l1"))
        assert np.isfinite(estimate["screen_time"].scalar)
        assert estimate.frequencies("top_app").shape == (16,)

    def test_collect_means_flow_runs(self):
        """A dataset round, its Theorem 1 model and HDR4ME, from the root."""
        from repro import (
            BudgetPlan,
            Recalibrator,
            build_multivariate_model,
            collect_means,
            gaussian_dataset,
            get_mechanism,
            mse,
            true_mean,
        )
        from repro.protocol import build_populations

        mech = get_mechanism("piecewise")
        data = gaussian_dataset(users=2_000, dimensions=20, rng=0)
        theta_hat = collect_means(mech, 0.5, data, rng=1).numeric_means()
        plan = BudgetPlan(0.5, 20, 20)
        model = build_multivariate_model(
            mech,
            plan.epsilon_per_dimension,
            plan.expected_reports(2_000),
            build_populations(data),
            ndim=20,
        )
        enhanced = Recalibrator(norm="l1").recalibrate(theta_hat, model)
        assert mse(enhanced.theta_star, true_mean(data)) <= mse(
            theta_hat, true_mean(data)
        )

    def test_public_items_have_docstrings(self):
        undocumented = [
            name
            for name in repro.__all__
            if name != "__version__"
            and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert not undocumented, undocumented
