"""Extension benchmarks: the paper's future-work directions, measured.

Four studies beyond the paper's evaluation section:

* **Elastic net** — α-sweep between the paper's L1 (α = 1) and L2
  (α = 0) on the Gaussian dataset; the paper's two extremes bracket the
  family.
* **Budget allocation** — uniform (the paper's protocol) vs
  signal-proportional allocation (the related-work stream): weighted
  allocation buys accuracy on prioritized dimensions at the cost of the
  rest.
* **Set-valued data** — padding-and-sampling frequency estimation, the
  paper's named future-work data type.
* **Variance estimation** — two-phase moment collection with HDR4ME on
  both moments, the paper's "other statistics" direction.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import mse, true_mean
from repro.datasets import gaussian_dataset
from repro.experiments import SeriesRow, format_series
from repro.framework import build_multivariate_model
from repro.hdr4me import Recalibrator, l1_lambda, recalibrate_elastic_net
from repro.mechanisms import get_mechanism
from repro.protocol import (
    BudgetPlan,
    PaddingAndSampling,
    SignalProportionalAllocation,
    UniformAllocation,
    VarianceEstimationPipeline,
    allocated_pipeline_run,
    collect_means,
    item_frequencies,
    true_variance,
)
from bench_config import BENCH_SEED

USERS = 15_000


def _elastic_sweep(alphas, users, seed):
    rng = np.random.default_rng(seed)
    d, eps = 100, 0.4
    data = gaussian_dataset(users, d, rng=rng)
    truth = true_mean(data)
    mech = get_mechanism("laplace")
    theta_hat = collect_means(mech, eps, data, rng).numeric_means()
    model = build_multivariate_model(
        mech, eps / d, BudgetPlan(eps, d, d).expected_reports(users), None, ndim=d
    )
    lambdas = l1_lambda(model)
    rows = []
    for alpha in alphas:
        theta = recalibrate_elastic_net(theta_hat, lambdas, alpha)
        rows.append(SeriesRow(x=alpha, values={"mse": mse(theta, truth)}))
    baseline = mse(theta_hat, truth)
    return baseline, rows


def test_elastic_net_alpha_sweep(benchmark, record_artefact):
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    baseline, rows = benchmark.pedantic(
        _elastic_sweep, args=(alphas, USERS, BENCH_SEED), rounds=1, iterations=1
    )
    text = format_series(
        "Elastic-net alpha sweep (baseline MSE %.4g)" % baseline,
        "alpha",
        ("mse",),
        rows,
    )
    record_artefact("ext_elastic_net", text)
    # Every alpha beats the raw aggregation in the high-noise regime.
    for row in rows:
        assert row.values["mse"] < baseline


def _allocation_study(users, seed):
    rng = np.random.default_rng(seed)
    d, eps, n_signal = 50, 1.0, 5
    data = gaussian_dataset(users, d, high_fraction=n_signal / d, rng=rng)
    truth = true_mean(data)
    important = np.argsort(np.abs(truth))[-n_signal:]
    mech = get_mechanism("laplace")
    rows = []
    for label, strategy in (
        ("uniform", UniformAllocation()),
        ("signal_proportional", SignalProportionalAllocation(truth)),
    ):
        errs_important, errs_total = [], []
        for _ in range(4):
            theta, _ = allocated_pipeline_run(mech, data, eps, strategy, rng=rng)
            errs_important.append(
                float(np.mean((theta[important] - truth[important]) ** 2))
            )
            errs_total.append(mse(theta, truth))
        rows.append(
            (label, float(np.mean(errs_important)), float(np.mean(errs_total)))
        )
    return rows


def test_budget_allocation(benchmark, record_artefact):
    rows = benchmark.pedantic(
        _allocation_study, args=(USERS, BENCH_SEED), rounds=1, iterations=1
    )
    lines = ["# Budget allocation: uniform vs signal-proportional",
             "strategy\tmse_signal_dims\tmse_all_dims"]
    for label, important, total in rows:
        lines.append("%s\t%.4g\t%.4g" % (label, important, total))
    record_artefact("ext_allocation", "\n".join(lines))

    uniform, weighted = rows[0], rows[1]
    # Weighted allocation buys the prioritized dimensions...
    assert weighted[1] < uniform[1]
    # ...by spending budget the uniform strategy gave the rest.
    assert weighted[2] > uniform[2] * 0.5


def _setvalued_study(users, seed):
    rng = np.random.default_rng(seed)
    n_items = 24
    sets = [
        list(rng.choice(n_items, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(users)
    ]
    truth = item_frequencies(sets, n_items)
    rows = []
    for eps in (1.0, 2.0, 4.0):
        ps = PaddingAndSampling(epsilon=eps, n_items=n_items, padding_length=3)
        estimate = ps.run(sets, rng)
        rows.append(
            SeriesRow(
                x=eps,
                values={"mse": float(np.mean((estimate.best() - truth) ** 2))},
            )
        )
    return rows


def test_setvalued(benchmark, record_artefact):
    rows = benchmark.pedantic(
        _setvalued_study, args=(USERS, BENCH_SEED), rounds=1, iterations=1
    )
    record_artefact(
        "ext_setvalued",
        format_series("Set-valued padding-and-sampling", "epsilon", ("mse",), rows),
    )
    series = [row.values["mse"] for row in rows]
    assert series[-1] < series[0]
    assert series[-1] < 1e-3


def _variance_study(users, seed):
    rng = np.random.default_rng(seed)
    d, eps = 100, 0.4
    data = rng.uniform(-1.0, 1.0, size=(users, d))
    truth = true_variance(data)
    plain = VarianceEstimationPipeline(
        get_mechanism("laplace"), epsilon=eps, dimensions=d
    ).run(data, rng=seed)
    enhanced = VarianceEstimationPipeline(
        get_mechanism("laplace"),
        epsilon=eps,
        dimensions=d,
        recalibrator=Recalibrator(norm="l2"),
    ).run(data, rng=seed)
    return (
        float(np.mean((plain.variance - truth) ** 2)),
        float(np.mean((enhanced.variance - truth) ** 2)),
    )


def test_variance_estimation(benchmark, record_artefact):
    plain, enhanced = benchmark.pedantic(
        _variance_study, args=(USERS, BENCH_SEED), rounds=1, iterations=1
    )
    record_artefact(
        "ext_variance",
        "# Two-phase variance estimation (d=100, eps=0.4)\n"
        "plain\t%.4g\nhdr4me_l2\t%.4g" % (plain, enhanced),
    )
    assert enhanced < plain
