"""High-dimensional IoT telemetry collection (the paper's motivating case).

The introduction motivates LDP with IoT and smart devices: a vendor wants
per-sensor population averages across hundreds of correlated telemetry
channels without seeing any household's raw data. This example simulates
that deployment on the correlated COV-19-like generator (a stand-in for
any strongly cross-correlated sensor fleet):

* 40,000 households × 400 sensor channels, normalized to [−1, 1];
* each household reports m = 40 channels with collective ε = 1;
* the vendor compares the naive aggregation against HDR4ME for three
  mechanisms, reporting MSE and the number of channels L1 identifies as
  pure noise.

Run:  python examples/smart_home_telemetry.py
"""

from repro import (
    BudgetPlan,
    Recalibrator,
    build_multivariate_model,
    collect_means,
    cov19_like,
    get_mechanism,
    mse,
    true_mean,
)
from repro.protocol import build_populations

HOUSEHOLDS, CHANNELS, SAMPLED, EPSILON, SEED = 40_000, 400, 40, 1.0, 7


def main() -> None:
    telemetry = cov19_like(HOUSEHOLDS, CHANNELS, rng=SEED)
    truth = true_mean(telemetry)
    plan = BudgetPlan(EPSILON, CHANNELS, SAMPLED)

    for name in ("laplace", "piecewise", "square_wave"):
        mechanism = get_mechanism(name)
        theta_hat = collect_means(
            mechanism, EPSILON, telemetry, rng=SEED + 1, sampled_dimensions=SAMPLED
        ).numeric_means()
        model = build_multivariate_model(
            mechanism,
            plan.epsilon_per_dimension,
            plan.expected_reports(HOUSEHOLDS),
            build_populations(telemetry) if mechanism.bounded else None,
            ndim=CHANNELS,
        )

        baseline = mse(theta_hat, truth)
        line = "%-12s baseline MSE %.5f" % (name, baseline)
        for norm in ("l1", "l2"):
            enhanced = Recalibrator(norm=norm).recalibrate(theta_hat, model)
            line += "  |  %s %.5f" % (norm.upper(), mse(enhanced.theta_star, truth))
            if norm == "l1":
                line += " (%d/%d channels suppressed)" % (
                    enhanced.suppressed_dimensions,
                    CHANNELS,
                )
        print(line)

    print()
    print(
        "Reading: with eps=1 split over %d reported channels, the naive "
        "aggregate is noise-dominated for Laplace/Piecewise and HDR4ME "
        "recovers usable averages; Square wave is already concentrated, "
        "so re-calibration has little to add." % SAMPLED
    )


if __name__ == "__main__":
    main()
