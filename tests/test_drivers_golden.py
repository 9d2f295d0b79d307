"""Golden pin of the experiment drivers' seeded outputs.

Every driver that turns a dataset into a collection round and a Theorem 1
model is run once at a small seeded shape, and every float it reports is
compared under ``float.hex`` to ``tests/data/golden_drivers.json``: the
Fig. 4 sweep (a bounded and an unbounded mechanism), the Fig. 5 sweep,
both ablation drivers, the MSE prediction grid and the two-phase variance
pipeline with and without HDR4ME.

Re-record (only when a change is *meant* to move these values, and say so
in the change log) with::

    PYTHONPATH=src python tests/test_drivers_golden.py --record
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np
import pytest

from repro.experiments.ablation import run_confidence_ablation, run_harmful_regime
from repro.experiments.dimensionality import run_dimensionality_sweep
from repro.experiments.mse_sweep import run_mse_sweep
from repro.experiments.prediction import run_mse_prediction
from repro.hdr4me import Recalibrator
from repro.mechanisms import get_mechanism
from repro.protocol import VarianceEstimationPipeline

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_drivers.json"


def _hex(values):
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=np.float64))]


def _series(result):
    return {
        label: _hex([row.values[label] for row in result.rows])
        for label in result.rows[0].values
    }


def _variance(recalibrator):
    data = np.random.default_rng(17).uniform(-1.0, 1.0, size=(1500, 20))
    estimate = VarianceEstimationPipeline(
        get_mechanism("piecewise"), 2.0, 20, recalibrator=recalibrator
    ).run(data, rng=19)
    return {
        "mean": _hex(estimate.mean),
        "second_moment": _hex(estimate.second_moment),
        "variance": _hex(estimate.variance),
    }


def _confidence():
    result = run_confidence_ablation(
        "piecewise", epsilon=0.4, users=1500, dimensions=30,
        confidences=(0.9, 0.99), rng=7,
    )
    return {"baseline": _hex([result.baseline_mse]), **_series(result)}


def _prediction():
    result = run_mse_prediction(
        datasets=("gaussian", "uniform"),
        mechanisms=("laplace", "piecewise", "square_wave"),
        users=1500, dimensions=20, repeats=2, population_bins=16, rng=13,
    )
    return {
        "predicted": _hex([row.predicted for row in result.rows]),
        "measured": _hex([row.measured for row in result.rows]),
    }


CASES = {
    "mse_sweep_cov19_piecewise": lambda: _series(
        run_mse_sweep(
            "cov19", "piecewise", epsilons=(0.4, 1.6), users=1500,
            dimensions=40, repeats=2, population_bins=16, rng=3,
        )
    ),
    "mse_sweep_gaussian_laplace": lambda: _series(
        run_mse_sweep(
            "gaussian", "laplace", epsilons=(0.4, 1.6), users=1500,
            dimensions=40, repeats=2, rng=4,
        )
    ),
    "dimensionality_piecewise": lambda: _series(
        run_dimensionality_sweep(
            "piecewise", dimension_grid=(20, 60), users=1500,
            base_dimensions=40, repeats=2, population_bins=16, rng=5,
        )
    ),
    "confidence_ablation": _confidence,
    "harmful_regime": lambda: {
        "ratios": _hex(
            run_harmful_regime(
                "laplace", "l1", dimension_grid=(5, 30),
                epsilon_grid=(0.5, 5.0), users=1500, rng=9,
            ).ratios
        )
    },
    "prediction": _prediction,
    "variance_plain": lambda: _variance(None),
    "variance_l2": lambda: _variance(Recalibrator(norm="l2")),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_driver_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert CASES[name]() == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_drivers_golden.py --record")
    recorded = {
        "about": (
            "Seeded outputs of the experiment drivers as float.hex strings, "
            "one entry per case of tests/test_drivers_golden.py. Recorded "
            "with `PYTHONPATH=src python tests/test_drivers_golden.py "
            "--record` at the tree whose drivers ran through "
            "MeanEstimationPipeline, before they moved onto collect_means."
        ),
        **{name: CASES[name]() for name in sorted(CASES)},
    }
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1) + "\n")
