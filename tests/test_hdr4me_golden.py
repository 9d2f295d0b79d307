"""Golden pin of HDR4ME on one seeded :class:`LDPServer` round.

The round mixes the three routes into the Theorem 1 joint model:

* four piecewise numeric attributes, re-calibrated jointly;
* ``c``, an OUE attribute (closed-form oracle variance);
* ``h``, a histogram-encoded piecewise attribute (plug-in Bernoulli σ).

Raw estimates, λ* and the enhanced estimates of the numeric and oracle
attributes are pinned under ``float.hex``. The histogram route mixes the
conditional variance at the endpoints ``{0, 1}`` elementwise, where the
recorded values took a BLAS dot product, so its λ* may move by a couple
of ulp and its enhanced estimate is compared to ``rtol=1e-12``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Recalibrator,
    Schema,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_hdr4me_round.json").read_text()
)

SCHEMA = Schema(
    [NumericAttribute("x%d" % j) for j in range(4)]
    + [
        CategoricalAttribute("c", n_categories=8),
        CategoricalAttribute("h", n_categories=8),
    ]
)
PROTOCOLS = {**{"x%d" % j: "piecewise" for j in range(4)}, "c": "oue", "h": "piecewise"}
NUMERIC = ["x0", "x1", "x2", "x3"]


class _Recording:
    """A postprocessor that keeps every :class:`RecalibrationResult`."""

    def __init__(self, norm):
        self.recalibrator = Recalibrator(norm=norm)
        self.results = []

    def recalibrate(self, theta_hat, model):
        result = self.recalibrator.recalibrate(theta_hat, model)
        self.results.append(result)
        return result


def _records(users, gen):
    columns = [np.clip(gen.normal(0.3 * j - 0.4, 0.3, users), -1, 1) for j in range(4)]
    columns.append(gen.integers(0, 8, users))
    columns.append(np.minimum(gen.geometric(0.35, users) - 1, 7))
    return np.column_stack(columns)


@pytest.fixture(scope="module")
def server():
    gen = np.random.default_rng(20221012)
    client = LDPClient(SCHEMA, epsilon=0.8, sampled_attributes=3, protocols=PROTOCOLS)
    server = LDPServer(SCHEMA, epsilon=0.8, sampled_attributes=3, protocols=PROTOCOLS)
    for _ in range(3):
        server.ingest(client.report_batch(_records(3000, gen), gen))
    return server


def _hex(values):
    return [float(x).hex() for x in np.atleast_1d(values)]


def _floats(hexes):
    return np.array([float.fromhex(x) for x in hexes])


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_round_matches_golden(server, norm):
    golden = GOLDEN[norm]
    recording = _Recording(norm)
    estimate = server.estimate(postprocess=recording)
    joint, oracle, histogram = recording.results

    for attr in estimate.attributes:
        assert _hex(attr.raw) == golden["raw"][attr.name]
    for name in NUMERIC + ["c"]:
        assert _hex(estimate[name].enhanced) == golden["enhanced"][name]
    assert _hex(joint.lambdas) == golden["lambdas"][0]
    assert _hex(oracle.lambdas) == golden["lambdas"][1]

    np.testing.assert_array_max_ulp(
        histogram.lambdas, _floats(golden["lambdas"][2]), maxulp=2
    )
    np.testing.assert_allclose(
        estimate["h"].enhanced,
        _floats(golden["enhanced"]["h"]),
        rtol=1e-12,
        atol=1e-15,
    )
    for result, (paper_bound, all_dims) in zip(recording.results, golden["guarantee"]):
        assert result.guarantee.paper_bound == pytest.approx(paper_bound, rel=1e-12)
        assert result.guarantee.all_dims_probability == pytest.approx(all_dims, rel=1e-12)


def test_golden_round_is_informative():
    """The pinned round exercises nonzero guarantees and unsuppressed entries."""
    l1 = GOLDEN["l1"]
    assert any(bound > 0.0 for bound, _ in l1["guarantee"])
    for norm in ("l1", "l2"):
        enhanced = np.concatenate([_floats(v) for v in GOLDEN[norm]["enhanced"].values()])
        assert np.count_nonzero(enhanced) > 0
