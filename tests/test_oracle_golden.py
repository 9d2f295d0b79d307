"""Golden pin of the frequency estimators of the three Wang et al. oracles.

For GRR, OUE and OLH at fixed seeds, both readings of one set of noisy
reports must stay ``float.hex``-identical to
``tests/data/golden_oracle_estimates.json``:

* the oracle-side ``oracle.estimate(reports)``, and HDR4ME-L1 applied to
  it with the oracle's plug-in deviation model;
* the collector-side ``LDPServer.estimate()`` of a one-attribute round,
  raw and with ``postprocess=Recalibrator(norm="l1")``.

The histogram-encoded piecewise route is pinned alongside through the
same one-attribute server. Re-record (only for a change *meant* to move
these values) with::

    PYTHONPATH=src python tests/test_oracle_golden.py --record
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np
import pytest

from repro import CategoricalAttribute, LDPClient, LDPServer, Recalibrator, Schema
from repro.freq_oracles import get_oracle

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_oracle_estimates.json"

EPSILON = 1.5
CATEGORIES = 12
USERS = 3000


def _hex(values):
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=np.float64))]


def _labels(seed):
    return np.random.default_rng(seed).integers(0, CATEGORIES, size=USERS)


def _oracle_case(name):
    oracle = get_oracle(name, EPSILON, CATEGORIES)
    raw = oracle.estimate(oracle.privatize(_labels(1), rng=2))
    model = oracle.deviation_model(USERS, frequencies=raw)
    enhanced = Recalibrator(norm="l1").recalibrate(raw, model).theta_star
    return {"raw": _hex(raw), "l1": _hex(enhanced)}


def _session_case(name):
    schema = Schema([CategoricalAttribute("c", n_categories=CATEGORIES)])
    client = LDPClient(schema, EPSILON, protocols=name)
    server = LDPServer(schema, EPSILON, protocols=name)
    labels = _labels(3)[:, None]
    gen = np.random.default_rng(4)
    for start in range(0, USERS, 1000):
        server.ingest(client.report_batch(labels[start : start + 1000], gen))
    return {
        "raw": _hex(server.estimate()["c"].raw),
        "l1": _hex(server.estimate(postprocess=Recalibrator(norm="l1"))["c"].enhanced),
    }


CASES = {
    **{"oracle_%s" % name: (lambda n=name: _oracle_case(n)) for name in ("grr", "oue", "olh")},
    **{
        "session_%s" % name: (lambda n=name: _session_case(n))
        for name in ("grr", "oue", "olh", "piecewise")
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimate_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert CASES[name]() == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_oracle_golden.py --record")
    recorded = {
        "about": (
            "float.hex frequency estimates, one entry per case of "
            "tests/test_oracle_golden.py: oracle_* from oracle.estimate(reports) "
            "(raw, and HDR4ME-L1 with the oracle's plug-in deviation model), "
            "session_* from a one-attribute LDPServer round in three batches "
            "(raw and postprocess=Recalibrator(norm='l1')). Recorded with "
            "`PYTHONPATH=src python tests/test_oracle_golden.py --record` at "
            "the tree where each oracle and each oracle collector still wrote "
            "its own (observed - q)/(p - q) estimator."
        ),
        **{name: CASES[name]() for name in sorted(CASES)},
    }
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1) + "\n")
