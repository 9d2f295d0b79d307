"""Frequency oracles (GRR / OUE / OLH) vs the paper's histogram route.

An extension benchmark: Section V-C estimates frequencies by perturbing
histogram-encoded entries with a numeric mechanism at ε/2m; the purpose-
built oracles of Wang et al. [37] are the natural comparators. The bench
measures the frequency-vector MSE of all four routes on a Zipf attribute
over a budget grid, plus the classic GRR↔OUE domain-size crossover.

Shapes asserted: every route's MSE falls with ε; OUE/OLH beat GRR at a
large domain (v = 64); GRR wins at a tiny domain (v = 4).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import zipf_categories
from repro.freq_oracles import get_oracle
from repro.hdr4me import true_frequencies
from repro.session import CategoricalAttribute, LDPClient, LDPServer, Schema
from bench_config import BENCH_SEED

USERS = 20_000
EPSILONS = (0.5, 1.0, 2.0)


def _run_routes(v, users, epsilons, seed):
    rng = np.random.default_rng(seed)
    labels = zipf_categories(users, v, rng=rng)
    truth = true_frequencies(labels, v)
    schema = Schema([CategoricalAttribute("value", n_categories=v)])
    rows = []
    for eps in epsilons:
        row = {"epsilon": eps}
        for name in ("grr", "oue", "olh"):
            oracle = get_oracle(name, eps, v)
            estimate = oracle.estimate(oracle.privatize(labels, rng))
            row[name] = float(np.mean((estimate - truth) ** 2))
        client = LDPClient(schema, eps, protocols="piecewise")
        server = LDPServer(schema, eps, protocols="piecewise")
        server.ingest(client.report_batch(labels[:, None], rng))
        estimate = server.estimate()["value"].raw
        row["he_piecewise"] = float(np.mean((estimate - truth) ** 2))
        rows.append(row)
    return truth, rows


def _format(v, users, rows):
    labels = ("grr", "oue", "olh", "he_piecewise")
    lines = [
        "# Frequency-oracle comparison (n=%d, v=%d)" % (users, v),
        "epsilon\t" + "\t".join(labels),
    ]
    for row in rows:
        lines.append(
            "%g\t" % row["epsilon"]
            + "\t".join("%.3e" % row[label] for label in labels)
        )
    return "\n".join(lines)


def test_oracle_comparison_large_domain(benchmark, record_artefact):
    v = 64
    truth, rows = benchmark.pedantic(
        _run_routes,
        args=(v, USERS, EPSILONS, BENCH_SEED),
        rounds=1,
        iterations=1,
    )
    record_artefact("freq_oracles_v64", _format(v, USERS, rows))

    for name in ("grr", "oue", "olh", "he_piecewise"):
        series = [row[name] for row in rows]
        assert series[-1] < series[0]  # more budget -> better
    # Large domain: unary/hashing routes beat direct encoding.
    for row in rows:
        assert row["oue"] < row["grr"]
        assert row["olh"] < 2 * row["oue"] + 1e-6


def test_oracle_comparison_small_domain(benchmark, record_artefact):
    v = 4
    truth, rows = benchmark.pedantic(
        _run_routes,
        args=(v, USERS, (2.0,), BENCH_SEED),
        rounds=1,
        iterations=1,
    )
    record_artefact("freq_oracles_v4", _format(v, USERS, rows))
    # Tiny domain at generous budget: GRR is the right tool.
    assert rows[0]["grr"] < rows[0]["oue"]
