"""Tests for the unified client/server session API."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy import stats

from repro.exceptions import AggregationError, DimensionError, DomainError
from repro.hdr4me import Recalibrator, true_frequencies
from repro.mechanisms import (
    LaplaceMechanism,
    available_mechanisms,
    available_protocols,
    get_protocol,
)
from repro.mechanisms.registry import _PROTOCOLS, register_protocol
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    MechanismProtocol,
    NumericAttribute,
    ReportBatch,
    Schema,
    StreamingSum,
    sample_attribute_indices,
    sample_attribute_mask,
)

MIXED = Schema(
    [
        NumericAttribute("a"),
        NumericAttribute("b"),
        CategoricalAttribute("c", n_categories=4),
    ]
)


def mixed_records(users: int, seed: int = 0) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return np.column_stack(
        [
            gen.uniform(-1, 1, users),
            np.clip(gen.normal(0.4, 0.2, users), -1, 1),
            gen.choice(4, users, p=[0.5, 0.25, 0.15, 0.1]),
        ]
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DimensionError):
            Schema([NumericAttribute("x"), NumericAttribute("x")])

    def test_empty_schema_rejected(self):
        with pytest.raises(DimensionError):
            Schema([])

    def test_lookup_by_name_and_index(self):
        assert MIXED["c"].n_categories == 4
        assert MIXED[0].name == "a"
        with pytest.raises(KeyError):
            MIXED["nope"]

    def test_numeric_domain_enforced(self):
        attr = NumericAttribute("x", domain=(0.0, 1.0))
        with pytest.raises(DomainError):
            attr.validate_column(np.array([1.5]))
        with pytest.raises(DomainError):
            attr.validate_column(np.array([np.nan]))

    def test_degenerate_domain_rejected(self):
        with pytest.raises(DomainError):
            NumericAttribute("x", domain=(1.0, 1.0))

    def test_categorical_labels_enforced(self):
        attr = CategoricalAttribute("c", n_categories=3)
        with pytest.raises(DomainError):
            attr.validate_column(np.array([3]))
        with pytest.raises(DomainError):
            attr.validate_column(np.array([0.5]))
        np.testing.assert_array_equal(
            attr.validate_column(np.array([0.0, 2.0])), [0, 2]
        )

    def test_too_few_categories_rejected(self):
        with pytest.raises(DimensionError):
            CategoricalAttribute("c", n_categories=1)

    def test_matrix_shape_validated(self):
        with pytest.raises(DimensionError):
            MIXED.validate_matrix(np.zeros((5, 2)))

    def test_indices_partition(self):
        assert MIXED.numeric_indices == [0, 1]
        assert MIXED.categorical_indices == [2]


class TestStreamingSum:
    def test_batch_split_invariance_is_bitwise(self):
        gen = np.random.default_rng(7)
        rows = gen.normal(size=(5000, 3)) * 1e3
        one_shot = StreamingSum(3)
        one_shot.add(rows)
        streamed = StreamingSum(3)
        for chunk in np.array_split(rows, 13):
            streamed.add(chunk)
        assert np.array_equal(one_shot.value(), streamed.value())
        assert one_shot.rows == streamed.rows == 5000

    def test_value_does_not_mutate(self):
        acc = StreamingSum(2)
        acc.add(np.ones((3, 2)))
        first = acc.value()
        acc.add(np.ones((2, 2)))
        np.testing.assert_array_equal(first, [3.0, 3.0])
        np.testing.assert_array_equal(acc.value(), [5.0, 5.0])

    def test_reset(self):
        acc = StreamingSum(1)
        acc.add(np.ones((4, 1)))
        acc.reset()
        assert acc.rows == 0
        np.testing.assert_array_equal(acc.value(), [0.0])

    def test_shape_validated(self):
        with pytest.raises(DimensionError):
            StreamingSum(2).add(np.ones((3, 4)))


class TestUnifiedRegistry:
    def test_every_mechanism_name_resolves(self):
        for name in available_mechanisms():
            protocol = get_protocol(name)
            assert protocol.name == name

    @pytest.mark.parametrize("name", ["grr", "oue", "olh"])
    def test_oracle_names_resolve(self, name):
        protocol = get_protocol(name)
        collector = protocol.bind(CategoricalAttribute("c", 5), 1.0)
        assert collector.attribute.n_categories == 5

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="oue"):
            get_protocol("nope")

    def test_available_protocols_covers_both_families(self):
        names = available_protocols()
        assert set(available_mechanisms()) <= set(names)
        assert {"grr", "oue", "olh"} <= set(names)

    def test_mechanism_protocol_serves_both_kinds(self):
        protocol = get_protocol("laplace")
        numeric = protocol.bind(NumericAttribute("x"), 1.0)
        categorical = protocol.bind(CategoricalAttribute("c", 3), 1.0)
        assert numeric.attribute.name == "x"
        assert categorical.epsilon_per_entry == pytest.approx(0.5)

    def test_oracle_protocol_rejects_numeric(self):
        with pytest.raises(DimensionError):
            get_protocol("oue").bind(NumericAttribute("x"), 1.0)

    def test_register_protocol_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_protocol("grr", lambda: None)
        with pytest.raises(ValueError):
            register_protocol("laplace", lambda: None)

    def test_mechanism_cannot_shadow_protocol_name(self):
        """A mechanism named like an oracle would be unreachable through
        get_protocol (protocols resolve first), so it must be refused."""
        from repro.mechanisms import register_mechanism

        with pytest.raises(ValueError, match="unified protocol registry"):
            register_mechanism("oue", LaplaceMechanism)

    def test_register_and_resolve_custom_protocol(self):
        try:
            register_protocol(
                "custom_test_protocol",
                lambda: MechanismProtocol(
                    LaplaceMechanism(), name="custom_test_protocol"
                ),
            )
            assert get_protocol("custom_test_protocol").name == "custom_test_protocol"
            assert "custom_test_protocol" in available_protocols()
        finally:
            _PROTOCOLS.pop("custom_test_protocol", None)


class TestResolveCollectors:
    def test_each_distinct_name_resolved_once(self, monkeypatch):
        from collections import Counter

        from repro.mechanisms import registry

        calls = Counter()
        original = registry.get_protocol

        def counting(name):
            calls[name] += 1
            return original(name)

        monkeypatch.setattr(registry, "get_protocol", counting)
        schema = Schema(
            [NumericAttribute("x%d" % i) for i in range(6)]
            + [CategoricalAttribute("c%d" % i, 3) for i in range(3)]
        )
        LDPServer(schema, 1.0, protocols={"c0": "oue", "c1": "oue"})
        assert calls == Counter({"piecewise": 1, "oue": 1})

    def test_contract_fingerprint_unchanged(self):
        """Digests recorded before protocol names were resolved once."""
        wide = Schema([NumericAttribute("a%d" % i) for i in range(750)])
        by_name = LDPServer(wide, 1.0, 750, "piecewise").contract.digest
        shared = LDPServer(wide, 1.0, 750, get_protocol("piecewise")).contract.digest
        assert by_name == shared
        assert by_name.hex() == "f2bb94f67c176b7b26cf72483f2895cd"
        mixed = Schema(
            [
                NumericAttribute("x", (0.0, 10.0)),
                CategoricalAttribute("c", 5),
                CategoricalAttribute("o", 4),
            ]
        )
        spec = {"x": "laplace", "c": "piecewise", "o": "oue"}
        digest = LDPServer(mixed, 2.0, 2, spec).contract.digest
        assert digest.hex() == "e38477cbe8dbe64ebd90a65c9a1c7ccb"


class TestClient:
    def test_single_report_spends_exactly_m(self, rng):
        client = LDPClient(MIXED, epsilon=1.0, sampled_attributes=2)
        batch = client.report(np.array([0.1, -0.2, 3.0]), rng)
        assert batch.users == 1
        assert batch.total_reports == 2

    def test_batch_total_reports_exactly_n_times_m(self, rng):
        client = LDPClient(MIXED, epsilon=1.0, sampled_attributes=1)
        batch = client.report_batch(mixed_records(500), rng)
        assert batch.total_reports == 500

    def test_mask_has_exactly_m_per_user(self, rng):
        mask = sample_attribute_mask(300, 10, 4, rng)
        np.testing.assert_array_equal(mask.sum(axis=1), np.full(300, 4))

    def test_unknown_protocol_attribute_rejected(self):
        with pytest.raises(DimensionError):
            LDPClient(MIXED, epsilon=1.0, protocols={"zzz": "oue"})

    def test_record_validated(self, rng):
        client = LDPClient(MIXED, epsilon=1.0)
        with pytest.raises(DomainError):
            client.report(np.array([5.0, 0.0, 1.0]), rng)
        with pytest.raises(DimensionError):
            client.report(np.array([0.0, 0.0]), rng)


class TestAttributeSampler:
    """Floyd sampling: exact-m rows, every m-subset equally likely."""

    @pytest.mark.parametrize("sampled", [2, 3, 5])
    def test_every_subset_equally_likely(self, sampled):
        # d = 6: C(6,2) = C(6,4) = 15 and C(6,3) = 20 cells; m = 5 draws
        # the one excluded column and takes the complement.
        dimensions, users = 6, 60_000
        picks = sample_attribute_indices(
            users, dimensions, sampled, np.random.default_rng(7)
        )
        rows = np.sort(picks, axis=1)
        assert np.all(np.diff(rows, axis=1) > 0)
        assert rows.min() >= 0 and rows.max() < dimensions
        cells = {c: i for i, c in enumerate(itertools.combinations(range(dimensions), sampled))}
        observed = np.bincount(
            [cells[tuple(row)] for row in rows.tolist()], minlength=len(cells)
        )
        assert stats.chisquare(observed).pvalue > 1e-3

    @pytest.mark.parametrize("dimensions,sampled", [(500, 50), (750, 700)])
    def test_column_inclusion_is_m_over_d(self, dimensions, sampled):
        users = 20_000
        picks = sample_attribute_indices(
            users, dimensions, sampled, np.random.default_rng(11)
        )
        assert picks.shape == (users, sampled)
        share = sampled / dimensions
        counts = np.bincount(picks.ravel(), minlength=dimensions)
        z = (counts - users * share) / np.sqrt(users * share * (1 - share))
        assert np.abs(z).max() < 5.0

    @pytest.mark.parametrize("sampled", [1, 4, 9, 10])
    def test_mask_is_the_indices_mask(self, sampled):
        mask = sample_attribute_mask(300, 10, sampled, np.random.default_rng(3))
        picks = sample_attribute_indices(300, 10, sampled, np.random.default_rng(3))
        expected = np.zeros((300, 10), dtype=bool)
        np.put_along_axis(expected, picks, True, axis=1)
        np.testing.assert_array_equal(mask, expected)

    def test_full_sampling_draws_nothing(self):
        gen = np.random.default_rng(5)
        before = gen.bit_generator.state
        picks = sample_attribute_indices(4, 3, 3, gen)
        np.testing.assert_array_equal(picks, np.tile(np.arange(3), (4, 1)))
        assert gen.bit_generator.state == before

    @pytest.mark.parametrize("sampled", [2, 4, 6])
    def test_report_batch_gathers_what_the_mask_selects(self, sampled):
        """Same draws as a per-column gather through the sampler's mask."""
        schema = Schema([NumericAttribute("x%d" % j) for j in range(6)])
        client = LDPClient(schema, 3.0, sampled, "piecewise")
        matrix = np.random.default_rng(1).uniform(-1, 1, (400, 6))
        batch = client.report_batch(matrix, np.random.default_rng(9))
        gen = np.random.default_rng(9)
        mask = sample_attribute_mask(400, 6, sampled, gen)
        for j, name in enumerate(schema.names):
            expected = client.collectors[name].privatize(matrix[mask[:, j], j], gen)
            assert batch.counts[name] == mask[:, j].sum()
            assert batch.payloads[name].tobytes() == expected.tobytes()


class TestDeterministicBiasMemo:
    #: Raw estimates of ``_full_sampling_round`` recorded before the
    #: ``m = d`` gather and the memoized bias landed.
    PINNED = {
        "piecewise": "0x1.30d24b7e28566p+1",
        "laplace": "0x1.aa702f7c0c09ep-4",
        "square_wave": "0x1.ff8ac3db2ea82p+0",
        "duchi": "-0x1.6fed1d60e8b72p-4",
        "hybrid": "0x1.e6ea03d0aa509p+0",
        "staircase": "0x1.65a06ec69d1f0p-4",
    }

    @staticmethod
    def _full_sampling_round():
        names = list(TestDeterministicBiasMemo.PINNED)
        schema = Schema(
            [
                NumericAttribute(n, domain=(-1.0, 1.0) if i % 2 else (0.0, 4.0))
                for i, n in enumerate(names)
            ]
        )
        protocols = {n: n for n in names}
        gen = np.random.default_rng(20261018)
        client = LDPClient(schema, 3.0, protocols=protocols)
        server = LDPServer(schema, 3.0, protocols=protocols)
        lows = np.array([a.domain[0] for a in schema])
        highs = np.array([a.domain[1] for a in schema])
        for _ in range(2):
            records = gen.uniform(lows, highs, (500, len(names)))
            server.ingest(client.report_batch(records, gen))
        return server

    def test_estimate_is_bit_identical_to_the_recorded_round(self):
        estimate = self._full_sampling_round().estimate()
        assert {a.name: float(a.raw[0]).hex() for a in estimate.attributes} == self.PINNED

    def test_probed_once_per_instance_and_budget(self, monkeypatch):
        mechanism = get_protocol("piecewise").mechanism
        probes = []
        real = mechanism.conditional_bias

        def counting(values, epsilon):
            probes.append(epsilon)
            return real(values, epsilon)

        monkeypatch.setattr(mechanism, "conditional_bias", counting)
        first = [mechanism.deterministic_bias(eps) for eps in (1.0, 0.5, 1.0, 0.5)]
        assert first[:2] == first[2:]
        assert probes == [1.0, 0.5]

    def test_estimate_probes_the_shared_mechanism_once(self, monkeypatch):
        schema = Schema([NumericAttribute("x%d" % j) for j in range(20)])
        client = LDPClient(schema, 2.0, 4, "laplace")
        server = LDPServer(schema, 2.0, 4, "laplace")
        server.ingest(client.report_batch(np.zeros((200, 20)), np.random.default_rng(0)))
        (mechanism,) = {c.mechanism for c in server.collectors.values()}
        probe_sizes = []
        real = mechanism.conditional_bias

        def counting(values, epsilon):
            probe_sizes.append(np.size(values))
            return real(values, epsilon)

        monkeypatch.setattr(mechanism, "conditional_bias", counting)
        server.estimate(postprocess=Recalibrator())
        server.estimate(postprocess=Recalibrator())
        # Three-value probes come only from deterministic_bias; the
        # one-value ones are the deviation model's per attribute.
        assert probe_sizes.count(3) == 1
        assert probe_sizes.count(1) == 2 * 20


class TestMixedRoundTrip:
    @pytest.mark.parametrize("spec", ["piecewise", {"c": "grr"}, {"c": "oue"}])
    def test_recovers_truth_at_large_budget(self, spec, rng):
        records = mixed_records(30_000, seed=1)
        client = LDPClient(MIXED, epsilon=24.0, protocols=spec)
        server = LDPServer(MIXED, epsilon=24.0, protocols=spec)
        server.ingest(client.report_batch(records, rng))
        estimate = server.estimate()
        np.testing.assert_allclose(
            estimate.numeric_means(), records[:, :2].mean(axis=0), atol=0.05
        )
        truth = true_frequencies(records[:, 2].astype(np.int64), 4)
        np.testing.assert_allclose(
            estimate.frequencies("c"), truth, atol=0.08
        )

    def test_hdr4me_postprocess_end_to_end(self, rng):
        """Acceptance: mixed schema + streaming + HDR4ME post-processing."""
        records = mixed_records(20_000, seed=2)
        client = LDPClient(MIXED, epsilon=2.0, protocols={"c": "oue"})
        server = LDPServer(MIXED, epsilon=2.0, protocols={"c": "oue"})
        for chunk in np.array_split(records, 5):
            server.ingest(client.report_batch(chunk, rng))
        estimate = server.estimate(postprocess=Recalibrator(norm="l1"))
        for attr in estimate.attributes:
            assert attr.enhanced is not None
            assert np.all(np.isfinite(attr.enhanced))
        assert estimate["a"].scalar == pytest.approx(
            float(estimate.numeric_means()[0])
        )

    def test_numeric_recalibration_is_joint(self, rng):
        """L1 on a sparse numeric schema suppresses pure-noise attributes."""
        gen = np.random.default_rng(3)
        schema = Schema([NumericAttribute("x%d" % j) for j in range(30)])
        records = np.clip(gen.normal(0.0, 0.05, size=(4000, 30)), -1, 1)
        client = LDPClient(schema, epsilon=0.4, protocols="laplace")
        server = LDPServer(schema, epsilon=0.4, protocols="laplace")
        server.ingest(client.report_batch(records, rng))
        enhanced = server.estimate(postprocess=Recalibrator(norm="l1"))
        suppressed = np.sum(enhanced.numeric_means() == 0.0)
        assert suppressed > 0  # pure-noise dimensions get zeroed


class TestStreamingEquivalence:
    @pytest.mark.parametrize(
        "spec",
        ["piecewise", "laplace", {"c": "grr"}, {"c": "oue"}, {"c": "olh"}],
    )
    def test_ten_batches_bit_identical_to_one_shot(self, spec):
        """Acceptance: incremental ingest == one-shot on concatenated reports."""
        records = mixed_records(5000, seed=4)
        client = LDPClient(MIXED, epsilon=4.0, sampled_attributes=2, protocols=spec)
        batches = [
            client.report_batch(chunk, np.random.default_rng(i))
            for i, chunk in enumerate(np.array_split(records, 10))
        ]
        streamed = LDPServer(MIXED, epsilon=4.0, sampled_attributes=2, protocols=spec)
        for batch in batches:
            streamed.ingest(batch)
        one_shot = LDPServer(MIXED, epsilon=4.0, sampled_attributes=2, protocols=spec)
        one_shot.ingest(ReportBatch.concat(batches, one_shot.collectors))

        recal = Recalibrator(norm="l2")
        a = streamed.estimate(postprocess=recal)
        b = one_shot.estimate(postprocess=recal)
        assert a.users == b.users == 5000
        for attr_a, attr_b in zip(a.attributes, b.attributes):
            assert attr_a.reports == attr_b.reports
            assert np.array_equal(attr_a.raw, attr_b.raw), attr_a.name
            assert np.array_equal(attr_a.enhanced, attr_b.enhanced), attr_a.name

    def test_estimate_mid_stream_is_non_destructive(self, rng):
        records = mixed_records(2000, seed=5)
        client = LDPClient(MIXED, epsilon=4.0)
        server = LDPServer(MIXED, epsilon=4.0)
        first, second = np.array_split(records, 2)
        server.ingest(client.report_batch(first, rng))
        early = server.estimate()
        server.ingest(client.report_batch(second, rng))
        final = server.estimate()
        assert early.users == 1000 and final.users == 2000
        # A second read of the final state is identical: nothing consumed.
        again = server.estimate()
        for x, y in zip(final.attributes, again.attributes):
            assert np.array_equal(x.raw, y.raw)


class TestServerBehaviour:
    def test_estimate_without_reports_raises(self):
        server = LDPServer(MIXED, epsilon=1.0)
        with pytest.raises(AggregationError):
            server.estimate()

    def test_unknown_batch_attribute_rejected(self, rng):
        other = Schema([NumericAttribute("z")])
        batch = LDPClient(other, epsilon=1.0).report_batch(
            np.zeros((5, 1)), rng
        )
        server = LDPServer(MIXED, epsilon=1.0)
        with pytest.raises(DimensionError):
            server.ingest(batch)

    @pytest.mark.parametrize("server_spec", [{"c": "oue"}, {"c": "grr"}])
    def test_protocol_mismatch_rejected(self, server_spec, rng):
        """Shape-compatible payloads from the wrong protocol must not
        aggregate silently (OUE bit matrices and histogram-encoded
        entries are both (k, v) floats)."""
        schema = Schema([CategoricalAttribute("c", n_categories=4)])
        client = LDPClient(schema, epsilon=2.0, protocols="piecewise")
        server = LDPServer(schema, epsilon=2.0, protocols=server_spec)
        batch = client.report_batch(np.zeros((50, 1)), rng)
        with pytest.raises(DimensionError, match="produced by protocol"):
            server.ingest(batch)

    def test_reset_starts_a_new_round(self, rng):
        client = LDPClient(MIXED, epsilon=2.0)
        server = LDPServer(MIXED, epsilon=2.0)
        server.ingest(client.report_batch(mixed_records(100), rng))
        server.reset()
        assert server.users == 0
        with pytest.raises(AggregationError):
            server.estimate()

    def test_report_counts_tracks_sampling(self, rng):
        client = LDPClient(MIXED, epsilon=1.0, sampled_attributes=1)
        server = LDPServer(MIXED, epsilon=1.0, sampled_attributes=1)
        server.ingest(client.report_batch(mixed_records(900), rng))
        counts = server.report_counts()
        assert sum(counts.values()) == 900

    def test_ingest_is_atomic_across_attributes(self, rng):
        """A malformed attribute mid-batch must not leave earlier
        attributes' state partially updated."""
        client = LDPClient(MIXED, epsilon=2.0)
        server = LDPServer(MIXED, epsilon=2.0)
        good = client.report_batch(mixed_records(200), rng)
        server.ingest(good)
        before = server.estimate()
        before_counts = server.report_counts()

        bad = client.report_batch(mixed_records(100, seed=9), rng)
        payloads = dict(bad.payloads)
        payloads["c"] = np.ones((100, 99))  # wrong histogram width
        malformed = ReportBatch(
            users=bad.users,
            payloads=payloads,
            counts=dict(bad.counts),
            protocols=dict(bad.protocols),
        )
        with pytest.raises(DimensionError):
            server.ingest(malformed)

        assert server.users == 200
        assert server.report_counts() == before_counts
        after = server.estimate()
        for x, y in zip(before.attributes, after.attributes):
            assert np.array_equal(x.raw, y.raw), x.name

    def test_ingest_validates_counts_against_payloads(self, rng):
        client = LDPClient(MIXED, epsilon=2.0)
        server = LDPServer(MIXED, epsilon=2.0)
        batch = client.report_batch(mixed_records(50), rng)
        lying = ReportBatch(
            users=batch.users,
            payloads=batch.payloads,
            counts={name: count + 1 for name, count in batch.counts.items()},
            protocols=batch.protocols,
        )
        with pytest.raises(DimensionError, match="declares"):
            server.ingest(lying)
        assert server.users == 0

    def test_ingest_validates_users_against_counts(self, rng):
        """A frame lying about its user count must not skew accounting."""
        client = LDPClient(MIXED, epsilon=2.0)
        server = LDPServer(MIXED, epsilon=2.0)
        batch = client.report_batch(mixed_records(50), rng)
        understated = ReportBatch(
            users=0,
            payloads=batch.payloads,
            counts=batch.counts,
            protocols=batch.protocols,
        )
        with pytest.raises(DimensionError, match="at most once"):
            server.ingest(understated)
        assert server.users == 0
        assert sum(server.report_counts().values()) == 0

    def test_ingest_rejects_non_finite_reports(self, rng):
        client = LDPClient(MIXED, epsilon=2.0)
        server = LDPServer(MIXED, epsilon=2.0)
        batch = client.report_batch(mixed_records(20), rng)
        payloads = dict(batch.payloads)
        poisoned = np.asarray(payloads["a"], dtype=np.float64).copy()
        poisoned[0] = np.inf
        payloads["a"] = poisoned
        evil = ReportBatch(
            users=batch.users,
            payloads=payloads,
            counts=batch.counts,
            protocols=batch.protocols,
        )
        with pytest.raises(DomainError):
            server.ingest(evil)
        assert server.users == 0

    def test_callable_postprocess_supported(self, rng):
        client = LDPClient(MIXED, epsilon=4.0)
        server = LDPServer(MIXED, epsilon=4.0)
        server.ingest(client.report_batch(mixed_records(1000), rng))
        estimate = server.estimate(postprocess=lambda theta, model: theta * 0.5)
        np.testing.assert_allclose(
            estimate.numeric_means(), estimate.numeric_means(enhanced=False) * 0.5
        )
