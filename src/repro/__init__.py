"""repro — reproduction of "Utility Analysis and Enhancement of LDP
Mechanisms in High-Dimensional Space" (Duan, Ye, Hu; ICDE 2022).

The library has four layers:

1. **Substrates** — :mod:`repro.mechanisms` (six LDP mechanisms),
   :mod:`repro.freq_oracles` (the Wang et al. GRR/OUE/OLH oracles),
   :mod:`repro.protocol` (budget accounting and :func:`collect_means`,
   one dataset-scale collection round),
   :mod:`repro.datasets` (Section VI data generators) and
   :mod:`repro.analysis` (utility metrics and density diagnostics).
2. **The paper's contributions** — :mod:`repro.framework` (the Section IV
   analytical utility framework: Lemmas 2–3, Theorems 1–2, Table II
   benchmarking) and :mod:`repro.hdr4me` (the Section V HDR4ME
   re-calibration protocol with L1/L2 regularization and the frequency
   extension).
3. **The session API** — :mod:`repro.session`, the canonical client/server
   collection surface: typed :class:`Schema` records (numeric and
   categorical attributes mixed freely), an :class:`LDPClient` that
   perturbs whole records under one budget plan, an :class:`LDPServer`
   with incremental streaming ``ingest``/``estimate``, and a unified
   registry (:func:`get_protocol`) that resolves numeric mechanisms and
   frequency oracles interchangeably.
4. **Reproduction harness** — :mod:`repro.experiments` (one driver per
   table/figure plus a CLI).

Quickstart::

    import numpy as np
    from repro import (
        CategoricalAttribute, LDPClient, LDPServer, NumericAttribute,
        Recalibrator, Schema,
    )

    schema = Schema([
        NumericAttribute("screen_time"),            # values in [-1, 1]
        CategoricalAttribute("top_app", n_categories=16),
    ])
    client = LDPClient(schema, epsilon=1.0, protocols="piecewise")
    server = LDPServer(schema, epsilon=1.0, protocols="piecewise")

    rng = np.random.default_rng(0)
    records = np.column_stack([
        rng.uniform(-1, 1, 50_000),
        rng.integers(0, 16, 50_000),
    ])
    for batch in np.array_split(records, 10):       # reports stream in
        server.ingest(client.report_batch(batch, rng))

    estimate = server.estimate(postprocess=Recalibrator(norm="l1"))
    print(estimate["screen_time"].scalar)           # private mean
    print(estimate.frequencies("top_app"))          # private frequencies
"""

from .analysis import (
    UtilityReport,
    compare_estimates,
    gaussian_fit,
    l2_deviation,
    max_abs_deviation,
    mse,
    true_mean,
)
from .exceptions import (
    AggregationError,
    CalibrationError,
    CheckpointCorruptError,
    ContractMismatchError,
    DimensionError,
    DistributionError,
    DomainError,
    ParameterError,
    PrivacyBudgetError,
    ReproError,
    StateDeltaError,
    StorageError,
    TelemetryError,
    TransportError,
    WireFormatError,
)
from .framework import (
    BerryEsseenBound,
    DeviationModel,
    MultivariateDeviationModel,
    ValueDistribution,
    benchmark_mechanisms,
    berry_esseen_bound,
    build_deviation_model,
    build_multivariate_model,
    convergence_curve,
)
from .freq_oracles import (
    FrequencyOracle,
    GeneralizedRandomizedResponse,
    OptimizedLocalHashing,
    OptimizedUnaryEncoding,
    available_oracles,
    get_oracle,
)
from .hdr4me import (
    ProximalGradientSolver,
    RecalibrationResult,
    Recalibrator,
    recalibrate_l1,
    recalibrate_l2,
)
from .mechanisms import (
    DuchiMechanism,
    HybridMechanism,
    LaplaceMechanism,
    Mechanism,
    PiecewiseMechanism,
    SquareWaveMechanism,
    StaircaseMechanism,
    available_mechanisms,
    available_protocols,
    get_mechanism,
    get_protocol,
    register_mechanism,
    register_protocol,
)
from .protocol import (
    Aggregator,
    BudgetPlan,
    Client,
    collect_means,
)
from .session import (
    AttributeEstimate,
    CategoricalAttribute,
    CollectionProtocol,
    LDPClient,
    LDPServer,
    NumericAttribute,
    ReportBatch,
    Schema,
    SessionEstimate,
    ShardedServer,
)
from .storage import (
    AutoCheckpointer,
    CheckpointStore,
    JsonFileStore,
    SegmentLogStore,
    SqliteStore,
    open_store,
)
from .telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeWeightedGauge,
    enable_json_logs,
)
from .transport import (
    AsyncReportSender,
    CollectionGateway,
    request_stats,
    serve_collection,
)
from .wire import (
    CollectionContract,
    decode_batch,
    encode_batch,
    read_fingerprint,
)
from .datasets import (
    available_datasets,
    cov19_like,
    gaussian_dataset,
    load_dataset,
    normalize,
    poisson_dataset,
    uniform_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "AggregationError",
    "Aggregator",
    "AsyncReportSender",
    "AttributeEstimate",
    "AutoCheckpointer",
    "BerryEsseenBound",
    "BudgetPlan",
    "CalibrationError",
    "CategoricalAttribute",
    "CheckpointCorruptError",
    "CheckpointStore",
    "Client",
    "CollectionContract",
    "CollectionGateway",
    "CollectionProtocol",
    "ContractMismatchError",
    "Counter",
    "DeviationModel",
    "DimensionError",
    "DistributionError",
    "DomainError",
    "DuchiMechanism",
    "FrequencyOracle",
    "Gauge",
    "GeneralizedRandomizedResponse",
    "Histogram",
    "HybridMechanism",
    "JsonFileStore",
    "LDPClient",
    "LDPServer",
    "LaplaceMechanism",
    "Mechanism",
    "MetricsRegistry",
    "MultivariateDeviationModel",
    "NumericAttribute",
    "OptimizedLocalHashing",
    "OptimizedUnaryEncoding",
    "PiecewiseMechanism",
    "ParameterError",
    "PrivacyBudgetError",
    "ProximalGradientSolver",
    "RecalibrationResult",
    "Recalibrator",
    "ReportBatch",
    "ReproError",
    "Schema",
    "SegmentLogStore",
    "SessionEstimate",
    "ShardedServer",
    "SqliteStore",
    "SquareWaveMechanism",
    "StaircaseMechanism",
    "StateDeltaError",
    "StorageError",
    "TelemetryError",
    "TimeWeightedGauge",
    "TransportError",
    "UtilityReport",
    "ValueDistribution",
    "WireFormatError",
    "available_datasets",
    "available_mechanisms",
    "available_oracles",
    "available_protocols",
    "benchmark_mechanisms",
    "berry_esseen_bound",
    "build_deviation_model",
    "build_multivariate_model",
    "collect_means",
    "compare_estimates",
    "convergence_curve",
    "cov19_like",
    "decode_batch",
    "enable_json_logs",
    "encode_batch",
    "gaussian_dataset",
    "gaussian_fit",
    "get_mechanism",
    "get_oracle",
    "get_protocol",
    "l2_deviation",
    "load_dataset",
    "max_abs_deviation",
    "mse",
    "normalize",
    "open_store",
    "poisson_dataset",
    "read_fingerprint",
    "recalibrate_l1",
    "recalibrate_l2",
    "register_mechanism",
    "register_protocol",
    "request_stats",
    "serve_collection",
    "true_mean",
    "uniform_dataset",
    "__version__",
]
