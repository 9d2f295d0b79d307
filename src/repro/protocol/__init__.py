"""The LDP collection protocol substrate (Section III-B).

Public surface:

* :class:`BudgetPlan` — ``ε/m`` and ``ε/2m`` budget arithmetic;
* :class:`Client` / :class:`Report` — reference user-side implementation;
* :class:`Aggregator` / :class:`AggregationResult` — streaming collector;
* :func:`collect_means` — one dataset-scale collection round through the
  session API, and :func:`build_populations`, the discretized columns a
  bounded mechanism's Theorem 1 model needs.
"""

from .allocation import (
    BudgetAllocation,
    SignalProportionalAllocation,
    UniformAllocation,
    WeightedAllocation,
    allocated_pipeline_run,
)
from .budget import BudgetPlan
from .client import Client, Report
from .moments import VarianceEstimate, VarianceEstimationPipeline, true_variance
from .pipeline import DEFAULT_CHUNK_SIZE, build_populations, collect_means
from .server import AggregationResult, Aggregator
from .setvalued import PaddingAndSampling, SetValuedEstimate, item_frequencies

__all__ = [
    "AggregationResult",
    "Aggregator",
    "BudgetAllocation",
    "BudgetPlan",
    "Client",
    "DEFAULT_CHUNK_SIZE",
    "PaddingAndSampling",
    "Report",
    "SetValuedEstimate",
    "SignalProportionalAllocation",
    "UniformAllocation",
    "VarianceEstimate",
    "VarianceEstimationPipeline",
    "WeightedAllocation",
    "allocated_pipeline_run",
    "build_populations",
    "collect_means",
    "item_frequencies",
    "true_variance",
]
