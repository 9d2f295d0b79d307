"""One dataset-scale collection round of the paper's protocol.

:func:`collect_means` runs the Section III-B protocol on an ``(n, d)``
matrix through the session API (:mod:`repro.session`): every user samples
``m`` of ``d`` dimensions, perturbs them with ``ε/m``, and the server
aggregates the reports into ``θ̂``. Users stream through in chunks of
:data:`DEFAULT_CHUNK_SIZE`, which bounds the memory footprint so
paper-scale runs (n = 200,000, d = 5,000) fit on a laptop.

:func:`build_populations` discretizes the data columns into the value
distributions the Theorem 1 model needs for bounded mechanisms
(:func:`~repro.framework.multivariate.build_multivariate_model`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..exceptions import DimensionError
from ..framework.population import DEFAULT_BINS, ValueDistribution
from ..mechanisms.base import Mechanism
from ..rng import RngLike, ensure_rng

if TYPE_CHECKING:  # the session layer imports this package's budget module
    from ..session.server import SessionEstimate

#: Users processed per vectorized chunk.
DEFAULT_CHUNK_SIZE = 8192


def build_populations(
    data: np.ndarray, bins: Optional[int] = DEFAULT_BINS
) -> List[ValueDistribution]:
    """Discretize each column of ``data`` into a :class:`ValueDistribution`.

    This is the paper's "we discretize them with sampling" step that makes
    Lemma 3 applicable to continuous data.
    """
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise DimensionError("data must be an (n, d) matrix")
    return [ValueDistribution.from_data(matrix[:, j], bins) for j in range(matrix.shape[1])]


def collect_means(
    mechanism: Mechanism,
    epsilon: float,
    data: np.ndarray,
    rng: RngLike = None,
    sampled_dimensions: Optional[int] = None,
) -> SessionEstimate:
    """Perturb, collect and aggregate every row of ``data`` once.

    Parameters
    ----------
    mechanism:
        Any :class:`Mechanism` whose input domain matches the data.
    epsilon:
        Collective privacy budget per user.
    data:
        ``(n, d)`` matrix of original tuples, one all-numeric attribute
        per column.
    rng:
        Seed or generator for sampling and perturbation.
    sampled_dimensions:
        The ``m`` of the protocol; defaults to ``d`` (every user reports
        everything, the paper's "test the limit" configuration).

    Returns
    -------
    SessionEstimate
        The server's raw estimate; ``numeric_means()`` is ``θ̂``.
    """
    from ..session.adapters import MechanismProtocol
    from ..session.client import LDPClient
    from ..session.schema import NumericAttribute, Schema
    from ..session.server import LDPServer

    matrix = np.asarray(data)
    if matrix.ndim != 2:
        raise DimensionError("expected an (n, d) data matrix, got %s" % (np.shape(data),))
    gen = ensure_rng(rng)
    schema = Schema(
        [
            NumericAttribute("x%d" % j, domain=mechanism.input_domain)
            for j in range(matrix.shape[1])
        ]
    )
    protocol = MechanismProtocol(mechanism)
    client = LDPClient(
        schema, epsilon, sampled_attributes=sampled_dimensions, protocols=protocol
    )
    server = LDPServer(
        schema, epsilon, sampled_attributes=sampled_dimensions, protocols=protocol
    )
    for start in range(0, matrix.shape[0], DEFAULT_CHUNK_SIZE):
        chunk = matrix[start : start + DEFAULT_CHUNK_SIZE]
        server.ingest(client.report_batch(chunk, gen))
    return server.estimate()
