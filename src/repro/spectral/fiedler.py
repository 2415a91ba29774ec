"""The Fiedler solver: one interface, five backends.

``FiedlerSolver`` computes the second-smallest Laplacian eigenpair of a
graph.  Backends:

* ``dense``   — full ``numpy.linalg.eigh`` (exact; O(n^3); small graphs);
* ``sparse``  — ``scipy.sparse.linalg.eigsh`` shift-invert (large graphs);
* ``power``   — from-scratch deflated power iteration (reference);
* ``lanczos`` — from-scratch Lanczos (reference, faster convergence);
* ``auto``    — dense below a size threshold, sparse above.

The distributed backend used for the Fig. 9 "with Spark" series lives in
:mod:`repro.distributed.spark_spectral`; it reuses the ``power``/``lanczos``
solvers here by injecting a cluster-backed matvec.
"""

from __future__ import annotations

import enum
import logging
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh

from repro.graphs.csr import CSRGraph
from repro.graphs.laplacian import laplacian_matrix, sparse_laplacian
from repro.graphs.weighted_graph import WeightedGraph
from repro.spectral.eigen import smallest_nontrivial_laplacian_eigenpair
from repro.spectral.lanczos import lanczos_smallest_nontrivial

NodeId = Hashable

_LOG = logging.getLogger(__name__)

_DENSE_CUTOFF = 600


class FiedlerMethod(enum.Enum):
    """Available eigensolver backends."""

    AUTO = "auto"
    DENSE = "dense"
    SPARSE = "sparse"
    POWER = "power"
    LANCZOS = "lanczos"


@dataclass
class FiedlerResult:
    """The second-smallest Laplacian eigenpair of a graph."""

    value: float
    """``lambda_2``, the algebraic connectivity (Theorem 1's cut bound)."""

    vector: np.ndarray
    """The Fiedler vector, aligned with :attr:`order`."""

    order: list[NodeId]
    """Node order indexing :attr:`vector`."""

    method: str
    """Backend that produced the result."""

    _index: dict[NodeId, int] | None = field(default=None, repr=False, compare=False)
    """Lazy node -> position map backing :meth:`entry`."""

    def entry(self, node: NodeId) -> float:
        """Fiedler-vector entry for *node* (O(1) after the first call)."""
        if self._index is None:
            self._index = {node: i for i, node in enumerate(self.order)}
        return float(self.vector[self._index[node]])


class FiedlerSolver:
    """Computes Fiedler pairs with a configurable backend.

    Every solve is cold: ``power`` and ``lanczos`` start from a vector
    drawn from *seed*, ``sparse`` from ARPACK's default start, and no
    solver state carries from one graph to the next.

    >>> from repro.graphs.generators import path_graph
    >>> solver = FiedlerSolver()
    >>> result = solver.solve(path_graph(4))
    >>> round(result.value, 6) > 0
    True
    """

    def __init__(
        self,
        method: FiedlerMethod | str = FiedlerMethod.AUTO,
        dense_cutoff: int = _DENSE_CUTOFF,
        tol: float = 1e-10,
        seed: int = 7,
    ) -> None:
        self.method = FiedlerMethod(method) if isinstance(method, str) else method
        self.dense_cutoff = dense_cutoff
        self.tol = tol
        self.seed = seed
        self.sparse_fallbacks = 0
        """Times shift-invert ``eigsh`` failed and the SA fallback ran."""

    def solve(
        self,
        graph: "WeightedGraph | CSRGraph",
        order: Sequence[NodeId] | None = None,
    ) -> FiedlerResult:
        """Return the Fiedler pair of *graph*.

        Accepts a plain :class:`WeightedGraph` or a pre-frozen
        :class:`~repro.graphs.csr.CSRGraph` (hot paths freeze once and
        reuse the arrays).  Degenerate sizes are handled explicitly: an
        empty graph is an error; a single node has no second eigenvalue,
        so ``(0, [0])`` is returned, which downstream bisection treats
        as "nothing to split".
        """
        if graph.node_count == 0:
            raise ValueError("cannot compute the Fiedler pair of an empty graph")
        node_order = list(order) if order is not None else graph.node_list()
        if graph.node_count == 1:
            return FiedlerResult(0.0, np.zeros(1), node_order, "trivial")

        method = self._resolve(graph.node_count)
        if method is FiedlerMethod.DENSE:
            value, vector = self._solve_dense(graph, node_order)
        elif method is FiedlerMethod.SPARSE:
            value, vector = self._solve_sparse(graph, node_order)
        elif method is FiedlerMethod.POWER:
            laplacian = laplacian_matrix(graph, node_order)
            value, vector = smallest_nontrivial_laplacian_eigenpair(
                laplacian, tol=self.tol, seed=self.seed
            )
        elif method is FiedlerMethod.LANCZOS:
            laplacian = laplacian_matrix(graph, node_order)
            value, vector = lanczos_smallest_nontrivial(
                laplacian, tol=self.tol, seed=self.seed
            )
        else:  # pragma: no cover - enum is exhaustive
            raise AssertionError(f"unhandled method {method}")
        return FiedlerResult(value, vector, node_order, method.value)

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def _resolve(self, n: int) -> FiedlerMethod:
        if self.method is not FiedlerMethod.AUTO:
            return self.method
        return FiedlerMethod.DENSE if n <= self.dense_cutoff else FiedlerMethod.SPARSE

    def _solve_dense(
        self, graph: "WeightedGraph | CSRGraph", order: Sequence[NodeId]
    ) -> tuple[float, np.ndarray]:
        laplacian = laplacian_matrix(graph, order)
        values, vectors = np.linalg.eigh(laplacian)
        return max(float(values[1]), 0.0), vectors[:, 1]

    def _solve_sparse(
        self,
        graph: "WeightedGraph | CSRGraph",
        order: Sequence[NodeId],
    ) -> tuple[float, np.ndarray]:
        laplacian = sparse_laplacian(graph, order)
        if not np.issubdtype(laplacian.dtype, np.floating):
            laplacian = laplacian.astype(np.float64)
        n = laplacian.shape[0]
        k = min(2, n - 1)
        try:
            values, vectors = eigsh(laplacian, k=k, sigma=0.0, which="LM", tol=self.tol)
        except (RuntimeError, ArpackError) as exc:
            # Shift-invert fails on exactly singular factorizations
            # (disconnected graphs: RuntimeError from the SuperLU factor,
            # ArpackError on non-convergence); smallest-algebraic mode
            # needs no factorization and always converges for k <= 2.
            self.sparse_fallbacks += 1
            _LOG.warning(
                "shift-invert eigsh failed on %d-node Laplacian (%s); "
                "falling back to smallest-algebraic mode",
                n,
                exc,
            )
            values, vectors = eigsh(laplacian, k=k, which="SA", tol=max(self.tol, 1e-8))
        idx = np.argsort(values)
        if len(idx) < 2:
            return 0.0, vectors[:, idx[0]]
        second = idx[1]
        return max(float(values[second]), 0.0), vectors[:, second]
