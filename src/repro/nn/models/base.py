"""Shared graph-operator abstraction for all five GCN variants.

Every model aggregates neighbour features through a :class:`GraphOps`
object. ``GraphOps`` has two personalities:

* **constant adjacency** — the normal case: aggregations run as SpMM against
  precomputed (normalized) sparse matrices;
* **trainable adjacency** — GCoD's graph-tuning step (Eq. 4): a per-edge
  weight tensor multiplies the fixed symmetric normalization, and
  aggregation runs through :func:`repro.nn.functional.edge_spmm` so that
  gradients flow into the edge weights.

Keeping the switch here means the *same model code* is used for pretraining,
graph tuning, and retraining — exactly the paper's "W is replaced with A in
Eq. (2)" trick.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, reshape
from repro.sparse.kernels import (
    BackendLike,
    SegmentClasses,
    get_backend,
    segment_classes,
)


class GraphOps:
    """Aggregation operators over one graph, constant or trainable.

    Parameters
    ----------
    adj:
        Binary/weighted adjacency (no self-loops), scipy sparse.
    edge_weights:
        Optional trainable tensor with one entry per *stored* non-zero of
        ``adj`` (ordered like ``adj.tocoo()``). When given, symmetric-
        normalized aggregation multiplies each edge's fixed normalization by
        its weight; self-loops keep weight 1.
    kernel_backend:
        SpMM kernel backend name or instance (see
        :mod:`repro.sparse.kernels`); ``None`` uses the registry default.
        Every aggregation this object performs routes through it.
    """

    def __init__(
        self,
        adj: sp.spmatrix,
        edge_weights: Optional[Tensor] = None,
        kernel_backend: BackendLike = None,
    ):
        coo = sp.coo_matrix(adj)
        self.kernel = get_backend(kernel_backend)
        self.num_nodes = coo.shape[0]
        self.rows = coo.row.astype(np.int64)
        self.cols = coo.col.astype(np.int64)
        self.base_data = coo.data.astype(np.float64)
        self.edge_weights = edge_weights
        if edge_weights is not None and edge_weights.data.shape[0] != self.rows.shape[0]:
            raise ValueError(
                "edge_weights must have one entry per stored non-zero"
            )

        # Fixed symmetric normalization computed on A + I (renormalization
        # trick); held constant during graph tuning, following SGCN [23].
        degrees = np.bincount(
            self.rows, weights=self.base_data, minlength=self.num_nodes
        ).astype(np.float64)
        degrees += 1.0  # self loop
        inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
        self.sym_edge_norm = (
            inv_sqrt[self.rows] * inv_sqrt[self.cols] * self.base_data
        )
        self.sym_loop_norm = inv_sqrt * inv_sqrt
        # Row-mean weights (GraphSAGE's mean aggregation over neighbours).
        counts = np.bincount(self.rows, minlength=self.num_nodes).astype(np.float64)
        self.mean_edge_norm = self.base_data / np.maximum(counts[self.rows], 1.0)
        # The in-degree classes of ``rows`` for max aggregation, built on
        # the first ``agg_max`` call (only ResGCN aggregates by max).
        self._max_classes: Optional[SegmentClasses] = None

        if edge_weights is None:
            n = self.num_nodes
            self._sym_mat = sp.csr_matrix(
                (self.sym_edge_norm, (self.rows, self.cols)), shape=(n, n)
            ) + sp.diags(self.sym_loop_norm)
            self._sum_mat = sp.csr_matrix(
                (self.base_data, (self.rows, self.cols)), shape=(n, n)
            )
            self._mean_mat = sp.csr_matrix(
                (self.mean_edge_norm, (self.rows, self.cols)), shape=(n, n)
            )

    @property
    def trainable(self) -> bool:
        """True when aggregation routes gradients into edge weights."""
        return self.edge_weights is not None

    # ------------------------------------------------------------------
    # aggregations
    # ------------------------------------------------------------------
    def agg_sym(self, x: Tensor) -> Tensor:
        """Symmetric-normalized aggregation ``Â x`` (GCN / ResGCN)."""
        if self.edge_weights is None:
            return F.spmm(self._sym_mat, x, backend=self.kernel)
        weights = self.edge_weights * Tensor(self.sym_edge_norm)
        neigh = F.edge_spmm(
            weights, self.rows, self.cols, x, self.num_nodes,
            backend=self.kernel,
        )
        return neigh + x * Tensor(self.sym_loop_norm[:, None])

    def agg_sum(self, x: Tensor) -> Tensor:
        """Unnormalized sum aggregation (GIN's Add, Tab. IV)."""
        if self.edge_weights is None:
            return F.spmm(self._sum_mat, x, backend=self.kernel)
        weights = self.edge_weights * Tensor(self.base_data)
        return F.edge_spmm(
            weights, self.rows, self.cols, x, self.num_nodes,
            backend=self.kernel,
        )

    def agg_mean(self, x: Tensor) -> Tensor:
        """Neighbour-mean aggregation (GraphSAGE, Tab. IV)."""
        if self.edge_weights is None:
            return F.spmm(self._mean_mat, x, backend=self.kernel)
        weights = self.edge_weights * Tensor(self.mean_edge_norm)
        return F.edge_spmm(
            weights, self.rows, self.cols, x, self.num_nodes,
            backend=self.kernel,
        )

    def agg_max(self, x: Tensor) -> Tensor:
        """Neighbour-max aggregation (ResGCN's Max, Tab. IV)."""
        gathered = F.gather_rows(x, self.cols, backend=self.kernel)
        if self.edge_weights is not None:
            gathered = gathered * reshape(self.edge_weights, (-1, 1))
        if self._max_classes is None:
            self._max_classes = segment_classes(self.rows, self.num_nodes)
        return F.segment_max(
            gathered, self.rows, self.num_nodes, backend=self.kernel,
            classes=self._max_classes,
        )

    def attention_aggregate(self, x: Tensor, edge_scores: Tensor) -> Tensor:
        """GAT aggregation: per-edge softmaxed scores weight source features.

        ``edge_scores`` is 1-D over edges; self-loops are not added here —
        GAT layers append them to the edge list themselves if wanted.
        """
        alpha = F.segment_softmax(
            edge_scores, self.rows, self.num_nodes, backend=self.kernel
        )
        if self.edge_weights is not None:
            alpha = alpha * self.edge_weights
        return F.edge_spmm(
            alpha, self.rows, self.cols, x, self.num_nodes,
            backend=self.kernel,
        )


class GNNModel(Module):
    """Base class for the five models: ``forward(x, ops) -> logits``."""

    def forward(self, x: Tensor, ops: GraphOps) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor, ops: GraphOps) -> Tensor:
        return self.forward(x, ops)

    def predict(self, x: np.ndarray, ops: GraphOps) -> np.ndarray:
        """Class predictions with dropout disabled."""
        was_training = self.training
        self.eval()
        logits = self.forward(Tensor(x), ops)
        if was_training:
            self.train()
        return np.argmax(logits.data, axis=1)
