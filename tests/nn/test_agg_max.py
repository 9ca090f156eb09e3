"""ResGCN's max aggregation agrees bit for bit across kernel backends.

``GraphOps.agg_max`` runs the per-degree-class kernels on the fast
backends and ``np.maximum.at`` plus the winner/``segment_sum`` gradient on
``reference``. A max is exact and the tie split is the same division, so
the forward and both gradients (into the features and into the trainable
edge weights) must be identical, not just close.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn.models.base import GraphOps
from repro.nn.tensor import Tensor

BACKENDS = ["reference", "vectorized", "tiled"]


def _coo(n, rows, cols, rng):
    """An ``n x n`` COO adjacency with its entries in shuffled order."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    order = rng.permutation(rows.size)
    return sp.coo_matrix(
        (np.ones(rows.size), (rows[order], cols[order])), shape=(n, n)
    )


def _powerlaw(rng):
    # Skewed in-degrees: many degree classes, plus isolated nodes.
    n = 40
    rows = np.minimum(rng.zipf(1.6, 220), n - 6) + rng.integers(0, 3, 220)
    return _coo(n, rows, rng.integers(0, n, rows.size), rng)


def _duplicated(rng):
    # Every edge stored twice: each segment has at least one exact tie.
    n = 25
    rows = rng.integers(0, n, 60)
    cols = rng.integers(0, n, 60)
    return _coo(n, np.tile(rows, 2), np.tile(cols, 2), rng)


def _regular(rng):
    # Every node has in-degree 3: a single degree class.
    n = 30
    rows = np.repeat(np.arange(n), 3)
    return _coo(n, rows, rng.integers(0, n, rows.size), rng)


def _isolated(rng):
    # Only nodes 0..4 receive edges; nodes 5..19 are empty segments.
    n = 20
    rows = rng.integers(0, 5, 30)
    return _coo(n, rows, rng.integers(0, n, rows.size), rng)


def _edgeless(rng):
    return sp.coo_matrix((12, 12))


GRAPHS = {
    "powerlaw": _powerlaw,
    "duplicated": _duplicated,
    "regular": _regular,
    "isolated": _isolated,
    "edgeless": _edgeless,
}


def _agg_max(adj, backend, x, weights, grad):
    """Forward value and gradients of ``agg_max`` on one backend."""
    xt = Tensor(x, requires_grad=True)
    wt = None if weights is None else Tensor(weights, requires_grad=True)
    out = GraphOps(adj, edge_weights=wt, kernel_backend=backend).agg_max(xt)
    out.backward(grad)
    return out.data, xt.grad, None if wt is None else wt.grad


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("trainable", [False, True])
@pytest.mark.parametrize("ties", [False, True])
def test_agg_max_backends_agree_exactly(rng, graph, trainable, ties):
    adj = GRAPHS[graph](rng)
    n = adj.shape[0]
    if ties:  # small integers: many exact ties within a segment
        x = rng.integers(-2, 3, (n, 5)).astype(np.float64)
    else:
        x = rng.normal(size=(n, 5))
    weights = None
    if trainable:
        weights = rng.uniform(0.5, 1.5, adj.nnz)
        weights[::3] = 0.0  # zeroed edges tie at (signed) zero
    grad = rng.normal(size=(n, 5))
    ref = _agg_max(adj, "reference", x, weights, grad)
    for backend in BACKENDS[1:]:
        got = _agg_max(adj, backend, x, weights, grad)
        for want, have in zip(ref, got):
            if want is None:
                assert have is None
            else:
                assert np.array_equal(have, want), backend
    # Isolated nodes (empty segments) aggregate to zero.
    isolated = np.bincount(adj.row, minlength=n) == 0
    assert not ref[0][isolated].any()


def test_agg_max_builds_classes_once(rng):
    adj = _powerlaw(rng)
    ops = GraphOps(adj)
    x = Tensor(rng.normal(size=(adj.shape[0], 3)))
    ops.agg_max(x)
    classes = ops._max_classes
    ops.agg_max(x)
    assert ops._max_classes is classes
    assert len(classes.blocks) >= 3
