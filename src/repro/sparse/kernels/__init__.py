"""Pluggable SpMM kernel backends.

The GCoD reproduction executes every GCN phase as SpMM, in one of the two
product orders the accelerator distinguishes (Fig. 7): row-wise product
(combination, CSR) and column-wise product (distributed aggregation, CSC).
The *hardware* models count traffic against those loop-order semantics; the
*numerics* are the same product either way, so how fast the arithmetic runs
is an implementation choice. This package makes that choice pluggable:

* ``reference`` — the original per-row / per-column Python loop kernels and
  ``np.ufunc.at`` scatter primitives, kept as ground truth;
* ``vectorized`` — fully batched kernels: product-order SpMM lowers to
  compiled CSR/CSC sparse-times-dense routines, scatter/gather segment
  reductions lower to ``bincount`` / selection-matrix products, and
  ``spmm_batch`` runs a whole list of (sparse, dense) pairs as one
  block-diagonal product without transposing anything;
* ``tiled`` — block-granular kernels mirroring the accelerator's chunk
  schedule: fixed-size row blocks / CSC column runs for the plain kernel
  families, and layout-driven execution (``tiled_spmm``) that follows a
  ``BlockLayout`` and returns a per-tile work profile (owner chunk, nnz,
  MACs, DMA bytes) next to the numbers;
* ``compiled`` — numba-JIT product-order SpMM loops (prange over row /
  feature blocks, fastmath off), numerically identical to ``vectorized``.
  The tier is *probed at first resolution* behind an import guard: when
  numba is absent or the probe kernel fails, ``compiled`` resolves to
  ``vectorized`` with a one-line stderr note, so scripts and cache keys
  never depend on the machine having a JIT toolchain.

Backends register by name; ``get_backend(None)`` returns the process-wide
default (``vectorized``). Everything downstream — ``GraphOps``, the training
loop, the GCoD pipeline, the functional emulator, the CLI — resolves its
backend through this registry, so ``--kernel-backend reference`` swaps the
arithmetic engine of the whole stack without touching the hardware model's
traffic accounting. CLI surfaces derive their choices from
:func:`backend_choices`, which also lists lazily-probed names, so
``--kernel-backend compiled`` is always accepted and degrades cleanly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import KernelError, ShapeError


def check_spmm_shapes(a_shape: Tuple[int, ...], b: np.ndarray) -> None:
    """Validate the dense operand of ``A @ B`` against ``A``'s shape."""
    if b.ndim != 2:
        raise ShapeError("dense operand must be 2-D")
    if a_shape[1] != b.shape[0]:
        raise ShapeError(
            f"cannot multiply {a_shape} by {b.shape}: inner dims differ"
        )


@dataclass(frozen=True)
class SegmentClasses:
    """Segment members grouped by segment size (a node's in-degree).

    GCoD Step 1's idea applied to the software kernel: the segments of one
    size ``d`` form a dense ``(n_d, d)`` block of value positions, so a
    power-law segment list becomes a few regular reductions. Each entry of
    ``blocks`` is ``(ids, positions)``: the ``n_d`` segment ids of size
    ``d`` and, row by row, their member positions in ``segments`` (in
    increasing order). Every position appears in exactly one block; empty
    segments appear in none (``counts == 0``).
    """

    segments: np.ndarray
    num_segments: int
    counts: np.ndarray
    blocks: Tuple[Tuple[np.ndarray, np.ndarray], ...]


def segment_classes(segments: np.ndarray, num_segments: int) -> SegmentClasses:
    """Group the positions of ``segments`` by the size of their segment."""
    segments = np.asarray(segments, dtype=np.int64)
    if segments.size and not (
        0 <= segments.min() and segments.max() < num_segments
    ):
        raise IndexError(
            f"segment ids must lie in [0, {num_segments}); "
            f"got [{segments.min()}, {segments.max()}]"
        )
    counts = np.bincount(segments, minlength=num_segments)
    order = np.argsort(segments, kind="stable")
    starts = np.cumsum(counts) - counts
    by_size = np.argsort(counts, kind="stable")
    splits = np.flatnonzero(np.diff(counts[by_size])) + 1
    blocks = tuple(
        (ids, order[starts[ids][:, None] + np.arange(counts[ids[0]])])
        for ids in np.split(by_size, splits)
        if ids.size and counts[ids[0]] > 0
    )
    return SegmentClasses(segments, num_segments, counts, blocks)


class KernelBackend:
    """One implementation of the SpMM + segment-reduce kernel family.

    Sparse operands are anything with ``shape`` / ``indptr`` / ``indices`` /
    ``data`` attributes — both this package's :class:`~repro.sparse.csr.CSRMatrix`
    / :class:`~repro.sparse.csc.CSCMatrix` containers and scipy's
    ``csr_matrix`` / ``csc_matrix`` qualify, so callers never convert.
    """

    name: str = "abstract"

    # -- product-order SpMM kernels ------------------------------------
    def spmm_row_product(self, a, b: np.ndarray) -> np.ndarray:
        """Row-wise-product SpMM of a CSR operand (emit whole output rows)."""
        raise NotImplementedError

    def spmm_column_product(self, a, b: np.ndarray) -> np.ndarray:
        """Column-wise-product SpMM of a CSC operand (distributed aggregation)."""
        raise NotImplementedError

    def spmm(self, a, b: np.ndarray) -> np.ndarray:
        """Dispatch on storage format: CSR -> row order, CSC -> column order."""
        fmt = getattr(a, "format", None)
        if fmt == "csr" or _looks_like(a, "CSRMatrix"):
            return self.spmm_row_product(a, b)
        if fmt == "csc" or _looks_like(a, "CSCMatrix"):
            return self.spmm_column_product(a, b)
        if fmt is not None:  # other scipy formats: canonicalize to CSR
            return self.spmm_row_product(a.tocsr(), b)
        raise TypeError(f"unsupported sparse operand type {type(a).__name__}")

    def spmm_batch(
        self, mats: Sequence, denses: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """SpMM over paired (sparse, dense) operands, one output per pair."""
        if len(mats) != len(denses):
            raise ShapeError("spmm_batch needs one dense operand per matrix")
        return [self.spmm(a, b) for a, b in zip(mats, denses)]

    # -- segment primitives (the training-side scatter/gather family) --
    def segment_sum(
        self, values: np.ndarray, segments: np.ndarray, num_segments: int
    ) -> np.ndarray:
        """Sum rows of ``values`` into ``out[segments[e]]`` (1-D or 2-D)."""
        raise NotImplementedError

    def segment_max(
        self, values: np.ndarray, segments: np.ndarray, num_segments: int
    ) -> np.ndarray:
        """Per-segment elementwise max; empty segments stay ``-inf``."""
        out = np.full((num_segments,) + values.shape[1:], -np.inf)
        np.maximum.at(out, segments, values)
        return out

    def segment_max_by_class(
        self, values: np.ndarray, classes: SegmentClasses
    ) -> np.ndarray:
        """:meth:`segment_max` over ``classes.segments``; backends may use
        the precomputed degree classes instead of the raw segment ids."""
        return self.segment_max(values, classes.segments, classes.num_segments)

    def segment_max_grad(
        self,
        values: np.ndarray,
        maxima: np.ndarray,
        grad: np.ndarray,
        classes: SegmentClasses,
    ) -> np.ndarray:
        """Gradient of the segment max with respect to ``values``.

        ``grad[s]`` goes to the rows equal to ``maxima[s]``, split equally
        among tied rows; every other row gets zero.
        """
        segments = classes.segments
        winner = values == maxima[segments]
        g = np.where(winner, grad[segments], 0.0)
        counts = self.segment_sum(
            winner.astype(np.float64), segments, classes.num_segments
        )
        return g / np.maximum(counts[segments], 1.0)

    def coo_spmm(
        self,
        weights: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        x: np.ndarray,
        num_rows: int,
    ) -> np.ndarray:
        """Edge-weighted aggregation ``out[rows[e]] += weights[e] * x[cols[e]]``."""
        raise NotImplementedError


def _looks_like(a, cls_name: str) -> bool:
    # Avoid importing the containers here (they sit below this package).
    return type(a).__name__ == cls_name


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, KernelBackend] = {}
#: Lazily-probed backends: name -> (loader, fallback name). The loader
#: runs at most once per process, on first resolution — never at import,
#: so a CLI invocation that never touches the tier pays nothing.
_LAZY: Dict[str, Tuple[Callable[[], object], str]] = {}
#: Probed-and-unavailable backends: name -> (fallback name, reason).
_FALLBACKS: Dict[str, Tuple[str, str]] = {}
#: Fallbacks already announced on stderr (one line per process, not per
#: resolution — resolution happens inside hot loops).
_FALLBACKS_NOTED: Set[str] = set()
_DEFAULT_NAME = "vectorized"

BackendLike = Union[None, str, KernelBackend]


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry under ``backend.name``."""
    if not backend.name or backend.name == "abstract":
        raise KernelError("kernel backends must define a concrete name")
    _REGISTRY[backend.name] = backend
    return backend


def register_lazy_backend(
    name: str, loader: Callable[[], object], fallback: str
) -> None:
    """Register ``name`` to be built by ``loader`` on first resolution.

    ``loader`` returns either a ready :class:`KernelBackend` (which then
    registers normally) or a string reason why the tier is unavailable —
    in which case ``name`` becomes a fallback alias of ``fallback`` for
    the rest of the process, announced once on stderr. A loader that
    raises is treated like a reason (the probe is exactly where a broken
    JIT toolchain should surface, as a degrade instead of a crash).
    """
    _LAZY[name] = (loader, fallback)


def available_backends() -> Tuple[str, ...]:
    """Concretely registered backend names, sorted.

    Lazily-probed tiers appear here only after a successful probe; use
    :func:`backend_choices` for the set of names that can be *requested*.
    """
    return tuple(sorted(_REGISTRY))


def backend_choices() -> Tuple[str, ...]:
    """Every requestable backend name, sorted — registered, lazily
    probed, and probed-but-falling-back alike. CLI ``choices=`` must use
    this (never a literal list): a request for an unavailable tier is
    still valid, it just resolves to the tier's fallback."""
    return tuple(sorted(set(_REGISTRY) | set(_LAZY) | set(_FALLBACKS)))


def _resolve_lazy(name: str) -> Optional[KernelBackend]:
    """Run a pending lazy loader; register or record the fallback."""
    loader, fallback = _LAZY.pop(name)
    try:
        built = loader()
    except Exception as exc:  # repro: lint-ok[except-swallow] — the
        # reason is printed as the fallback note just below.
        built = f"{type(exc).__name__}: {exc}"
    if isinstance(built, KernelBackend):
        return register_backend(built)
    _FALLBACKS[name] = (fallback, str(built))
    return None


def get_backend(backend: BackendLike = None) -> KernelBackend:
    """Resolve ``backend`` (name, instance, or None for the default)."""
    if backend is None:
        backend = _DEFAULT_NAME
    if isinstance(backend, KernelBackend):
        return backend
    if backend in _REGISTRY:
        return _REGISTRY[backend]
    if backend in _LAZY:
        built = _resolve_lazy(backend)
        if built is not None:
            return built
    if backend in _FALLBACKS:
        fallback, reason = _FALLBACKS[backend]
        if backend not in _FALLBACKS_NOTED:
            _FALLBACKS_NOTED.add(backend)
            print(
                f"repro: kernel backend {backend!r} unavailable "
                f"({reason}); falling back to {fallback!r}",
                file=sys.stderr,
            )
        return _REGISTRY[fallback]
    raise KernelError(
        f"unknown kernel backend {backend!r}; "
        f"available: {', '.join(backend_choices())}"
    )


def _rearm_lazy_backend(
    name: str, loader: Callable[[], object], fallback: str
) -> None:
    """Forget any probe outcome for ``name`` and re-register its loader.

    Test seam: lets a test force the fallback path (loader returning a
    reason string) and then restore the real loader, regardless of
    whether the tier is genuinely available on this machine.
    """
    _REGISTRY.pop(name, None)
    _FALLBACKS.pop(name, None)
    _FALLBACKS_NOTED.discard(name)
    _LAZY[name] = (loader, fallback)


def default_backend() -> KernelBackend:
    """The backend used when callers do not name one."""
    return get_backend(None)


def set_default_backend(backend: Union[str, KernelBackend]) -> str:
    """Set the process-wide default backend; returns the previous name."""
    global _DEFAULT_NAME
    previous = _DEFAULT_NAME
    _DEFAULT_NAME = get_backend(backend).name
    return previous


# Populate the registry (imports at the bottom to avoid cycles: the backend
# modules import the helpers defined above).
from repro.sparse.kernels.reference import ReferenceBackend  # noqa: E402
from repro.sparse.kernels.vectorized import VectorizedBackend  # noqa: E402
from repro.sparse.kernels.tiled import (  # noqa: E402
    TiledBackend,
    TileProfile,
    TileWork,
    layout_tile_profile,
    tiled_spmm,
)
from repro.sparse.kernels.compiled import (  # noqa: E402
    CompiledBackend,
    load_compiled_backend,
)

register_backend(ReferenceBackend())
register_backend(VectorizedBackend())
register_backend(TiledBackend())
# The JIT tier registers lazily: its loader imports numba and compiles
# the probe kernels only when someone actually asks for "compiled".
register_lazy_backend("compiled", load_compiled_backend,
                      fallback="vectorized")

__all__ = [
    "BackendLike",
    "CompiledBackend",
    "KernelBackend",
    "ReferenceBackend",
    "SegmentClasses",
    "TileProfile",
    "TileWork",
    "TiledBackend",
    "VectorizedBackend",
    "layout_tile_profile",
    "tiled_spmm",
    "available_backends",
    "backend_choices",
    "check_spmm_shapes",
    "default_backend",
    "get_backend",
    "load_compiled_backend",
    "register_backend",
    "register_lazy_backend",
    "segment_classes",
    "set_default_backend",
]
