"""Vectorised CSR assembly — the native construction path of the graph layer.

Every generator in :mod:`repro.graphs` ultimately needs the same two arrays:
``indptr`` (length ``n + 1``) and ``indices`` (length ``2m``, sorted neighbor
lists) — the exact structure :class:`repro.core.flatgraph.FlatAdjacency`
stores and :meth:`repro.graphs.base.Graph.from_csr` adopts in O(1).  Building
them used to go through Python tuple edge lists and the O(m log m)
``normalize_edges`` sort, which makes graph *construction* the wall long
before simulation does at n >= 10^5.  This module assembles the arrays
directly from NumPy half-edge arrays instead, and provides the array-side
structural helpers (connected-component labelling, connectivity, component
stitching) the samplers need so that a graph can be generated, validated,
patched, and attached to the kernels without a single Python-level pass over
its edges.

Everything here is pure array code: no :class:`~repro.graphs.base.Graph`
import (the graph types layer on top), no Python loops over edges.  Callers
are trusted to hand in *simple* half-edge sets — no self loops, no duplicate
edges in either orientation — which every generator guarantees by
construction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "indptr_from_degrees",
    "csr_from_half_edges",
    "csr_edges",
    "csr_add_edges",
    "frontier_neighbors",
    "csr_is_connected",
    "connected_component_labels",
    "component_representatives",
]


def indptr_from_degrees(degrees: np.ndarray) -> np.ndarray:
    """The CSR row-pointer array for a degree sequence."""
    degrees = np.asarray(degrees, dtype=np.int64)
    indptr = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return indptr


def csr_from_half_edges(
    n: int, heads: np.ndarray, tails: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble ``(indptr, indices)`` from one array entry per undirected edge.

    ``heads[k]``/``tails[k]`` are the endpoints of edge ``k`` in either
    orientation.  The edge set must be simple (no self loops, no duplicates
    in either orientation); endpoints must lie in ``0..n-1``.  Neighbor
    lists come out sorted, so the result feeds
    :meth:`repro.graphs.base.Graph.from_csr` directly.
    """
    heads = np.asarray(heads, dtype=np.int64).ravel()
    tails = np.asarray(tails, dtype=np.int64).ravel()
    sym_heads = np.concatenate([heads, tails])
    sym_tails = np.concatenate([tails, heads])
    order = np.lexsort((sym_tails, sym_heads))
    indices = sym_tails[order]
    degrees = np.bincount(sym_heads, minlength=n)
    return indptr_from_degrees(degrees), indices


def csr_edges(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover the half-edge arrays (``u < v``, lexicographically sorted)."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    heads = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    mask = heads < indices
    return heads[mask], indices[mask]


def csr_add_edges(
    indptr: np.ndarray,
    indices: np.ndarray,
    extra_heads: np.ndarray,
    extra_tails: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """A new CSR structure with the extra (simple, non-duplicate) edges merged in.

    This is the array-side replacement for the old "rebuild the Graph from
    ``list(graph.edges) + extra``" patching idiom of the connected samplers.
    """
    n = int(np.asarray(indptr).size - 1)
    heads, tails = csr_edges(indptr, indices)
    return csr_from_half_edges(
        n,
        np.concatenate([heads, np.asarray(extra_heads, dtype=np.int64).ravel()]),
        np.concatenate([tails, np.asarray(extra_tails, dtype=np.int64).ravel()]),
    )


def frontier_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """All neighbors of the frontier vertices, concatenated (with repeats)."""
    degs = indptr[frontier + 1] - indptr[frontier]
    total = int(degs.sum())
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(degs) - degs, degs)
    return indices[np.repeat(indptr[frontier], degs) + within]


def csr_is_connected(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether the CSR graph is connected (level-synchronous NumPy BFS)."""
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    n = int(indptr.size - 1)
    if n == 1:
        return True
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0], dtype=np.int64)
    count = 1
    while frontier.size:
        neighbors = frontier_neighbors(indptr, indices, frontier)
        new = np.unique(neighbors[~seen[neighbors]])
        seen[new] = True
        count += new.size
        frontier = new
    return count == n


def connected_component_labels(
    indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Component label per vertex, numbered ``0, 1, ...`` by smallest member.

    Labels are assigned in increasing order of each component's smallest
    vertex id (the BFS starts sweep vertices in order), which matches the
    ordering of :meth:`repro.graphs.base.Graph.connected_components`.
    """
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    n = int(indptr.size - 1)
    labels = np.full(n, -1, dtype=np.int64)
    label = 0
    start = 0
    while True:
        unvisited = np.nonzero(labels[start:] < 0)[0]
        if unvisited.size == 0:
            return labels
        start += int(unvisited[0])
        labels[start] = label
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            neighbors = frontier_neighbors(indptr, indices, frontier)
            new = np.unique(neighbors[labels[neighbors] < 0])
            labels[new] = label
            frontier = new
        label += 1


def component_representatives(labels: np.ndarray) -> np.ndarray:
    """The smallest vertex of each component, indexed by component label."""
    labels = np.asarray(labels)
    _, first = np.unique(labels, return_index=True)
    return first.astype(np.int64)
