"""Shared fixtures, independent oracles, and hypothesis strategies.

The oracles here are deliberately naive re-implementations (plain
Python scans and O(n^2) pairwise counting) so the fast vectorized code
is checked against an independent source of truth, not against itself.
"""

from __future__ import annotations

import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import strategies as st

from dins import DynamicGraph, build_graph
from dins.config import DEFAULT_BIN_WIDTH_SECONDS

# Hypothesis imports this module to report a failing example; its libcst
# import warns, which ``filterwarnings = ["error"]`` would turn into an
# INTERNALERROR that stops the session. Import it once, here, quietly.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# -- naive oracles -------------------------------------------------------------


def triple_set(graph_or_arrays) -> set[tuple[int, int, int]]:
    """Every (src, dst, t) triple, via a plain O(m) scan."""
    if isinstance(graph_or_arrays, DynamicGraph):
        g = graph_or_arrays
        arrays = (g.src, g.dst, g.t)
    else:
        arrays = graph_or_arrays
    return set(zip(*(a.tolist() for a in arrays)))


def pair_times_map(graph: DynamicGraph) -> dict[tuple[int, int], list[int]]:
    """Directed pair -> sorted occurrence bins, via a plain scan."""
    out: dict[tuple[int, int], list[int]] = defaultdict(list)
    for u, v, t in zip(graph.src.tolist(), graph.dst.tolist(), graph.t.tolist()):
        out[(u, v)].append(t)
    return {k: sorted(v) for k, v in out.items()}


def first_seen_map(graph: DynamicGraph) -> dict[tuple[int, int], int]:
    return {pair: ts[0] for pair, ts in pair_times_map(graph).items()}


def loop_first_map(graph: DynamicGraph) -> dict[int, int]:
    """Node -> bin of its first self-loop."""
    out: dict[int, int] = {}
    for u, v, t in zip(graph.src.tolist(), graph.dst.tolist(), graph.t.tolist()):
        if u == v and u not in out:
            out[u] = t
    return out


def brute_auc(pos_scores, neg_scores) -> float:
    """O(n_pos * n_neg) wins-plus-half-ties statistic."""
    wins = 0.0
    for p in pos_scores:
        for q in neg_scores:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos_scores) * len(neg_scores))


# -- hypothesis strategies ------------------------------------------------------


@st.composite
def record_lists(draw, max_nodes: int = 12, max_edges: int = 60,
                 max_bins: int = 40, allow_loops: bool = True):
    """Small raw record lists for build_graph."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    names = [f"user{i}" for i in range(n)]
    records = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        if allow_loops and draw(st.booleans()) and draw(st.booleans()):
            v = u
        else:
            v = draw(st.integers(0, n - 1).filter(lambda x: x != u)) \
                if n > 1 else u
        raw = draw(st.integers(0, max_bins * DEFAULT_BIN_WIDTH_SECONDS - 1))
        records.append((names[u], names[v], raw))
    return records


@st.composite
def graphs(draw, **kwargs):
    return build_graph(draw(record_lists(**kwargs)))


# -- fixtures -------------------------------------------------------------------


@pytest.fixture
def tiny_graph() -> DynamicGraph:
    """Three nodes, six edges, one loop; bins 0..5."""
    w = DEFAULT_BIN_WIDTH_SECONDS
    records = [("a", "b", 0 * w), ("b", "c", 1 * w), ("a", "b", 2 * w),
               ("c", "c", 3 * w), ("b", "a", 4 * w), ("a", "c", 5 * w)]
    return build_graph(records)


def make_synth_suite(n_graphs: int = 50, seed: int = 0):
    """The shared batch of random synthetic graphs used by the
    acceptance gate (n <= 500, m <= 10,000)."""
    from dins.synthetic import random_records

    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_graphs):
        n = int(rng.integers(2, 501))
        m = int(rng.integers(1, 10_001))
        loops = float(rng.choice([0.0, 0.05, 0.3]))
        span = int(rng.integers(4, 600))
        out.append(build_graph(random_records(
            n, m, seed=seed * 1000 + i, t_span_bins=span, loop_fraction=loops)))
    return out
