"""Fixtures shared by the test modules: the acceptance-size host, a
tracemalloc peak probe and a counter of adjacency gathers."""

import tracemalloc

import pytest

from powercycle.graph_core import Graph
from powercycle.models import ModelParams, gen_gnp


@pytest.fixture(scope="session")
def acceptance_host():
    """The G(n,p) host of the acceptance embed trial (N=3000, p=0.35, seed 0)."""
    return gen_gnp(ModelParams(N=3000, p=0.35, seed=0))


def _traced_peak(call) -> tuple:
    """``call()``'s result and the peak bytes it held, traced above what was
    live before it."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak


@pytest.fixture
def gathers(monkeypatch):
    """A list that gains one entry for each ``Graph.submatrix`` call made
    while the test runs."""
    calls = []
    submatrix = Graph.submatrix

    def counting(self, rows, cols):
        calls.append((len(rows), len(cols)))
        return submatrix(self, rows, cols)

    monkeypatch.setattr(Graph, "submatrix", counting)
    return calls
