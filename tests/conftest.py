from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add

import pytest

from cat0ot import (
    build_comb,
    build_euclidean,
    build_open_book,
    build_tree,
    build_tripod,
)


@pytest.fixture(scope="session")
def e1():
    return build_euclidean(1)


@pytest.fixture(scope="session")
def e2():
    return build_euclidean(2)


@pytest.fixture(scope="session")
def e3():
    return build_euclidean(3)


@pytest.fixture(scope="session")
def tripod():
    return build_tripod()


@pytest.fixture(scope="session")
def comb14():
    return build_comb(1, 4)


@pytest.fixture(scope="session")
def comb316():
    # the largest comb the builder allows: 9,826 vertices, geodesics of ~40 edges
    return build_comb(3, 16)


@pytest.fixture(scope="session")
def book2():
    return build_open_book(2)


@pytest.fixture(scope="session")
def book3():
    return build_open_book(3)


@pytest.fixture(scope="session")
def lopsided_tree():
    # uneven edge lengths and a degree-4 vertex, for oracle comparisons
    return build_tree(
        ["a", "b", "c", "d", "e", "f", "g"],
        [
            ("a", "b", 0.8),
            ("b", "c", 1.5),
            ("b", "d", 0.4),
            ("d", "e", 2.2),
            ("d", "f", 0.6),
            ("d", "g", 1.1),
        ],
    )


@pytest.fixture(scope="session")
def deep_tree():
    # unit edges a-b, b-d, a-c, c-e hung 1e20 below the root r, where root
    # distances are 1e20 to the last bit and path lengths must not cancel
    return build_tree(
        ["r", "a", "b", "c", "d", "e"],
        [("r", "a", 1e20), ("a", "b", 1.0), ("b", "d", 1.0), ("a", "c", 1.0), ("c", "e", 1.0)],
    )


@pytest.fixture(scope="session")
def long_tree():
    # a 24-edge path with a leaf at each vertex, none of whose lengths is
    # dyadic: geodesics run through many sections whose lengths do not add
    # exactly, so their order of summation shows
    path = [(k, k + 1, 0.1 + 0.037 * k) for k in range(24)]
    leaves = [(k, 25 + k, 0.3 + 0.011 * k) for k in range(25)]
    return build_tree(range(50), path + leaves)


def _compensated_sum(values, start=0):
    """The builtin sum from Python 3.12 on: ints add exactly, and floats by
    Neumaier's compensated summation, whose correction is added once at the end."""
    values = list(values)
    if all(isinstance(x, int) for x in values):
        return reduce(add, values, start)
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


@pytest.fixture
def compensated_sum():
    """Python 3.12's builtin sum, on the running version, for a test to patch in."""
    return _compensated_sum


@pytest.fixture
def compensated_package_sum(monkeypatch):
    """Python 3.12's builtin sum patched in as `sum` on every loaded cat0ot module."""
    for name, module in list(sys.modules.items()):
        if name == "cat0ot" or name.startswith("cat0ot."):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
