from __future__ import annotations

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
