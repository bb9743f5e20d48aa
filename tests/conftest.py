"""Fixtures shared by the test modules."""

from __future__ import annotations

from collections import Counter

import pytest


@pytest.fixture
def work(monkeypatch):
    """A live count of the engine's work while the test runs: Smith
    factorizations ("factorizations"), sparse products ("mul"), submatrix
    selections named ("select"), range selections whose entries are cut
    ("cut") and generator-by-generator template builds ("slice_map").
    Call clear() to start a new count."""
    import monofloer.complexes as complexes
    import monofloer.intlinalg as intlinalg

    counts = Counter()

    class Counting(intlinalg._Factorization):
        def __init__(self, *args, **kwargs):
            counts["factorizations"] += 1
            super().__init__(*args, **kwargs)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(intlinalg, "_Factorization", Counting)
    monkeypatch.setattr(intlinalg.SparseIntMatrix, "mul",
                        counted("mul", intlinalg.SparseIntMatrix.mul))
    monkeypatch.setattr(intlinalg.SparseIntMatrix, "select",
                        counted("select", intlinalg.SparseIntMatrix.select))
    monkeypatch.setattr(intlinalg._Selection, "_cut",
                        counted("cut", intlinalg._Selection._cut))
    monkeypatch.setattr(complexes, "_slice_map",
                        counted("slice_map", complexes._slice_map))
    return counts
