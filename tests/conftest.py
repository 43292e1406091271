"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from bosonstirling import TruncatedSeries


@pytest.fixture
def count_series(monkeypatch):
    """A call that starts counting the series built, as every constructor
    ends in _store; the list it returns holds the count so far."""
    count = [0]
    store = TruncatedSeries._store

    def counting(self, *args):
        count[0] += 1
        return store(self, *args)

    def start():
        monkeypatch.setattr(TruncatedSeries, "_store", counting)
        return count

    return start
