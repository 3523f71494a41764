"""Fixtures shared by the test modules."""

import pytest

from pi1curves.groups import PermutationGroup


@pytest.fixture
def chained(monkeypatch):
    """The groups whose stabilizer chain is built while the test runs."""
    built = []
    chain = PermutationGroup._chain

    def recording(self):
        if "chain" not in self._memo:
            built.append(self)
        return chain(self)

    monkeypatch.setattr(PermutationGroup, "_chain", recording)
    return built
