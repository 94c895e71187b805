import random

import pytest

from tlcat.diagram import Diagram, enumerate_diagrams


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def compose_calls(monkeypatch):
    """A list that grows by one entry per ``Diagram.compose`` call."""
    calls = []
    compose = Diagram.compose

    def counting(self, other):
        calls.append(None)
        return compose(self, other)

    monkeypatch.setattr(Diagram, "compose", counting)
    return calls


def random_diagram(rng, n, m, dilute=False):
    pool = enumerate_diagrams(n, m, dilute=dilute)
    return rng.choice(pool)
