import random

import pytest

from tlcat.diagram import Diagram, enumerate_diagrams


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def compose_calls(monkeypatch):
    """A list that grows by one entry per ``Diagram.compose`` call: the
    result of that call."""
    calls = []
    compose = Diagram.compose

    def counting(self, other):
        glued = compose(self, other)
        calls.append(glued)
        return glued

    monkeypatch.setattr(Diagram, "compose", counting)
    return calls


def random_diagram(rng, n, m, dilute=False):
    pool = enumerate_diagrams(n, m, dilute=dilute)
    return rng.choice(pool)
