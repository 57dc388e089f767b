import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return random.Random(987654321)


def random_mask_family(rng, n_points, n_sets):
    """Distinct nonzero-count family of masks over n_points ground points."""
    universe = list(range(1 << n_points))
    rng.shuffle(universe)
    return sorted(universe[: max(1, n_sets)])


@pytest.fixture
def boxed(monkeypatch):
    """The vectors that box their entries while the test runs, in order:
    the Vector.entries property is wrapped to record each read, since
    every read boxes the entries anew."""
    from zerotrace.exactalg import Vector

    seen = []
    read = Vector.entries.fget

    def counting(self):
        seen.append(self)
        return read(self)

    monkeypatch.setattr(Vector, "entries", property(counting))
    return seen
