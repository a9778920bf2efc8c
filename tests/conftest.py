import pytest
from hypothesis import strategies as st

from monmap.maps import NonOrientedMap, load_fixture


@pytest.fixture(scope="session")
def klein():
    return load_fixture("klein")


@pytest.fixture(scope="session")
def projective():
    return load_fixture("projective")


def partner_dict(pairs):
    """The label dict of an involution view: each label to its partner."""
    return {**dict(pairs), **{b: a for a, b in pairs}}


def _uniform_matching(rng, size):
    """Partner indices of a uniform perfect matching of range(size)."""
    order = list(range(size))
    rng.shuffle(order)
    partner = [0] * size
    for a, b in zip(order[::2], order[1::2]):
        partner[a], partner[b] = b, a
    return partner


def map_strategy(min_n=1, max_n=3):
    """Maps with n in [min_n, max_n] edges, uniform over triples for each n."""
    def build(n):
        labels = range(1, 2 * n + 1)
        return st.randoms(use_true_random=True).map(
            lambda rng: NonOrientedMap.from_arrays(
                labels, *(_uniform_matching(rng, 2 * n) for _ in range(3))))

    return st.integers(min_n, max_n).flatmap(build)
