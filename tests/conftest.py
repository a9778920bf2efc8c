from collections import namedtuple

import pytest
from hypothesis import strategies as st

from monmap.bijection import _FAMILY
from monmap.maps import NonOrientedMap, _edge_index, load_fixture, remove_edge
from monmap.oriented import _connected


@pytest.fixture(scope="session")
def klein():
    return load_fixture("klein")


@pytest.fixture(scope="session")
def projective():
    return load_fixture("projective")


def forget_results():
    """Empty the result table of the current twist family, and nothing
    else, so that the next ``phi`` or ``phi_inverse`` call settles anew."""
    for _, results in _FAMILY.values():
        results.clear()


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


# -- test-local references ------------------------------------------------

EdgeRole = namedtuple("EdgeRole", "is_bridge is_leaf")


def edge_role(m, e):
    """Leaf: an endpoint has degree one.  Bridge: removal splits a component.

    Removing a pendant edge deletes the pendant vertex rather than leaving
    a second component, so a leaf is never a bridge here; the single-edge
    component counts as a leaf.  The program reads both at once from the
    map and its removal, in ``maps._bridge_or_leaf``.
    """
    i, j = _edge_index(m, e)
    return EdgeRole(
        is_bridge=(remove_edge(m, e)._component_data[1]
                   > m._component_data[1]),
        is_leaf=m._b[i] == j or m._w[i] == j)


def is_transitive(om):
    """Whether <sigma1, sigma2> has one orbit on the edges, decided as the
    class stream decides it, by ``oriented._connected``."""
    return _connected(om._white_ids, om._black_ids)


def oriented_components(om):
    """The number of orbits of <sigma1, sigma2> on the edges, by union-find
    over the edges: the independent route to transitivity."""
    parent = list(range(om.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in (om.sigma1, om.sigma2):
        for i, j in enumerate(perm):
            parent[find(i)] = find(j)
    return sum(find(x) == x for x in range(om.n))
