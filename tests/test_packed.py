"""The one product loop on packed exponent ints, cut by rank."""

from hypothesis import given, settings
import hypothesis.strategies as st

from thomcalc.packed import cut_mul

keys = st.integers(-20, 20)
nonzero = st.integers(-4, 4).filter(bool)
terms = st.dictionaries(keys, nonzero, max_size=6)
pieces = st.lists(st.tuples(st.integers(0, 4), keys, nonzero), max_size=8).map(
    lambda ps: sorted(ps, key=lambda piece: piece[0])
)


def _restricted_product(terms, pieces, room):
    out = {}
    for k1, c1 in terms.items():
        for rank, k2, c2 in pieces:
            if rank <= room(k1):
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


@given(terms, pieces, st.integers(-2, 4))
@settings(max_examples=80, deadline=None)
def test_cut_product_is_the_product_restricted_by_room(a, ps, offset):
    def room(key):
        return offset + key % 3

    assert cut_mul(a, ps, room) == _restricted_product(a, ps, room)


def test_cut_product_edge_cases():
    a = {3: 2, -1: 5}
    assert cut_mul(a, [], lambda key: 10) == {}
    # a room below every rank meets no piece
    assert cut_mul(a, [(1, 0, 7), (2, 4, 1)], lambda key: 0) == {}
    assert cut_mul({}, [(0, 1, 1)], lambda key: 0) == {}
    # (1 + x)(x - 1): the two products at x cancel and leave no entry
    assert cut_mul({0: 1, 1: 1}, [(0, 1, 1), (0, 0, -1)], lambda key: 0) == {0: -1, 2: 1}
