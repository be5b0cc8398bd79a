"""Partition combinatorics, the uhat relations, and the u-space actions."""

import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from thomcalc import (
    AdmissibleSequence,
    LinearForm,
    Partition,
    Polynomial,
    QhatRegistry,
    WeightInhomogeneityError,
    apply_right_action,
    basic_relations,
    deg_qhat,
    dim_normal_model,
    dim_orbit,
    enumerate_admissible,
    expansion_relation,
    linear_form,
    pair_relation,
    partitions_up_to,
    relation_weight,
    ronga_reference,
    stored_quartic_relation,
    u_reference_value,
    uhat_index_triples,
    uhat_reference_value,
    uhatvar,
    uvar,
    zvar,
)
from thomcalc.partitions import uhat_weight


def P(*parts):
    return Partition(tuple(sorted(parts)))


def useq(*entries):
    return AdmissibleSequence(tuple(Partition(tuple(e)) for e in entries))


def uterm(coeff, *factors):
    return Polynomial.term(coeff, [(uvar(l, tau), 1) for l, tau in factors])


# -- partitions --------------------------------------------------------


def test_partition_basics():
    p = P(2, 1, 1)
    assert p.parts == (1, 1, 2)
    assert p.weight == 4
    assert p.length == 3
    assert p.union(P(3)).parts == (1, 1, 2, 3)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((0, 1))
    with pytest.raises(ValueError):
        Partition((2, 1))


def test_enumeration_order():
    got = partitions_up_to(3)
    assert got == [P(1), P(2), P(1, 1), P(3), P(1, 2), P(1, 1, 1)]
    assert len(partitions_up_to(4)) == 11


# -- admissible sequences ----------------------------------------------


def test_admissibility_validation():
    with pytest.raises(ValueError):
        useq((2,))  # weight 2 at level 1
    with pytest.raises(ValueError):
        useq((1,), (1,))  # duplicate entries


def test_admissible_completeness():
    assert useq((1,), (2,), (1, 2)).is_complete()
    assert not useq((1,), (2,), (1, 1, 1)).is_complete()


def _closed_under_sub_multisets(seq):
    entries = set(seq.entries)
    return all(
        Partition(sub) in entries
        for entry in seq.entries
        for size in range(1, entry.length + 1)
        for sub in itertools.combinations(entry.parts, size)
    )


@pytest.mark.parametrize(
    "d, count, complete", [(1, 1, 1), (2, 2, 2), (3, 8, 6), (4, 64, 29), (5, 896, 195)]
)
def test_completeness_is_closure_under_sub_multisets(d, count, complete):
    sequences = enumerate_admissible(d)
    assert len(sequences) == count
    for seq in sequences:
        assert seq.is_complete() == _closed_under_sub_multisets(seq), seq
    assert len(enumerate_admissible(d, complete_only=True)) == complete


def test_enumerate_small_depths():
    assert enumerate_admissible(1) == [useq((1,))]
    assert set(enumerate_admissible(2)) == {useq((1,), (2,)), useq((1,), (1, 1))}
    # depth 4: 1 * 2 * 4 * 8 sequences by the distinctness count
    four = enumerate_admissible(4)
    assert len(four) == 64
    assert len(set(four)) == 64
    assert useq((1,), (2,), (3,), (4,)) in four
    assert enumerate_admissible(4) == four  # deterministic order


# -- dimension bookkeeping ---------------------------------------------


def test_index_triples():
    assert uhat_index_triples(3) == [(1, 1, 2), (1, 1, 3), (1, 2, 3)]
    for d in range(1, 7):
        triples = uhat_index_triples(d)
        assert len(triples) == dim_normal_model(d)
        assert all(1 <= m <= r and m + r <= l <= d for m, r, l in triples)


def test_dimension_identities():
    for d in range(1, 8):
        assert dim_orbit(d) == d * (d - 1) // 2
        assert deg_qhat(d) == dim_normal_model(d) - dim_orbit(d)


def test_model_dimension_is_the_triple_count():
    # pinned against the listed triples, below 0 too (where the list is empty)
    for d in range(-3, 61):
        triples = len(uhat_index_triples(d))
        assert dim_normal_model(d) == triples, d
        assert deg_qhat(d) == triples - dim_orbit(d), d


# -- uhat weights and relations ----------------------------------------


def test_uhat_weight():
    assert uhat_weight(uhatvar(1, 2, 4)) == linear_form(
        (1, zvar(1)), (1, zvar(2)), (-1, zvar(4))
    )
    # a diagonal index contributes twice
    assert uhat_weight(uhatvar(2, 2, 5)) == linear_form((2, zvar(2)), (-1, zvar(5)))


def test_relation_weight_errors():
    v = Polynomial.variable
    with pytest.raises(WeightInhomogeneityError):
        relation_weight(v(uhatvar(1, 1, 2)) + v(uhatvar(1, 1, 3)))
    with pytest.raises(ValueError):
        relation_weight(v(zvar(1)))
    with pytest.raises(ValueError):
        relation_weight(Polynomial.zero())


def test_relation_weight_is_every_monomials_weight_sum_through_level_6():
    def weight(mono):
        # sum of e * (z_m + z_r - z_l) over the factors uhat^l_{m,r}^e
        coeffs = {}
        for v, e in mono:
            m, r, l = v.index
            for i, q in ((m, e), (r, e), (l, -e)):
                coeffs[zvar(i)] = coeffs.get(zvar(i), 0) + q
        return LinearForm(0, coeffs)

    for d in range(3, 7):
        for rel in basic_relations(d):
            weights = {weight(mono) for mono in rel.polynomial.term_map()}
            assert [relation_weight(rel.polynomial)] == list(weights), rel.label()


def test_basic_relations_census():
    assert basic_relations(3) == []
    level4 = basic_relations(4)
    assert [rel.label() for rel in level4] == ["R(1,1,2;4)"]
    expected = Polynomial.term(
        1, [(uhatvar(1, 1, 2), 1), (uhatvar(2, 2, 4), 1)]
    ) - Polynomial.term(1, [(uhatvar(1, 2, 3), 1), (uhatvar(1, 3, 4), 1)])
    assert level4[0].polynomial == expected
    assert level4[0].toric

    level5 = basic_relations(5)
    assert [rel.label() for rel in level5] == [
        "R(1,1,2;4)", "R(1,1,2;5)", "R(1,1,3;5)", "R(1,2,2;5)"
    ]
    flags = {rel.label(): rel.toric for rel in level5}
    assert flags["R(1,1,2;5)"] is False
    assert flags["R(1,1,3;5)"] is True


def test_defect_relation_weight():
    rel = next(r for r in basic_relations(5) if r.label() == "R(1,1,2;5)")
    assert rel.weight() == linear_form((2, zvar(1)), (1, zvar(2)), (-1, zvar(5)))


def test_uhat_reference_point():
    v = Polynomial.variable
    assert uhat_reference_value(v(uhatvar(1, 1, 2))) == 1
    assert uhat_reference_value(v(uhatvar(1, 1, 3))) == 0
    assert uhat_reference_value(
        v(uhatvar(1, 2, 3)) * v(uhatvar(1, 1, 4)) + Polynomial.constant(2)
    ) == 2


def test_stored_quartic_shape():
    q = stored_quartic_relation()
    assert len(q) == 8
    for mono, coeff in q.terms():
        assert sum(e for _, e in mono) == 4
        assert coeff in (1, -1)
    assert uhat_reference_value(q) == 0


# -- the u-space calculus ----------------------------------------------


def test_expansion_relation_by_hand():
    rho = useq((1,), (1, 1), (2,))
    rel = expansion_relation(rho, P(1))
    expected = uterm(1, (1, (1,)), (2, (1, 1)), (3, (1, 2))) - uterm(
        1, (1, (1,)), (2, (2,)), (3, (1, 1, 1))
    )
    assert rel == expected
    assert u_reference_value(rel) == 0


def test_expansion_relation_skips_heavy_slots():
    # slot 1 must hold (1), so two orders of rho remain, with signs + and -;
    # in each, merging tau = (1) overflows slots 1 and 2 and fits slot 3.
    # Listing rho's entries in the other order negates the relation.
    rho = useq((1,), (2,), (1, 1))
    rel = expansion_relation(rho, P(1))
    expected = uterm(1, (1, (1,)), (2, (2,)), (3, (1, 1, 1))) - uterm(
        1, (1, (1,)), (2, (1, 1)), (3, (1, 2))
    )
    assert rel == expected
    assert expansion_relation(useq((1,), (1, 1), (2,)), P(1)) == -expected
    # tau = (2) overflows all six slots
    assert expansion_relation(rho, P(2)).is_zero()


def test_expansion_relation_can_collapse():
    # every insertion of a weight-3 part overflows a depth-2 sequence
    rel = expansion_relation(useq((1,), (2,)), P(3))
    assert rel.is_zero()


def _expansion_by_hand(rho, tau):
    # every ordering and slot, kept when the merged entries stay admissible
    out = Polynomial.zero()
    for perm in itertools.permutations(range(rho.depth)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(rho.depth), 2))
        for slot in range(rho.depth):
            entries = [rho.entries[q] for q in perm]
            entries[slot] = entries[slot].union(tau)
            try:
                AdmissibleSequence(tuple(entries))
            except ValueError:
                continue
            out = out + uterm((-1) ** inversions, *((l, e.parts) for l, e in enumerate(entries, 1)))
    return out


def test_expansion_relation_over_the_annihilation_range():
    count = 0
    for d in (2, 3, 4):
        for rho in enumerate_admissible(d):
            for tau in partitions_up_to(4):
                assert expansion_relation(rho, tau) == _expansion_by_hand(rho, tau), (rho, tau)
                count += 1
    assert count == 814


def test_right_action_steps():
    x = Polynomial.variable(uvar(3, (1, 1)))
    assert apply_right_action(x, 2) == Polynomial.variable(uvar(2, (1, 1)))
    assert apply_right_action(x, 1).is_zero()  # level mismatch
    saturated = Polynomial.variable(uvar(3, (1, 2)))
    assert apply_right_action(saturated, 2).is_zero()
    # Leibniz rule sees the exponent
    assert apply_right_action(x ** 2, 2) == 2 * Polynomial.variable(
        uvar(2, (1, 1))
    ) * Polynomial.variable(uvar(3, (1, 1)))


U_POOL = [
    uvar(2, (1,)), uvar(3, (1, 1)), uvar(3, (2,)), uvar(4, (1, 2)), uvar(4, (1, 1)),
]


@given(
    st.sampled_from(U_POOL),
    st.sampled_from(U_POOL),
    st.integers(1, 3),
)
@settings(max_examples=50, deadline=None)
def test_actions_satisfy_leibniz(a, b, m):
    x = Polynomial.variable(a)
    y = Polynomial.variable(b)
    act = apply_right_action
    assert act(x * y, m) == act(x, m) * y + x * act(y, m)


@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_pair_relation_reference_zero(rw, tw, extra):
    rho, tau = P(*([1] * rw)), P(tw)
    m = rw + tw + extra
    assert u_reference_value(pair_relation(rho, tau, m)) == 0


def test_pair_relation_by_hand():
    rel = pair_relation(P(1), P(1), 3)
    expected = uterm(1, (3, (1, 1))) - 2 * uterm(1, (1, (1,)), (2, (1,)))
    assert rel == expected
    with pytest.raises(ValueError):
        pair_relation(P(2), P(2), 3)


def test_u_monomial_text():
    mono = Polynomial.term(1, [(uvar(1, (1,)), 1), (uvar(2, (1, 1)), 1)])
    assert mono.to_text() == "u[1]^1*u[1,1]^2"


def test_relations_and_closed_forms_sum_no_polynomials(monkeypatch):
    # each builds one term dict; Polynomial.__add__ would copy the whole sum per term
    calls = []
    real = Polynomial.__add__

    def spy(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(Polynomial, "__add__", spy)
    x = Polynomial.variable(uvar(3, (1, 1)))
    assert len(x + x) == 1 and len(calls) == 1  # the spy sees a sum
    calls.clear()
    rel = expansion_relation(useq((1,), (2,)), P(1))
    assert apply_right_action(rel, 2).is_zero()
    assert len(apply_right_action(x ** 2 * Polynomial.variable(uvar(3, (2,))), 2)) == 2
    assert len(pair_relation(P(1), P(1), 4)) == 3  # rho = tau: two splits fold into one
    assert len(stored_quartic_relation()) == 8
    assert len(ronga_reference(5).body) == 7
    QhatRegistry()
    assert calls == []
