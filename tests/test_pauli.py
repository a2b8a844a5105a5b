"""Pauli terms, Hamiltonians, layouts, and the two spin models."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hybridtn.pauli import (
    FieldValues,
    Hamiltonian,
    PauliTerm,
    SubsystemLayout,
    build_1d_cluster,
    build_2d_web,
    decompose_for_layout,
    hamiltonian_to_text,
)
from hybridtn.rng import SplitMix64

from _support import hamiltonian_from_text, recompose_for_layout, to_global


# ---------------------------------------------------------------------------
# rng

def test_splitmix_reference_vectors():
    # first outputs for seed 0 from the published reference implementation
    stream = SplitMix64(0)
    assert stream.next_u64() == 0xE220A8397B1DCDAF
    assert stream.next_u64() == 0x6E789E6AA1B965F4


def test_splitmix_deterministic_and_ranged():
    a = SplitMix64(123)
    b = SplitMix64(123)
    for _ in range(100):
        x, y = a.next_float(), b.next_float()
        assert x == y
        assert 0.0 <= x < 1.0
    lo, hi = -2.5, 7.0
    c = SplitMix64(9)
    for _ in range(100):
        v = c.uniform(lo, hi)
        assert lo <= v < hi


# ---------------------------------------------------------------------------
# terms and Hamiltonians

def test_term_canonical_order():
    term = PauliTerm(2.0, ((3, "X"), (0, "Z")))
    assert term.factors == ((0, "Z"), (3, "X"))
    assert term.max_qubit() == 3


def test_term_validation():
    with pytest.raises(ValueError):
        PauliTerm(1.0, ((0, "Q"),))
    with pytest.raises(ValueError):
        PauliTerm(1.0, ((0, "Z"), (0, "X")))


def test_hamiltonian_merges_and_drops_zeros():
    h = Hamiltonian(
        2,
        (
            PauliTerm(1.0, ((0, "Z"),)),
            PauliTerm(0.5, ((0, "Z"),)),
            PauliTerm(1.0, ((1, "X"),)),
            PauliTerm(-1.0, ((1, "X"),)),
        ),
    )
    assert h.terms == (PauliTerm(1.5, ((0, "Z"),)),)


def test_hamiltonian_term_order_irrelevant():
    terms = (
        PauliTerm(0.3, ((0, "X"),)),
        PauliTerm(-0.7, ((1, "Z"), (0, "Z"))),
        PauliTerm(1.1, ((1, "Y"),)),
    )
    a = Hamiltonian(2, terms)
    b = Hamiltonian(2, terms[::-1])
    assert a == b


@given(
    st.lists(
        st.tuples(
            st.floats(-3, 3, allow_nan=False),
            st.integers(0, 3),
            st.sampled_from("XYZ"),
        ),
        min_size=1,
        max_size=6,
    )
)
# a pairwise sum in input order gives 0.6000000000000001 here, reversed 0.6
@example([(0.5, 0, "X"), (0.05, 0, "X"), (0.05, 0, "X")])
def test_hamiltonian_canonical_under_permutation(entries):
    terms = tuple(PauliTerm(c, ((q, p),)) for c, q, p in entries)
    h = Hamiltonian(4, terms)
    g = Hamiltonian(4, terms[::-1])
    assert h == g
    # canonical order is sorted and duplicate-free
    keys = [t.factors for t in h.terms]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# layout

def test_consecutive_block_layout():
    layout = SubsystemLayout((2,) * 3)
    assert layout.num_subsystems == 3
    assert layout.num_qubits == 6
    assert to_global(layout, 0, 0) == 0
    assert to_global(layout, 1, 0) == 2
    assert to_global(layout, 2, 1) == 5


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=5).flatmap(
        lambda sizes: st.tuples(
            st.just(tuple(sizes)),
            st.dictionaries(
                st.integers(0, sum(sizes) - 1), st.sampled_from("XYZ"), min_size=1
            ),
        )
    )
)
def test_decompose_matches_a_brute_force_block_map(case):
    sizes, factors = case

    def block_of(q):
        # global qubit -> (block, local qubit), stepping over whole blocks
        s = 0
        while q >= sizes[s]:
            q -= sizes[s]
            s += 1
        return s, q

    layout = SubsystemLayout(sizes)
    assert (layout.num_subsystems, layout.num_qubits) == (len(sizes), sum(sizes))
    assert layout.assignment == tuple(block_of(q) for q in range(sum(sizes)))
    h = Hamiltonian(sum(sizes), (PauliTerm(0.5, tuple(factors.items())),))
    ((coeff, got),) = decompose_for_layout(h, layout)
    want = [[] for _ in sizes]
    for q, letter in factors.items():
        s, r = block_of(q)
        want[s].append((r, letter))
    assert coeff == 0.5
    assert got == tuple(tuple(sorted(w)) for w in want)


def test_decompose_recompose_round_trip():
    h, layout = build_1d_cluster(3, 2, lam=0.7, seed=5)
    parts = decompose_for_layout(h, layout)
    back = recompose_for_layout(parts, layout, h.num_qubits)
    assert back == h


def test_decompose_boundary_structure():
    # n=8, k=2: 46 single-block terms plus one straddling the boundary
    h, layout = build_1d_cluster(8, 2, lam=1.0, seed=7)
    parts = decompose_for_layout(h, layout)
    touching = [sum(1 for locals_ in subs if locals_) for _, subs in parts]
    assert touching.count(1) == 46
    assert touching.count(2) == 1


# ---------------------------------------------------------------------------
# models

def test_model_term_counts():
    assert len(build_1d_cluster(8, 2, lam=1.0, seed=7)[0].terms) == 47
    assert len(build_1d_cluster(4, 2, lam=1.0, seed=7)[0].terms) == 23
    assert len(build_2d_web(4, 3, lam=1.0, seed=7)[0].terms) == 41


def test_models_deterministic_in_seed():
    a, _ = build_1d_cluster(4, 3, lam=0.9, seed=11)
    b, _ = build_1d_cluster(4, 3, lam=0.9, seed=11)
    c, _ = build_1d_cluster(4, 3, lam=0.9, seed=12)
    assert a == b
    assert a != c  # boundary draws move with the seed


def test_lambda_zero_has_no_cross_terms():
    for builder in (build_1d_cluster, build_2d_web):
        h, layout = builder(3, 3, lam=0.0, seed=2)
        for _, subs in decompose_for_layout(h, layout):
            assert sum(1 for locals_ in subs if locals_) == 1


def test_field_values_scale_terms():
    fields = FieldValues(f=2.0, g=0.0, h=0.0)
    h, _ = build_1d_cluster(2, 1, lam=0.0, seed=1, fields=fields)
    # only the single intra-block ZZ survives, scaled by f
    assert h.terms == (PauliTerm(2.0, ((0, "Z"), (1, "Z"))),)


def test_text_round_trip_exact():
    h, _ = build_2d_web(3, 2, lam=0.31, seed=9)
    assert hamiltonian_from_text(hamiltonian_to_text(h)) == h
