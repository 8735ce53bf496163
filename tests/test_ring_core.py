import dataclasses
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraphs import (
    InvalidConstruction,
    NotASubring,
    SizeLimit,
    algebra_over_zn,
    build_intersection_graph,
    cyclic_group,
    direct_product,
    enumerate_graded_left_ideals,
    group_from_table,
    group_ring,
    group_ring_grading,
    idealization,
    make_cyclic_ring,
    module_self,
    module_zn_quotient,
    nontrivial_proper,
    polynomial_quotient,
    ring_from_tables,
    subring_on,
    unital_ring_on,
)

import idealgraphs.ring_core as ring_core
from idealgraphs.ring_core import mask_members
from oracles import (
    as_lists,
    brute_left_multiple_masks,
    digits_to_index,
    entrywise_algebra_over_zn,
    entrywise_group_ring,
    entrywise_idealization,
    entrywise_polynomial_quotient,
    entrywise_zn_quotient_module,
    exhaustive_group_from_table,
    exhaustive_unital_ring_on,
    exhaustive_validate_module,
    exhaustive_validate_ring_tables,
    first_non_additive_column,
    frontier_bfs_generators,
    gmul,
    index_to_digits,
    pmul,
    sheared_structure,
    vmul,
)

# upper triangular 2x2 matrices over Z2 on the basis 1, E11, E12
T2_TABLE = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
]

F2XY_TABLE = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
]


class TestCyclicRing:
    @pytest.mark.parametrize("n", [2, 3, 4, 12])
    def test_tables(self, n):
        ring = make_cyclic_ring(n)
        assert ring.size == n
        assert ring.zero == 0 and ring.one == 1
        add, mul = ring.add_array, ring.mul_array
        idx = np.arange(n)
        assert np.array_equal(add, (idx[:, None] + idx[None, :]) % n)
        assert np.array_equal(mul, (idx[:, None] * idx[None, :]) % n)
        assert ring.neg[1] == n - 1
        assert ring.commutative

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_rejects_tiny_modulus(self, n):
        with pytest.raises(InvalidConstruction):
            make_cyclic_ring(n)


class TestTableValidation:
    def test_unity_must_differ_from_zero(self):
        with pytest.raises(InvalidConstruction):
            ring_from_tables(add=[[0]], mul=[[0]], zero=0, one=0)

    def test_rejects_ragged_tables(self):
        with pytest.raises(InvalidConstruction):
            ring_from_tables(add=[[0, 1], [1]], mul=[[0, 0], [0, 1]], zero=0, one=1)
        with pytest.raises(InvalidConstruction):
            group_from_table([[0, 1], [1]])

    def test_rejects_broken_distributivity(self):
        # additive group of Z_4 with an xor-flavored product
        add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        mul = [[a ^ b for b in range(4)] for a in range(4)]
        with pytest.raises(InvalidConstruction):
            ring_from_tables(add=add, mul=mul, zero=0, one=1)

    def test_rejects_nonassociative_addition(self):
        # a commutative loop of order 6: zero, inverses, but not a group
        add = [
            [0, 1, 2, 3, 4, 5],
            [1, 0, 3, 2, 5, 4],
            [2, 3, 4, 5, 0, 1],
            [3, 2, 5, 4, 1, 0],
            [4, 5, 0, 1, 3, 2],
            [5, 4, 1, 0, 2, 3],
        ]
        mul = [[(a * b) % 6 for b in range(6)] for a in range(6)]
        with pytest.raises(InvalidConstruction, match="addition not associative"):
            ring_from_tables(add=add, mul=mul, zero=0, one=1)

    def test_rejects_product_additive_along_one_generator_only(self):
        # (Z2)^3 under xor with unity 1; the product is fixed on even pairs
        # and extended so that it distributes over adding 1, but the even
        # part is not bilinear: 6*6 = 2 while 6*2 + 6*4 = 0
        def even_part(a, b):
            return 2 if (a, b) == (6, 6) else 0

        add = [[a ^ b for b in range(8)] for a in range(8)]
        mul = [[0] * 8 for _ in range(8)]
        for a in range(0, 8, 2):
            for b in range(0, 8, 2):
                g = even_part(a, b)
                mul[a][b] = g
                mul[a][b ^ 1] = g ^ a
                mul[a ^ 1][b] = g ^ b
                mul[a ^ 1][b ^ 1] = g ^ a ^ b ^ 1
        with pytest.raises(InvalidConstruction, match="distributivity"):
            ring_from_tables(add=add, mul=mul, zero=0, one=1)
        assert _oracle_verdict(add, mul, 0, 1) is None

    def test_rejects_names_of_the_wrong_length(self):
        with pytest.raises(InvalidConstruction, match="ring names length mismatch"):
            ring_from_tables([[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, 1, names=["z"])

    def test_caller_arrays_are_copied(self):
        add = np.array([[0, 1], [1, 0]], dtype=np.int8)
        mul = np.array([[0, 0], [0, 1]], dtype=np.int8)
        ring = ring_from_tables(add, mul, 0, 1)
        add[0, 0] = mul[1, 1] = 1
        assert add.flags.writeable and mul.flags.writeable
        assert as_lists(ring.add_array) == [[0, 1], [1, 0]]
        assert as_lists(ring.mul_array) == [[0, 0], [0, 1]]

    def test_accepts_klein_style_ring(self):
        # F_2[t]/(t^2+t) written out by hand: indices 0,1,t,1+t
        add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 0], [0, 3, 0, 3]]
        ring = ring_from_tables(add=add, mul=mul, zero=0, one=1)
        assert ring.commutative
        assert ring.neg == (0, 1, 2, 3)


class TestDirectProduct:
    def test_row_major_layout(self):
        left, right = make_cyclic_ring(2), make_cyclic_ring(3)
        ring = direct_product(left, right)
        assert ring.size == 6
        # (r, s) sits at r*|right| + s
        assert ring.one == 1 * 3 + 1
        a = 1 * 3 + 2  # (1, 2)
        b = 1 * 3 + 1  # (1, 1)
        assert ring.add_array[a, b] == 0 * 3 + 0
        assert ring.mul_array[a, b] == 1 * 3 + 2
        assert ring.names[a] == "(1,2)"

    def test_size_cap(self):
        big = make_cyclic_ring(40)
        with pytest.raises(SizeLimit):
            direct_product(big, big)


class TestPolynomialQuotient:
    def test_low_degree_first_packing(self):
        ring = polynomial_quotient(make_cyclic_ring(2), [0, 0, 1])
        assert ring.size == 4
        x = 2  # coefficient tuple (0, 1)
        assert ring.mul_array[x, x] == ring.zero
        assert ring.names[x] == "x"
        assert ring.names[3] == "x+1"

    def test_field_construction(self):
        # x^2 + x + 1 is irreducible over two elements
        ring = polynomial_quotient(make_cyclic_ring(2), [1, 1, 1])
        nonzero = [e for e in range(ring.size) if e != ring.zero]
        for e in nonzero:
            assert any(ring.mul_array[e, f] == ring.one for f in nonzero)

    def test_requires_monic(self):
        with pytest.raises(InvalidConstruction):
            polynomial_quotient(make_cyclic_ring(4), [0, 0, 2])

    def test_requires_commutative_base(self):
        tbl = [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
            [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]],
            [[0, 0, 0, 1], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0]],
        ]
        matrices = algebra_over_zn(2, 4, tbl)
        with pytest.raises(InvalidConstruction):
            polynomial_quotient(matrices, [0, 1])


class TestAlgebra:
    def test_basis_packing_and_names(self):
        ring = algebra_over_zn(2, 3, F2XY_TABLE, ["1", "x", "y"])
        assert ring.size == 8
        assert ring.one == 1
        x, y = 2, 4
        # all products of the two radicals vanish
        assert ring.mul_array[x, x] == ring.zero
        assert ring.mul_array[x, y] == ring.zero
        assert ring.mul_array[y, y] == ring.zero
        assert ring.names[x + y] == "x+y"

    def test_rejects_nonassociative_table(self):
        bad = [
            [[1, 0], [0, 1]],
            [[0, 1], [1, 1]],
        ]
        # b*b = 1+b makes (b*b)*b differ from b*(b*b) only if the table lies;
        # force a lie by breaking unity instead
        worse = [
            [[1, 0], [1, 1]],
            [[0, 1], [1, 1]],
        ]
        with pytest.raises(InvalidConstruction):
            algebra_over_zn(2, 2, worse)
        # the honest golden-ratio style table is fine
        algebra_over_zn(2, 2, bad)

    def test_rejects_bilinear_nonassociative_product(self):
        # basis 1, a, b over Z2 with a*b = a and every other product of a
        # and b zero: bilinear and unital, but (ab)b = a while a(bb) = 0
        table = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 0], [0, 1, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ]
        with pytest.raises(InvalidConstruction, match="multiplication not associative"):
            algebra_over_zn(2, 3, table)

    def test_upper_triangular_matrices(self):
        ring = algebra_over_zn(2, 3, T2_TABLE, ["1", "e", "f"])
        assert ring.size == 8
        assert not ring.commutative
        e, f = 2, 4
        assert ring.mul_array[e, f] == f and ring.mul_array[f, e] == ring.zero


class TestGroupRing:
    def test_digit_packing(self):
        ring = group_ring(make_cyclic_ring(2), cyclic_group(3))
        assert ring.size == 8
        g = 2  # coefficient 1 at group position 1
        g2 = 4
        assert ring.mul_array[g, g] == g2
        assert ring.mul_array[g, g2] == ring.one
        assert ring.names[g] == "g"

    def test_augmentation_style_products(self):
        ring = group_ring(make_cyclic_ring(4), cyclic_group(2))
        one_plus_g = 1 + 4
        # (1+g)^2 = 2(1+g) with coefficients mod 4
        assert ring.mul_array[one_plus_g, one_plus_g] == 2 + 2 * 4

    def test_group_table_constructor(self):
        klein = group_from_table(
            [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        )
        ring = group_ring(make_cyclic_ring(2), klein)
        assert ring.size == 16
        mul = as_lists(ring.mul_array)
        assert not any(mul[a][b] != mul[b][a] for a in range(16) for b in range(16))

    def test_rejects_table_without_identity(self):
        with pytest.raises(InvalidConstruction):
            group_from_table([[0, 0], [0, 0]])

    def test_rejects_order_five_loop(self):
        # identity 0, every element its own inverse, every row and column a
        # permutation, yet not a group: no group of order 5 is elementary
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(InvalidConstruction, match="group operation not associative"):
            group_from_table(loop)
        with pytest.raises(InvalidConstruction, match="group operation not associative"):
            exhaustive_group_from_table(loop)

    @pytest.mark.parametrize("k", [3, 4])
    def test_symmetric_groups_need_at_most_log2_n_generators(self, k, monkeypatch):
        perms = list(itertools.permutations(range(k)))
        op = [[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms]
        chosen = []
        real = ring_core._generators

        def recording(*args):
            chosen.append(real(*args))
            return chosen[-1]

        monkeypatch.setattr(ring_core, "_generators", recording)
        group = group_from_table(op)
        want = exhaustive_group_from_table(op)
        assert group.identity == 0 and as_lists(group.op_array) == as_lists(want.op_array)
        assert len(chosen) == 1 and 1 <= len(chosen[0]) <= math.log2(len(op))


class TestIdealization:
    def test_pair_layout_and_square_zero(self):
        base = make_cyclic_ring(4)
        ring = idealization(base, module_self(base))
        assert ring.size == 16
        # (r, m) sits at r*|M| + m; unity is (1, 0)
        assert ring.one == 1 * 4 + 0
        for m in range(1, 4):
            assert ring.mul_array[m, m] == ring.zero  # (0,m)^2 = 0
        a = 1 * 4 + 2  # (1, 2)
        b = 2 * 4 + 3  # (2, 3)
        # (1,2)(2,3) = (2, 1*3 + 2*2) = (2, 3)
        assert ring.mul_array[a, b] == 2 * 4 + 3

    def test_quotient_module_action(self):
        base = make_cyclic_ring(4)
        mod = module_zn_quotient(base, 2)
        assert mod.size == 2
        assert mod.act_array[3, 1] == 1 and mod.act_array[2, 1] == 0
        ring = idealization(base, mod)
        assert ring.size == 8

    def test_quotient_module_tables_match_entrywise_fill(self):
        for n, m in [(4, 1), (4, 2), (12, 4), (12, 12), (64, 32)]:
            mod = module_zn_quotient(make_cyclic_ring(n), m)
            want = entrywise_zn_quotient_module(n, m)
            assert (mod.add_array.tolist(), mod.neg, mod.act_array.tolist(), mod.names) == (
                [list(row) for row in want["add"]],
                want["neg"],
                [list(row) for row in want["act"]],
                want["names"],
            )

    def test_module_is_validated_where_it_enters_a_ring(self):
        # r.m + 2 is no action (the unity moves every m), yet the two 2s
        # cancel in (r, m)(r', m') = (rr', r.m' + r'.m), so the ring tables
        # equal the genuine idealization's and ring validation passes them
        z4 = make_cyclic_ring(4)
        shifted = dataclasses.replace(
            module_self(z4),
            act_array=np.array([[(r * m + 2) % 4 for m in range(4)] for r in range(4)]),
        )
        genuine = idealization(z4, module_self(z4))
        assert entrywise_idealization(z4, shifted)["mul"] == as_lists(genuine.mul_array)
        with pytest.raises(InvalidConstruction, match="unity does not act as identity"):
            idealization(z4, shifted)

    def test_noncommutative_base_rejected(self):
        tbl = [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
            [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]],
            [[0, 0, 0, 1], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0]],
        ]
        matrices = algebra_over_zn(2, 4, tbl)
        with pytest.raises(InvalidConstruction):
            idealization(matrices, module_self(matrices))


class TestInducedRings:
    def test_unital_subring_finds_its_own_identity(self):
        z12 = make_cyclic_ring(12)
        sub, embedding = unital_ring_on(z12, [0, 4, 8])
        assert sub.size == 3
        assert embedding[sub.one] == 4  # 4*4 = 16 = 4 mod 12
        assert sub.commutative

    def test_subring_requires_parent_unity(self):
        z12 = make_cyclic_ring(12)
        with pytest.raises(NotASubring):
            subring_on(z12, [0, 4, 8])

    def test_non_closed_subset_rejected(self):
        z12 = make_cyclic_ring(12)
        with pytest.raises(NotASubring):
            unital_ring_on(z12, [0, 4])

    def test_zero_subset_has_no_unity(self):
        with pytest.raises(InvalidConstruction):
            unital_ring_on(make_cyclic_ring(12), [0])

    def test_induced_tables_follow_the_embedding(self):
        parent = algebra_over_zn(2, 3, T2_TABLE)
        # the diagonal matrices: 0, 1, E11 and 1+E11
        sub, embedding = subring_on(parent, [0, 1, 2, 3])
        assert sub.commutative and not parent.commutative
        parent_add, parent_mul = as_lists(parent.add_array), as_lists(parent.mul_array)
        sub_add, sub_mul = as_lists(sub.add_array), as_lists(sub.mul_array)
        for a in range(sub.size):
            assert parent.neg[embedding[a]] == embedding[sub.neg[a]]
            for b in range(sub.size):
                assert parent_add[embedding[a]][embedding[b]] == embedding[sub_add[a][b]]
                assert parent_mul[embedding[a]][embedding[b]] == embedding[sub_mul[a][b]]
        full, _ = subring_on(parent, range(parent.size))
        assert not full.commutative
        assert exhaustive_validate_ring_tables(
            full.add_array, full.mul_array, full.zero, full.one, full.neg, full.size
        ) is False

    def test_subring_on_full_carrier(self):
        z4 = make_cyclic_ring(4)
        sub, embedding = subring_on(z4, [0, 1, 2, 3])
        assert sub.size == 4
        assert tuple(embedding) == (0, 1, 2, 3)


def _oracle_rings():
    z2 = make_cyclic_ring(2)
    return {
        "Z12": make_cyclic_ring(12),
        "Z2[C4]": group_ring(z2, cyclic_group(4)),
        "Z4[x]/(x^2)": polynomial_quotient(make_cyclic_ring(4), [0, 0, 1]),
        "T2(Z2)": algebra_over_zn(2, 3, T2_TABLE),
        "Z2xZ6": direct_product(z2, make_cyclic_ring(6)),
    }


ORACLE_RINGS = _oracle_rings()


def _oracle_verdict(add, mul, zero, one):
    """The exhaustive check, behind a one-sided inverse search (on a
    commutative table it finds the inverses ring_from_tables finds)."""
    n = len(add)
    neg = []
    for a in range(n):
        hits = [b for b in range(n) if add[a][b] == zero]
        if not hits:
            return None
        neg.append(hits[0])
    try:
        return exhaustive_validate_ring_tables(add, mul, zero, one, neg, n)
    except InvalidConstruction:
        return None


def _library_verdict(add, mul, zero, one):
    try:
        return ring_from_tables(add=add, mul=mul, zero=zero, one=one).commutative
    except InvalidConstruction:
        return None


class TestValidatorAgainstOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
    def test_oracle_accepts_library_rings(self, name):
        ring = ORACLE_RINGS[name]
        verdict = _oracle_verdict(
            as_lists(ring.add_array), as_lists(ring.mul_array), ring.zero, ring.one
        )
        assert verdict == ring.commutative

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_entry_corruption(self, data):
        ring = ORACLE_RINGS[data.draw(st.sampled_from(sorted(ORACLE_RINGS)))]
        n = ring.size
        which = data.draw(st.sampled_from(["add", "add_symmetric", "mul"]))
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        shift = data.draw(st.integers(1, n - 1))
        add, mul = as_lists(ring.add_array), as_lists(ring.mul_array)
        table = mul if which == "mul" else add
        table[i][j] = (table[i][j] + shift) % n
        if which == "add_symmetric":
            table[j][i] = table[i][j]
        oracle = _oracle_verdict(add, mul, ring.zero, ring.one)
        library = _library_verdict(add, mul, ring.zero, ring.one)
        assert library == oracle

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_several_entry_corruption(self, data):
        # two or three entries across both tables, each possibly with its
        # mirror entry: failures the one-sided checks must still catch
        ring = ORACLE_RINGS[data.draw(st.sampled_from(sorted(ORACLE_RINGS)))]
        n = ring.size
        add, mul = as_lists(ring.add_array), as_lists(ring.mul_array)
        for _ in range(data.draw(st.integers(2, 3))):
            table = data.draw(st.sampled_from([add, mul]))
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            table[i][j] = (table[i][j] + data.draw(st.integers(1, n - 1))) % n
            if data.draw(st.booleans()):
                table[j][i] = table[i][j]
        oracle = _oracle_verdict(add, mul, ring.zero, ring.one)
        library = _library_verdict(add, mul, ring.zero, ring.one)
        assert library == oracle


def _relabelled_tables(ring, at):
    """The ring's tables with element x stored at index at[x]."""
    n = ring.size
    ring_add, ring_mul = as_lists(ring.add_array), as_lists(ring.mul_array)
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            add[at[a]][at[b]] = at[ring_add[a][b]]
            mul[at[a]][at[b]] = at[ring_mul[a][b]]
    return add, mul, at[ring.zero], at[ring.one]


def _walk_edges(A, zero, gens):
    """The edges of `_additive_edges`, split in edge order into tree edges
    (the first to reach their head, from a reached tail) and the rest."""
    _, (src, via, dst) = ring_core._additive_edges(np.asarray(A), zero, gens)
    assert np.array_equal(np.asarray(A)[src, via], dst)
    reached, tree, relations = {zero}, [], []
    for edge in zip(src.tolist(), via.tolist(), dst.tolist()):
        assert edge[0] in reached and edge[1] in gens
        if edge[2] in reached:
            relations.append(edge)
        else:
            reached.add(edge[2])
            tree.append(edge)
    return tree, relations


# rings whose additive group is neither cyclic nor elementary abelian, so
# relabelled greedy generators can satisfy relations m s = h with h != 0
NONCYCLIC_RINGS = {
    "Z2xZ4": direct_product(make_cyclic_ring(2), make_cyclic_ring(4)),
    "Z4[x]/(x^2)": ORACLE_RINGS["Z4[x]/(x^2)"],
    "Z2xZ6": ORACLE_RINGS["Z2xZ6"],
}


# Z2 x Z4 stored so that the greedy generators are s1 = (0,2), s2 = (1,1)
# and s3 = (0,1), with 2 s2 = 2 s3 = s1 != 0
PAIRS = [(0, 0), (0, 2), (1, 1), (0, 1), (1, 3), (0, 3), (1, 0), (1, 2)]
PAIR_INDEX = {p: i for i, p in enumerate(PAIRS)}


def _pair_sum(p, q):
    return ((p[0] + q[0]) % 2, (p[1] + q[1]) % 4)


def _normal_form_map(values):
    """x = j1 s1 + j2 s2 + j3 s3 (each j in {0, 1}) -> j1 v1 + j2 v2 + j3 v3."""
    out = {}
    for js in itertools.product(range(2), repeat=3):
        x = fx = (0, 0)
        for j, s, v in zip(js, PAIRS[1:4], values):
            for _ in range(j):
                x, fx = _pair_sum(x, s), _pair_sum(fx, v)
        out[x] = fx
    return out


class TestAdditiveEdges:
    @pytest.mark.parametrize("name", sorted(ORACLE_RINGS) + ["Z1024"])
    def test_spanning_tree_and_one_relation_per_generator(self, name):
        ring = ORACLE_RINGS.get(name) or make_cyclic_ring(1024)
        gens = list(ring.add_generators)
        tree, relations = _walk_edges(ring.add_array, ring.zero, gens)
        assert len(tree) == ring.size - 1
        heads = sorted(dst for _, _, dst in tree)
        assert heads == sorted(set(range(ring.size)) - {ring.zero})
        assert sorted(via for _, via, _ in relations) == sorted(gens)

    def test_rejects_row_broken_on_one_power_relation_only(self):
        # row (1,0) becomes the normal-form map sending s1, s2, s3 to (0,2),
        # (1,0), (0,1): additive on every tree edge, 1 = s2 still neutral,
        # and 2 f(s2) = f(s1) the one relation it breaks
        add = [[PAIR_INDEX[_pair_sum(p, q)] for q in PAIRS] for p in PAIRS]
        mul = [[PAIR_INDEX[(p[0] * q[0] % 2, p[1] * q[1] % 4)] for q in PAIRS] for p in PAIRS]
        assert ring_core._generators(np.array(add), 0, "ring addition", "+") == [1, 2, 3]
        row = mul[PAIR_INDEX[(1, 0)]]
        for x, fx in _normal_form_map([(0, 2), (1, 0), (0, 1)]).items():
            row[PAIR_INDEX[x]] = PAIR_INDEX[fx]
        tree, relations = _walk_edges(add, 0, [1, 2, 3])
        assert all(row[c] == add[row[a]][row[s]] for a, s, c in tree)
        holds = [row[c] == add[row[a]][row[s]] for a, s, c in relations]
        assert holds == [True, False, True]
        with pytest.raises(InvalidConstruction, match="left distributivity fails"):
            ring_from_tables(add, mul, zero=0, one=2)
        assert _oracle_verdict(add, mul, 0, 2) is None

    def test_rejects_action_broken_on_one_power_relation_only(self):
        # Z4[x]/(x^2), c0 + c1 x at index c0 + 4 c1, acting on Z2 x Z4 by
        # (c0 + c1 x).m = c0 m + c1 f(m), where f is the normal-form map
        # sending s1, s2, s3 to 0, (0,1), 0: additive in the ring, f(f(m)) = 0
        # so x.(x.m) = (x x).m, additive on every tree edge of the module,
        # and 2 f(s2) = f(s1) the one relation it breaks
        ring = ORACLE_RINGS["Z4[x]/(x^2)"]
        assert ring.add_generators == (1, 4)
        f = _normal_form_map([(0, 0), (0, 1), (0, 0)])

        def times(c, m):
            return (c * m[0] % 2, c * m[1] % 4)

        act = [
            [PAIR_INDEX[_pair_sum(times(r % 4, m), times(r // 4, f[m]))] for m in PAIRS]
            for r in range(ring.size)
        ]
        add = [[PAIR_INDEX[_pair_sum(p, q)] for q in PAIRS] for p in PAIRS]
        module = ring_core.FiniteModule(
            ring=ring,
            size=8,
            add_array=np.array(add),
            zero=0,
            neg=[PAIR_INDEX[times(-1, p)] for p in PAIRS],
            act_array=np.array(act),
            names=[str(p) for p in PAIRS],
            construction={"kind": "hand-built"},
        )
        tree, relations = _walk_edges(add, 0, [1, 2, 3])
        row = act[4]  # x acting
        assert all(row[c] == add[row[a]][row[s]] for a, s, c in tree)
        holds = [row[c] == add[row[a]][row[s]] for a, s, c in relations]
        assert holds == [True, False, True]
        with pytest.raises(InvalidConstruction, match="not additive in the module"):
            ring_core._validate_module(module)
        assert not _module_accepted(exhaustive_validate_module, module)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_entry_corruption_of_relabelled_rings(self, data):
        ring = NONCYCLIC_RINGS[data.draw(st.sampled_from(sorted(NONCYCLIC_RINGS)))]
        n = ring.size
        add, mul, zero, one = _relabelled_tables(ring, data.draw(st.permutations(range(n))))
        which = data.draw(st.sampled_from(["add", "add_symmetric", "mul"]))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table = mul if which == "mul" else add
        table[i][j] = (table[i][j] + data.draw(st.integers(1, n - 1))) % n
        if which == "add_symmetric":
            table[j][i] = table[i][j]
        oracle = _oracle_verdict(add, mul, zero, one)
        assert _library_verdict(add, mul, zero, one) == oracle

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_module_single_entry_corruption_over_relabelled_rings(self, data):
        # a relabelled ring acting on a relabelled copy of itself
        base = NONCYCLIC_RINGS[data.draw(st.sampled_from(sorted(NONCYCLIC_RINGS)))]
        n = base.size
        ring = ring_from_tables(*_relabelled_tables(base, data.draw(st.permutations(range(n)))))
        at = data.draw(st.permutations(range(n)))
        add, _, zero, _ = _relabelled_tables(ring, at)
        neg, act = [0] * n, [[0] * n for _ in range(n)]
        mul = as_lists(ring.mul_array)
        for x in range(n):
            neg[at[x]] = at[ring.neg[x]]
            for r in range(n):
                act[r][at[x]] = at[mul[r][x]]
        which = data.draw(st.sampled_from(["add", "add_symmetric", "act"]))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table = act if which == "act" else add
        table[i][j] = (table[i][j] + data.draw(st.integers(0, n - 1))) % n  # 0 keeps it
        if which == "add_symmetric":
            table[j][i] = table[i][j]
        module = ring_core.FiniteModule(
            ring=ring,
            size=n,
            add_array=np.array(add),
            zero=zero,
            neg=neg,
            act_array=np.array(act),
            names=[str(x) for x in range(n)],
            construction={"kind": "hand-built"},
        )
        library = _module_accepted(ring_core._validate_module, module)
        assert library == _module_accepted(exhaustive_validate_module, module)


def _bit_loop_members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestMaskMembers:
    @pytest.mark.parametrize(
        "mask",
        [0, 1, 0b1011_0100, 1 << 1024, (1 << 1030) - 1, 1 << 2000 | 1 << 1025 | 5],
    )
    def test_fixed_masks(self, mask):
        assert mask_members(mask) == _bit_loop_members(mask)

    @settings(max_examples=100, deadline=None)
    @given(mask=st.integers(0, (1 << 1100) - 1))
    def test_matches_bit_loop(self, mask):
        assert mask_members(mask) == _bit_loop_members(mask)


def _relabelled_zn(n, at):
    """Z_n with residue a stored at index at[a], so zero need not be index 0."""
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            add[at[a]][at[b]] = at[(a + b) % n]
            mul[at[a]][at[b]] = at[a * b % n]
    names = [""] * n
    for a in range(n):
        names[at[a]] = str(a)
    return ring_from_tables(add, mul, zero=at[0], one=at[1], names=names)


def _s3():
    perms = list(itertools.permutations(range(3)))
    op = [[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms]
    return group_from_table(op, ["e", "a", "b", "c", "d", "f"])


def _klein_with_identity_at_2():
    value = [1, 3, 0, 2]  # index i holds the xor-group element value[i]
    return group_from_table(
        [[value.index(value[i] ^ value[j]) for j in range(4)] for i in range(4)]
    )


BASES = {
    "Z2": make_cyclic_ring(2),
    "Z3": make_cyclic_ring(3),
    "Z4": make_cyclic_ring(4),
    "Z2 swapped": _relabelled_zn(2, [1, 0]),
    "Z4 relabelled": _relabelled_zn(4, [2, 0, 3, 1]),
    "T2(Z2)": algebra_over_zn(2, 3, T2_TABLE),
}
COMMUTATIVE_BASES = sorted(name for name, ring in BASES.items() if ring.commutative)
GROUPS = {
    "C1": cyclic_group(1),
    "C2": cyclic_group(2),
    "C3": cyclic_group(3),
    "C4": cyclic_group(4),
    "V4": _klein_with_identity_at_2(),
    "S3": _s3(),
}
FIELDS = ("add", "mul", "neg", "zero", "one", "names", "construction")


def _fields_of(ring):
    return {
        "add": as_lists(ring.add_array),
        "mul": as_lists(ring.mul_array),
        "neg": list(ring.neg),
        "zero": ring.zero,
        "one": ring.one,
        "names": list(ring.names),
        "construction": ring.construction,
    }


def _assert_fields_match(got, want):
    for field in FIELDS:
        assert got[field] == want[field], field


class TestFreeAlgebraAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_group_ring(self, data):
        base = BASES[data.draw(st.sampled_from(sorted(BASES)))]
        fits = [g for g in sorted(GROUPS) if base.size ** GROUPS[g].size <= 81]
        group = GROUPS[data.draw(st.sampled_from(fits))]
        ring = group_ring(base, group)
        _assert_fields_match(_fields_of(ring), entrywise_group_ring(base, group))
        assert ring.parts["base"] is base and ring.parts["group"] is group

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_polynomial_quotient(self, data):
        base = BASES[data.draw(st.sampled_from(COMMUTATIVE_BASES))]
        d = data.draw(st.integers(1, 6).filter(lambda k: base.size**k <= 81))
        low = data.draw(st.lists(st.integers(0, base.size - 1), min_size=d, max_size=d))
        modulus = low + [base.one]
        ring = polynomial_quotient(base, modulus)
        _assert_fields_match(_fields_of(ring), entrywise_polynomial_quotient(base, modulus))
        assert ring.parts["base"] is base

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_algebra_tables_before_validation(self, data):
        # any structure constants, ring or not: the tables handed to the
        # validator are the bilinear extension, entry for entry
        n = data.draw(st.integers(2, 4))
        dim = data.draw(st.integers(1, 3).filter(lambda k: n**k <= 64))
        cell = st.lists(st.integers(-n, 2 * n), min_size=dim, max_size=dim)
        table = data.draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
        basis = data.draw(st.sampled_from([None, ["1", "x", "y"][:dim]]))
        handed = {}
        finish = ring_core._finish_ring

        def capture(size, add, mul, zero, one, neg, construction, names, parts=None):
            if construction["kind"] != "algebra":  # the base Z_n
                return finish(size, add, mul, zero, one, neg, construction, names, parts)
            handed.update(
                add=np.asarray(add).tolist(),
                mul=np.asarray(mul).tolist(),
                neg=np.asarray(neg).tolist(),
                zero=zero,
                one=one,
                names=list(names),
                construction=construction,
            )

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ring_core, "_finish_ring", capture)
            algebra_over_zn(n, dim, table, basis)
        want = entrywise_algebra_over_zn(n, table, basis or [f"b{i}" for i in range(dim)])
        _assert_fields_match(handed, want)

    @pytest.mark.parametrize("table, basis", [(T2_TABLE, ["1", "e", "f"]), (F2XY_TABLE, None)])
    def test_algebra_rings(self, table, basis):
        ring = algebra_over_zn(2, 3, table, basis)
        want = entrywise_algebra_over_zn(2, table, basis or ["b0", "b1", "b2"])
        _assert_fields_match(_fields_of(ring), want)

    @pytest.mark.parametrize(
        "base_name, quotient",
        [("Z2", None), ("Z3", None), ("Z4", None), ("Z4 relabelled", None), ("Z4", 2)],
    )
    def test_idealization(self, base_name, quotient):
        base = BASES[base_name]
        module = module_self(base) if quotient is None else module_zn_quotient(base, quotient)
        ring = idealization(base, module)
        want = entrywise_idealization(base, module)
        got = _fields_of(ring)
        for field in ("add", "mul", "neg"):
            assert got[field] == want[field], field


class TestLargestBuild:
    def test_f2_x10_at_the_cap(self):
        base = make_cyclic_ring(2)
        modulus = [0] * 10 + [1]
        ring = polynomial_quotient(base, modulus, max_size=1024)
        assert ring.size == 1024
        assert ring.add_array.dtype == ring.mul_array.dtype == np.int16
        rng = random.Random(1024)
        for _ in range(2000):
            a, b = rng.randrange(1024), rng.randrange(1024)
            da, db = index_to_digits(a, 2, 10), index_to_digits(b, 2, 10)
            assert ring.mul_array[a, b] == digits_to_index(pmul(base, modulus, da, db), 2)
            assert ring.add_array[a, b] == a ^ b
            assert ring.neg[a] == a
        assert ring.names[1 << 9 | 0b11] == "x^9+x+1"


    def test_relabelled_cyclic_group_of_order_1024(self):
        n = 1024
        at = np.random.default_rng(1024).permutation(n)
        a = np.arange(n)
        op = np.empty((n, n), dtype=np.int64)
        op[at[:, None], at] = at[(a[:, None] + a) % n]
        group = group_from_table(op.tolist())
        inv = np.empty(n, dtype=np.int64)
        inv[at] = at[-a % n]
        assert group.identity == at[0]
        assert group.inv == tuple(inv.tolist())
        assert np.array_equal(group.op_array, op)
        op[at[3], at[5]] = at[9]
        with pytest.raises(InvalidConstruction):
            group_from_table(op.tolist())

    def test_module_over_a_1024_element_ring(self):
        z1024 = make_cyclic_ring(1024)
        ring_core._validate_module(module_self(z1024))
        ring_core._validate_module(module_zn_quotient(z1024, 32))
        act = z1024.mul_array.copy()
        act[700, 3] = (act[700, 3] + 512) % 1024
        bent = dataclasses.replace(module_self(z1024), act_array=act)
        with pytest.raises(InvalidConstruction, match="module action"):
            ring_core._validate_module(bent)

    # the tables' dtype changes between 128 and 129 elements, and the
    # dtype the products are taken in between 11 and 12 and 181 and 182
    @pytest.mark.parametrize("n", [2, 3, 11, 12, 127, 128, 129, 181, 182, 1023, 1024])
    def test_cyclic_tables_are_built_compact(self, n, monkeypatch):
        passed = []
        real = ring_core._as_table

        def spy(table, size, what):
            out = real(table, size, what)
            passed.append(out is table)
            return out

        monkeypatch.setattr(ring_core, "_as_table", spy)
        ring = make_cyclic_ring(n)
        assert passed == [True, True]  # both tables arrive in the compact dtype
        a = np.arange(n)
        assert np.array_equal(ring.add_array, (a[:, None] + a) % n)
        assert np.array_equal(ring.mul_array, a[:, None] * a % n)

    def test_z1024_at_the_cap(self):
        ring = make_cyclic_ring(1024)
        a = np.arange(1024)
        assert ring.add_array.dtype == ring.mul_array.dtype == np.int16
        assert np.array_equal(ring.add_array, (a[:, None] + a) % 1024)
        assert np.array_equal(ring.mul_array, a[:, None] * a % 1024)
        rng = random.Random(1024)
        for _ in range(2000):
            x, y = rng.randrange(1024), rng.randrange(1024)
            assert ring.add_array[x, y] == (x + y) % 1024
            assert ring.mul_array[x, y] == x * y % 1024


class TestModuleValidationReuse:
    @pytest.fixture
    def generator_calls(self, monkeypatch):
        """The size of each addition whose generators are chosen greedily."""
        calls = []
        real = ring_core._additive_edges

        def counting(A, zero, gens=None):
            if gens is None:
                calls.append(len(A))
            return real(A, zero, gens)

        monkeypatch.setattr(ring_core, "_additive_edges", counting)
        return calls

    def test_self_module_reuses_the_ring_validation(self, generator_calls):
        z1024 = make_cyclic_ring(1024)
        module = module_self(z1024)
        generator_calls.clear()
        ring_core._validate_module(module)
        assert generator_calls == []

    def test_quotient_module_checks_its_own_addition_only(self, generator_calls):
        z1024 = make_cyclic_ring(1024)
        module = module_zn_quotient(z1024, 32)
        generator_calls.clear()
        ring_core._validate_module(module)
        assert generator_calls == [32]

    def test_induced_rings_find_generators_on_demand(self, generator_calls):
        parent = make_cyclic_ring(12)
        factor, _ = unital_ring_on(parent, [0, 3, 6, 9])
        assert generator_calls == [12]  # the parent's validation
        assert "add_generators" not in vars(factor)
        module = module_self(factor)
        ring_core._validate_module(module)
        assert generator_calls == [12, 4]
        assert factor.add_generators == (1,)

    def test_self_module_with_another_zero_is_checked(self):
        z4 = make_cyclic_ring(4)
        moved = dataclasses.replace(module_self(z4), zero=2)
        with pytest.raises(InvalidConstruction, match="zero element 2 is not neutral"):
            ring_core._validate_module(moved)


def _array_rings():
    """Rings of every constructor, with induced subrings and unital factors."""
    rings = {**BASES, **ORACLE_RINGS}
    z2, z4 = make_cyclic_ring(2), make_cyclic_ring(4)
    rings["Z4 self-idealization"] = idealization(z4, module_self(z4))
    rings["Z2[C9]"] = group_ring(z2, cyclic_group(9))
    rings["Z4 in Z4[x]/(x^2)"] = subring_on(ORACLE_RINGS["Z4[x]/(x^2)"], range(4))[0]
    rings["diagonal of T2(Z2)"] = subring_on(BASES["T2(Z2)"], range(4))[0]
    product = ORACLE_RINGS["Z2xZ6"]  # (r, s) at 6r + s
    rings["Z6 factor"] = unital_ring_on(product, range(6))[0]
    rings["Z2 factor"] = unital_ring_on(product, [0, 6])[0]
    rings["Z3 in Z12"] = unital_ring_on(ORACLE_RINGS["Z12"], [0, 4, 8])[0]
    return rings


ARRAY_RINGS = _array_rings()


class TestArrayStorage:
    @pytest.mark.parametrize("name", sorted(ARRAY_RINGS))
    def test_arrays_are_read_only(self, name):
        ring = ARRAY_RINGS[name]
        for array in (ring.add_array, ring.mul_array):
            with pytest.raises(ValueError):
                array[0, 0] = 0
            with pytest.raises(ValueError):
                array[:, 1] += 1

    @pytest.mark.parametrize("name", sorted(ARRAY_RINGS))
    def test_compact_dtype_and_frozen_rows(self, name):
        ring = ARRAY_RINGS[name]
        want = np.int8 if ring.size <= 128 else np.int16
        for array in (ring.add_array, ring.mul_array):
            assert array.dtype == want and array.shape == (ring.size, ring.size)

    def test_traced_peak_of_z2_c9_graded_graph(self):
        # Two frozen 512 x 512 tuple tables cost 4.2 MiB and an int64 copy of
        # one table 2 MiB; with neither, this layout peaks at about 2.8 MiB
        tracemalloc.start()
        try:
            ring = group_ring(make_cyclic_ring(2), cyclic_group(9))
            grading = group_ring_grading(ring)
            family = enumerate_graded_left_ideals(grading)
            build_intersection_graph(nontrivial_proper(family))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


class TestLeftMultiples:
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_bases(self, name):
        ring = BASES[name]
        assert list(ring.left_multiple_masks) == brute_left_multiple_masks(ring)

    @pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
    def test_oracle_rings(self, name):
        ring = ORACLE_RINGS[name]
        assert list(ring.left_multiple_masks) == brute_left_multiple_masks(ring)

    def test_noncommutative_group_ring(self):
        ring = group_ring(make_cyclic_ring(2), GROUPS["S3"])
        assert list(ring.left_multiple_masks) == brute_left_multiple_masks(ring)


def _group_verdict(build, op):
    """What a group constructor makes of a table: the group's identity,
    inverses and table, or the refusal up to its witness."""
    try:
        group = build(op)
    except InvalidConstruction as exc:
        return str(exc).split(" (witness")[0]
    return group.identity, group.inv, as_lists(group.op_array)


def _module_accepted(validate, module):
    try:
        validate(module)
    except InvalidConstruction:
        return False
    return True


def _modules():
    z4 = make_cyclic_ring(4)
    z2c2 = group_ring(make_cyclic_ring(2), cyclic_group(2))
    return {
        "Z4 self": module_self(z4),
        "Z2 over Z4": module_zn_quotient(z4, 2),
        "Z2[C2] self": module_self(z2c2),
    }


GROUP_TABLES = {
    "C4": as_lists(cyclic_group(4).op_array),
    "V4 relabelled": as_lists(GROUPS["V4"].op_array),
    "S3": as_lists(GROUPS["S3"].op_array),
    "C6": as_lists(cyclic_group(6).op_array),
}
MODULES = _modules()


class TestGroupsAndModulesAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_group_single_entry_corruption(self, data):
        op = GROUP_TABLES[data.draw(st.sampled_from(sorted(GROUP_TABLES)))]
        n = len(op)
        at = data.draw(st.permutations(range(n)))
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[at[a]][at[b]] = at[op[a][b]]
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[i][j] = (table[i][j] + data.draw(st.integers(0, n - 1))) % n  # 0 keeps it
        library = _group_verdict(group_from_table, table)
        assert library == _group_verdict(exhaustive_group_from_table, table)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_module_single_entry_corruption(self, data):
        module = MODULES[data.draw(st.sampled_from(sorted(MODULES)))]
        m = module.size
        which = data.draw(st.sampled_from(["add", "add_symmetric", "act"]))
        add = module.add_array.tolist()
        act = module.act_array.tolist()
        table = act if which == "act" else add
        i, j = data.draw(st.integers(0, len(table) - 1)), data.draw(st.integers(0, m - 1))
        table[i][j] = (table[i][j] + data.draw(st.integers(0, m - 1))) % m  # 0 keeps it
        if which == "add_symmetric":
            table[j][i] = table[i][j]
        bent = dataclasses.replace(module, add_array=np.array(add), act_array=np.array(act))
        library = _module_accepted(ring_core._validate_module, bent)
        assert library == _module_accepted(exhaustive_validate_module, bent)

    @pytest.mark.parametrize(
        "ring, size, maps, law",
        [
            # Z2[C2] on F2^2 with g as an involution that moves 0: additive in
            # the ring by construction and g.(g.x) = x, but g.0 != 0
            (
                group_ring(make_cyclic_ring(2), cyclic_group(2)),
                4,
                [lambda x: x, lambda x: {0: 1, 1: 0}.get(x, x)],
                "not additive in the module",
            ),
            # F2[x,y]/(x^2, xy, y^2) on F2^3 with x: e1 -> e2 and y: e2 -> e3;
            # x.x, y.y and x.(y.m) vanish but y.(x.e1) = e3 while yx = 0
            (
                algebra_over_zn(2, 3, F2XY_TABLE),
                8,
                [lambda v: v, lambda v: (v & 1) << 1, lambda v: (v & 2) << 1],
                "not associative",
            ),
        ],
        ids=["additive-in-module", "associative"],
    )
    def test_module_failing_one_law(self, ring, size, maps, law):
        # additive in the ring: r acts as the sum of the maps of its F2 digits
        act = [[0] * size for _ in range(ring.size)]
        for r in range(ring.size):
            for x in range(size):
                for i, f in enumerate(maps):
                    if r >> i & 1:
                        act[r][x] ^= f(x)
        module = ring_core.FiniteModule(
            ring=ring,
            size=size,
            add_array=np.array([[a ^ b for b in range(size)] for a in range(size)]),
            zero=0,
            neg=list(range(size)),
            act_array=np.array(act),
            names=[str(x) for x in range(size)],
            construction={"kind": "hand-built"},
        )
        with pytest.raises(InvalidConstruction, match=law):
            ring_core._validate_module(module)
        assert not _module_accepted(exhaustive_validate_module, module)

    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_genuine_modules_accepted(self, name):
        ring_core._validate_module(MODULES[name])
        exhaustive_validate_module(MODULES[name])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_unital_ring_on(self, data):
        ring = ORACLE_RINGS[data.draw(st.sampled_from(sorted(ORACLE_RINGS)))]
        n = ring.size
        x = data.draw(st.integers(0, n - 1))
        extra = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
        how = data.draw(st.sampled_from(["principal", "principal plus", "random"]))
        if how == "random":
            members = data.draw(st.sets(st.integers(0, n - 1))) | {ring.zero}
        else:
            members = set(mask_members(ring.left_multiple_masks[x]))
            if how == "principal plus":
                members |= extra
        outcomes = []
        for build in (unital_ring_on, exhaustive_unital_ring_on):
            try:
                sub, embedding = build(ring, members)
            except (InvalidConstruction, NotASubring) as exc:
                outcomes.append(type(exc))
            else:
                tables = as_lists(sub.add_array), as_lists(sub.mul_array)
                outcomes.append((*tables, sub.zero, sub.one, sub.neg, embedding))
        assert outcomes[0] == outcomes[1]


def _assert_sampled_entries(ring, base, dim, product, seed, count=1500):
    """Sums, products and negations of `count` random pairs, digit by digit,
    plus the rows of zero and one; `product` multiplies digit tuples."""
    radix, n = base.size, ring.size
    base_add = as_lists(base.add_array)
    rng = random.Random(seed)
    picks = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    picks += [(x, y) for x in (ring.zero, ring.one) for y in range(0, n, max(n // 64, 1))]
    for a, b in picks:
        da, db = index_to_digits(a, radix, dim), index_to_digits(b, radix, dim)
        summed = [base_add[x][y] for x, y in zip(da, db)]
        assert ring.add_array[a, b] == digits_to_index(summed, radix), (a, b)
        assert ring.mul_array[a, b] == digits_to_index(product(da, db), radix), (a, b)
        assert ring.neg[a] == digits_to_index([base.neg[x] for x in da], radix)
    assert ring.zero == digits_to_index([base.zero] * dim, radix)


def _shears(n, d):
    return [(3 * i + 1) % n for i in range(1, d)]


CYCLIC_ALGEBRA = {
    k: [[[int(t == (i + j) % k) for t in range(k)] for j in range(k)] for i in range(k)]
    for k in range(1, 10)
}
# 2x2 upper triangular matrices on the basis I, E12, E22
T2_IDENTITY_FIRST = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 0], [0, 1, 0]],
    [[0, 0, 1], [0, 0, 0], [0, 0, 1]],
]


class TestFreeAlgebraUpToDimensionNine:
    @pytest.mark.parametrize(
        "base_name, dim",
        [("Z2", d) for d in range(1, 10)]
        + [("Z2 swapped", 8), ("Z2 swapped", 9), ("Z4 relabelled", 4), ("Z3", 5)],
    )
    def test_group_ring_of_cyclic_group(self, base_name, dim):
        base, group = BASES[base_name], cyclic_group(dim)
        ring = group_ring(base, group)
        assert ring.size == base.size**dim
        if ring.size <= 81:
            _assert_fields_match(_fields_of(ring), entrywise_group_ring(base, group))
        _assert_sampled_entries(ring, base, dim, lambda a, b: gmul(base, group, a, b), dim)

    @pytest.mark.parametrize("base_name, group_name", [("Z4 relabelled", "V4"), ("Z2 swapped", "S3")])
    def test_group_ring_of_table_group(self, base_name, group_name):
        base, group = BASES[base_name], GROUPS[group_name]
        ring = group_ring(base, group)
        _assert_sampled_entries(ring, base, group.size, lambda a, b: gmul(base, group, a, b), 7)

    @pytest.mark.parametrize(
        "base_name, low",
        [("Z2", [1] + [0] * (d - 1)) for d in range(1, 10)]
        + [
            ("Z2", [1, 1, 0, 0, 0, 0, 0, 0, 0]),
            ("Z2 swapped", [1, 0, 0, 0, 1, 0, 0, 0, 0]),
            ("Z4 relabelled", [3, 0, 2, 1]),
            ("Z3", [2, 1, 0, 0, 1]),
        ],
    )
    def test_polynomial_quotient(self, base_name, low):
        base = BASES[base_name]
        # coefficients given as residues, stored at the base's own indices
        by_name = {name: i for i, name in enumerate(base.names)}
        modulus = [by_name[str(c)] for c in low] + [base.one]
        ring = polynomial_quotient(base, modulus)
        dim = len(low)
        if ring.size <= 81:
            _assert_fields_match(_fields_of(ring), entrywise_polynomial_quotient(base, modulus))
        _assert_sampled_entries(ring, base, dim, lambda a, b: pmul(base, modulus, a, b), dim)

    @pytest.mark.parametrize(
        "n, table",
        [(2, CYCLIC_ALGEBRA[d]) for d in (1, 5, 9)]
        + [(4, T2_IDENTITY_FIRST), (4, CYCLIC_ALGEBRA[4]), (8, CYCLIC_ALGEBRA[3]), (3, CYCLIC_ALGEBRA[4])],
    )
    @pytest.mark.parametrize("sheared", [False, True])
    def test_algebra_over_zn(self, n, table, sheared):
        # the sheared bases are the algebras the ring-ladder benchmark builds
        dim = len(table)
        if sheared:
            table = sheared_structure(n, table, _shears(n, dim))
        ring = algebra_over_zn(n, dim, table)
        basis = [f"b{i}" for i in range(dim)]
        if ring.size <= 81:
            _assert_fields_match(_fields_of(ring), entrywise_algebra_over_zn(n, table, basis))
        _assert_sampled_entries(ring, make_cyclic_ring(n), dim, lambda a, b: vmul(n, table, a, b), n)

    def test_sheared_structure_is_a_change_of_basis(self):
        # b_1 = x + 3 in Z4[x]/(x^3): the sheared algebra is the same ring
        plain = algebra_over_zn(4, 3, CYCLIC_ALGEBRA[3])
        sheared = algebra_over_zn(4, 3, sheared_structure(4, CYCLIC_ALGEBRA[3], [3, 1]))
        at = [
            digits_to_index([(c0 + 3 * c1 + c2) % 4, c1, c2], 4)
            for c0, c1, c2 in (index_to_digits(x, 4, 3) for x in range(64))
        ]
        for x in range(64):
            for y in range(64):
                assert at[sheared.mul_array[x, y]] == plain.mul_array[at[x], at[y]]


def _relabelled_table(op, at):
    """The operation table with element x stored at index at[x]."""
    op, at = np.asarray(op), np.asarray(at)
    out = np.empty_like(op)
    out[at[:, None], at] = at[op]
    return out


def _symmetric_group_table(k):
    perms = list(itertools.permutations(range(k)))
    return [[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms]


def _xor_table(bits):
    a = np.arange(1 << bits)
    return a[:, None] ^ a


def _cyclic_table(n):
    a = np.arange(n)
    return (a[:, None] + a) % n


GENERATOR_TABLES = {
    "S3": (_symmetric_group_table(3), False),
    "S4": (_symmetric_group_table(4), False),
    "Z12": (_cyclic_table(12), True),
    "Z64": (_cyclic_table(64), True),
    "Z2xZ8": (direct_product(make_cyclic_ring(2), make_cyclic_ring(8)).add_array, True),
    "F2^4": (_xor_table(4), True),
    "F2^6": (_xor_table(6), True),
}


class _CountedTable(np.ndarray):
    """A table that counts how often it is indexed, and the entries read."""

    reads = 0
    entries = 0

    def __getitem__(self, index):
        _CountedTable.reads += 1
        out = np.asarray(super().__getitem__(index))
        _CountedTable.entries += out.size
        return out


class TestGeneratorSearch:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_same_generators_as_the_frontier_bfs(self, data):
        name = data.draw(st.sampled_from(sorted(GENERATOR_TABLES)))
        op, commutative = GENERATOR_TABLES[name]
        n = len(op)
        T = _relabelled_table(op, data.draw(st.permutations(range(n))))
        start = int(np.argmax((T == np.arange(n)).all(axis=1)))
        what, sym = ("ring addition", "+") if commutative else ("group operation", "*")
        want = frontier_bfs_generators(T, start, what, sym)
        got = ring_core._generators(T, start, what, sym, None if commutative else T.T)
        assert got == want
        assert len(got) <= math.log2(n)
        if not commutative:
            want = exhaustive_group_from_table(T.tolist()).op_array
            assert as_lists(group_from_table(T.tolist()).op_array) == as_lists(want)

    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_far_corruption_of_z_n_refused_with_the_same_message(self, n):
        add = _cyclic_table(n)
        mul = np.arange(n)[:, None] * np.arange(n) % n
        add[n - 1, 2] = add[2, n - 1] = 5  # was 1; every inverse stays
        with pytest.raises(InvalidConstruction) as old:
            frontier_bfs_generators(add, 0, "ring addition", "+")
        with pytest.raises(InvalidConstruction) as new:
            ring_core._generators(add, 0, "ring addition", "+")
        assert str(new.value) == str(old.value)
        with pytest.raises(InvalidConstruction, match=re.escape(str(old.value))):
            ring_from_tables(add, mul, 0, 1)
        add[2, n - 1] = 1  # one entry only: no longer commutative
        with pytest.raises(InvalidConstruction, match="ring addition is not commutative"):
            ring_from_tables(add, mul, 0, 1)

    def test_far_corruption_of_an_elementary_abelian_table(self):
        add = _xor_table(9)
        add[511, 509] = add[509, 511] = 0  # was 2
        with pytest.raises(InvalidConstruction) as old:
            frontier_bfs_generators(add, 0, "ring addition", "+")
        with pytest.raises(InvalidConstruction) as new:
            ring_core._generators(add, 0, "ring addition", "+")
        assert str(new.value) == str(old.value)

    def test_z1024_closes_in_logarithmically_many_table_reads(self):
        n = 1024
        T = _cyclic_table(n).astype(np.int16).view(_CountedTable)
        _CountedTable.reads = 0
        assert ring_core._generators(T, 0, "ring addition", "+") == [1]
        # four reads for Light's test, one for the coset H s, one per round
        assert _CountedTable.reads <= 2 * math.log2(n)
        _CountedTable.reads = 0
        assert frontier_bfs_generators(T, 0, "ring addition", "+") == [1]
        assert _CountedTable.reads >= n - 1

    @pytest.mark.parametrize("bits", [6, 9])
    def test_ring_validation_reads_the_addition_in_a_bounded_number_of_passes(self, bits):
        # F2^bits, a product of fields, has |S| = bits generators.  Light's
        # test read two n x n gathers of the addition per generator, 18 n^2
        # entries on F2^9; the translation tree and the distributivity check
        # read a number of n^2 passes that does not grow with |S|
        n = 1 << bits
        a = np.arange(n)
        add = (a[:, None] ^ a).astype(ring_core._compact_dtype(n)).view(_CountedTable)
        _CountedTable.entries = 0
        _, _, gens = ring_core._validate_ring_tables(add, a[:, None] & a, 0, n - 1, a, n)
        assert len(gens) == bits
        assert _CountedTable.entries <= 3 * n * n


class TestFrozenTableArrays:
    @pytest.mark.parametrize("name", sorted(ARRAY_RINGS))
    def test_numpy_gets_a_fresh_writable_copy(self, name):
        # what numpy makes of `ring.add` and `ring.mul`, the names callers
        # outside the package read: a copy on request, never a writable view
        ring = ARRAY_RINGS[name]
        for table, array in ((ring.add, ring.add_array), (ring.mul, ring.mul_array)):
            copy = np.array(table)
            assert copy.dtype == array.dtype and np.array_equal(copy, array)
            assert copy.flags.writeable and not np.shares_memory(copy, array)
            copy[0, 0] = (copy[0, 0] + 1) % ring.size
            assert table[0, 0] == array[0, 0] != copy[0, 0]
            assert np.asarray(table, dtype=np.int64).dtype == np.int64
            with pytest.raises(ValueError):
                np.asarray(table)[0, 0] = copy[0, 0]

    def test_groups_and_modules_keep_their_arrays(self):
        op = _relabelled_table(_symmetric_group_table(3), [4, 2, 0, 5, 1, 3]).astype(np.int8)
        built = op.tolist()
        group = group_from_table(op)
        op[0, 0] = 5  # the caller's array changes after the build
        assert as_lists(group.op_array) == built != op.tolist()
        assert group.op_array.dtype == np.int8 and not group.op_array.flags.writeable
        module = module_zn_quotient(make_cyclic_ring(12), 4)
        assert module.add_array.dtype == module.act_array.dtype == np.int8
        assert module.act_array.tolist() == [[r * x % 4 for x in range(4)] for r in range(12)]
        assert module.add_array.tolist() == [[(a + b) % 4 for b in range(4)] for a in range(4)]

    def test_tables_round_trip_through_ring_from_tables(self):
        ring = group_ring(make_cyclic_ring(2), cyclic_group(8))
        again = ring_from_tables(ring.add, ring.mul, ring.zero, ring.one, ring.names)
        assert np.array_equal(again.add_array, ring.add_array)
        assert np.array_equal(again.mul_array, ring.mul_array)
        assert again.neg == ring.neg and again.commutative == ring.commutative


# Commutative tables with a neutral zero and inverses that are no groups,
# one for each way the translation tree of `_validate_abelian_group` fails,
# found among symmetric Latin squares
OVERLAPPING_LOOP = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 3, 2],
    [2, 4, 0, 1, 5, 3],
    [3, 5, 1, 4, 2, 0],
    [4, 3, 5, 2, 0, 1],
    [5, 2, 3, 0, 1, 4],
]
RUNAWAY_LOOP = [
    [0, 1, 2, 3, 4, 5, 6],
    [1, 5, 6, 0, 3, 2, 4],
    [2, 6, 3, 4, 5, 0, 1],
    [3, 0, 4, 1, 2, 6, 5],
    [4, 3, 5, 2, 6, 1, 0],
    [5, 2, 0, 6, 1, 4, 3],
    [6, 4, 1, 5, 0, 3, 2],
]
# the order-6 loop of TestTableValidation
TREE_LOOP = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0],
    [4, 5, 0, 1, 3, 2],
    [5, 4, 1, 0, 2, 3],
]


def _refusal(build, *args):
    with pytest.raises(InvalidConstruction) as err:
        build(*args)
    return str(err.value)


def _cyclic_product(n):
    return [[a * b % n for b in range(n)] for a in range(n)]


class TestTranslationTree:
    """Each refusal of the translation-tree proof is named by Light's test,
    as when it was the proof (`frontier_bfs_generators` keeps its search)."""

    def _light(self, add):
        return _refusal(frontier_bfs_generators, np.array(add), 0, "ring addition", "+")

    def test_loop_whose_coset_layers_overlap(self):
        # 1 and 2 have order 2 and span H = {0, 1, 2, 4}; H + 3 meets H
        add = np.array(OVERLAPPING_LOOP)
        assert sorted(add[3, [0, 1, 2, 4]]) == [1, 2, 3, 5]
        assert ring_core._additive_edges(add, 0) is None
        message = _refusal(ring_from_tables, OVERLAPPING_LOOP, _cyclic_product(6), 0, 1)
        assert message == self._light(OVERLAPPING_LOOP)
        assert message.startswith("ring addition not associative (witness")

    def test_loop_whose_multiples_never_return(self):
        # the multiples of 1 by doubling, (L + i) 1 = i 1 + L 1, pass the
        # order without returning to zero
        mults = [0]
        while len(mults) <= 7:
            step = RUNAWAY_LOOP[mults[-1]][1]
            nxt = [RUNAWAY_LOOP[m][step] for m in mults]
            assert 0 not in nxt
            mults += nxt
        assert ring_core._additive_edges(np.array(RUNAWAY_LOOP), 0) is None
        message = _refusal(ring_from_tables, RUNAWAY_LOOP, _cyclic_product(7), 0, 1)
        assert message == self._light(RUNAWAY_LOOP)

    def test_loop_whose_layers_form_a_tree(self):
        # the layers of 1 and 2 cover all six elements once, so only the
        # row check sees that the loop is no group
        add = np.array(TREE_LOOP)
        tree = ring_core._additive_edges(add, 0)
        assert tree is not None
        gens, edges = tree
        assert gens == [1, 2] and sorted(set(edges[1].tolist())) == [1, 2]
        assert not ring_core._translation_tree_holds(add, gens, edges)
        message = _refusal(ring_from_tables, TREE_LOOP, _cyclic_product(6), 0, 1)
        assert message == self._light(TREE_LOOP)

    def test_left_distributivity_broken_only_outside_the_generators(self):
        # F2^2 under xor, S = {1, 2}, unity 1: rows 1 and 2 are additive and
        # row 3 = 1 + 2 is not, which only a column check can see
        add = [[a ^ b for b in range(4)] for a in range(4)]
        mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 1, 1]]
        A, M = np.array(add), np.array(mul)
        _, edges = ring_core._additive_edges(A, 0, [1, 2])
        assert ring_core._columns_additive(M.T[:, [1, 2]], A, edges) is None
        assert ring_core._columns_additive(M, A, edges) is not None
        left = "left distributivity fails (witness {}*({}+{}))"
        message = left.format(*ring_core._columns_additive(M.T, A, edges))
        assert message == "left distributivity fails (witness 3*(1+2))"
        assert _refusal(ring_from_tables, add, mul, 0, 1) == message
        assert _oracle_verdict(add, mul, 0, 1) is None

    @pytest.mark.parametrize(
        "ring",
        [
            *ORACLE_RINGS.values(),
            group_ring(make_cyclic_ring(2), GROUPS["S3"]),
            algebra_over_zn(2, 3, T2_IDENTITY_FIRST),
            algebra_over_zn(4, 3, T2_IDENTITY_FIRST),
        ],
        ids=[*ORACLE_RINGS, "Z2[S3]", "T2(Z2) identity first", "T2(Z4)"],
    )
    def test_commutative_flag_from_generator_products(self, ring):
        M = ring.mul_array
        assert ring.commutative == np.array_equal(M, M.T)
        assert ring_from_tables(ring.add_array, M, ring.zero, ring.one).commutative == ring.commutative


class TestAdditivityWitness:
    """`_columns_additive` names the least failing column and, in it, the
    first failing edge, however the edges fall into blocks."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_first_failure_matches_the_column_by_column_search(self, data):
        ring = ORACLE_RINGS[data.draw(st.sampled_from(sorted(ORACLE_RINGS)))]
        n = ring.size
        _, edges = ring_core._additive_edges(ring.add_array, ring.zero, ring.add_generators)
        # the columns of M and of M.T, b -> b*x and b -> x*b, are all additive
        F = np.array(ring.mul_array.T if data.draw(st.booleans()) else ring.mul_array)
        columns = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        F = F[:, columns]
        for _ in range(data.draw(st.integers(1, 3))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, len(columns) - 1))
            F[i, j] = data.draw(st.integers(0, n - 1))
        block = data.draw(st.sampled_from([1, 3, 64, ring_core._BLOCK]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ring_core, "_BLOCK", block)
            got = ring_core._columns_additive(F, ring.add_array, edges)
        assert got == first_non_additive_column(F, ring.add_array, edges)

    def test_module_failing_additivity_only_at_the_second_generator(self):
        # Z4[x]/(x^2), c0 + c1 x at index c0 + 4 c1, is generated by 1 and
        # x = 4; it acts on F2^2 under xor by (c0 + c1 x).m = c0 m + c1 f(m),
        # where f(3) = 1 and f vanishes elsewhere.  The action is additive in
        # the ring, 1 acts as the identity and f(f(m)) = 0 = (x x).m, so the
        # one law it breaks is additivity of x: f(1) + f(2) != f(3)
        ring = ORACLE_RINGS["Z4[x]/(x^2)"]
        assert ring.add_generators == (1, 4)
        f = [0, 0, 0, 1]
        act = [[(r % 2) * m ^ (r // 4 % 2) * f[m] for m in range(4)] for r in range(16)]
        module = ring_core.FiniteModule(
            ring=ring,
            size=4,
            add_array=np.array([[a ^ b for b in range(4)] for a in range(4)]),
            zero=0,
            neg=[0, 1, 2, 3],
            act_array=np.array(act),
            names=["0", "1", "2", "3"],
            construction={"kind": "hand-built"},
        )
        message = _refusal(ring_core._validate_module, module)
        assert message == "module action not additive in the module (witness 4.(1+2))"
        assert not _module_accepted(exhaustive_validate_module, module)
