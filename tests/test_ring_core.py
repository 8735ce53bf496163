import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraphs import (
    InvalidConstruction,
    NotASubring,
    SizeLimit,
    algebra_over_zn,
    cyclic_group,
    direct_product,
    group_from_table,
    group_ring,
    idealization,
    make_cyclic_ring,
    module_self,
    module_zn_quotient,
    polynomial_quotient,
    ring_from_tables,
    subring_on,
    unital_ring_on,
)

from idealgraphs.ring_core import mask_members
from oracles import exhaustive_validate_ring_tables

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
        add = np.array(ring.add)
        mul = np.array(ring.mul)
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
        assert ring.add[a][b] == 0 * 3 + 0
        assert ring.mul[a][b] == 1 * 3 + 2
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
        assert ring.mul[x][x] == ring.zero
        assert ring.names[x] == "x"
        assert ring.names[3] == "x+1"

    def test_field_construction(self):
        # x^2 + x + 1 is irreducible over two elements
        ring = polynomial_quotient(make_cyclic_ring(2), [1, 1, 1])
        nonzero = [e for e in range(ring.size) if e != ring.zero]
        for e in nonzero:
            assert any(ring.mul[e][f] == ring.one for f in nonzero)

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
        assert ring.mul[x][x] == ring.zero
        assert ring.mul[x][y] == ring.zero
        assert ring.mul[y][y] == ring.zero
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
        assert ring.mul[e][f] == f and ring.mul[f][e] == ring.zero


class TestGroupRing:
    def test_digit_packing(self):
        ring = group_ring(make_cyclic_ring(2), cyclic_group(3))
        assert ring.size == 8
        g = 2  # coefficient 1 at group position 1
        g2 = 4
        assert ring.mul[g][g] == g2
        assert ring.mul[g][g2] == ring.one
        assert ring.names[g] == "g"

    def test_augmentation_style_products(self):
        ring = group_ring(make_cyclic_ring(4), cyclic_group(2))
        one_plus_g = 1 + 4
        # (1+g)^2 = 2(1+g) with coefficients mod 4
        assert ring.mul[one_plus_g][one_plus_g] == 2 + 2 * 4

    def test_group_table_constructor(self):
        klein = group_from_table(
            [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        )
        ring = group_ring(make_cyclic_ring(2), klein)
        assert ring.size == 16
        assert not any(
            ring.mul[a][b] != ring.mul[b][a]
            for a in range(16)
            for b in range(16)
        )

    def test_rejects_table_without_identity(self):
        with pytest.raises(InvalidConstruction):
            group_from_table([[0, 0], [0, 0]])


class TestIdealization:
    def test_pair_layout_and_square_zero(self):
        base = make_cyclic_ring(4)
        ring = idealization(base, module_self(base))
        assert ring.size == 16
        # (r, m) sits at r*|M| + m; unity is (1, 0)
        assert ring.one == 1 * 4 + 0
        for m in range(1, 4):
            assert ring.mul[m][m] == ring.zero  # (0,m)^2 = 0
        a = 1 * 4 + 2  # (1, 2)
        b = 2 * 4 + 3  # (2, 3)
        # (1,2)(2,3) = (2, 1*3 + 2*2) = (2, 3)
        assert ring.mul[a][b] == 2 * 4 + 3

    def test_quotient_module_action(self):
        base = make_cyclic_ring(4)
        mod = module_zn_quotient(base, 2)
        assert mod.size == 2
        assert mod.act[3][1] == 1 and mod.act[2][1] == 0
        ring = idealization(base, mod)
        assert ring.size == 8

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
        for a in range(sub.size):
            assert parent.neg[embedding[a]] == embedding[sub.neg[a]]
            for b in range(sub.size):
                assert parent.add[embedding[a]][embedding[b]] == embedding[sub.add[a][b]]
                assert parent.mul[embedding[a]][embedding[b]] == embedding[sub.mul[a][b]]
        full, _ = subring_on(parent, range(parent.size))
        assert not full.commutative
        assert exhaustive_validate_ring_tables(
            full.add, full.mul, full.zero, full.one, full.neg, full.size
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
    """The exhaustive check, behind the same inverse search as ring_from_tables."""
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
        verdict = _oracle_verdict(ring.add, ring.mul, ring.zero, ring.one)
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
        add = [list(row) for row in ring.add]
        mul = [list(row) for row in ring.mul]
        table = mul if which == "mul" else add
        table[i][j] = (table[i][j] + shift) % n
        if which == "add_symmetric":
            table[j][i] = table[i][j]
        oracle = _oracle_verdict(add, mul, ring.zero, ring.one)
        library = _library_verdict(add, mul, ring.zero, ring.one)
        assert library == oracle


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
