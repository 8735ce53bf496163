import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraphs import (
    INTEGERS,
    Instance,
    NotDirectSum,
    NotSubgroup,
    ProductEscapes,
    UnityNotInIdentityComponent,
    WrongConstruction,
    algebra_over_zn,
    classify,
    cyclic_group,
    decompose,
    explicit_grading,
    finite_grades,
    group_from_table,
    group_ring,
    group_ring_grading,
    idealization,
    idealization_grading,
    is_e_faithful,
    is_faithful,
    is_first_strong,
    is_sigma_faithful,
    is_strong,
    make_cyclic_ring,
    module_self,
    module_zn_quotient,
    poly_quotient_integer_grading,
    polynomial_quotient,
    run_check,
    same_grading,
    support_is_subgroup,
    trivial_grading,
    validate_grading,
)
from oracles import first_escaping_product, pairwise_is_subgroup, relabelled_ring
from idealgraphs.grading import _subgroup_generators, is_canonical
from idealgraphs.ring_core import is_subgroup, mask_members
from test_ring_core import GROUPS

F2XY_TABLE = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
]


@pytest.fixture
def f2xy():
    return algebra_over_zn(2, 3, F2XY_TABLE, ["1", "x", "y"])


@pytest.fixture
def z4c2():
    return group_ring(make_cyclic_ring(4), cyclic_group(2))


class TestValidation:
    def test_component_must_be_subgroup(self, f2xy):
        with pytest.raises(NotSubgroup):
            validate_grading(
                f2xy, INTEGERS, {0: 0b10 | 1, 1: 0b10100 | 1}
            )  # {x, y} misses x+y

    def test_components_must_cover_without_collision(self, f2xy):
        # putting x in two components double counts
        with pytest.raises(NotDirectSum):
            validate_grading(
                f2xy,
                INTEGERS,
                {0: 0b1111 | 1, 1: 0b101, 2: 0b10001},
            )

    def test_products_must_land_in_the_right_component(self, z4c2):
        # swap the labels of the two canonical components: R_g R_g lands
        # wrongly in R_g instead of R_e
        canonical = group_ring_grading(z4c2)
        swapped = {
            0: canonical.components[1],
            1: canonical.components[0],
        }
        with pytest.raises((ProductEscapes, UnityNotInIdentityComponent)):
            validate_grading(z4c2, canonical.grades, swapped)

    def test_bulk_component_off_identity_rejected(self, f2xy):
        # grading the whole ring at degree 1 cannot validate: products of
        # degree-1 elements would need a degree-2 component
        full = (1 << f2xy.size) - 1
        with pytest.raises((ProductEscapes, UnityNotInIdentityComponent)):
            validate_grading(f2xy, INTEGERS, {1: full})

    def test_explicit_grading_round_trip(self, f2xy):
        g = explicit_grading(f2xy, INTEGERS, {0: [1], 1: [2], 2: [4]})
        assert g.support == (0, 1, 2)
        assert g.component(1) == 0b101  # {0, x}
        assert g.component(5) == f2xy.zero_mask  # absent degree


class TestDecomposition:
    def test_parts_sum_to_the_element(self, f2xy):
        g = explicit_grading(f2xy, INTEGERS, {0: [1], 1: [2], 2: [4]})
        parts = decompose(g, 7)  # 1 + x + y
        assert parts == {0: 1, 1: 2, 2: 4}

    def test_homogeneous_element_degree(self, f2xy):
        g = explicit_grading(f2xy, INTEGERS, {0: [1], 1: [2], 2: [4]})
        assert g.degree_of(2) == 1
        assert g.degree_of(6) is None  # x + y is mixed
        assert g.degree_of(f2xy.zero) is None


class TestCanonicalGradings:
    def test_group_ring_components(self, z4c2):
        g = group_ring_grading(z4c2)
        assert g.support == (0, 1)
        # component 0 holds the scalars, component 1 the g-multiples
        assert sorted(m for m in range(16) if g.component(0) >> m & 1) == [0, 1, 2, 3]
        assert sorted(m for m in range(16) if g.component(1) >> m & 1) == [0, 4, 8, 12]

    def test_poly_quotient_pure_power_only(self):
        f2 = make_cyclic_ring(2)
        ring = polynomial_quotient(f2, [0, 0, 0, 1])
        g = poly_quotient_integer_grading(ring)
        assert g.grades.kind == "integers"
        assert g.support == (0, 1, 2)
        field = polynomial_quotient(f2, [1, 1, 1])
        with pytest.raises(WrongConstruction):
            poly_quotient_integer_grading(field)

    def test_idealization_two_components(self):
        base = make_cyclic_ring(4)
        ring = idealization(base, module_self(base))
        g = idealization_grading(ring)
        assert g.support == (0, 1)
        assert g.component(1) == sum(1 << m for m in range(4)) | 1

    def test_same_grading(self, z4c2):
        a = group_ring_grading(z4c2)
        b = group_ring_grading(z4c2)
        assert same_grading(a, b)
        assert not same_grading(a, trivial_grading(z4c2, finite_grades(cyclic_group(2))))


# Z4 with residue a stored at index [2, 0, 3, 1][a]: zero at index 2
Z4_ZERO_AT_2 = relabelled_ring(make_cyclic_ring(4), [2, 0, 3, 1])


def _component_names(grading):
    ring = grading.ring
    return {
        deg: sorted(ring.names[x] for x in mask_members(mask))
        for deg, mask in grading.components.items()
    }


class TestBasesWithZeroAwayFromIndexZero:
    """Canonical gradings of free base-modules find each coefficient line
    from the base's zero, wherever the base stores it."""

    def test_group_ring_grading(self):
        assert Z4_ZERO_AT_2.zero == 2
        ring = group_ring(Z4_ZERO_AT_2, cyclic_group(2))
        plain = group_ring(make_cyclic_ring(4), cyclic_group(2))
        assert _component_names(group_ring_grading(ring)) == _component_names(
            group_ring_grading(plain)
        )

    def test_poly_quotient_integer_grading(self):
        zero, one = Z4_ZERO_AT_2.zero, Z4_ZERO_AT_2.one
        ring = polynomial_quotient(Z4_ZERO_AT_2, [zero, zero, zero, one])
        plain = polynomial_quotient(make_cyclic_ring(4), [0, 0, 0, 1])
        g = poly_quotient_integer_grading(ring)
        assert g.support == (0, 1, 2)
        assert _component_names(g) == _component_names(
            poly_quotient_integer_grading(plain)
        )

    def test_group_ring_check_sees_the_coefficients(self):
        ring = group_ring(Z4_ZERO_AT_2, cyclic_group(2))
        inst = Instance(name="z4c2", ring=ring, grading=group_ring_grading(ring))
        report = run_check(inst, "groupring_example")
        assert report.verdict == "PASS", report.directions


class TestClassifiers:
    def test_trivial_grading_is_everything(self):
        z12 = make_cyclic_ring(12)
        g = trivial_grading(z12)
        info = classify(g)
        assert info["e_faithful"] and info["strong"] and info["first_strong"]
        assert info["support_is_subgroup"]

    def test_group_ring_grading_is_strong(self, z4c2):
        g = group_ring_grading(z4c2)
        assert is_strong(g)
        assert is_first_strong(g)
        assert is_e_faithful(g)
        assert is_faithful(g)

    def test_idealization_grading_never_identity_faithful(self):
        base = make_cyclic_ring(4)
        ring = idealization(base, module_self(base))
        g = idealization_grading(ring)
        # the module part kills the whole opposite component
        assert not is_e_faithful(g)
        assert not is_first_strong(g)
        assert is_sigma_faithful(g, 1)

    def test_positive_support_blocks_identity_faithfulness(self, f2xy):
        g = explicit_grading(f2xy, INTEGERS, {0: [1], 1: [2], 2: [4]})
        assert not is_e_faithful(g)
        assert not support_is_subgroup(g)

    def test_matrix_grading_identity_faithful_not_first_strong(self):
        tbl = [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
            [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]],
            [[0, 0, 0, 1], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0]],
        ]
        ring = algebra_over_zn(2, 4, tbl, ["1", "a", "b", "c"])
        g = explicit_grading(ring, INTEGERS, {0: [1, 2], 1: [4], -1: [8]})
        assert is_e_faithful(g)
        assert not is_strong(g)
        assert not is_first_strong(g)
        assert not is_faithful(g)

    def test_integer_gradings_are_never_globally_faithful(self, f2xy):
        g = explicit_grading(f2xy, INTEGERS, {0: [1], 1: [2], 2: [4]})
        assert not is_faithful(g)


def _canonical_cases():
    z2, z3, z4 = make_cyclic_ring(2), make_cyclic_ring(3), make_cyclic_ring(4)
    return {
        "Z2[C4]": group_ring_grading(group_ring(z2, cyclic_group(4))),
        "Z3[C3]": group_ring_grading(group_ring(z3, cyclic_group(3))),
        "Z4[x]/(x^3)": poly_quotient_integer_grading(
            polynomial_quotient(z4, [0, 0, 0, 1])
        ),
        "Z4 x| Z4": idealization_grading(idealization(z4, module_self(z4))),
    }


CANONICAL_CASES = _canonical_cases()


class TestProductCheckWitness:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_first_escape_matches_the_loop(self, data):
        # moving the components of a valid grading to permuted degrees keeps
        # the direct sum, so the product check decides; its witness must be
        # the loop's first escape in row-major order over ascending members,
        # which a random relabelling of the elements puts in varied orders
        grading = CANONICAL_CASES[data.draw(st.sampled_from(sorted(CANONICAL_CASES)))]
        grades = grading.grades
        at = data.draw(st.permutations(range(grading.ring.size)))
        ring = relabelled_ring(grading.ring, at)
        degs = list(grading.support)
        if grades.kind == "integers":
            targets = data.draw(
                st.lists(st.integers(-3, 3), min_size=len(degs), max_size=len(degs), unique=True)
            )
        else:
            targets = data.draw(st.permutations(range(grades.group.size)))[: len(degs)]
        raw = {
            t: sum(1 << at[x] for x in range(ring.size) if grading.components[d] >> x & 1)
            for d, t in zip(degs, targets)
        }
        expected = first_escaping_product(ring, grades, raw)
        if expected is None:
            try:
                validate_grading(ring, grades, raw)
            except UnityNotInIdentityComponent:
                pass
            return
        a, b, target = expected
        with pytest.raises(ProductEscapes) as err:
            validate_grading(ring, grades, raw)
        assert str(err.value) == (
            f"product {ring.names[a]} * {ring.names[b]} leaves the degree "
            f"{grades.name(target)} component"
        )


def _moved_components(data):
    """A canonical grading, relabelled, with its components moved to drawn
    degrees: the ring, the grade group and the raw components."""
    grading = CANONICAL_CASES[data.draw(st.sampled_from(sorted(CANONICAL_CASES)))]
    grades = grading.grades
    at = data.draw(st.permutations(range(grading.ring.size)))
    degs = list(grading.support)
    if grades.kind == "integers":
        targets = data.draw(
            st.lists(st.integers(-3, 3), min_size=len(degs), max_size=len(degs), unique=True)
        )
    else:
        targets = data.draw(st.permutations(range(grades.group.size)))[: len(degs)]
    raw = {
        t: sum(1 << at[x] for x in mask_members(grading.components[d]))
        for d, t in zip(degs, targets)
    }
    return relabelled_ring(grading.ring, at), grades, raw


class TestGeneratorProducts:
    def test_escape_past_the_first_generator(self):
        # Z4 x| Z2 with (1|0) and (2|0) swapped, so the greedy generators of
        # the base are (2|0) and then (1|0).  With the module in degree e and
        # the base in degree g, (0|1) times the base must stay in the base:
        # (0|1)(2|0) = 0 does and (0|1)(1|0) = (0|1) does not
        z4 = make_cyclic_ring(4)
        at = [0, 1, 4, 3, 2, 5, 6, 7]  # (r|m) was at 2r + m
        ring = relabelled_ring(idealization(z4, module_zn_quotient(z4, 2)), at)
        base, module = sum(1 << at[2 * r] for r in range(4)), 0b11
        assert [ring.names[x] for x in _subgroup_generators(ring, base)] == ["(2|0)", "(1|0)"]
        grades = finite_grades(cyclic_group(2))
        raw = {0: module, 1: base}
        a, b, _ = first_escaping_product(ring, grades, raw)
        assert (ring.names[a], ring.names[b]) == ("(0|1)", "(1|0)")
        with pytest.raises(ProductEscapes) as err:
            validate_grading(ring, grades, raw)
        assert str(err.value) == "product (0|1) * (1|0) leaves the degree g component"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_first_escape_is_a_product_of_generators(self, data):
        # the witness the member-by-member loop finds is always a product of
        # the greedy generators of its two components, so checking the
        # generators loses no witness
        ring, grades, raw = _moved_components(data)
        expected = first_escaping_product(ring, grades, raw)
        if expected is not None:
            a, b, _ = expected
            (left,) = (m for m in raw.values() if m >> a & 1)
            (right,) = (m for m in raw.values() if m >> b & 1)
            assert a in _subgroup_generators(ring, left)
            assert b in _subgroup_generators(ring, right)


class TestArrayGroups:
    """Grade groups read their operation from `op_array`."""

    def test_equal_groups_built_apart_grade_alike(self):
        ring = group_ring(make_cyclic_ring(2), cyclic_group(4))
        canonical = group_ring_grading(ring)
        twin = validate_grading(ring, finite_grades(cyclic_group(4)), canonical.components)
        assert twin.grades.group is not ring.parts["group"]
        assert same_grading(canonical, twin) and is_canonical(twin)
        # C4 with 1 and 2 swapped, and the same components at their new degrees
        swap = [0, 2, 1, 3]
        relabelled = group_from_table(
            [[swap[(swap[a] + swap[b]) % 4] for b in range(4)] for a in range(4)]
        )
        moved = validate_grading(
            ring, finite_grades(relabelled), {swap[d]: c for d, c in canonical.components.items()}
        )
        assert not same_grading(canonical, moved) and not is_canonical(moved)
        # trivial gradings, whose components agree: only the tables differ
        trivial = trivial_grading(ring, finite_grades(cyclic_group(4)))
        assert same_grading(trivial, trivial_grading(ring, finite_grades(cyclic_group(4))))
        assert not same_grading(trivial, trivial_grading(ring, finite_grades(relabelled)))

    @pytest.mark.parametrize("name", ["C4", "V4", "S3"])
    def test_degrees_are_python_ints(self, name):
        grades = finite_grades(GROUPS[name])
        n = grades.group.size
        assert {type(grades.op(a, b)) for a in range(n) for b in range(n)} == {int}

    def test_classify_on_s3(self):
        s3 = GROUPS["S3"]
        flags = {
            "e_faithful": True,
            "faithful": True,
            "strong": True,
            "first_strong": True,
            "support_is_subgroup": True,
        }
        ring = group_ring(make_cyclic_ring(2), s3)
        assert classify(group_ring_grading(ring)) == {
            "support": ["e", "a", "b", "c", "d", "f"],
            **flags,
        }
        # Z2[C3] graded by the 3-cycles c and d = c c of S3
        c3 = group_ring(make_cyclic_ring(2), cyclic_group(3))
        comps = group_ring_grading(c3).components
        grading = validate_grading(c3, finite_grades(s3), {0: comps[0], 3: comps[1], 4: comps[2]})
        assert classify(grading) == {
            "support": ["e", "c", "d"],
            **flags,
            "faithful": False,
            "strong": False,
        }

    @pytest.mark.parametrize(
        "group, subgroups", [(cyclic_group(6), 4), (GROUPS["S3"], 6)], ids=["C6", "S3"]
    )
    def test_is_subgroup_matches_the_pairwise_loop(self, group, subgroups):
        found = 0
        for bits in range(1 << group.size):
            members = [x for x in range(group.size) if bits >> x & 1]
            assert is_subgroup(group, members) == pairwise_is_subgroup(group, members)
            found += is_subgroup(group, members)
        assert found == subgroups
