"""The library's readers of ring and module tables gather from the arrays;
each is compared here with the Python loop over tuple tables it replaced,
kept in oracles.py, on relabelled rings, gradings and modules, so that
every answer and every witness stays the loop's."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from idealgraphs import (
    cyclic_group,
    enumerate_left_ideals,
    enumerate_submodules,
    group_ring,
    idealization,
    idealization_grading,
    make_cyclic_ring,
    module_self,
    module_zn_quotient,
    polynomial_quotient,
    trivial_grading,
)
from idealgraphs.grading import _span_of_products, is_sigma_faithful
from idealgraphs.ideal_lattice import _is_nilpotent, _is_unit, ideal_product, is_graded_domain
from idealgraphs.ring_core import FiniteModule
from idealgraphs.theorem_suite import _compatible_pairs, _first_unembedded_pair
from oracles import relabelled_grading, relabelled_ring
from test_grading import CANONICAL_CASES
from test_ring_core import GROUPS, ORACLE_RINGS


def _rings():
    z2 = make_cyclic_ring(2)
    return {**ORACLE_RINGS, "Z5": make_cyclic_ring(5), "F4": polynomial_quotient(z2, [1, 1, 1])}


def _gradings():
    z4, z6 = make_cyclic_ring(4), make_cyclic_ring(6)
    return {
        **{f"{name} trivial": trivial_grading(ring) for name, ring in RINGS.items()},
        **CANONICAL_CASES,
        "Z4 x| Z2": idealization_grading(idealization(z4, module_zn_quotient(z4, 2))),
        "Z6 x| Z3": idealization_grading(idealization(z6, module_zn_quotient(z6, 3))),
    }


RINGS = _rings()
GRADINGS = _gradings()


def _draw_relabelled(data, ring):
    return relabelled_ring(ring, data.draw(st.permutations(range(ring.size))))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_units_nilpotents_and_products(data):
    ring = _draw_relabelled(data, RINGS[data.draw(st.sampled_from(sorted(RINGS)))])
    for x in range(ring.size):
        assert _is_unit(ring, x) == oracles.is_unit(ring, x)
        assert _is_nilpotent(ring, x) == oracles.is_nilpotent(ring, x)
    a, b = (data.draw(st.integers(0, ring.full_mask)) for _ in range(2))
    assert ideal_product(ring, a, b) == oracles.ideal_product(ring, a, b)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_graded_readers(data):
    base = GRADINGS[data.draw(st.sampled_from(sorted(GRADINGS)))]
    grading = relabelled_grading(base, data.draw(st.permutations(range(base.ring.size))))
    grades = grading.grades
    if grades.kind == "integers":
        sigmas = list(range(-3, 4))
    else:
        sigmas = list(range(grades.group.size))
    assert is_graded_domain(grading) == oracles.is_graded_domain(grading)
    for sigma in sigmas:
        assert is_sigma_faithful(grading, sigma) == oracles.is_sigma_faithful(grading, sigma)
    degrees = sorted(set(grading.support) | set(sigmas))
    for ds in degrees:
        for dt in degrees:
            want = oracles.span_of_products(grading, ds, dt)
            assert _span_of_products(grading, ds, dt) == want


def test_graded_domains_are_among_the_cases():
    verdicts = {name: oracles.is_graded_domain(g) for name, g in GRADINGS.items()}
    assert verdicts["F4 trivial"] and verdicts["Z5 trivial"]
    assert not verdicts["Z12 trivial"] and not verdicts["T2(Z2) trivial"]


GROUP_RINGS = {
    "Z2[C4]": (make_cyclic_ring(2), cyclic_group(4)),
    "Z3[C3]": (make_cyclic_ring(3), cyclic_group(3)),
    "Z2[S3]": (make_cyclic_ring(2), GROUPS["S3"]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_groupring_example_witness(data):
    # the canonical embedding of the coefficients, carried through a
    # relabelling of the base and of the group ring, then bent in up to two
    # places so that the first failing pair falls anywhere in row-major order
    base, group = GROUP_RINGS[data.draw(st.sampled_from(sorted(GROUP_RINGS)))]
    ring = group_ring(base, group)
    at = data.draw(st.permutations(range(ring.size)))
    bt = data.draw(st.permutations(range(base.size)))
    shift = base.size**group.identity
    embed = [0] * base.size
    for r in range(base.size):
        embed[bt[r]] = at[ring.zero + (r - base.zero) * shift]
    for _ in range(data.draw(st.integers(0, 2))):
        embed[data.draw(st.integers(0, base.size - 1))] = data.draw(st.integers(0, ring.size - 1))
    base, ring = relabelled_ring(base, bt), relabelled_ring(ring, at)
    assert _first_unembedded_pair(base, ring, embed) == oracles.first_unembedded_pair(
        base, ring, embed
    )


def _relabelled_module(module, at):
    """The module with element x stored at index at[x], over the same ring."""
    at = np.asarray(at)
    add = np.empty((module.size, module.size), dtype=np.int64)
    add[np.ix_(at, at)] = at[module.add_array]
    act = np.empty(module.act_array.shape, dtype=np.int64)
    act[:, at] = at[module.act_array]
    neg = np.empty(module.size, dtype=np.int64)
    neg[at] = at[list(module.neg)]
    return FiniteModule(
        ring=module.ring,
        size=module.size,
        add_array=add,
        zero=int(at[module.zero]),
        neg=tuple(neg.tolist()),
        act_array=act,
        naming=lambda: tuple(module.names[x] for x in np.argsort(at)),
        kind="relabelled",
    )


SELF_BASES = {
    name: ORACLE_RINGS[name] for name in ("Z12", "Z2[C4]", "Z4[x]/(x^2)", "Z2xZ6")
}
QUOTIENTS = {"Z4 on Z2": (4, 2), "Z12 on Z4": (12, 4), "Z8 on Z8": (8, 8)}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lemma17_compatible_pairs(data):
    name = data.draw(st.sampled_from(sorted(SELF_BASES) + sorted(QUOTIENTS)))
    if name in SELF_BASES:
        module = module_self(_draw_relabelled(data, SELF_BASES[name]))
    else:
        n, m = QUOTIENTS[name]
        module = module_zn_quotient(make_cyclic_ring(n), m)
    module = _relabelled_module(module, data.draw(st.permutations(range(module.size))))
    base_family = enumerate_left_ideals(module.ring)
    module_family = enumerate_submodules(module)
    want = oracles.compatible_pairs(module, base_family, module_family)
    assert list(_compatible_pairs(module, base_family, module_family).items()) == list(
        want.items()
    )
