import pytest

from idealgraphs import (
    NotEFaithful,
    WrongConstruction,
    enumerate_graded_left_ideals,
    enumerate_left_ideals,
    gamma_omega_transfer,
    identity_component_ring,
    induced_factor_grading,
    is_connected,
    is_graded_field,
    nontrivial_proper,
    phi_iso_check,
    quotient_graph,
    sim_partition,
)


class TestIdentityComponent:
    def test_group_ring_identity_component_is_the_coefficients(self, corpus_instances):
        inst = corpus_instances["z4c2"]
        sub, embedding = identity_component_ring(inst.grading)
        assert sub.size == 4
        assert sub.commutative
        # embedded members are the scalar multiples of unity
        assert sorted(embedding) == [0, 1, 2, 3]

    def test_trivial_grading_gives_back_the_ring(self, corpus_instances):
        inst = corpus_instances["z12"]
        sub, embedding = identity_component_ring(inst.grading)
        assert sub.size == 12
        assert tuple(embedding) == tuple(range(12))


class TestSimPartition:
    def test_group_ring_single_class(self, corpus_instances):
        inst = corpus_instances["z4c2"]
        part = sim_partition(inst.grading, inst.graded_vertices, *inst.identity_data)
        assert len(part.keys) == 1
        (members,) = part.classes.values()
        assert [i.label() for i in members] == ["<2>"]

    def test_matrix_ring_classes(self, corpus_instances):
        inst = corpus_instances["m2f2"]
        part = sim_partition(inst.grading, inst.graded_vertices, *inst.identity_data)
        # two identity-component ideals, one graded ideal over each
        assert len(part.keys) == 2
        assert sorted(len(v) for v in part.classes.values()) == [1, 1]

    def test_rejects_unfaithful_gradings(self, corpus_instances):
        inst = corpus_instances["f2xy_12"]
        with pytest.raises(NotEFaithful):
            inst.partition

    def test_quotient_graph_of_group_ring(self, corpus_instances):
        inst = corpus_instances["z4c2"]
        g = quotient_graph(sim_partition(inst.grading, inst.graded_vertices, *inst.identity_data))
        assert g.n == 1
        assert g.edge_count == 0


class TestPhiIsomorphism:
    @pytest.mark.parametrize("name", ["z12", "z4c2", "z8c2", "m2f2", "f4", "z2c3"])
    def test_quotient_variant_on_faithful_instances(self, corpus_instances, name):
        inst = corpus_instances[name]
        report = phi_iso_check(
            inst.grading,
            inst.re_ring,
            inst.re_vertices,
            inst.extension,
            partition=inst.partition,
            quotient=quotient_graph(inst.partition),
        )
        assert report["variant"] == "quotient"
        assert report["identity_vertices"] == report["classes"]

    @pytest.mark.parametrize("name", ["z12", "z4c2", "z8c2", "z2c3"])
    def test_first_strong_variant(self, corpus_instances, name):
        inst = corpus_instances[name]
        report = phi_iso_check(
            inst.grading,
            inst.re_ring,
            inst.re_vertices,
            inst.extension,
            graded_vertices=inst.graded_vertices,
        )
        assert report["variant"] == "first_strong"
        assert report["identity_vertices"] == report["graded_vertices"]

    def test_first_strong_variant_guards(self, corpus_instances):
        inst = corpus_instances["m2f2"]  # identity faithful but not first strong
        with pytest.raises(WrongConstruction):
            inst.first_strong_iso


class TestTransferNumbers:
    def test_group_ring_numbers(self, corpus_instances):
        inst = corpus_instances["z8c2"]
        rep = gamma_omega_transfer(
            inst.partition, inst.re_vertices, inst.re_graph, inst.graded_graph, inst.extension
        )
        assert rep["gamma_identity"] == rep["gamma_graded"] == 1
        assert rep["omega_identity"] == rep["omega_graded"] == 2
        assert rep["omega_from_classes"] == 2
        assert rep["class_sizes"] == [1, 1]  # one graded ideal above each

    def test_matrix_ring_numbers(self, corpus_instances):
        inst = corpus_instances["m2f2"]
        rep = gamma_omega_transfer(
            inst.partition, inst.re_vertices, inst.re_graph, inst.graded_graph, inst.extension
        )
        # two isolated vertices on both sides
        assert rep["gamma_identity"] == rep["gamma_graded"] == 2
        assert rep["omega_identity"] == rep["omega_graded"] == 1
        assert rep["omega_from_classes"] == 1


class TestInducedFactorGrading:
    def test_z12_splits_into_graded_fields(self, corpus_instances):
        inst = corpus_instances["z12"]
        by_label = {i.label(): i for i in inst.graded_family}
        g3 = induced_factor_grading(inst.grading, by_label["<4>"].mask)
        assert g3.ring.size == 3
        assert is_graded_field(g3)
        g4 = induced_factor_grading(inst.grading, by_label["<3>"].mask)
        assert g4.ring.size == 4
        assert not is_graded_field(g4)

    def test_factor_lattice_is_consistent(self, corpus_instances):
        inst = corpus_instances["z12"]
        by_label = {i.label(): i for i in inst.graded_family}
        g4 = induced_factor_grading(inst.grading, by_label["<3>"].mask)
        inner = nontrivial_proper(enumerate_graded_left_ideals(g4))
        assert len(inner) == 1  # the copy of the even residues
        assert len(nontrivial_proper(enumerate_left_ideals(g4.ring))) == 1
