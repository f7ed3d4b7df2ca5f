import pytest

from sgeo import construct
from sgeo import (
    AssignmentInfeasible,
    OutOfRange,
    build_bipartite_witness,
    build_crown_witness,
    build_hypercube_basic,
    build_hypercube_improved,
    complete_bipartite,
    crown,
    distances_from,
    graph_from_edges,
    hypercube,
    hypercube_upper_basic_at,
    sg_complete_bipartite,
    sg_crown,
    verify_witness,
)


def assert_geodesic_lengths(g, witness):
    dist = {}
    for a in witness.assignment:
        if a.u not in dist:
            dist[a.u] = distances_from(g, a.u)
        assert len(a.path) - 1 == dist[a.u][a.v]


class TestBipartiteWitness:
    def test_3_10(self):
        built = build_bipartite_witness(3, 10)
        assert built.witness.size() == 10
        assert verify_witness(complete_bipartite(3, 10), built.witness).covered

    def test_7_7(self):
        built = build_bipartite_witness(7, 7)
        assert built.witness.size() == 7
        assert verify_witness(complete_bipartite(7, 7), built.witness).covered

    def test_4_10(self):
        built = build_bipartite_witness(4, 10)
        assert built.witness.size() == 8
        assert verify_witness(complete_bipartite(4, 10), built.witness).covered

    def test_small_range_matches_closed_form(self):
        for n in range(3, 16):
            for m in range(n, 16):
                built = build_bipartite_witness(n, m)
                g = complete_bipartite(n, m)
                assert built.witness.size() == sg_complete_bipartite(n, m).value, (n, m)
                assert verify_witness(g, built.witness).covered, (n, m)
                assert_geodesic_lengths(g, built.witness)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            build_bipartite_witness(2, 5)

    def test_pair_budget(self, monkeypatch):
        # sg(K(3,m)) = m: C(724, 2) = 261,726 pairs fit the budget and
        # C(725, 2) = 262,450 do not, rejected before the graph is built.
        construct._check_pairs(724)
        monkeypatch.setattr(construct, "complete_bipartite", None)
        with pytest.raises(OutOfRange, match="725 vertices"):
            build_bipartite_witness(3, 725)

    def test_pair_budget_checked_before_sweep(self, monkeypatch):
        # sg(K(10^6, 10^6)) = 2828: rejected before the O(n) sweep over k.
        def sweep(n, m):
            raise AssertionError("optimiser ran")

        monkeypatch.setattr(construct, "sg_bipartite_opt", sweep)
        with pytest.raises(OutOfRange, match="2828 vertices"):
            build_bipartite_witness(10**6, 10**6)


class TestCrownWitness:
    def test_examples(self):
        for n, size in [(4, 4), (3, 3), (12, 8)]:
            built = build_crown_witness(n)
            assert built.witness.size() == size
            assert verify_witness(crown(n), built.witness).covered

    def test_range_matches_closed_form(self):
        for n in range(3, 21):
            built = build_crown_witness(n)
            g = crown(n)
            assert built.witness.size() == sg_crown(n).value, n
            assert verify_witness(g, built.witness).covered, n
            assert_geodesic_lengths(g, built.witness)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            build_crown_witness(2)

    def test_pair_budget_checked_before_routing(self, monkeypatch):
        def reject(size):
            raise OutOfRange(f"{size} vertices")

        monkeypatch.setattr(construct, "_check_pairs", reject)
        monkeypatch.setattr(construct, "crown", None)
        with pytest.raises(OutOfRange, match=f"^{sg_crown(12).value} vertices$"):
            build_crown_witness(12)

    def test_no_fresh_route_raises(self):
        # On the path 0-1-2-3 with 1 selected, the pair 0, 3 has no
        # uncovered middle left.
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(AssignmentInfeasible, match="distance-3"):
            construct._two_side(g, [0, 1, 3], 3)

    def test_uncovered_witness_raises(self, monkeypatch):
        # A witness the verifier reports as uncovered is a builder bug:
        # it raises after the one verification, with no search fallback.
        real = construct.verify_witness
        checked = []

        def verify_witness_uncovered(g, w):
            checked.append(w)
            report = real(g, w)
            report.covered = False
            return report

        monkeypatch.setattr(construct, "verify_witness", verify_witness_uncovered)
        with pytest.raises(AssignmentInfeasible):
            build_crown_witness(5)
        assert len(checked) == 1


def test_builders_keep_their_coverage_report():
    for built, g in [
        (build_bipartite_witness(3, 5), complete_bipartite(3, 5)),
        (build_crown_witness(6), crown(6)),
        (build_hypercube_basic(6, 3), hypercube(6)),
        (build_hypercube_improved(7, 4), hypercube(7)),
    ]:
        assert built.coverage == verify_witness(g, built.witness)
        assert built.coverage.covered


class TestHypercubeBasic:
    def test_4_2(self):
        built = build_hypercube_basic(4, 2)
        assert built.witness.size() == 6
        assert verify_witness(hypercube(4), built.witness).covered

    def test_7_4(self):
        built = build_hypercube_basic(7, 4)
        assert built.witness.size() == 16
        assert verify_witness(hypercube(7), built.witness).covered

    def test_10_5(self):
        built = build_hypercube_basic(10, 5)
        assert built.witness.size() == 48
        assert verify_witness(hypercube(10), built.witness).covered

    def test_sizes_match_variant_bound(self):
        for n in range(1, 9):
            for n0 in range(1, n + 1):
                built = build_hypercube_basic(n, n0)
                assert built.witness.size() == hypercube_upper_basic_at(n, n0)
                assert verify_witness(hypercube(n), built.witness).covered, (n, n0)

    def test_sizes_at_larger_dimensions(self):
        # Balanced splits keep the set small enough to build quickly.
        for n, n0 in [(11, 5), (11, 6), (12, 6), (12, 7)]:
            built = build_hypercube_basic(n, n0)
            assert built.witness.size() == hypercube_upper_basic_at(n, n0)

    def test_template_paths_have_hamming_length(self):
        built = build_hypercube_basic(6, 3)
        for a in built.witness.assignment:
            assert len(a.path) - 1 == (a.u ^ a.v).bit_count()

    def test_plan_fields(self):
        built = build_hypercube_basic(5, 3)
        plan = built.plan
        assert len(plan.P) == 4 and len(plan.Q) == 4
        assert set(plan.P).isdisjoint(plan.Q)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            build_hypercube_basic(4, 5)
        with pytest.raises(OutOfRange):
            build_hypercube_basic(15, 5)


class TestHypercubeImproved:
    def test_9_5(self):
        built = build_hypercube_improved(9, 5)
        assert built.report["target_size"] == 26
        assert built.witness.size() <= hypercube_upper_basic_at(9, 5)
        assert verify_witness(hypercube(9), built.witness).covered

    def test_8_4(self):
        built = build_hypercube_improved(8, 4)
        assert built.report["target_size"] == 22
        assert verify_witness(hypercube(8), built.witness).covered

    def test_10_6(self):
        built = build_hypercube_improved(10, 6)
        assert built.report["target_size"] == 36
        assert verify_witness(hypercube(10), built.witness).covered

    def test_achieved_close_to_target(self):
        for n, n0 in [(4, 4), (6, 4), (8, 5), (9, 5)]:
            built = build_hypercube_improved(n, n0)
            assert built.report["achieved_size"] == built.report["target_size"]

    def test_improved_beats_basic(self):
        for n, n0 in [(8, 4), (8, 5), (9, 5), (10, 5), (10, 6)]:
            built = build_hypercube_improved(n, n0)
            assert built.report["achieved_size"] < hypercube_upper_basic_at(n, n0)

    def test_path_system_is_disjoint_geodesics(self):
        built = build_hypercube_improved(8, 5)
        plan = built.plan
        start, end = plan.path_system[0][0], plan.path_system[0][-1]
        interiors = []
        for path in plan.path_system:
            assert path[0] == start and path[-1] == end
            assert len(path) - 1 == (end ^ start).bit_count()
            for a, b in zip(path, path[1:]):
                assert (a ^ b).bit_count() == 1
            interiors.append(set(path[1:-1]))
        for i in range(len(interiors)):
            for j in range(i + 1, len(interiors)):
                assert not interiors[i] & interiors[j]

    def test_removed_set_accounting(self):
        for n, n0 in [(8, 4), (9, 5), (10, 6), (12, 7)]:
            built = build_hypercube_improved(n, n0)
            assert len(built.plan.F) == (n0 - 2) * (n0 - 3)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            build_hypercube_improved(8, 3)
        with pytest.raises(OutOfRange):
            build_hypercube_improved(15, 6)
        # The dimension cap is checked before the diagonal system is built.
        with pytest.raises(OutOfRange, match="capped"):
            build_hypercube_improved(2000, 1001)

    def test_dimension_cap_checked_before_target(self, monkeypatch):
        # The targets hold 2^(n - n0); at n = 10^10 that is a 1.25 GB integer.
        def target(n, n0):
            raise AssertionError("target computed")

        monkeypatch.setattr(construct, "hypercube_upper_basic_at", target)
        monkeypatch.setattr(construct, "hypercube_upper_improved_at", target)
        for build, n0 in [(build_hypercube_basic, 1), (build_hypercube_improved, 5)]:
            with pytest.raises(OutOfRange, match="capped"):
                build(10**10, n0)

    def test_naive_routing_raises(self, monkeypatch):
        # With no chain entries every route takes its canonical chain and
        # crosses the boundary at its endpoint (no early crossings along
        # the diagonal paths), so the removed suffixes leave far-side
        # lines uncovered; the builder raises instead of reinserting them.
        monkeypatch.setattr(construct, "_boundary_chains", lambda d, seqs: {})
        with pytest.raises(AssignmentInfeasible, match="vertices uncovered"):
            build_hypercube_improved(6, 4)
