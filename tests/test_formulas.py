import pytest

from sgeo import (
    CrownSplit,
    OutOfRange,
    big_F,
    big_G,
    f_val,
    g_val,
    hypercube_lower,
    hypercube_upper_basic,
    hypercube_upper_basic_at,
    hypercube_upper_improved,
    hypercube_upper_improved_at,
    s_val,
    sg_balanced,
    sg_bipartite_closed,
    sg_bipartite_opt,
    sg_complete_bipartite,
    sg_crown,
    small_hypercube_known,
)

TABLE_LOWER = {2: 3, 3: 3, 4: 4, 5: 4, 6: 6, 7: 7, 8: 9, 9: 12, 10: 16,
               11: 21, 12: 28, 13: 37, 14: 51, 15: 69}
TABLE_IMPROVED = {6: 10, 7: 14, 8: 18, 9: 26, 10: 36, 11: 52, 12: 76,
                  13: 108, 14: 162, 15: 226}
TABLE_BASIC = {1: 2, 2: 3, 3: 4, 4: 6, 5: 8, 6: 12, 7: 16, 8: 24, 9: 32,
               10: 48, 11: 64, 12: 96, 13: 128, 14: 192, 15: 256}


class TestSideFunctions:
    def test_f_at_full_side(self):
        assert f_val(10, 10) == 0

    def test_f_scan_values(self):
        # Oracle: smallest q with q(q-1)/2 >= n - p by direct scan.
        def scan(n, p):
            q = 0
            while q * (q - 1) // 2 < n - p:
                q += 1
            return q

        assert f_val(10, 9) == scan(10, 9) == 2
        assert f_val(10, 0) == scan(10, 0) == 5
        for n in range(1, 60):
            for p in range(n + 1):
                assert f_val(n, p) == scan(n, p)

    def test_g_values(self):
        assert g_val(7, 3) == 4
        assert big_G(7, 3) == 7
        assert g_val(5, 4) == -1  # may go negative

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            f_val(5, 6)
        with pytest.raises(OutOfRange):
            f_val(5, -1)

    def test_monotonicity_of_G(self):
        # G drops strictly beyond 3 and pins the small values exactly.
        for n in range(3, 101):
            for m in range(n, 101):
                assert big_G(m, 0) == big_G(m, 3) == m
                assert big_G(m, 1) == big_G(m, 2) == m + 1
                values = [big_G(m, k) for k in range(3, n + 1)]
                assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotonicity_of_F(self):
        for n in range(3, 101):
            values = [big_F(n, k) for k in range(n + 1)]
            assert values[n - 1] == n + 1
            assert values[n] == n
            for k in range(n - 1):
                assert values[k] <= values[k + 1]
            for k in range(n):
                assert abs(values[k + 1] - values[k]) <= 1


class TestBipartite:
    def test_opt_examples(self):
        r = sg_bipartite_opt(3, 10)
        assert r.value == 10
        # Smallest minimizer: k = 0 already attains s = max(f(0), m) = 10.
        assert r.trace.k_star == 0
        assert s_val(3, 10, 0) == 10 and s_val(3, 10, 3) == 10
        assert sg_bipartite_opt(7, 7).value == 7
        r = sg_bipartite_opt(4, 10)
        assert r.value == 8
        assert max(big_F(4, 4), big_G(10, 4)) == 8

    def test_closed_examples(self):
        r = sg_bipartite_closed(3, 3)
        assert r.value == 3 and r.trace.case_label == "case1"
        r = sg_bipartite_closed(4, 10)
        assert r.value == 8 and r.trace.case_label == "case2"
        r = sg_bipartite_closed(8, 8)
        assert r.value == 8 and r.trace.case_label == "otherwise"
        assert r.trace.ceil_x_star == 4
        r = sg_bipartite_closed(11, 11)
        assert r.value == 9 and r.trace.case_label == "otherwise"
        assert r.trace.ceil_x_star == 5
        assert min(big_G(11, 4), big_F(11, 5)) == 9

    def test_boundary_overlap_4_5(self):
        # Both the first and third conditions hold at (4, 5); the third
        # gives the optimum (all of the small side suffices).
        r = sg_bipartite_closed(4, 5)
        assert r.value == 4 == sg_bipartite_opt(4, 5).value
        assert r.trace.case_label == "case3"

    def test_first_case_instances(self):
        for n, m in [(3, 3), (3, 4), (4, 4), (5, 5), (6, 6)]:
            r = sg_bipartite_closed(n, m)
            assert r.value == m == sg_bipartite_opt(n, m).value

    def test_oracle_equivalence_medium(self):
        for n in range(3, 61):
            for m in range(n, 61):
                assert (
                    sg_bipartite_closed(n, m).value == sg_bipartite_opt(n, m).value
                ), (n, m)

    def test_otherwise_crossing_properties(self):
        for n in range(7, 40):
            for m in range(n, 3 + (n - 3) * (n - 4) // 2 + 1):
                r = sg_bipartite_closed(n, m)
                if r.trace.case_label != "otherwise":
                    continue
                kc = r.trace.ceil_x_star
                assert 3 <= kc <= n - 3
                assert big_F(n, kc) >= big_G(m, kc)
                assert big_G(m, kc - 1) >= big_F(n, kc - 1)

    def test_crossing_bisection_matches_linear_scan(self):
        def linear(n, m):
            for k in range(3, n - 2):
                rhs = 2 * m - k * (k - 1) - 1
                if rhs <= 0 or 1 + 8 * (n - k) >= rhs * rhs:
                    return k

        reached = 0
        for n in range(3, 301):
            for m in range(n, 301):
                trace = sg_bipartite_closed(n, m).trace
                if trace.case_label == "otherwise":
                    reached += 1
                    assert trace.ceil_x_star == linear(n, m), (n, m)
        assert reached > 10_000

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            sg_bipartite_closed(2, 5)
        with pytest.raises(OutOfRange):
            sg_bipartite_opt(7, 3)


class TestBalanced:
    def test_examples(self):
        assert sg_balanced(6).value == 6
        assert sg_balanced(7).value == 7  # 8*7-7 = 49 is a square
        assert sg_balanced(11).value == 9  # 8*11-7 = 81 is a square

    def test_against_closed_form(self):
        for n in range(6, 301):
            assert sg_balanced(n).value == sg_bipartite_closed(n, n).value

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            sg_balanced(5)


class TestDispatcher:
    def test_star(self):
        assert sg_complete_bipartite(1, 7).value == 7
        assert sg_complete_bipartite(7, 1).value == 7
        assert sg_complete_bipartite(1, 1).value == 2

    def test_two_side(self):
        assert sg_complete_bipartite(2, 2).value == 3
        assert sg_complete_bipartite(2, 9).value == 9
        assert sg_complete_bipartite(9, 2).value == 9

    def test_general_delegates(self):
        assert sg_complete_bipartite(10, 4).value == sg_bipartite_closed(4, 10).value


class TestCrown:
    def test_examples(self):
        r = sg_crown(4)
        assert r.value == 4 and (r.split.p, r.split.q) == (2, 2)
        r = sg_crown(3)
        assert r.value == 3 and (r.split.p, r.split.q) == (1, 2)
        r = sg_crown(6)
        assert r.value == 5 and (r.split.p, r.split.q) == (2, 3)
        assert sg_crown(12).value == 8

    def test_split_sums_to_value(self):
        for n in range(3, 200):
            r = sg_crown(n)
            assert r.split.p + r.split.q == r.value
            assert abs(r.split.p - r.split.q) <= 1

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            sg_crown(2)


class TestHypercubeBounds:
    @pytest.mark.parametrize("n,expected", sorted(TABLE_LOWER.items()))
    def test_lower(self, n, expected):
        assert hypercube_lower(n) == expected

    @pytest.mark.parametrize("n,expected", sorted(TABLE_IMPROVED.items()))
    def test_improved(self, n, expected):
        assert hypercube_upper_improved(n) == expected

    @pytest.mark.parametrize("n,expected", sorted(TABLE_BASIC.items()))
    def test_basic(self, n, expected):
        assert hypercube_upper_basic(n) == expected

    def test_lower_is_least_t_with_square_multiple(self):
        # The defining inequality: t^2 (n-1) >= 2^(n+1) > (t-1)^2 (n-1).
        for n in range(2, 3001):
            t = hypercube_lower(n)
            assert t * t * (n - 1) >= 2 ** (n + 1) > (t - 1) ** 2 * (n - 1), n

    def test_basic_closed_form_parity(self):
        # The minimum over block splits equals the even/odd closed form.
        for n in range(1, 61):
            if n % 2:
                assert hypercube_upper_basic(n) == 2 ** ((n + 1) // 2)
            else:
                assert hypercube_upper_basic(n) == 3 * 2 ** (n // 2 - 1)

    def test_variant_values(self):
        assert hypercube_upper_basic_at(4, 2) == 6
        assert hypercube_upper_basic_at(9, 5) == 32
        assert hypercube_upper_improved_at(9, 5) == 26
        assert hypercube_upper_improved_at(8, 4) == 22
        assert hypercube_upper_improved_at(10, 6) == 36

    def test_bound_ordering(self):
        for n in range(6, 61):
            assert hypercube_upper_basic(n) >= hypercube_upper_improved(n)
        for n in range(2, 61):
            assert hypercube_lower(n) <= hypercube_upper_basic(n)
        for n in range(6, 61):
            assert hypercube_lower(n) <= hypercube_upper_improved(n)

    def test_small_values(self):
        assert [small_hypercube_known(n) for n in range(7)] == [1, 2, 3, 4, 5, 6, None]

    def test_small_values_inside_bounds(self):
        for n in (2, 3, 4, 5):
            v = small_hypercube_known(n)
            assert hypercube_lower(n) <= v <= hypercube_upper_basic(n)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            hypercube_lower(1)
        with pytest.raises(OutOfRange):
            hypercube_upper_improved(5)
        with pytest.raises(OutOfRange):
            hypercube_upper_improved_at(8, 3)
        with pytest.raises(OutOfRange):
            hypercube_upper_basic_at(4, 5)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: g_val(5, -1), OutOfRange, "p=-1 negative"),
        (lambda: sg_complete_bipartite(0, 3), OutOfRange, "side sizes must be positive"),
        (lambda: hypercube_upper_basic(0), OutOfRange, "upper bound needs n >= 1, got 0"),
        (lambda: CrownSplit(1, 3), ValueError, "split sides must differ by at most 1"),
    ],
    ids=["g_val", "sg_complete_bipartite", "hypercube_upper_basic", "crown-split"],
)
def test_argument_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message
