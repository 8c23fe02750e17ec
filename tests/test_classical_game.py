import pytest
from hypothesis import given, strategies as st

from qgdrive import classical_game as cg


def game_from_tables(ua, ub, name="test game"):
    return cg.TwoPlayerGame(
        name=name,
        actions_a=("a0", "a1"),
        actions_b=("b0", "b1"),
        payoff_a=ua,
        payoff_b=ub,
    )


PRISONERS = game_from_tables(((3, 0), (5, 1)), ((3, 5), (0, 1)))
PENNIES = game_from_tables(((1, -1), (-1, 1)), ((-1, 1), (1, -1)))
CONSTANT = game_from_tables(((2, 2), (2, 2)), ((2, 2), (2, 2)))


class TestGames:
    def test_merging_payoffs(self):
        g = cg.merging_game()
        assert g.payoff_a == ((0.0, 10.0), (4.0, 1.0))
        assert g.payoff_b == ((0.0, 4.0), (10.0, 1.0))

    def test_roundabout_payoffs(self):
        g = cg.roundabout_game()
        assert g.payoff_a == ((0.0, 10.0), (4.0, 4.0))
        assert g.payoff_b == ((0.0, 4.0), (10.0, 4.0))

    def test_builtin_lookup(self):
        assert cg.builtin_game("merging").name == cg.merging_game().name
        with pytest.raises(ValueError):
            cg.builtin_game("chicken")

    def test_accessors(self):
        g = cg.merging_game()
        assert g.u_a(0, 1) == 10.0
        assert g.u_b(1, 0) == 10.0


class TestDistribution:
    def test_tuple_order_and_prob(self):
        d = cg.OutcomeDistribution(0.1, 0.2, 0.3, 0.4)
        assert d.as_tuple() == (0.1, 0.2, 0.3, 0.4)
        assert d.p10 == 0.3

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            cg.OutcomeDistribution(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            cg.OutcomeDistribution(-0.5, 0.5, 0.5, 0.5)


class TestPureNash:
    def test_both_builtin_games_have_the_coordination_pair(self):
        for g in (cg.merging_game(), cg.roundabout_game()):
            assert cg.pure_nash_equilibria(g) == ((0, 1), (1, 0))

    def test_dominant_strategy_game(self):
        assert cg.pure_nash_equilibria(PRISONERS) == ((1, 1),)

    def test_no_pure_equilibrium(self):
        assert cg.pure_nash_equilibria(PENNIES) == ()

    def test_weak_inequalities_count(self):
        # a constant game makes every profile an equilibrium
        assert len(cg.pure_nash_equilibria(CONSTANT)) == 4


class TestMixedStrategy:
    def test_merging_values(self):
        ms = cg.mixed_strategy(cg.merging_game())
        assert abs(ms.p - 9.0 / 13.0) < 1e-12
        assert abs(ms.q - 9.0 / 13.0) < 1e-12

    def test_roundabout_values(self):
        ms = cg.mixed_strategy(cg.roundabout_game())
        assert abs(ms.p - 0.6) < 1e-12
        assert abs(ms.q - 0.6) < 1e-12

    def test_indifference_property(self):
        # B mixing with p equalizes A's two actions; A mixing with q
        # equalizes B's
        for g in (cg.merging_game(), cg.roundabout_game(), PENNIES):
            ms = cg.mixed_strategy(g)
            ev_a0 = ms.p * g.u_a(0, 0) + (1 - ms.p) * g.u_a(0, 1)
            ev_a1 = ms.p * g.u_a(1, 0) + (1 - ms.p) * g.u_a(1, 1)
            assert abs(ev_a0 - ev_a1) < 1e-12
            ev_b0 = ms.q * g.u_b(0, 0) + (1 - ms.q) * g.u_b(1, 0)
            ev_b1 = ms.q * g.u_b(0, 1) + (1 - ms.q) * g.u_b(1, 1)
            assert abs(ev_b0 - ev_b1) < 1e-12

    def test_degenerate_game_raises(self):
        with pytest.raises(cg.DegenerateGameError):
            cg.mixed_strategy(CONSTANT)

    def test_exterior_solution_raises_with_values(self):
        with pytest.raises(cg.NoInteriorEquilibriumError) as exc:
            cg.mixed_strategy(PRISONERS)
        assert not 0.0 <= exc.value.p <= 1.0


class TestBaselines:
    def test_epd_uniform(self):
        assert cg.cg_epd_distribution().as_tuple() == (0.25, 0.25, 0.25, 0.25)

    def test_ms_joint_is_product(self):
        d = cg.cg_ms_distribution(cg.merging_game())
        assert abs(d.p00 - 81.0 / 169.0) < 1e-12
        assert abs(sum(d.as_tuple()) - 1.0) < 1e-12

    def test_ms_roundabout_collision_mass(self):
        assert abs(cg.cg_ms_distribution(cg.roundabout_game()).p00 - 0.36) < 1e-12


class TestExpectedPayoff:
    def test_point_mass(self):
        d = cg.OutcomeDistribution(0.0, 1.0, 0.0, 0.0)
        assert cg.expected_payoff(d, cg.merging_game(), "a") == 10.0
        assert cg.expected_payoff(d, cg.merging_game(), "b") == 4.0

    def test_uniform_average(self):
        d = cg.cg_epd_distribution()
        assert abs(cg.expected_payoff(d, cg.merging_game(), "a") - 3.75) < 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_bounded_by_payoff_range(self, u, v):
        # any two-parameter product distribution stays inside [min, max] payoff
        d = cg.OutcomeDistribution(
            u * v, u * (1 - v), (1 - u) * v, (1 - u) * (1 - v)
        )
        e = cg.expected_payoff(d, cg.merging_game(), "a")
        assert 0.0 - 1e-12 <= e <= 10.0 + 1e-12


class TestLoadGame:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "custom.game"
        path.write_text(
            "name = custom chicken\n"
            "label_a0 = Dare\nlabel_a1 = Chicken\n"
            "label_b0 = Dare\nlabel_b1 = Chicken\n"
            "ua = 0 7 2 6\n"
            "ub = 0, 2, 7, 6\n"
        )
        g = cg.load_game(path)
        assert g.name == "custom chicken"
        assert g.actions_a == ("Dare", "Chicken")
        assert g.payoff_a == ((0.0, 7.0), (2.0, 6.0))
        assert g.payoff_b == ((0.0, 2.0), (7.0, 6.0))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.game"
        path.write_text(
            "# full-line comment\n\n"
            "label_a0 = x\nlabel_a1 = y\nlabel_b0 = x\nlabel_b1 = y\n"
            "ua = 1 2 3 4  # trailing comment\n"
            "ub = 4 3 2 1\n"
        )
        assert cg.load_game(path).payoff_a == ((1.0, 2.0), (3.0, 4.0))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "g.game"
        path.write_text("label_a0 = x\n")
        with pytest.raises(ValueError, match="missing"):
            cg.load_game(path)

    @pytest.mark.parametrize("bad_line,match", [
        ("ua = 1 2 3 4", "duplicate key 'ua'"),
        ("ub_typo = 1 2 3 4", "unknown key 'ub_typo'"),
        ("name =", "name: must not be empty"),
    ])
    def test_strict_keys(self, tmp_path, bad_line, match):
        path = tmp_path / "g.game"
        path.write_text(
            "label_a0 = x\nlabel_a1 = y\nlabel_b0 = x\nlabel_b1 = y\n"
            "ua = 1 2 3 4\nub = 4 3 2 1\n" + bad_line + "\n"
        )
        with pytest.raises(ValueError, match=f"g.game:7: {match}"):
            cg.load_game(path)

    @pytest.mark.parametrize("payoffs", ["nan 1 2 3", "1 inf 2 3", "1 2 -inf 3"])
    def test_non_finite_payoff_rejected(self, tmp_path, payoffs):
        path = tmp_path / "g.game"
        path.write_text(
            "label_a0 = x\nlabel_a1 = y\nlabel_b0 = x\nlabel_b1 = y\n"
            f"ua = {payoffs}\nub = 4 3 2 1\n"
        )
        with pytest.raises(ValueError, match="g.game:5: ua: payoffs must be finite"):
            cg.load_game(path)

    def test_wrong_arity_rejected(self, tmp_path):
        path = tmp_path / "g.game"
        path.write_text(
            "label_a0 = x\nlabel_a1 = y\nlabel_b0 = x\nlabel_b1 = y\n"
            "ua = 1 2 3\nub = 4 3 2 1\n"
        )
        with pytest.raises(ValueError):
            cg.load_game(path)
