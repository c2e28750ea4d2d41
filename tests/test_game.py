"""Game parsing, the per-pair comparability and weight definitions, and mixed
profiles."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zsflow import (
    Game,
    GameFormatError,
    IntegratorConfig,
    build_graph,
    content_of,
    game_to_dict,
    game_to_json,
    integrate,
    make_game,
    mixed,
    parse_game,
    random_game,
    sink_component,
    solve_nash,
    uniform_profile,
    write_trajectory_csv,
)
from zsflow.cli import _parse_start
from zsflow.dynamics import _profile_masses, _stack
from zsflow.sampling import game_corpus

from dynamics_oracle import set_shares
from graph_oracle import (
    IncomparableProfilesError,
    comparable,
    fraction_rows,
    sized_corpus,
    weight,
)
from symmetrise_oracle import identity_corpus


def sample(g, z):
    """The first sample of a zero-horizon trajectory from z: its payoff x M y."""
    return integrate(g, z, IntegratorConfig(horizon=0.0))


def nonsym_games(max_side=4):
    side = st.integers(1, max_side)

    @st.composite
    def build(draw):
        n = draw(side)
        m = draw(side)
        entries = draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
        return make_game(entries, "non-symmetric")

    return build()


def sym_games(max_side=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_side))
        K = draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        entries = [[K[i][j] - K[j][i] for j in range(n)] for i in range(n)]
        return make_game(entries, "symmetric")

    return build()


class TestParsing:
    def test_matching_pennies_round_trip(self, mp):
        text = game_to_json(mp)
        again = parse_game(text)
        assert again == mp
        assert again.n == again.m == 2
        assert again.row_labels == ("H", "T")

    def test_default_labels(self):
        g = parse_game('{"mode": "non-symmetric", "matrix": [[1, 2, 3], [4, 5, 6]]}')
        assert g.row_labels == ("s0", "s1")
        assert g.col_labels == ("t0", "t1", "t2")

    def test_rational_entries(self):
        g = parse_game('{"mode": "non-symmetric", "matrix": [["3/2", "-1/2"]]}')
        assert fraction_rows(g)[0] == (Fraction(3, 2), Fraction(-1, 2))

    def test_exact_integer_view(self):
        g = make_game([["1/2", "-2/3"], [3, "5/6"]])
        assert g.int_scale == 6
        assert g.int_view.dtype == np.int64
        assert g.int_view.tolist() == [[3, -4], [18, 5]]
        assert g == make_game([["3/6", "-4/6"], ["18/6", "5/6"]])

    def test_plain_fraction_strings_equal_fractions(self):
        # Plain 'a/b' strings are split with int(), unreduced ones included.
        rng = np.random.default_rng(12)
        num, den = rng.integers(-60, 61, size=(6, 7)), rng.integers(1, 13, size=(6, 7))
        strings = [[f"{a}/{b}" for a, b in zip(*r)] for r in zip(num.tolist(), den.tolist())]
        fractions = [[Fraction(a, b) for a, b in zip(*r)] for r in zip(num.tolist(), den.tolist())]
        assert make_game(strings) == make_game(fractions)
        assert make_game([["-0/3", "٣/٤", 2]]) == make_game([[0, Fraction(3, 4), 2]])

    @pytest.mark.parametrize(
        "entry",
        ["1/0", "-0/0", "1/ 2", "1/-2", "--1/2", "²/3", "9" * 5000 + "/7"],
        ids=["zero", "zero-zero", "space", "minus-den", "two-minus", "superscript", "digit-limit"],
    )
    def test_malformed_fraction_strings_rejected(self, entry):
        with pytest.raises(GameFormatError, match=r"^matrix\[1\]\[0\]: cannot parse rational"):
            make_game([["1/2", 3], [entry, 4]])

    def test_fraction_rows_built_on_first_read(self):
        # A game holds no Fraction rows; the file writer formats its reduced
        # integer pair the way those rows would print.
        g = make_game([["1/2", 3], [-1, "1/3"]])
        assert not hasattr(g, "matrix")
        assert fraction_rows(g) == ((Fraction(1, 2), 3), (-1, Fraction(1, 3)))
        assert game_to_dict(g)["matrix"] == [["1/2", 3], [-1, "1/3"]]

    def test_pipeline_builds_no_fraction_rows(self):
        g = random_game(np.random.default_rng(3), False, 4, 5)
        pg = build_graph(g)
        content_of(sink_component(pg), g)
        solve_nash(g, pg)
        assert set(vars(g)) == {
            "int_view", "int_scale", "symmetric", "row_labels", "col_labels", "float_view"
        }

    def test_float_view_rounds_once(self):
        # Past 2**53 numpy's I / scale rounds the numerator first: 3.843071682022823e+17.
        games = identity_corpus(41, 60) + [make_game([["1152921504606847012/3", 1]])]
        for g in games:
            expected = np.array([[float(v) for v in row] for row in fraction_rows(g)])
            assert g.float_view.tobytes() == expected.tobytes()
        assert games[-1].float_view[0, 0] == 3.843071682022824e17

    @pytest.mark.parametrize(
        "a, b",
        [
            ([["1/2"]], [["2/4"]]),
            ([[3, "-6/4"]], [["6/2", Fraction(-3, 2)]]),
            ([[2**70, "1/3"]], [["3541774862152233910272/3", "2/6"]]),
        ],
    )
    def test_equal_games_equal_hashes(self, a, b):
        assert make_game(a) == make_game(b)
        assert hash(make_game(a)) == hash(make_game(b))

    def test_stored_reduced(self):
        g = Game(np.array([[4, -6]]), 8, False, ("r",), ("a", "b"))
        assert (g.int_view.tolist(), g.int_scale) == ([[2, -3]], 4)
        assert g == make_game([["1/2", "-3/4"]], "non-symmetric", ["r"], ["a", "b"])
        big = Game(np.array([[2**62, 2]], dtype=object), 2, False, ("r",), ("a", "b"))
        assert big.int_view.dtype == np.int64 and big.int_scale == 1

    def test_symmetric_requires_anti_symmetry(self):
        with pytest.raises(GameFormatError):
            parse_game('{"mode": "symmetric", "matrix": [[0, 1], [1, 0]]}')

    def test_symmetric_zero_diagonal_implied(self):
        with pytest.raises(GameFormatError):
            make_game([[1, -1], [1, -1]], "symmetric")

    def test_float_entries_rejected(self):
        with pytest.raises(GameFormatError):
            parse_game('{"mode": "non-symmetric", "matrix": [[0.5]]}')

    def test_ragged_matrix_rejected(self):
        with pytest.raises(GameFormatError):
            parse_game('{"mode": "non-symmetric", "matrix": [[1, 2], [3]]}')

    def test_bad_mode_rejected(self):
        with pytest.raises(GameFormatError):
            parse_game('{"mode": "bimatrix", "matrix": [[1]]}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(GameFormatError):
            parse_game('{"mode": "non-symmetric", "matrix": [[1]], "extra": 1}')

    def test_invalid_json_rejected(self):
        with pytest.raises(GameFormatError):
            parse_game("{not json")

    def test_symmetric_single_label_list(self):
        with pytest.raises(GameFormatError):
            parse_game(
                '{"mode": "symmetric", "matrix": [[0, 1], [-1, 0]], '
                '"row_labels": ["a", "b"], "col_labels": ["x", "y"]}'
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GameFormatError):
            make_game([[1, 2]], "non-symmetric", ["r"], ["x", "x"])

    @pytest.mark.parametrize("mode", ["non-symmetric", "symmetric"])
    @pytest.mark.parametrize("labels", [5, "ab", {"a": 0, "b": 1}])
    def test_label_lists_must_be_lists(self, mode, labels):
        # A string would otherwise pass as one label per character.
        with pytest.raises(GameFormatError, match="row_labels must be a list"):
            make_game([[0, 1], [-1, 0]], mode, labels)
        if mode == "non-symmetric":
            with pytest.raises(GameFormatError, match="col_labels must be a list"):
                make_game([[0, 1], [-1, 0]], mode, ["a", "b"], labels)

    def test_label_tuples_accepted(self):
        g = make_game([[1, 2]], "non-symmetric", ("r",), ("x", "y"))
        assert g.row_labels == ("r",) and g.col_labels == ("x", "y")

    @pytest.mark.parametrize("labels", [5, "ab", {"a": 0, "b": 1}])
    def test_constructor_rejects_label_non_lists(self, labels):
        I = np.eye(2, dtype=np.int64)
        with pytest.raises(GameFormatError, match="row_labels must be a list"):
            Game(I, 1, False, labels, ("x", "y"))
        with pytest.raises(GameFormatError, match="col_labels must be a list"):
            Game(I, 1, False, ("a", "b"), labels)
        with pytest.raises(GameFormatError, match="labels must be non-empty strings"):
            Game(I, 1, False, ("a", 2), ("x", "y"))

    def test_constructor_stores_label_lists_as_tuples(self):
        g = Game(np.eye(2, dtype=np.int64), 1, False, ["a", "b"], ["x", "y"])
        assert g.row_labels == ("a", "b") and g.col_labels == ("x", "y")
        assert g == Game(np.eye(2, dtype=np.int64), 1, False, ("a", "b"), ("x", "y"))


class TestComparability:
    def test_one_comparable_is_player_one(self, mp):
        # (T,H) and (H,H) differ only in the row strategy.
        assert comparable(mp, (1, 0), (0, 0)) == 1

    def test_two_comparable_is_player_two(self, mp):
        assert comparable(mp, (0, 0), (0, 1)) == 2

    def test_equal_profiles_not_comparable(self, mp):
        assert comparable(mp, (0, 0), (0, 0)) is None

    def test_diagonal_pair_not_comparable(self, mp):
        assert comparable(mp, (0, 1), (1, 0)) is None

    def test_symmetric_all_distinct_pairs(self, rps):
        assert comparable(rps, 0, 2) == "all"
        assert comparable(rps, 1, 1) is None

    def test_foreign_profile_rejected(self, mp):
        with pytest.raises(ValueError):
            comparable(mp, (0, 0), (2, 0))


class TestWeight:
    def test_mp_row_deviation(self, mp):
        # W((T,H),(H,H)) = M[T][H] - M[H][H] = -1 - 1 = -2: moving to (H,H)
        # is better for the row player, so the arc will point there.
        assert weight(mp, (1, 0), (0, 0)) == Fraction(-2)

    def test_mp_column_deviation(self, mp):
        # 2-comparable pair flips the sign convention: W = M[q] - M[p].
        assert weight(mp, (0, 0), (0, 1)) == Fraction(-2)

    def test_rps_entry(self, rps):
        assert weight(rps, 2, 0) == Fraction(-1)

    def test_tied_payoffs_give_zero(self):
        g = make_game([[5, 5]], "non-symmetric")
        assert weight(g, (0, 0), (0, 1)) == 0

    def test_incomparable_raises(self, mp):
        with pytest.raises(IncomparableProfilesError):
            weight(mp, (0, 0), (1, 1))
        with pytest.raises(IncomparableProfilesError):
            weight(mp, (0, 0), (0, 0))

    @given(nonsym_games())
    def test_skew_symmetry(self, g):
        for p in g.profiles():
            for q in g.profiles():
                if comparable(g, p, q) is not None:
                    assert weight(g, p, q) == -weight(g, q, p)

    @given(sym_games())
    def test_skew_symmetry_symmetric_mode(self, g):
        for p in g.profiles():
            for q in g.profiles():
                if p != q:
                    assert weight(g, p, q) == -weight(g, q, p)


class TestMixedProfiles:
    def test_pure_profile_payoff(self, mp):
        assert sample(mp, mixed([1.0, 0.0], [1.0, 0.0])).payoff[0] == pytest.approx(1.0)

    def test_center_payoff_zero(self, mp):
        assert sample(mp, uniform_profile(mp)).payoff[0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_payoff_vanishes(self, rps):
        # x M x = 0 for anti-symmetric M, at any x.
        z = mixed([0.2, 0.5, 0.3])
        assert sample(rps, z).payoff[0] == pytest.approx(0.0, abs=1e-12)

    def test_product_mass(self, mp):
        z = mixed([0.5, 0.5], [1.0, 0.0])
        assert set_shares(mp, z, {(0, 0)})[0] == pytest.approx(0.5)
        assert set_shares(mp, z, {(0, 1)})[0] == 0.0

    def test_profile_masses_row_major(self, mp):
        z = mixed([0.9, 0.1], [0.2, 0.8])
        v = _profile_masses(mp, _stack([z]))[0]
        expected = [0.9 * 0.2, 0.9 * 0.8, 0.1 * 0.2, 0.1 * 0.8]
        assert np.allclose(v, expected)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_and_product_support(self):
        z = mixed([0.5, 0.5, 0.0], [0.0, 1.0])
        # Coordinates off the support stay exact zeros.
        support = [np.flatnonzero(v).tolist() for v in z.vectors]
        assert support == [[0, 1], [1]]
        assert set(itertools.product(*support)) == {(0, 1), (1, 1)}

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            mixed([1.5, -0.5])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            mixed([0.6, 0.6])

    def test_shape_mismatch_rejected(self, mp, rps):
        with pytest.raises(ValueError):
            sample(mp, mixed([1.0, 0.0]))
        with pytest.raises(ValueError):
            sample(rps, mixed([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]))


# Profiles foreign to matching pennies (mp) or rock-paper-scissors (rps).
FOREIGN = {
    "mp-out-of-range": ("mp", (2, 0)),
    "mp-wrong-arity": ("mp", (0,)),
    "mp-float": ("mp", (0.0, 1)),
    "mp-bool": ("mp", (True, 0)),
    "rps-out-of-range": ("rps", 3),
    "rps-wrong-arity": ("rps", (0, 1)),
    "rps-bool": ("rps", True),
    "rps-float": ("rps", 1.0),
}


class TestLayout:
    """Game owns the profile order, the node mask and the player blocks."""

    @pytest.mark.parametrize("use", ["node_mask", "content_of"])
    @pytest.mark.parametrize("case", FOREIGN.values(), ids=FOREIGN.keys())
    def test_foreign_profile_rejected_everywhere(self, request, case, use):
        # Next to the whole sink, where a set would merge True into 1 and
        # 1.0 into 1, so each entry point must check the profiles as given.
        g = request.getfixturevalue(case[0])
        H = [*sink_component(build_graph(g)), case[1]]
        calls = {
            "node_mask": lambda: g.node_mask(H),
            "content_of": lambda: content_of(H, g),
        }
        with pytest.raises(ValueError, match="is not a profile of this game"):
            calls[use]()

    def test_sized_corpus_at_the_default_sizes_is_game_corpus(self):
        # The tests draw their larger fuzz corpora from the same stream.
        a, b = np.random.default_rng(14), np.random.default_rng(14)
        assert sized_corpus(a, 60, 5, 5, 7) == game_corpus(b, 60)
        assert a.random() == b.random()

    def test_masks_starts_and_csv_follow_the_layout(self, tmp_path):
        rng = np.random.default_rng(13)
        for g in game_corpus(rng, 40):
            sizes = [len(b) for b in g.blocks]
            assert sizes == ([g.n] if g.symmetric else [g.n, g.m])
            profiles = g.profiles()
            for p in profiles:
                mask = g.node_mask([p])
                assert mask.shape == (len(profiles),)
                assert np.flatnonzero(mask).tolist() == [profiles.index(p)]
            # One weight group per block; any other count is refused.
            spec = ";".join(",".join(["1"] + ["0"] * (k - 1)) for k in sizes)
            z = _parse_start(spec, g, 0)
            assert [v.size for v in z.vectors] == sizes
            with pytest.raises(ValueError, match="weight group"):
                _parse_start(spec + ";1", g, 0)
            assert set_shares(g, z, profiles) == (1.0, 0.0)
            path = tmp_path / "run.csv"
            write_trajectory_csv(sample(g, z), g, str(path))
            header = path.read_text().splitlines()[0].split(",")
            assert len(header) == 1 + sum(sizes) + 3
