"""Symmetrised game construction and its weight identities."""

import importlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zsflow.verify
from zsflow import (
    GameFormatError,
    build_graph,
    check_weight_identity,
    make_game,
    parse_game,
    game_to_json,
    random_game,
    sink_component,
    symmetrise,
)
from zsflow.verify import verify_symmetrisation

from graph_oracle import comparable, fraction_rows, weight
from symmetrise_oracle import (
    identity_corpus,
    oracle_symmetrise,
    oracle_weight_identity,
)

# The package re-exports the function under the module's name.
symmetrise_module = importlib.import_module("zsflow.symmetrise")


@st.composite
def small_nonsym(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    entries = draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    return make_game(entries, "non-symmetric")


def test_mp_values(mp):
    S = fraction_rows(symmetrise(mp))
    # incomparable diagonal pair (H,H) vs (T,T): M[H][T] - M[T][H] = -1 - (-1)
    assert S[0][3] == 0
    # comparable pair (H,H) vs (H,T) agrees with the weight function
    assert S[0][1] == Fraction(-2)
    assert S[0][0] == 0


def test_row_major_indexing(mp):
    # Strategy k is profile (k // m, k % m): (0, 0), (0, 1), (1, 0), (1, 1).
    sg = symmetrise(mp)
    assert sg.row_labels == ("H,H", "H,T", "T,H", "T,T")


def test_symmetric_input_rejected(rps):
    with pytest.raises(GameFormatError):
        symmetrise(rps)


@given(small_nonsym())
@settings(max_examples=40, deadline=None)
def test_anti_symmetry(g):
    S = fraction_rows(symmetrise(g))
    size = len(S)
    for a in range(size):
        for b in range(size):
            assert S[a][b] == -S[b][a]


@given(small_nonsym())
@settings(max_examples=25, deadline=None)
def test_restriction_to_comparable_pairs(g):
    S = fraction_rows(symmetrise(g))
    order = g.profiles()
    for a, p in enumerate(order):
        for b, q in enumerate(order):
            if comparable(g, p, q) in (1, 2):
                assert S[a][b] == weight(g, p, q)


def test_weight_identity_mp(mp):
    report = check_weight_identity(mp)
    assert report.pairs_checked == 16
    assert report.ok


def test_weight_identity_rectangular():
    rng = np.random.default_rng(13)
    g = random_game(rng, False, 3, 4)
    report = check_weight_identity(g)
    assert report.pairs_checked == 144
    assert report.ok


def test_weight_identity_fuzz():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        assert check_weight_identity(random_game(rng, False, n, m)).ok


def test_as_game_round_trip(mp):
    g2 = symmetrise(mp)
    assert g2.symmetric
    assert g2.row_labels == ("H,H", "H,T", "T,H", "T,T")
    again = parse_game(game_to_json(g2))
    assert again == g2
    # the symmetrised game is a valid input for the whole pipeline
    sink = sink_component(build_graph(again))
    assert sink  # non-empty; contents checked elsewhere


@pytest.mark.parametrize(
    "entries, scale",
    [
        ([["1/2", "1/2"], ["1/2", "1/2"]], 1),
        ([["1/2", "3/2"], ["5/2", "-1/4"]], 4),
        ([[2**62, "1/3"], ["-5/2", 1]], 6),
    ],
)
def test_as_game_reduced_round_trip(entries, scale):
    # The symmetrised entries of the first base are all 0, which a scale of 2
    # would hold as well; the stored game must be the reduced one the file gives.
    # The last base's entries pass 2**62, so they are written from Python ints.
    g2 = symmetrise(make_game(entries))
    assert g2.int_scale == scale
    again = parse_game(game_to_json(g2))
    assert again == g2 and hash(again) == hash(g2)


class TestAgainstOracle:
    """The integer-array symmetrisation and weight-identity check against the
    per-pair Fraction constructions."""

    def test_seeded_corpus(self):
        games = identity_corpus(31, 200)
        for g in games:
            assert fraction_rows(symmetrise(g)) == oracle_symmetrise(g)
            report = check_weight_identity(g)
            assert (report.pairs_checked, report.violations) == oracle_weight_identity(g)
            assert report.ok
        # Both integer paths of the check and both of the view are covered.
        peaks = [max(abs(v) for row in g.int_view.tolist() for v in row) for g in games]
        assert any(2**61 <= p < 2**62 for p in peaks)
        assert any(p >= 2**62 for p in peaks) and any(p < 2**61 for p in peaks)
        assert {g.n for g in games if g.m == 1} >= {1, 2} and any(g.n == 1 < g.m for g in games)

    def test_corrupted_matrix_violations(self, monkeypatch):
        rng = np.random.default_rng(32)
        found = 0
        for g in identity_corpus(33, 70):
            size = symmetrise(g).n
            ints = symmetrise_module._pair_differences(g.int_view).astype(object)
            bad = oracle_symmetrise(g)
            bad = [list(row) for row in bad]
            for _ in range(int(rng.integers(1, 4))):
                a, b = (int(v) for v in rng.integers(size, size=2))
                delta = [1, -1, 2**63, -(2**64)][int(rng.integers(4))]
                ints[a, b] += delta
                bad[a][b] += Fraction(delta, g.int_scale)
            monkeypatch.setattr(symmetrise_module, "_pair_differences", lambda _M: ints)
            report = check_weight_identity(g)
            monkeypatch.undo()
            expected = oracle_weight_identity(g, bad)
            assert (report.pairs_checked, report.violations) == expected
            found += len(expected[1])
        assert found > 0

    @pytest.mark.parametrize(
        "shift, message",
        [
            ({(0, -1): 1}, "symmetrised matrix is not anti-symmetric"),
            ({(0, -1): 1, (-1, 0): -1}, "weight identity violated on 2 pairs"),
        ],
    )
    def test_verify_reports_corruption(self, monkeypatch, shift, message):
        real = symmetrise_module._pair_differences

        def shifted(M):
            ints = real(M)
            for (a, b), delta in shift.items():
                ints[a, b] += delta
            return ints

        # verify_symmetrisation builds the matrix once, by its own import.
        monkeypatch.setattr(zsflow.verify, "_pair_differences", shifted)
        report = verify_symmetrisation(10, 5)
        assert report["failures"] == [message]
        game = report["counterexample"]["game"]
        assert len(game["matrix"]) * len(game["matrix"][0]) > 1
