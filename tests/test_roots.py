import itertools
import time

import numpy as np
import pytest

from qflag.errors import InvalidRank, OddDimension, UnsupportedWeightCount
from qflag.roots import (BAR, embed_check, euler_characteristic, generate,
                         parse_label, particle_label, projection)


def brute_force_roots(n):
    """Enumeration oracle: all +/- L_i +/- L_j with i <= j, deduplicated."""
    out = set()
    for i, j in itertools.product(range(n), repeat=2):
        if i > j:
            continue
        for si, sj in itertools.product((1, -1), repeat=2):
            vec = [0] * n
            vec[i] += si
            vec[j] += sj
            if any(vec):
                out.add(tuple(vec))
    return out


def test_counts():
    assert len(generate(1).roots) == 2
    assert len(generate(2).roots) == 8
    assert len(generate(3).roots) == 18
    for n in range(1, 7):
        system = generate(n)
        assert len(system.roots) == 2 * n * n
        assert len(set(system.roots)) == len(system.roots)
        assert set(system.roots) == brute_force_roots(n)


def test_negation_closure():
    for n in range(1, 7):
        system = generate(n)
        for root in system.roots:
            assert tuple(-c for c in root) in system


def test_membership_agrees_with_a_scan_of_the_roots():
    for n in range(1, 9):
        system = generate(n)
        vectors = [v for r in system.roots for v in (r, tuple(-c for c in r))]
        for vec in vectors + [(0,) * n, (1,) * n]:
            assert (vec in system) == any(vec == r for r in system.roots)


def test_membership_is_linear_in_the_tests():
    system = generate(64)
    start = time.perf_counter()
    # the 8,192 tests of verify's negation-closure check
    assert all(tuple(-c for c in r) in system for r in system.roots)
    assert time.perf_counter() - start < 1.0


def test_long_and_short_roots_present():
    system = generate(3)
    assert (2, 0, 0) in system
    assert (1, -1, 0) in system
    assert (1, 1, 1) not in system
    assert (1, 0, 0) not in system


def test_rank_gate():
    with pytest.raises(InvalidRank):
        generate(0)
    with pytest.raises(InvalidRank):
        embed_check(2, 2)


def test_rank_is_read_as_an_integer_type():
    # a numpy integer is a rank, and the system holds a Python int
    system = generate(np.int64(2))
    assert system == generate(2) and type(system.n) is int
    assert parse_label("u", n=np.int64(4)) == parse_label("u")
    # a bool is not, nor is a float, and embed_check gates both ranks first
    for call in (lambda: generate(True), lambda: generate(2.0),
                 lambda: embed_check(1.5, 3), lambda: embed_check(1, 3.0)):
        with pytest.raises(InvalidRank, match="rank must be a positive "
                                              "integer"):
            call()


def test_embedding():
    assert embed_check(1, 2)
    assert embed_check(2, 3)
    assert embed_check(3, 6)


def test_euler_characteristic():
    assert euler_characteristic(4) == 2
    assert euler_characteristic(12) == 2
    assert euler_characteristic(2) == 2
    with pytest.raises(OddDimension):
        euler_characteristic(3)
    with pytest.raises(OddDimension):
        euler_characteristic(0)


def test_lepton_label():
    for sign in (2, -2):
        lab = particle_label([((sign, 0, 0, 0), None)])
        assert lab.classification == "lepton"
    assert particle_label([((2, 0, 0, 0), None)]).label == "uu"


def test_meson_labels_verbatim():
    lab = particle_label([((1, 0, 0, 0), None), ((0, 1, 0, 0), None)])
    assert lab.label == "ud"
    assert lab.classification == "meson"
    lab = particle_label([((-1, 0, 0, 0), None), ((0, 1, 0, 0), None)])
    assert lab.label == "u" + BAR + "d"
    assert lab.classification == "meson"


def test_baryon_label_with_colors():
    lab = particle_label([((1, 0, 0, 0), "i"), ((1, 0, 0, 0), "j"),
                          ((0, 1, 0, 0), "k")])
    assert lab.label == "uud"
    assert lab.classification == "baryon"
    assert tuple(tag for _, tag in lab.terms) == ("i", "j", "k")


def test_label_round_trip():
    cases = [
        [((2, 0, 0, 0), None)],
        [((1, 0, 0, 0), None), ((0, 1, 0, 0), None)],
        [((-1, 0, 0, 0), None), ((0, 1, 0, 0), None)],
        [((1, 0, 0, 0), "i"), ((1, 0, 0, 0), "j"), ((0, 1, 0, 0), "k")],
        [((0, 0, -1, 0), "i"), ((0, 0, 0, 1), None)],
    ]
    for weights in cases:
        lab = particle_label(weights)
        parsed = parse_label(lab.canonical())
        assert parsed == lab
        assert sorted(parsed.terms) == sorted(lab.terms)


def test_generic_names_beyond_four():
    lab = particle_label([((0, 0, 0, 0, 1), None)])
    assert lab.label == "q5"
    assert parse_label(lab.canonical(), n=5) == lab
    # q10, a barred q12 and a tagged u at rank 12
    vec = [0] * 12
    vec[9], vec[11] = 1, -1
    lab = particle_label([(vec, None), ((1,) + (0,) * 11, "i")])
    assert lab.canonical() == "q10q12" + BAR + " u@i"
    assert parse_label(lab.canonical(), n=12) == lab
    # the longest name wins: at rank 123, q123 is one symbol, not q12 then 3
    assert parse_label("q123", n=123).terms == (((0,) * 122 + (1,), None),)


@pytest.mark.parametrize("text, n, rest", [
    ("ux", 4, "x"),
    ("q5", 4, "q5"),
    ("q50", 10, "0"),
])
def test_parse_label_refuses_an_unknown_symbol(text, n, rest):
    with pytest.raises(UnsupportedWeightCount) as err:
        parse_label(text, n=n)
    assert str(err.value) == f"unparseable symbol at {rest!r}"


@pytest.mark.parametrize("text, n, error, message", [
    pytest.param("@i", -1, InvalidRank,
                 "rank must be a positive integer, got -1", id="@i--1"),
    pytest.param("u", 0, InvalidRank,
                 "rank must be a positive integer, got 0", id="u-0"),
    pytest.param("@k", 4, UnsupportedWeightCount, "term '@k' has no symbol",
                 id="@k-4"),
    pytest.param("u @k", 4, UnsupportedWeightCount, "term '@k' has no symbol",
                 id="u @k-4"),
])
def test_parse_label_refuses_a_bad_rank_or_an_empty_term(text, n, error,
                                                          message):
    with pytest.raises(error) as err:
        parse_label(text, n=n)
    assert str(err.value) == message


def test_weight_count_gate():
    with pytest.raises(UnsupportedWeightCount):
        particle_label([])
    with pytest.raises(UnsupportedWeightCount):
        particle_label([((1, 0, 0, 0), None)] * 4)
    with pytest.raises(UnsupportedWeightCount):
        particle_label([((1, 0, 0, 0), "m")])


def test_projection():
    system = generate(3)
    coords = projection(system, 2)
    assert len(coords) == 18
    # the long roots project onto the axes
    assert (2, 0) in coords and (-2, 0) in coords
    assert (0, 2) in coords and (0, -2) in coords
    system1 = generate(1)
    coords1 = projection(system1, 2)
    assert set(coords1) == {(2, 0), (-2, 0)}
    with pytest.raises(InvalidRank):
        projection(system, 4)
