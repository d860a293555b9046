import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import derivative, from_tuples
from qflag import liealg
from qflag.errors import IndexOutOfRange, NotEigenvector, SecondOrderResidue
from qflag.liealg import (DiffOperator, PolyFunction, cartan_H,
                          cartan_h, commutator, eigenvalue_of, gen_H, gen_h,
                          gen_p, gen_p_via_H, gen_p_via_h, gen_pbar,
                          jval, kappa, ladder_check, laplace_beltrami,
                          linear_part, mate, verify_commutation_table, Jh,
                          JH)

Z = PolyFunction.z
ZB = PolyFunction.zbar
GENERATORS = {"h": gen_h, "H": gen_H, "p": gen_p, "pbar": gen_pbar}


def monomials_up_to_degree(k: int, n: int, max_degree: int):
    """All monomials in the 2k x 2(n-k) entries up to the given total degree:
    the test basis on which operator identities are compared."""
    variables = [(r, c) for r in range(2 * k) for c in range(2 * (n - k))]
    out = [PolyFunction.constant(1)]
    for deg in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(variables, deg):
            powers = {}
            for var in combo:
                powers[var] = powers.get(var, 0) + 1
            out.append(PolyFunction({PolyFunction.monomial(powers.items()): 1}))
    return out


# -- exact arithmetic ----------------------------------------------------------

def test_polynomial_ring():
    f = Z(0, 0) * Z(0, 0) + PolyFunction.constant(2)
    g = Z(0, 0) - PolyFunction.constant(1)
    z = Z(0, 0)
    assert f * g == z * z * z - z * z + z * 2 - PolyFunction.constant(2)
    assert f.diff((0, 0)) == Z(0, 0) * 2
    assert f.diff((1, 1)).is_zero()
    assert (f - f).is_zero()
    # an int and the equal Fraction are one coefficient
    two = PolyFunction.constant(2)
    assert two == PolyFunction.constant(Fraction(4, 2))
    assert hash(two) == hash(PolyFunction.constant(Fraction(2)))
    assert {two: "two"}[PolyFunction.constant(Fraction(4, 2))] == "two"
    assert repr(two) == repr(PolyFunction.constant(Fraction(2))) == "2"
    assert PolyFunction({PolyFunction.monomial(()): Fraction(0)}).is_zero()


def test_zbar_canonicalisation():
    # zbar is a signed alias of the block-mate entry
    assert ZB(0, 0) == Z(1, 1)          # kappa(0)^2 = +1
    assert ZB(0, 1) == -Z(1, 0)
    assert ZB(1, 0) == -Z(0, 1)
    assert ZB(1, 1) == Z(0, 0)
    # conjugation is an involution, on coefficients as on operators
    f = DiffOperator.multiplication(Z(0, 0) * Z(1, 1) + Z(0, 1) * 3)
    assert f.conjugate() != f
    assert f.conjugate().conjugate() == f


def test_derivative_rules():
    # d z = delta, dbar z = J-pattern constants
    assert derivative(0, 0).apply(Z(0, 0)) == PolyFunction.constant(1)
    assert derivative(0, 0).apply(Z(0, 1)).is_zero()
    got = DiffOperator.dbar(0, 0).apply(Z(1, 1))
    assert got == PolyFunction.constant(kappa(0) * kappa(0))
    assert DiffOperator.dbar(0, 0).apply(ZB(0, 0)) == PolyFunction.constant(1)
    assert DiffOperator.dbar(0, 1).apply(ZB(0, 0)).is_zero()


def test_mate_kappa_jval():
    assert [mate(i) for i in range(4)] == [1, 0, 3, 2]
    assert [kappa(i) for i in range(4)] == [-1, 1, -1, 1]
    assert jval(0, 1) == 1 and jval(1, 0) == -1 and jval(0, 0) == 0
    assert jval(2, 3) == 1 and jval(3, 2) == -1 and jval(0, 2) == 0


# -- operator engine -------------------------------------------------------------

def test_apply_euler_operator():
    zd = DiffOperator.multiplication(Z(0, 0)).compose(derivative(0, 0))
    f = Z(0, 0) * Z(0, 0)
    assert zd.apply(f) == f * 2


def test_apply_distributes_over_sums():
    op = gen_h(0, 1, 1, 2)
    f = Z(0, 0) * Z(1, 1)
    g = Z(0, 1) * 2 + PolyFunction.constant(3)
    assert op.apply(f + g) == op.apply(f) + op.apply(g)


def test_apply_to_a_polynomial_of_another_class_raises_type_error():
    from qflag.emfield import RealPoly
    with pytest.raises(TypeError):
        DiffOperator.multiplication(PolyFunction.constant(2)).apply(
            RealPoly.x(0))


def test_commutator_with_self_vanishes():
    op = gen_p(0, 0, 1, 2)
    assert commutator(op, op).is_zero()


def test_commutator_second_order_cancellation():
    # products of first-order operators contain second-order pieces; the
    # commutator removes them structurally
    a = DiffOperator.multiplication(Z(0, 0)).compose(derivative(1, 1))
    b = DiffOperator.multiplication(Z(1, 0)).compose(derivative(0, 1))
    assert a.compose(b).order() == 2
    assert commutator(a, b).order() <= 1


def test_composition_leibniz_on_repeated_symbols():
    dd = derivative(0, 0).compose(derivative(0, 0))
    f = Z(0, 0) * Z(0, 0) * Z(0, 0)
    assert dd.apply(f) == Z(0, 0) * 6


def _random_operator(rng, variables, integer):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = {}
        for var in rng.choices(variables, k=rng.randint(0, 2)):
            mono[var] = mono.get(var, 0) + 1
        word = tuple(sorted(rng.choices(variables, k=rng.randint(0, 2))))
        if integer:
            c = rng.randint(-3, 3)
        else:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        terms[tuple(sorted(mono.items())), word] = c
    return from_tuples(DiffOperator, terms)


def _shared_operator():
    """Powers 0 to 3, repeated symbols in monomial and word, and Fraction
    coefficients, at (k, n) = (1, 2)."""
    s, t = (0, 0), (1, 1)
    return from_tuples(DiffOperator, {((), (s,)): Fraction(1, 3),
                                      (((s, 1),), (s, s)): -2,
                                      (((s, 2), (t, 1)), (t,)): Fraction(-5, 2),
                                      (((s, 3),), (s, t)): 4,
                                      ((((0, 1), 1), (t, 3)), ()): Fraction(7, 4)})


def test_compose_agrees_with_successive_application():
    # the right side never calls compose: B then A, each through apply
    rng = random.Random(5)
    k, n = 1, 2
    variables = [(r, c) for r in range(2 * k) for c in range(2 * (n - k))]
    basis = monomials_up_to_degree(k, n, 3)
    lefts = []
    for trial in range(24):
        a = _random_operator(rng, variables, integer=trial % 2 == 0)
        b = _random_operator(rng, variables, integer=trial % 3 == 0)
        ab = a.compose(b)
        assert ab.order() <= a.order() + b.order()
        for f in basis:
            assert ab.apply(f) == a.apply(b.apply(f)), (trial, f)
        lefts.append(a)
    # one operator is the right factor of every product below and both
    # factors of the first; whatever it keeps from one product must serve
    # the next, so each product must also equal one of fresh copies taken
    # in the reverse order
    shared = _shared_operator()
    lefts.insert(0, shared)
    products = [a.compose(shared) for a in lefts]
    for a, ab in zip(lefts, products):
        for f in monomials_up_to_degree(k, n, 4):
            assert ab.apply(f) == a.apply(shared.apply(f)), (a, f)
    for a, ab in reversed(list(zip(lefts, products))):
        fresh = DiffOperator(dict(shared.terms))
        assert DiffOperator(dict(a.terms)).compose(fresh) == ab


def test_commutator_equals_difference_of_compositions():
    # the commutator builds only the Leibniz cross terms; the difference of
    # the two full products, juxtaposition terms included, must agree
    rng = random.Random(11)
    variables = [(r, c) for r in range(2) for c in range(2)]
    orders = set()
    for trial in range(40):
        a = _random_operator(rng, variables, integer=trial % 2 == 0)
        b = _random_operator(rng, variables, integer=trial % 3 == 0)
        orders.add((a.order(), b.order()))
        assert commutator(a, b) == a.compose(b) - b.compose(a), trial
    assert {0, 1, 2} <= {o for pair in orders for o in pair}
    gens = ([GENERATORS[kind](*ij, 1, 2) for kind in ("h", "H")
             for ij in itertools.product(range(2), repeat=2)]
            + [GENERATORS[kind](*ia, 1, 2) for kind in ("p", "pbar")
               for ia in itertools.product(range(2), range(2))])
    for a, b in itertools.product(gens, repeat=2):
        assert commutator(a, b) == a.compose(b) - b.compose(a)
    # one operator on both sides of many commutators, and of one with
    # itself: each against successive application and against fresh copies
    shared = _shared_operator()
    basis = monomials_up_to_degree(1, 2, 4)
    assert commutator(shared, shared).is_zero()
    for a in gens[:6] + [_random_operator(rng, variables, integer=False)
                         for _ in range(6)]:
        fresh = DiffOperator(dict(shared.terms))
        ab, ba = commutator(a, shared), commutator(shared, a)
        assert ba == -ab and ab == commutator(a, fresh)
        assert ab == a.compose(fresh) - fresh.compose(a)
        for f in basis:
            assert ab.apply(f) == a.apply(shared.apply(f)) - shared.apply(
                a.apply(f)), (a, f)


def test_commutator_refuses_second_order_residue(monkeypatch):
    # a cross-term kernel that leaked one second-order term: first-order
    # inputs must raise rather than return it, higher-order inputs may not
    real = liealg._leibniz_cross

    def leaky(left, right, sign, out):
        real(left, right, sign, out)
        if sign > 0:
            out[DiffOperator.key(word=((0, 0), (1, 1)))] = 1

    monkeypatch.setattr(liealg, "_leibniz_cross", leaky)
    with pytest.raises(SecondOrderResidue):
        commutator(gen_h(0, 1, 1, 2), gen_H(1, 0, 1, 2))
    dd = from_tuples(DiffOperator, {((), ((0, 0), (0, 1))): 1})
    assert commutator(dd, gen_h(0, 0, 1, 2)).order() == 2


def _compose_by_position(left: dict, right: dict) -> dict:
    """left o right on tuple-form terms {(powers, word): c}, expanded over
    the subsets of each left word by position, so that a repeated symbol is
    hit once per copy: the expansion the sub-multiset enumeration replaces."""
    out = {}
    for (m1, w1), c1 in left.items():
        for (m2, w2), c2 in right.items():
            for mask in itertools.product((False, True), repeat=len(w1)):
                powers, factor = dict(m2), c1 * c2
                for sym, hit in zip(w1, mask):
                    if hit:
                        factor *= powers.get(sym, 0)
                        powers[sym] = powers.get(sym, 0) - 1
                if not factor:
                    continue
                for sym, p in m1:
                    powers[sym] = powers.get(sym, 0) + p
                mono = tuple(sorted((sym, p) for sym, p in powers.items() if p))
                word = tuple(sorted([sym for sym, hit in zip(w1, mask)
                                     if not hit] + list(w2)))
                out[mono, word] = out.get((mono, word), 0) + factor
    return out


def test_compose_repeated_symbol_in_both_words():
    # z^2 d d composed with z^3 d: the Leibniz expansion hits z^3 twice,
    # d d (z^3 d) = z^3 d^3 + 6 z^2 d^2 + 6 z d, weighted by -3 * 1/2
    s, t = (0, 0), (1, 1)
    a = from_tuples(DiffOperator, {(((s, 2),), (s, s)): -3})
    b = from_tuples(DiffOperator, {(((s, 3),), (s,)): Fraction(1, 2)})
    want = from_tuples(DiffOperator, {(((s, 5),), (s, s, s)): Fraction(-3, 2),
                                      (((s, 4),), (s, s)): -9,
                                      (((s, 3),), (s,)): -9})
    assert a.compose(b) == want
    for f in monomials_up_to_degree(1, 2, 3):
        assert want.apply(f) == a.apply(b.apply(f))
    # the sub-multiset enumeration, with binomial weights, equals the
    # expansion over subsets by position, for first- and second-order
    # operands whose words and monomials repeat symbols
    operands = [
        {((), (s,)): 2, (((s, 1), (t, 2)), (t,)): Fraction(-1, 3)},
        {(((s, 2),), (s, s)): -3, (((t, 1),), (s, t)): 5, ((), ()): 7},
        {(((s, 3), (t, 1)), (s, t)): Fraction(1, 2), (((t, 2),), (t, t)): 1},
        {(((s, 1), (t, 1)), (s, s)): 4, (((s, 2), (t, 3)), (s, t)): -1,
         (((s, 3),), (s,)): Fraction(2, 5)},
    ]
    for left, right in itertools.product(operands, repeat=2):
        want = from_tuples(DiffOperator, _compose_by_position(left, right))
        a, b = from_tuples(DiffOperator, left), from_tuples(DiffOperator, right)
        assert a.compose(b) == want, (left, right)
        assert commutator(a, b) == want - from_tuples(
            DiffOperator, _compose_by_position(right, left)), (left, right)
    assert {DiffOperator.order(from_tuples(DiffOperator, o))
            for o in operands} == {1, 2}


@pytest.mark.parametrize("word", [((0, 0),), ((0, 0), (0, 0)),
                                  ((0, 0), (1, 1))])
@pytest.mark.parametrize("power", [0, 1, 2])
def test_compose_hit_symbol_absent_once_or_squared(word, power):
    # the left word hits z[0,0], which the right monomial holds 0, 1 or 2
    # times; compose must match B then A through apply
    s, t = (0, 0), (1, 1)
    mono = (((s, power),) if power else ()) + ((t, 1),)
    a = from_tuples(DiffOperator, {((((1, 0), 1),), word): -2})
    b = from_tuples(DiffOperator, {(mono, ((0, 1),)): Fraction(1, 3)})
    ab = a.compose(b)
    for f in monomials_up_to_degree(1, 2, 3):
        assert ab.apply(f) == a.apply(b.apply(f)), f


@pytest.mark.parametrize("c", [1 << 12, 1 << 13])
def test_high_power_builds_only_the_hits_a_right_monomial_holds(
        monkeypatch, c):
    # d^c (z f) = z d^c f + c d^(c-1) f: z takes at most one derivative, so
    # z's cross terms against the word d^c walk h = 0 and 1, two binomials,
    # not the c + 1 of every sub-multiset of d^c
    s = (0, 0)
    calls = []

    def counted(n, k, _comb=math.comb):
        calls.append((n, k))
        return _comb(n, k)

    monkeypatch.setattr(math, "comb", counted)
    dc = from_tuples(DiffOperator, {((), (s,) * c): 1})
    z = DiffOperator.multiplication(PolyFunction.z(*s))
    want = from_tuples(DiffOperator, {(((s, 1),), (s,) * c): 1,
                                      ((), (s,) * (c - 1)): c})
    assert dc.compose(z) == want
    assert calls == [(c, 0), (c, 1)]
    # z^3 takes up to three: d^c (z^3 f) = z^3 d^c f + 3c z^2 d^(c-1) f
    # + 3c(c-1) z d^(c-2) f + c(c-1)(c-2) d^(c-3) f, from z^3's own table
    calls.clear()
    z3 = DiffOperator.multiplication(PolyFunction.z(*s) * PolyFunction.z(*s)
                                     * PolyFunction.z(*s))
    want3 = from_tuples(DiffOperator, {
        (((s, 3),), (s,) * c): 1, (((s, 2),), (s,) * (c - 1)): 3 * c,
        (((s, 1),), (s,) * (c - 2)): 3 * c * (c - 1),
        ((), (s,) * (c - 3)): c * (c - 1) * (c - 2)})
    assert dc.compose(z3) == want3
    assert calls == [(c, h) for h in range(4)]
    # each right operator keeps its entry for d^c, and d^c's entry for the
    # empty word of z is empty: nothing is built again
    calls.clear()
    assert dc.compose(z) == want and dc.compose(z3) == want3
    assert commutator(dc, z) == want - z.compose(dc) and calls == []
    # mirrored: d (z^c f) = z^c d f + c z^(c-1) f, where the word d hits the
    # power c at most once
    d = derivative(*s)
    zc = from_tuples(DiffOperator, {(((s, c),), ()): 1})
    assert d.compose(zc) == from_tuples(DiffOperator, {
        (((s, c),), (s,)): 1, (((s, c - 1),), ()): c})
    assert calls == [(1, 0), (1, 1)]


def test_cross_terms_are_built_once_per_right_operator_and_left_word(
        monkeypatch):
    # a table rebuilt on every product gives the same operators, only
    # slower; the commutation table and the Laplace-Beltrami composite
    # make each operator the right factor of many products with shared
    # left words.  Every right operator is held, so no id is reused.
    calls, held = [], []
    real = DiffOperator._cross_terms

    def counted(self, word):
        calls.append((id(self), word))
        held.append(self)
        return real(self, word)

    monkeypatch.setattr(DiffOperator, "_cross_terms", counted)
    assert verify_commutation_table(1, 3)["all_passed"]
    assert calls and len(set(calls)) == len(calls)
    calls.clear()
    lap = laplace_beltrami(1, 2)
    for kind, gen in GENERATORS.items():
        for ij in itertools.product(range(2), repeat=2):
            assert commutator(lap, gen(*ij, 1, 2)).is_zero(), (kind, ij)
    assert calls and len(set(calls)) == len(calls)


def test_difference_and_zero_scaling():
    a, b = gen_p(0, 1, 1, 2), gen_H(1, 0, 1, 2)
    assert a - b == a + (-b)
    assert (a - a).is_zero()
    assert a.scaled(0).is_zero() and a.scaled(0) == DiffOperator()
    assert a.scaled(-1) == -a
    # an int and the equal Fraction scale alike
    d = derivative(0, 0)
    assert d.scaled(Fraction(1)) == d and hash(d.scaled(Fraction(1))) == hash(d)
    assert d.scaled(Fraction(1, 2)) != d


def test_generator_index_gates():
    with pytest.raises(IndexOutOfRange):
        gen_h(2, 0, 1, 2)
    with pytest.raises(IndexOutOfRange):
        gen_H(0, 4, 1, 2)
    with pytest.raises(IndexOutOfRange):
        gen_p(0, 5, 1, 2)


@pytest.mark.parametrize("form", [gen_p, gen_p_via_H, gen_p_via_h])
@pytest.mark.parametrize("alpha, a", [(7, 0), (0, 9), (-1, 0), (0, -1)])
def test_every_form_of_p_gates_its_row_and_column(form, alpha, a):
    with pytest.raises(IndexOutOfRange):
        form(alpha, a, 1, 2)


def test_h_applied_to_constant_and_variable():
    assert gen_h(0, 1, 1, 2).apply(PolyFunction.constant(1)).is_zero()
    # hand-computed smallest case: h_{01} z_{1b} = z_{0b} + (J correction)
    got = gen_h(0, 1, 1, 2).apply(Z(1, 0))
    # first piece z_{0b} d_{1b} gives z_{00}; the zbar dbar piece acts too
    direct = Z(0, 0)
    extra = (DiffOperator.multiplication(ZB(1, 0)).compose(
        DiffOperator.dbar(0, 0)).apply(Z(1, 0))
        + DiffOperator.multiplication(ZB(1, 1)).compose(
            DiffOperator.dbar(0, 1)).apply(Z(1, 0)))
    assert got == direct - extra


def test_generator_skewness():
    for al, be in itertools.product(range(2), repeat=2):
        assert gen_h(al, be, 1, 2).conjugate() == -gen_h(be, al, 1, 2)
        assert gen_H(al, be, 1, 2).conjugate() == -gen_H(be, al, 1, 2)


def test_pbar_is_conjugate_of_p():
    for al, a in itertools.product(range(2), repeat=2):
        assert gen_pbar(al, a, 1, 2) == gen_p(al, a, 1, 2).conjugate()
        assert gen_pbar(al, a, 1, 2).conjugate() == gen_p(al, a, 1, 2)


def test_p_three_displayed_forms_agree():
    for k, n in ((1, 2), (1, 3)):
        for al in range(2 * k):
            for a in range(2 * (n - k)):
                p = gen_p(al, a, k, n)
                assert p == gen_p_via_H(al, a, k, n)
                assert p == gen_p_via_h(al, a, k, n)


def test_p_linear_part_is_dbar():
    for al, a in itertools.product(range(2), repeat=2):
        assert linear_part(gen_p(al, a, 1, 2)) == DiffOperator.dbar(al, a)


def _composed_generators(k: int, n: int):
    """Every h, H, p and pbar at (k, n), each summed from products
    multiplication(coefficient) o derivative, as the displayed forms read."""
    K, A = 2 * k, 2 * (n - k)

    def term(coeff, d):
        return DiffOperator.multiplication(coeff).compose(d)

    out = {}
    for al, be in itertools.product(range(K), repeat=2):
        op = DiffOperator()
        for b in range(A):
            op = op + term(Z(al, b), derivative(be, b))
            op = op - term(ZB(be, b), DiffOperator.dbar(al, b))
        out["h", al, be] = op
    for a, b in itertools.product(range(A), repeat=2):
        op = DiffOperator()
        for mu in range(K):
            op = op + term(Z(mu, a), derivative(mu, b))
            op = op - term(ZB(mu, b), DiffOperator.dbar(mu, a))
        out["H", a, b] = op
    for al, a in itertools.product(range(K), range(A)):
        op = DiffOperator.dbar(al, a)
        for b, mu in itertools.product(range(A), range(K)):
            op = op + term(Z(al, b) * Z(mu, a), derivative(mu, b))
        out["p", al, a] = op
        out["pbar", al, a] = op.conjugate()
    return out


@pytest.mark.parametrize("k, n", [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
def test_generators_equal_their_composed_forms(k, n):
    # the builders write each term directly; the reference composes them
    for (kind, i, j), ref in _composed_generators(k, n).items():
        got = GENERATORS[kind](i, j, k, n)
        assert got.terms == ref.terms, (kind, i, j)
        assert repr(got) == repr(ref), (kind, i, j)


def _compose_calls(monkeypatch):
    """A list that records each DiffOperator.compose call from now on."""
    calls = []
    real = DiffOperator.compose

    def counted(self, o):
        calls.append(1)
        return real(self, o)

    monkeypatch.setattr(DiffOperator, "compose", counted)
    return calls


def test_generators_are_built_without_compose(monkeypatch):
    calls = _compose_calls(monkeypatch)
    k, n = 1, 4
    for kind, (rows, cols) in {"h": (2 * k, 2 * k),
                               "H": (2 * (n - k), 2 * (n - k)),
                               "p": (2 * k, 2 * (n - k)),
                               "pbar": (2 * k, 2 * (n - k))}.items():
        for ij in itertools.product(range(rows), range(cols)):
            GENERATORS[kind](*ij, k, n)
    assert not calls
    # the table's commutators come from the cross terms alone
    assert verify_commutation_table(k, n)["all_passed"]
    assert not calls
    # the cross-check form of p and the composite still compose
    gen_p_via_H(0, 0, 1, 2)
    assert calls
    calls.clear()
    laplace_beltrami(1, 2)
    assert calls


def test_j_contracted_symmetry():
    for al, be in itertools.product(range(2), repeat=2):
        assert Jh(al, be, 1, 2) == Jh(be, al, 1, 2)
        assert JH(al, be, 1, 2) == JH(be, al, 1, 2)


# -- the seven relations ------------------------------------------------------------

def test_commutation_table_k1_n2():
    report = verify_commutation_table(1, 2)
    assert set(report) == {"k", "n", "all_passed", "families"}
    assert report["all_passed"]
    assert set(report["families"]) == {"[h,h]", "[H,H]", "[h,H]", "[p,h]",
                                       "[p,H]", "[p,p]", "[pbar,p]"}
    for family, entry in report["families"].items():
        assert entry == {"cases": entry["cases"], "operator_failures": 0,
                         "passed": True}, family


def test_commutation_table_k1_n3():
    report = verify_commutation_table(1, 3)
    assert report["all_passed"]


def test_commutation_table_k2_n3():
    report = verify_commutation_table(2, 3)
    assert report["all_passed"]
    assert report["families"]["[h,h]"]["cases"] == 4 ** 4
    assert report["families"]["[H,H]"]["cases"] == 2 ** 4
    assert all(entry["passed"] for entry in report["families"].values())


@pytest.mark.parametrize("k, n", [(1, 3), (2, 3)])
def test_reused_commutators_equal_fresh_ones(k, n):
    # the table reads [Y, X] back as -[X, Y]; every case must still equal a
    # freshly computed commutator of its own pair, in the original order
    K, A = 2 * k, 2 * (n - k)
    rows = list(itertools.product(range(K), repeat=2))
    cols = list(itertools.product(range(A), repeat=2))
    h = {ij: gen_h(*ij, k, n) for ij in rows}
    H = {ab: gen_H(*ab, k, n) for ab in cols}
    p = {ia: gen_p(*ia, k, n) for ia in itertools.product(range(K), range(A))}
    fresh = {
        "[h,h]": [(h[x], h[y]) for x, y in itertools.product(rows, repeat=2)],
        "[H,H]": [(H[x], H[y]) for x, y in itertools.product(cols, repeat=2)],
        "[p,p]": [(p[al, a], p[be, b]) for al, be in rows for a, b in cols],
    }
    got = {family: [] for family in fresh}
    for family, lhs, _ in liealg._relation_cases(k, n):
        if family in got:
            got[family].append(lhs)
    for family, pairs in fresh.items():
        assert len(got[family]) == len(pairs), family
        for i, ((x, y), lhs) in enumerate(zip(pairs, got[family])):
            assert lhs == commutator(x, y), (family, i)


def _displayed_right_sides(k, n):
    """(family, rhs) of every case, each right side built term by term from
    scaled generators exactly as the relations are displayed."""
    K, A = 2 * k, 2 * (n - k)
    d = liealg._delta

    def right_j(gen, i, c):     # (X J)_{i c}
        return gen(i, mate(c)).scaled(jval(mate(c), c))

    def left_j(gen, dd, j):     # (J X)_{d j}
        return gen(mate(dd), j).scaled(jval(dd, mate(dd)))

    def h(i, j):
        return gen_h(i, j, k, n)

    def H(i, j):
        return gen_H(i, j, k, n)

    def p(i, j):
        return gen_p(i, j, k, n)

    rows = list(itertools.product(range(K), repeat=2))
    cols = list(itertools.product(range(A), repeat=2))
    for (al, be), (mu, nu) in itertools.product(rows, repeat=2):
        yield "[h,h]", (h(al, nu).scaled(d(be, mu)) - h(mu, be).scaled(d(al, nu))
                        - right_j(h, al, mu).scaled(jval(be, nu))
                        + left_j(h, be, nu).scaled(jval(mu, al)))
    for (a, b), (c, dd) in itertools.product(cols, repeat=2):
        yield "[H,H]", (H(a, dd).scaled(d(b, c)) - H(c, b).scaled(d(a, dd))
                        - right_j(H, a, c).scaled(jval(b, dd))
                        + left_j(H, dd, b).scaled(jval(c, a)))
    for _ in range(len(rows) * len(cols)):
        yield "[h,H]", DiffOperator()
    for al, a in itertools.product(range(K), range(A)):
        for mu, nu in rows:
            yield "[p,h]", (p(mu, a).scaled(-d(al, nu))
                            - left_j(p, nu, a).scaled(jval(al, mu)))
    for al in range(K):
        for a, b, c in itertools.product(range(A), repeat=3):
            yield "[p,H]", (p(al, b).scaled(-d(a, c))
                            + right_j(p, al, c).scaled(jval(a, b)))
    for al, be in rows:
        for a, b in cols:
            yield "[p,p]", (right_j(h, al, be).scaled(-jval(a, b))
                            - right_j(H, a, b).scaled(jval(al, be)))
    for al, be in rows:
        for a, b in cols:
            yield "[pbar,p]", (H(b, a).scaled(d(al, be))
                               + h(be, al).scaled(d(a, b)))


@pytest.mark.parametrize("k, n", [(1, 2), (1, 3), (2, 3)])
def test_right_sides_equal_the_displayed_forms(k, n):
    # the table adds each generator once per nonzero coefficient; the
    # displayed sums of scaled generators and J contractions stay the oracle
    want = list(_displayed_right_sides(k, n))
    got = [(family, rhs) for family, _, rhs in liealg._relation_cases(k, n)]
    assert len(got) == len(want)
    for i, ((family, rhs), (family0, rhs0)) in enumerate(zip(got, want)):
        assert family == family0, i
        assert rhs == rhs0, (family, i)


def test_flipped_j_entry_fails_the_j_families(monkeypatch):
    # J_{01} = -1 instead of +1: every relation with a J term must fail as
    # operators, and the two without one must still pass
    real = liealg.jval
    monkeypatch.setattr(liealg, "jval",
                        lambda r, c: -real(r, c) if (r, c) == (0, 1) else real(r, c))
    report = verify_commutation_table(1, 2)
    fam = report["families"]
    assert not report["all_passed"]
    for family in ("[h,h]", "[H,H]", "[p,h]", "[p,H]", "[p,p]"):
        assert fam[family]["operator_failures"] > 0, family
    assert fam["[h,H]"]["passed"] and fam["[pbar,p]"]["passed"]


def test_derived_operators_do_not_reuse_an_index():
    # every operator below has served as the right factor of a commutator,
    # so its term index is built; sums, differences, negatives, scalings and
    # conjugates must each act through their own terms
    k, n = 1, 2
    gens = ([GENERATORS[kind](*ij, k, n) for kind in ("h", "H")
             for ij in itertools.product(range(2), repeat=2)]
            + [GENERATORS[kind](*ia, k, n) for kind in ("p", "pbar")
               for ia in itertools.product(range(2), range(2))])
    a, b = gen_p(0, 1, k, n), gen_h(0, 1, k, n)
    for gen in gens:
        commutator(gen, a)
        commutator(gen, b)
    for x in (a + b, a - b, -a, a.scaled(2), a.conjugate()):
        fresh = DiffOperator(dict(x.terms))
        for gen in gens:
            assert commutator(x, gen) == commutator(fresh, gen)
            assert commutator(gen, x) == commutator(gen, fresh)


def test_h_H_commute_spot_application():
    # independent reduction order: apply to every monomial of degree <= 3
    op = commutator(gen_h(0, 1, 1, 2), gen_H(1, 0, 1, 2))
    for mono in monomials_up_to_degree(1, 2, 3):
        assert op.apply(mono).is_zero()


def test_pbar_p_relation_by_application():
    lhs = commutator(gen_pbar(0, 0, 1, 2), gen_p(1, 1, 1, 2))
    rhs = DiffOperator()   # delta_{01} = 0 on both terms
    for mono in monomials_up_to_degree(1, 2, 3):
        assert lhs.apply(mono) == rhs.apply(mono)
    lhs = commutator(gen_pbar(0, 0, 1, 2), gen_p(0, 0, 1, 2))
    rhs = gen_H(0, 0, 1, 2) + gen_h(0, 0, 1, 2)
    assert lhs == rhs


# -- ladder structure -----------------------------------------------------------------

def test_ladder_raising_and_lowering():
    rep = ladder_check(1, 2, Z(0, 0))
    assert rep["H_eigenvalue"] == 1
    assert rep["raised"] == 2
    assert rep["lowered"] == 0


def test_ladder_on_monomial_family():
    for power in range(1, 4):
        mono = PolyFunction.constant(1)
        for _ in range(power):
            mono = mono * Z(0, 0)
        rep = ladder_check(1, 2, mono)
        assert rep["H_eigenvalue"] == power
        if rep["raised"] is not None:
            assert rep["raised"] == power + 1
        if rep["lowered"] is not None:
            assert rep["lowered"] == power - 1


def test_ladder_direction_reverses_under_conjugation():
    # pbar lowers what p raises: check the H-side with pbar
    vec = Z(0, 0)
    big = cartan_H(0, 1, 2)
    n_a = eigenvalue_of(big, vec)
    down = gen_pbar(0, 0, 1, 2).apply(vec)
    if not down.is_zero():
        assert eigenvalue_of(big, down) == n_a - 1


def test_eigenvalue_non_integer_rational():
    # -2/5 z00 under H00 / 3: the division leaves the integers
    f = Z(0, 0) * Fraction(-2, 5)
    lam = eigenvalue_of(cartan_H(0, 1, 2).scaled(Fraction(1, 3)), f)
    assert lam == Fraction(1, 3)
    assert str(lam) == "1/3"
    lam = eigenvalue_of(cartan_H(0, 1, 2).scaled(Fraction(-1, 2)), f)
    assert lam == Fraction(-1, 2)


def test_rational_coefficients_print_plainly():
    assert repr(Z(0, 0) * Fraction(1, 2)) == "1/2*z[0,0]"
    assert repr(derivative(0, 0).scaled(-1)) == "-1*d[0,0]"
    # an integral eigenvalue comes back as an int, even from a Fraction input
    lam = eigenvalue_of(cartan_H(0, 1, 2), Z(0, 0) * Fraction(1, 2))
    assert lam == 1 and type(lam) is int and repr(lam) == "1"


def test_ladder_rejects_non_eigenvector():
    with pytest.raises(NotEigenvector):
        ladder_check(1, 2, Z(0, 0) + PolyFunction.constant(1))
    # an image that loses the input's monomial, and one that gains another
    for coeff in (Z(0, 1), Z(0, 1) + PolyFunction.constant(1)):
        with pytest.raises(NotEigenvector):
            eigenvalue_of(DiffOperator.multiplication(coeff), Z(0, 0))


def test_annihilated_vector_reported_as_none():
    rep = ladder_check(1, 2, PolyFunction.constant(1))
    assert rep["raised"] is None
    assert rep["H_eigenvalue"] == 0


def test_cartan_eigenvalues_are_degree_differences():
    # h_{00} counts row-0 degree minus row-1 degree
    f = Z(0, 0) * Z(0, 1) * Z(1, 0)
    assert eigenvalue_of(cartan_h(0, 1, 2), f) == 1
    assert eigenvalue_of(cartan_H(0, 1, 2), f) == 1


# -- Laplace-Beltrami -------------------------------------------------------------------

def test_laplace_beltrami_structure():
    lap = laplace_beltrami(1, 2)
    assert lap.order() == 2
    assert lap.apply(PolyFunction.constant(1)).is_zero()
    assert lap.conjugate() == lap


def test_laplace_beltrami_commutes_with_cartans():
    lap = laplace_beltrami(1, 2)
    for al in range(2):
        h = cartan_h(al, 1, 2)
        assert lap.compose(h) == h.compose(lap)
        big = cartan_H(al, 1, 2)
        assert lap.compose(big) == big.compose(lap)


def test_laplace_beltrami_commutes_on_degree_two_monomials():
    lap = laplace_beltrami(1, 2)
    h = cartan_h(0, 1, 2)
    bracket = lap.compose(h) - h.compose(lap)
    for mono in monomials_up_to_degree(1, 2, 2):
        assert bracket.apply(mono).is_zero()
