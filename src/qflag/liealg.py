"""Exact operator calculus for the infinitesimal generators.

The coset coordinates form a 2k x 2(n-k) matrix of complex entries z_{ab}
(row index from the system side, column index from the surroundings side).
Entries and their conjugates fill the matrix in 2x2 blocks, so the conjugate
of an entry is, up to sign, another entry of the same matrix:

    zbar_{ab} = kappa(a) kappa(b) z_{mate(a), mate(b)},

where ``mate`` flips an index inside its 2-block and ``kappa`` is -1 on even
(0-based) indices and +1 on odd ones.  The same substitution defines the
conjugate derivative dbar in terms of d.  Everything here is therefore
canonicalised to the unbarred symbols, and all coefficients are exact
rationals (ints, or Fractions where a division leaves the integers), so
operator identities either hold exactly or fail loudly; no floating point
enters.

First-order operators with polynomial coefficients are closed under the
commutator (the second-order parts are juxtaposition terms, which cancel
exactly and are never built; the order is still asserted); compositions
of generators produce genuine second-order operators, which is how the
Laplace-Beltrami composite is assembled.

The generators h, H and p are built directly as their maps of
(monomial, word) terms; only the cross-check forms of p
(:func:`gen_p_via_H`, :func:`gen_p_via_h`) and the Laplace-Beltrami
composite are assembled by operator products.  A commutation table makes
each generator the right factor of dozens of products, so an operator
keeps one table: per left word, its cross terms against that word (see
:func:`_leibniz_cross`), built on the first product that needs them.
Keeping it is safe because operators never change in place: every sum,
scaling or product is a new value that builds its own.

A term's key is a pair of ints, its coefficient monomial and its word,
packed as :mod:`qflag.sparse` packs monomials on the fields of the symbols
``(row, col)`` (see :class:`PolyFunction`); a word holds the count of each
derivative symbol.  So a monomial product and a word join are each one
integer add, and no cache is kept across operators.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .errors import IndexOutOfRange, NotEigenvector, SecondOrderResidue
from .sparse import (MAX_POWER, Polynomial, SparseSum, check_guard, exact,
                     fields, key_degree, power, unit)


def mate(i: int) -> int:
    return i + 1 if i % 2 == 0 else i - 1


def kappa(i: int) -> int:
    return 1 if i % 2 == 1 else -1


def _j_image(row: int, col: int):
    """(sign, symbol) of the J substitution on the symbol ``(row, col)``:
    zbar_{row col} = sign z_{mate row, mate col}, and likewise for dbar."""
    return kappa(row) * kappa(col), (mate(row), mate(col))


def jval(r: int, c: int) -> int:
    """Entry of the block almost complex structure 1 (x) [[0,1],[-1,0]]."""
    if c == r + 1 and r % 2 == 0:
        return 1
    if c == r - 1 and r % 2 == 1:
        return -1
    return 0


# -- polynomials ----------------------------------------------------------------

class PolyFunction(Polynomial):
    """Sparse exact polynomial in the matrix entries, on the symbols
    ``(row, col)``; the public constructors accept barred symbols and
    canonicalise them immediately.

    The symbol ``(row, col)`` holds the field at the Cantor pairing
    ``(row + col)(row + col + 1)/2 + col`` of its indices, the same for
    every partition; a negative index raises IndexOutOfRange.
    """

    __slots__ = ()

    @staticmethod
    def _index(sym) -> int:
        row, col = sym
        if row < 0 or col < 0:
            raise IndexOutOfRange(f"symbol {sym} has a negative index")
        diagonal = row + col
        return diagonal * (diagonal + 1) // 2 + col

    @staticmethod
    def _symbol(index: int) -> tuple:
        diagonal = (math.isqrt(8 * index + 1) - 1) // 2
        col = index - diagonal * (diagonal + 1) // 2
        return diagonal - col, col

    @classmethod
    def z(cls, row: int, col: int) -> "PolyFunction":
        return cls({_unit((row, col)): 1})

    @classmethod
    def zbar(cls, row: int, col: int) -> "PolyFunction":
        sign, sym = _j_image(row, col)
        return cls({_unit(sym): sign})

    @classmethod
    def _texts(cls, mono) -> tuple:
        return (_monomial_text(cls.powers(mono)),)


def _monomial_text(powers) -> str:
    """The text of a monomial from its sorted (symbol, power) pairs."""
    return "".join(f"z[{r},{s}]" + (f"^{p}" if p > 1 else "")
                   for (r, s), p in powers)


def _unit(sym) -> int:
    """The packed key of the symbol ``sym`` to the first power: the monomial
    z_sym, or the word d_sym."""
    return unit(PolyFunction._index(sym))


def _conjugate_key(key: int):
    """(sign, image) of a packed monomial or word under the J substitution;
    each symbol's sign enters once per power.

    The substitution maps distinct keys to distinct images, so a conjugated
    sum needs no accumulation.
    """
    sign, image = 1, 0
    for index, power in fields(key):
        s, sym = _j_image(*PolyFunction._symbol(index))
        if power % 2 == 1:
            sign *= s
        image += power * _unit(sym)
    return sign, image


def _word_symbols(word: int) -> tuple:
    """The sorted derivative symbols of a packed word, each repeated as
    often as the word holds it."""
    return tuple(sym for sym, count in PolyFunction.powers(word)
                 for _ in range(count))


def _checked(left: "DiffOperator", right: "DiffOperator", out: dict) -> dict:
    """``out``, the (monomial, word) terms of a product of ``left`` and
    ``right``, once no key has a power or derivative count past MAX_POWER.

    A key of the product has degree at most the sum of the factors' largest
    degrees (see :meth:`DiffOperator._top`), so only a product whose sum
    passes MAX_POWER checks its keys (see :func:`sparse.check_guard`).
    """
    if left._top() + right._top() > MAX_POWER:
        check_guard(itertools.chain.from_iterable(out))
    return out


# -- differential operators ------------------------------------------------------

class DiffOperator(SparseSum):
    """Sparse sum of (polynomial coefficient) x (product of derivatives).

    Keys are (monomial, word), both packed on the fields of
    :class:`PolyFunction`'s symbols: a word holds how often each derivative
    symbol ``(row, col)`` occurs.  Derivative symbols commute, so this
    multiset is canonical; the empty word 0 is a multiplication operator.
    """

    __slots__ = ("_cross", "_bound")

    @staticmethod
    def key(powers=(), word=()) -> tuple:
        """The packed (monomial, word) key of the term whose coefficient
        monomial has the (symbol, power) pairs ``powers`` and whose word
        differentiates by each symbol of ``word``, repeats included."""
        return (PolyFunction.monomial(powers),
                PolyFunction.monomial((sym, 1) for sym in word))

    @staticmethod
    def parts(key) -> tuple:
        """(powers, word) of a packed key, the inverse of :meth:`key`: the
        monomial's sorted (symbol, power) pairs and the sorted word with its
        repeats; also the order in which terms print."""
        mono, word = key
        return PolyFunction.powers(mono), _word_symbols(word)

    _order = parts

    @classmethod
    def dbar(cls, row: int, col: int) -> "DiffOperator":
        sign, sym = _j_image(row, col)
        return cls({cls.key(word=(sym,)): sign})

    @classmethod
    def multiplication(cls, poly: PolyFunction) -> "DiffOperator":
        return cls({(m, 0): c for m, c in poly.terms.items()})

    def order(self) -> int:
        return max(map(key_degree, map(operator.itemgetter(1), self.terms)),
                   default=0)

    def scaled(self, value) -> "DiffOperator":
        return self.combination(((exact(value), self),))

    def apply(self, f: PolyFunction) -> PolyFunction:
        return PolyFunction.combination(
            (c, PolyFunction({mono: 1})
             * functools.reduce(PolyFunction.diff, _word_symbols(word), f))
            for (mono, word), c in self.terms.items())

    def compose(self, o: "DiffOperator") -> "DiffOperator":
        """Operator product self o other, expanded by the Leibniz rule.

        Each sub-multiset of a left word differentiates the right
        coefficient.  The empty one gives the juxtaposition term:
        coefficient product ``m1 m2`` times the joined word ``w1 + w2``,
        with weight ``c1 c2``.  It is symmetric in the two factors, so it
        cancels exactly from ``ab - ba`` (see :func:`commutator`); the rest
        comes from :func:`_leibniz_cross`.
        """
        out = {}
        right = o.terms.items()
        for (m1, w1), c1 in self.terms.items():
            for (m2, w2), c2 in right:
                key = (m1 + m2, w1 + w2)
                out[key] = out.get(key, 0) + c1 * c2
        _leibniz_cross(self, o, 1, out)
        return DiffOperator._taking(_checked(self, o, out))

    def conjugate(self) -> "DiffOperator":
        """Formal quaternionic conjugation: the J substitution on coefficient
        and word alike."""
        out = {}
        for (mono, word), c in self.terms.items():
            sign_m, m = _conjugate_key(mono)
            sign_w, w = _conjugate_key(word)
            out[m, w] = sign_m * sign_w * c
        return DiffOperator(out)

    def _top(self) -> int:
        """The largest degree of a monomial or a word of this operator."""
        try:
            return self._bound
        except AttributeError:
            self._bound = max(map(key_degree,
                                  itertools.chain.from_iterable(self.terms)),
                              default=0)
            return self._bound

    def _cross_terms(self, word: int) -> list:
        """This operator as the right factor of a product whose left word is
        ``word``: for each term (m2, w2, c2) and each non-empty sub-multiset
        ``hit`` of ``word`` that m2 holds, the (monomial, word, coefficient)
        ``(m2 - hit, w2 + word - hit, c2 * weight)``.  The weight is, per
        symbol hit h times, C(count in word, h) ways to pick the copies by
        position times the falling factorial P(power in m2, h) of the powers
        taken down.  A symbol is hit at most as often as m2 holds it, so a
        word d^c with c far above that power costs that power + 1 binomials,
        not c + 1."""
        symbols = [(index, count, unit(index)) for index, count in fields(word)]
        out = []
        for (m2, w2), c2 in self.terms.items():
            subs = [(0, c2)]
            for index, count, step in symbols:
                p = power(m2, index)
                if p:
                    subs = [(hit + h * step,
                             weight * math.comb(count, h) * math.perm(p, h))
                            for hit, weight in subs
                            for h in range(min(count, p) + 1)]
            for hit, weight in subs[1:]:
                out.append((m2 - hit, w2 + word - hit, weight))
        return out

    @classmethod
    def _texts(cls, key) -> tuple:
        powers, word = cls.parts(key)
        return _monomial_text(powers), "".join(f"d[{r},{s}]" for r, s in word)


def _leibniz_cross(left: DiffOperator, right: DiffOperator, sign: int,
                   out: dict) -> None:
    """Add ``sign`` times the cross terms of ``left o right`` into ``out``.

    A cross term is one in which a non-empty sub-multiset of a left word
    differentiates the right coefficient monomial on its exponents; the
    factor is the number of ways to pick the sub-multiset from the word by
    position times the falling factorials of the powers taken down, and
    the rest of the left word passes through.  This equals the expansion
    over subsets by position, in which a repeated symbol is hit once per
    copy.

    Everything but the left monomial and coefficient depends on the right
    operator and the left word alone, so the right operator keeps a table
    of its cross terms per left word (:meth:`DiffOperator._cross_terms`);
    a generator that is the right factor of many products builds its entry
    for a word once.  A left word that no right monomial's symbols meet
    has an empty entry and is skipped.
    """
    try:
        table = right._cross
    except AttributeError:
        table = right._cross = {}
    get = out.get
    for (m1, w1), c1 in left.terms.items():
        try:
            terms = table[w1]
        except KeyError:
            terms = table[w1] = right._cross_terms(w1)
        if not terms:
            continue
        if sign < 0:
            c1 = -c1
        for m2, w, c2 in terms:
            key = (m1 + m2, w)
            out[key] = get(key, 0) + c1 * c2


def commutator(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """[a, b] = ab - ba, from the Leibniz cross terms of both products.

    The juxtaposition terms of ``ab`` and ``ba`` are equal (coefficient
    ``m1 m2``, word ``w1 + w2``, weight ``c1 c2`` either way), so they cancel
    exactly and are never built; only the terms in which one factor's word
    differentiates the other's coefficient remain.  For first-order inputs
    the result must be first order.
    """
    terms = {}
    _leibniz_cross(a, b, 1, terms)
    _leibniz_cross(b, a, -1, terms)
    out = DiffOperator._taking(_checked(a, b, terms))
    if out.order() > 1 and a.order() <= 1 and b.order() <= 1:
        raise SecondOrderResidue(
            "second-order terms failed to cancel in a first-order commutator")
    return out


# -- the generators ---------------------------------------------------------------

def _check_indices(k: int, n: int, rows=(), cols=()):
    """Raise IndexOutOfRange unless (k, n) is a partition, each of ``rows``
    lies in 0..2k-1 and each of ``cols`` in 0..2(n-k)-1, checked in that
    order."""
    if k < 1 or n - k < 1:
        raise IndexOutOfRange(f"partition requires k >= 1 and n-k >= 1, got ({k}, {n})")
    for alpha in rows:
        if not 0 <= alpha < 2 * k:
            raise IndexOutOfRange(f"row index {alpha} outside 0..{2 * k - 1}")
    for a in cols:
        if not 0 <= a < 2 * (n - k):
            raise IndexOutOfRange(f"column index {a} outside 0..{2 * (n - k) - 1}")


def _rotation(pairs) -> DiffOperator:
    """Sum of z_s d_t - zbar_t dbar_s over the symbol pairs (s, t), built
    term by term; terms that land on one key add, and zero sums drop."""
    out = {}
    for s, t in pairs:
        sign_t, t_image = _j_image(*t)
        sign_s, s_image = _j_image(*s)
        z_d = (_unit(s), _unit(t))
        # zbar_t dbar_s = sign_t sign_s z_{t'} d_{s'}, primes the J images
        zbar_dbar = (_unit(t_image), _unit(s_image))
        out[z_d] = out.get(z_d, 0) + 1
        out[zbar_dbar] = out.get(zbar_dbar, 0) - sign_t * sign_s
    return DiffOperator(out)


def gen_h(alpha: int, beta: int, k: int, n: int) -> DiffOperator:
    """System-side generator h_{alpha beta} = z_{alpha b} d_{beta b} - zbar_{beta b} dbar_{alpha b}."""
    _check_indices(k, n, rows=(alpha, beta))
    return _rotation(((alpha, b), (beta, b)) for b in range(2 * (n - k)))


def gen_H(a: int, b: int, k: int, n: int) -> DiffOperator:
    """Surroundings-side generator H_{ab} = z_{mu a} d_{mu b} - zbar_{mu b} dbar_{mu a}."""
    _check_indices(k, n, cols=(a, b))
    return _rotation(((mu, a), (mu, b)) for mu in range(2 * k))


def gen_p(alpha: int, a: int, k: int, n: int) -> DiffOperator:
    """Off-diagonal generator p_{alpha a} = dbar_{alpha a} + z_{alpha b} z_{mu a} d_{mu b}.

    Each (b, mu) gives its own word d_{mu b}, so no two terms share a key.
    """
    _check_indices(k, n, rows=(alpha,), cols=(a,))
    sign, sym = _j_image(alpha, a)
    out = {(0, _unit(sym)): sign}
    for b in range(2 * (n - k)):
        for mu in range(2 * k):
            out[_unit((alpha, b)) + _unit((mu, a)), _unit((mu, b))] = 1
    return DiffOperator(out)


def gen_pbar(alpha: int, a: int, k: int, n: int) -> DiffOperator:
    return gen_p(alpha, a, k, n).conjugate()


def gen_p_via_H(alpha: int, a: int, k: int, n: int) -> DiffOperator:
    """Alternative form (delta + z zbar) dbar + z H, equal to gen_p exactly.

    A cross-check route: it is assembled by operator products from the
    built H generators, independently of how :func:`gen_p` builds its terms.
    """
    _check_indices(k, n, rows=(alpha,), cols=(a,))
    op = DiffOperator.dbar(alpha, a)
    for beta in range(2 * k):
        for b in range(2 * (n - k)):
            coeff = PolyFunction.z(alpha, b) * PolyFunction.zbar(beta, b)
            op = op + DiffOperator.multiplication(coeff).compose(
                DiffOperator.dbar(beta, a))
    for b in range(2 * (n - k)):
        op = op + DiffOperator.multiplication(PolyFunction.z(alpha, b)).compose(
            gen_H(a, b, k, n))
    return op


def gen_p_via_h(alpha: int, a: int, k: int, n: int) -> DiffOperator:
    """Alternative form (delta + z zbar) dbar + z h, equal to gen_p exactly.

    A cross-check route: it is assembled by operator products from the
    built h generators, independently of how :func:`gen_p` builds its terms.
    """
    _check_indices(k, n, rows=(alpha,), cols=(a,))
    op = DiffOperator.dbar(alpha, a)
    for b in range(2 * (n - k)):
        for mu in range(2 * k):
            coeff = PolyFunction.z(mu, a) * PolyFunction.zbar(mu, b)
            op = op + DiffOperator.multiplication(coeff).compose(
                DiffOperator.dbar(alpha, b))
    for mu in range(2 * k):
        op = op + DiffOperator.multiplication(PolyFunction.z(mu, a)).compose(
            gen_h(alpha, mu, k, n))
    return op


# -- J-contracted generator families ------------------------------------------
# (J X)_{d j} contracts the first index of a generator family X with the
# almost complex structure, (X J)_{i c} the second; only one term of each sum
# survives because J is a signed permutation: (J X)_{d j} = J_{d, mate d}
# X_{mate d, j} and (X J)_{i c} = X_{i, mate c} J_{mate c, c}.

def Jh(beta: int, nu: int, k: int, n: int) -> DiffOperator:
    return gen_h(mate(beta), nu, k, n).scaled(jval(beta, mate(beta)))


def JH(d: int, b: int, k: int, n: int) -> DiffOperator:
    return gen_H(mate(d), b, k, n).scaled(jval(d, mate(d)))


# -- commutation table -----------------------------------------------------------

def _delta(i: int, j: int) -> int:
    return 1 if i == j else 0


def _commutators(table: dict, pairs):
    """Yield ((x, y), [table[x], table[y]]) for each key pair, in order.

    The first of the cases (x, y) and (y, x) computes the commutator and
    keeps it (unless x == y); the second reads it back as exactly
    -[table[x], table[y]] and drops it, so nothing outlives its family.
    """
    kept = {}
    for x, y in pairs:
        lhs = kept.pop((y, x), None)
        if lhs is not None:
            lhs = -lhs
        else:
            lhs = commutator(table[x], table[y])
            if x != y:
                kept[x, y] = lhs
        yield (x, y), lhs


def _families(k: int, n: int):
    """The h, H and p generators of a partition, each family a table keyed
    by its index pairs in row-major order."""
    _check_indices(k, n)
    K, A = 2 * k, 2 * (n - k)
    h = {ij: gen_h(*ij, k, n) for ij in itertools.product(range(K), repeat=2)}
    H = {ab: gen_H(*ab, k, n) for ab in itertools.product(range(A), repeat=2)}
    p = {ia: gen_p(*ia, k, n) for ia in itertools.product(range(K), range(A))}
    return h, H, p


def _relation_cases(k: int, n: int):
    """Yield (family, lhs, rhs) for every index combination of the seven
    commutation relations, with the right sides as displayed.

    Each generator is built once, into the tables of :func:`_families`, and
    every case reads its operators from those tables.  A right side adds
    each table operator once per nonzero Kronecker or J coefficient, with
    the sign of its J contraction (see :func:`Jh`) folded into that
    coefficient.  In the [h,h], [H,H] and [p,p] families every ordered pair
    of generators appears, and [Y, X] is exactly -[X, Y]; so each pair is
    composed once (see :func:`_commutators`) and the case order is
    unchanged.
    """
    h, H, p = _families(k, n)
    row_pairs, col_pairs, row_cols = list(h), list(H), list(p)
    pbar = {ia: op.conjugate() for ia, op in p.items()}

    combination = DiffOperator.combination
    for family, X in (("[h,h]", h), ("[H,H]", H)):
        for ((a, b), (c, d)), lhs in _commutators(
                X, itertools.product(X, repeat=2)):
            # d_{bc} X_{ad} - d_{ad} X_{cb} - (X J)_{ac} J_{bd}
            #   + (J X)_{db} J_{ca}, where J X is symmetric in its indices
            yield family, lhs, combination((
                (_delta(b, c), X[a, d]),
                (-_delta(a, d), X[c, b]),
                (-jval(mate(c), c) * jval(b, d), X[a, mate(c)]),
                (jval(d, mate(d)) * jval(c, a), X[mate(d), b])))
    for al, be in row_pairs:
        for a, b in col_pairs:
            yield "[h,H]", commutator(h[al, be], H[a, b]), DiffOperator()
    for al, a in row_cols:
        for mu, nu in row_pairs:
            # -d_{al nu} p_{mu a} - (J p)_{nu a} J_{al mu}
            yield "[p,h]", commutator(p[al, a], h[mu, nu]), combination((
                (-_delta(al, nu), p[mu, a]),
                (-jval(nu, mate(nu)) * jval(al, mu), p[mate(nu), a])))
    for (al, a), (b, c) in itertools.product(row_cols, col_pairs):
        # -d_{ac} p_{al b} + (p J)_{al c} J_{ab}
        yield "[p,H]", commutator(p[al, a], H[b, c]), combination((
            (-_delta(a, c), p[al, b]),
            (jval(mate(c), c) * jval(a, b), p[al, mate(c)])))
    pp_pairs = (((al, a), (be, b)) for al, be in row_pairs for a, b in col_pairs)
    for ((al, a), (be, b)), lhs in _commutators(p, pp_pairs):
        # -(h J)_{al be} J_{ab} - (H J)_{ab} J_{al be}
        yield "[p,p]", lhs, combination((
            (-jval(mate(be), be) * jval(a, b), h[al, mate(be)]),
            (-jval(mate(b), b) * jval(al, be), H[a, mate(b)])))
    for al, be in row_pairs:
        for a, b in col_pairs:
            yield "[pbar,p]", commutator(pbar[al, a], p[be, b]), combination((
                (_delta(al, be), H[b, a]), (_delta(a, b), h[be, al])))


def verify_commutation_table(k: int, n: int) -> dict:
    """Check all seven commutation relations at the given partition.

    Every case is checked once, as an exact equality of canonical operator
    forms (the tests hold a second route to the commutator: ``compose``
    against successive ``apply``).  A family that fails the displayed form
    is reported with its failure count rather than silently rewritten.
    """
    families = {}
    for family, lhs, rhs in _relation_cases(k, n):
        entry = families.setdefault(family, {"cases": 0, "operator_failures": 0})
        entry["cases"] += 1
        entry["operator_failures"] += lhs != rhs
    for entry in families.values():
        entry["passed"] = entry["operator_failures"] == 0
    return {"k": k, "n": n, "families": families,
            "all_passed": all(e["passed"] for e in families.values())}


# -- ladder structure ----------------------------------------------------------

def cartan_h(alpha: int, k: int, n: int) -> DiffOperator:
    return gen_h(alpha, alpha, k, n)


def cartan_H(a: int, k: int, n: int) -> DiffOperator:
    return gen_H(a, a, k, n)


def eigenvalue_of(op: DiffOperator, f: PolyFunction):
    """Exact eigenvalue of ``f`` under ``op``, an int where integral and a
    Fraction otherwise; raises NotEigenvector."""
    if f.is_zero():
        raise NotEigenvector("the zero polynomial is not an eigenvector")
    g = op.apply(f)
    mono, c = next(iter(f.terms.items()))
    lam = exact(Fraction(g.terms.get(mono, 0), c))
    if g != f * lam:
        raise NotEigenvector("image is not a scalar multiple of the input")
    return lam


def ladder_check(k: int, n: int, vector: PolyFunction) -> dict:
    """Raising/lowering on an eigen-monomial of the first Cartan elements.

    ``vector`` must be an exact eigenvector of H_{00} and of h_{00}.
    Applying p_{00} shifts the H_{00} eigenvalue by exactly +1, and applying
    pbar_{00} shifts the h_{00} eigenvalue by exactly -1 (whenever the image
    is nonzero).
    """
    big = cartan_H(0, k, n)
    small = cartan_h(0, k, n)
    n_a = eigenvalue_of(big, vector)
    n_alpha = eigenvalue_of(small, vector)
    out = {"H_eigenvalue": n_a, "h_eigenvalue": n_alpha,
           "raised": None, "lowered": None}
    for key, verb, gen, cartan, expected in (
            ("raised", "raising", gen_p, big, n_a + 1),
            ("lowered", "lowering", gen_pbar, small, n_alpha - 1)):
        image = gen(0, 0, k, n).apply(vector)
        if not image.is_zero():
            out[key] = eigenvalue_of(cartan, image)
            if out[key] != expected:
                raise NotEigenvector(f"{verb} produced eigenvalue {out[key]}, "
                                     f"expected {expected}")
    return out


# -- the Laplace-Beltrami composite ------------------------------------------------

def laplace_beltrami(k: int, n: int) -> DiffOperator:
    """tr(h h*) + tr(p p*) + tr(H H*) + tr(p* p), a second-order operator.

    The trace of a product with the conjugate-transposed generator matrix
    turns into sums of compositions with conjugated generators.  The result
    annihilates constants, is invariant under the J conjugation, and
    commutes with every Cartan generator.
    """
    h, H, p = _families(k, n)
    return DiffOperator.combination(itertools.chain(
        ((1, op.compose(op.conjugate()))
         for op in itertools.chain(h.values(), p.values(), H.values())),
        ((1, op.conjugate().compose(op)) for op in p.values())))


def linear_part(op: DiffOperator) -> DiffOperator:
    """Drop all terms with non-constant polynomial coefficients.

    Near the origin the off-diagonal generator reduces to its constant part,
    the bare conjugate derivative.
    """
    return DiffOperator({(mono, word): c for (mono, word), c in op.terms.items()
                         if not mono})
