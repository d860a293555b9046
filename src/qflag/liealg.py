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
Gaussian rationals, so operator identities either hold exactly or fail
loudly; no floating point enters.

First-order operators with polynomial coefficients are closed under the
commutator (the second-order parts are juxtaposition terms, which cancel
exactly and are never built; the order is still asserted); compositions
of generators produce genuine second-order operators, which is how the
Laplace-Beltrami composite is assembled.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .errors import IndexOutOfRange, NotEigenvector, SecondOrderResidue
from .sparse import SparseSum


# -- exact Gaussian rational coefficients -------------------------------------

class CRat:
    """Exact Gaussian rational ``re + im i``.

    The parts stay Python ints until a division makes them Fractions; every
    generator and commutator coefficient is a Gaussian integer.  An int and
    the equal Fraction compare and hash alike, so either form is canonical.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @classmethod
    def of(cls, value) -> "CRat":
        if isinstance(value, CRat):
            return value
        if isinstance(value, int):
            return cls(value, 0)
        if isinstance(value, complex):
            return cls(Fraction(value.real).limit_denominator(10 ** 12),
                       Fraction(value.imag).limit_denominator(10 ** 12))
        return cls(Fraction(value), 0)

    def __add__(self, o: "CRat") -> "CRat":
        return CRat(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "CRat") -> "CRat":
        return CRat(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "CRat") -> "CRat":
        return CRat(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def __eq__(self, o) -> bool:
        if not isinstance(o, CRat):
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def conjugate(self) -> "CRat":
        return CRat(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


ONE = CRat(1, 0)
ZERO = CRat(0, 0)


def mate(i: int) -> int:
    return i + 1 if i % 2 == 0 else i - 1


def kappa(i: int) -> int:
    return 1 if i % 2 == 1 else -1


def jval(r: int, c: int) -> int:
    """Entry of the block almost complex structure 1 (x) [[0,1],[-1,0]]."""
    if c == r + 1 and r % 2 == 0:
        return 1
    if c == r - 1 and r % 2 == 1:
        return -1
    return 0


class _CRatSum(SparseSum):
    """Sparse sum of CRat coefficients, with the zero test inlined."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = ({k: c for k, c in terms.items() if c.re or c.im}
                      if terms else {})


# -- polynomials ----------------------------------------------------------------

class PolyFunction(_CRatSum):
    """Sparse exact polynomial in the matrix entries.

    Monomials are sorted tuples of ((row, col), power); the public
    constructors accept barred symbols and canonicalise them immediately.
    """

    __slots__ = ()

    @classmethod
    def constant(cls, value) -> "PolyFunction":
        return cls({(): CRat.of(value)})

    @classmethod
    def z(cls, row: int, col: int) -> "PolyFunction":
        return cls({(((row, col), 1),): ONE})

    @classmethod
    def zbar(cls, row: int, col: int) -> "PolyFunction":
        sign = kappa(row) * kappa(col)
        return cls({(((mate(row), mate(col)), 1),): CRat(sign, 0)})

    def degree(self) -> int:
        return max((sum(p for _, p in m) for m in self.terms), default=0)

    def __mul__(self, o) -> "PolyFunction":
        if not isinstance(o, PolyFunction):
            o = PolyFunction.constant(o)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = _merge_monomials(m1, m2)
                c = c1 * c2
                out[m] = out[m] + c if m in out else c
        return PolyFunction(out)

    def diff(self, sym) -> "PolyFunction":
        """Partial derivative with respect to the entry ``sym = (row, col)``."""
        out = {}
        for mono, c in self.terms.items():
            for idx, (var, power) in enumerate(mono):
                if var != sym:
                    continue
                rest = list(mono)
                if power == 1:
                    del rest[idx]
                else:
                    rest[idx] = (var, power - 1)
                m = tuple(rest)
                add = c * CRat(power, 0)
                out[m] = out[m] + add if m in out else add
        return PolyFunction(out)

    def conjugate(self) -> "PolyFunction":
        """Formal quaternionic conjugation: the J substitution on every symbol."""
        out = {}
        for mono, c in self.terms.items():
            sign = 1
            new = []
            for (row, col), power in mono:
                if power % 2 == 1:
                    sign *= kappa(row) * kappa(col)
                new.append(((mate(row), mate(col)), power))
            m = tuple(sorted(new))
            cc = c.conjugate() * CRat(sign, 0)
            out[m] = out[m] + cc if m in out else cc
        return PolyFunction(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items()):
            vars_ = "".join(f"z[{r},{s}]" + (f"^{p}" if p > 1 else "")
                            for (r, s), p in mono)
            bits.append(f"{c!r}*{vars_}" if vars_ else f"{c!r}")
        return " + ".join(bits)


def _merge_monomials(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    powers = dict(m2)
    for var, p in m1:
        powers[var] = powers.get(var, 0) + p
    return tuple(sorted(powers.items()))


def monomials_up_to_degree(k: int, n: int, max_degree: int):
    """All monomials in the 2k x 2(n-k) entries up to the given total degree."""
    variables = [(r, c) for r in range(2 * k) for c in range(2 * (n - k))]
    out = [PolyFunction.constant(1)]
    for deg in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(variables, deg):
            powers = {}
            for var in combo:
                powers[var] = powers.get(var, 0) + 1
            out.append(PolyFunction({tuple(sorted(powers.items())): ONE}))
    return out


# -- differential operators ------------------------------------------------------

class DiffOperator(_CRatSum):
    """Sparse sum of (polynomial coefficient) x (product of derivatives).

    Keys are (monomial, word) with the word a sorted tuple of derivative
    symbols ``(row, col)``; an empty word is a multiplication operator.
    Derivative symbols commute, so sorted words are canonical.
    """

    __slots__ = ()

    @classmethod
    def zero(cls) -> "DiffOperator":
        return cls()

    @classmethod
    def d(cls, row: int, col: int) -> "DiffOperator":
        return cls({((), ((row, col),)): ONE})

    @classmethod
    def dbar(cls, row: int, col: int) -> "DiffOperator":
        sign = kappa(row) * kappa(col)
        return cls({((), ((mate(row), mate(col)),)): CRat(sign, 0)})

    @classmethod
    def multiplication(cls, poly: PolyFunction) -> "DiffOperator":
        return cls({(m, ()): c for m, c in poly.terms.items()})

    def order(self) -> int:
        return max((len(w) for _, w in self.terms), default=0)

    def scaled(self, value) -> "DiffOperator":
        c0 = CRat.of(value)
        if c0.is_zero():
            return DiffOperator()
        return DiffOperator({k: c * c0 for k, c in self.terms.items()})

    def apply(self, f: PolyFunction) -> PolyFunction:
        out = PolyFunction()
        for (mono, word), c in self.terms.items():
            g = f
            for sym in word:
                g = g.diff(sym)
                if g.is_zero():
                    break
            if g.is_zero():
                continue
            out = out + PolyFunction({mono: c}) * g
        return out

    def compose(self, o: "DiffOperator") -> "DiffOperator":
        """Operator product self o other, expanded by the Leibniz rule.

        Each subset of a left word differentiates the right coefficient.  The
        empty subset gives the juxtaposition term: coefficient product
        ``m1 m2`` times the merged word ``w1 + w2``, with weight ``c1 c2``.
        It is symmetric in the two factors, so it cancels exactly from
        ``ab - ba`` (see :func:`commutator`); the rest comes from
        :func:`_leibniz_cross`.
        """
        out = {}
        for (m1, w1), c1 in self.terms.items():
            for (m2, w2), c2 in o.terms.items():
                key = (_merge_monomials(m1, m2),
                       tuple(sorted(w1 + w2)) if w1 else w2)
                c = c1 * c2
                out[key] = out[key] + c if key in out else c
        _leibniz_cross(self, o, 1, out)
        return DiffOperator(out)

    def conjugate(self) -> "DiffOperator":
        """Formal quaternionic conjugation (J substitution, coefficients conjugated)."""
        out = {}
        for (mono, word), c in self.terms.items():
            poly = PolyFunction({mono: c}).conjugate()
            sign = 1
            new_word = []
            for row, col in word:
                sign *= kappa(row) * kappa(col)
                new_word.append((mate(row), mate(col)))
            word2 = tuple(sorted(new_word))
            for m2, c2 in poly.terms.items():
                key = (m2, word2)
                add = c2 * CRat(sign, 0)
                out[key] = out[key] + add if key in out else add
        return DiffOperator(out)

    def coefficient_degree_filter(self, max_degree: int) -> "DiffOperator":
        """Keep terms whose polynomial coefficient has at most the given degree."""
        keep = {}
        for (mono, word), c in self.terms.items():
            if sum(p for _, p in mono) <= max_degree:
                keep[(mono, word)] = c
        return DiffOperator(keep)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (mono, word), c in sorted(self.terms.items()):
            vars_ = "".join(f"z[{r},{s}]" + (f"^{p}" if p > 1 else "")
                            for (r, s), p in mono)
            ds = "".join(f"d[{r},{s}]" for r, s in word)
            bits.append("*".join(x for x in (repr(c), vars_, ds) if x))
        return " + ".join(bits)


@functools.lru_cache(maxsize=4096)
def _hit_splits(word: tuple) -> tuple:
    """(hit, passed) for each non-empty subset of ``word`` by position."""
    return tuple((tuple(s for s, h in zip(word, mask) if h),
                  tuple(s for s, h in zip(word, mask) if not h))
                 for mask in itertools.product((False, True), repeat=len(word))
                 if any(mask))


def _leibniz_cross(left: DiffOperator, right: DiffOperator, sign: int,
                   out: dict) -> None:
    """Add ``sign`` times the cross terms of ``left o right`` into ``out``.

    A cross term is one in which a non-empty subset of a left word (by
    position, so a repeated symbol is hit once per copy) differentiates the
    right coefficient monomial on its exponents; the factor is the product
    of the powers taken down, and the rest of the left word passes through.
    Right terms are indexed by the symbols their monomials hold, so a subset
    meets only the terms that hold its first symbol.
    """
    holding = {}
    for (m2, w2), c2 in right.terms.items():
        entry = (dict(m2), w2, c2 if sign > 0 else -c2)
        for var, _ in m2:
            holding.setdefault(var, []).append(entry)
    if not holding:
        return
    for (m1, w1), c1 in left.terms.items():
        for hit, passed in _hit_splits(w1):
            for right_powers, w2, c2 in holding.get(hit[0], ()):
                powers = right_powers.copy()
                factor = 1
                for sym in hit:
                    p = powers.get(sym, 0)
                    if not p:
                        break
                    factor *= p
                    if p == 1:
                        del powers[sym]
                    else:
                        powers[sym] = p - 1
                else:
                    for var, p in m1:
                        powers[var] = powers.get(var, 0) + p
                    key = (tuple(sorted(powers.items())),
                           tuple(sorted(passed + w2)) if passed else w2)
                    c = c1 * c2
                    if factor != 1:
                        c = c * CRat(factor, 0)
                    out[key] = out[key] + c if key in out else c


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
    out = DiffOperator(terms)
    if a.order() <= 1 and b.order() <= 1 and out.order() > 1:
        raise SecondOrderResidue(
            "second-order terms failed to cancel in a first-order commutator")
    return out


# -- the generators ---------------------------------------------------------------

def _check_dims(k: int, n: int):
    if k < 1 or n - k < 1:
        raise IndexOutOfRange(f"partition requires k >= 1 and n-k >= 1, got ({k}, {n})")


def _check_row(alpha: int, k: int):
    if not 0 <= alpha < 2 * k:
        raise IndexOutOfRange(f"row index {alpha} outside 0..{2 * k - 1}")


def _check_col(a: int, k: int, n: int):
    if not 0 <= a < 2 * (n - k):
        raise IndexOutOfRange(f"column index {a} outside 0..{2 * (n - k) - 1}")


def gen_h(alpha: int, beta: int, k: int, n: int) -> DiffOperator:
    """System-side generator h_{alpha beta} = z_{alpha b} d_{beta b} - zbar_{beta b} dbar_{alpha b}."""
    _check_dims(k, n)
    _check_row(alpha, k)
    _check_row(beta, k)
    op = DiffOperator.zero()
    for b in range(2 * (n - k)):
        op = op + DiffOperator.multiplication(PolyFunction.z(alpha, b)).compose(
            DiffOperator.d(beta, b))
        op = op - DiffOperator.multiplication(PolyFunction.zbar(beta, b)).compose(
            DiffOperator.dbar(alpha, b))
    return op


def gen_H(a: int, b: int, k: int, n: int) -> DiffOperator:
    """Surroundings-side generator H_{ab} = z_{mu a} d_{mu b} - zbar_{mu b} dbar_{mu a}."""
    _check_dims(k, n)
    _check_col(a, k, n)
    _check_col(b, k, n)
    op = DiffOperator.zero()
    for mu in range(2 * k):
        op = op + DiffOperator.multiplication(PolyFunction.z(mu, a)).compose(
            DiffOperator.d(mu, b))
        op = op - DiffOperator.multiplication(PolyFunction.zbar(mu, b)).compose(
            DiffOperator.dbar(mu, a))
    return op


def gen_p(alpha: int, a: int, k: int, n: int) -> DiffOperator:
    """Off-diagonal generator p_{alpha a} = dbar_{alpha a} + z_{alpha b} z_{mu a} d_{mu b}."""
    _check_dims(k, n)
    _check_row(alpha, k)
    _check_col(a, k, n)
    op = DiffOperator.dbar(alpha, a)
    for b in range(2 * (n - k)):
        for mu in range(2 * k):
            coeff = PolyFunction.z(alpha, b) * PolyFunction.z(mu, a)
            op = op + DiffOperator.multiplication(coeff).compose(
                DiffOperator.d(mu, b))
    return op


def gen_pbar(alpha: int, a: int, k: int, n: int) -> DiffOperator:
    return gen_p(alpha, a, k, n).conjugate()


def gen_p_via_H(alpha: int, a: int, k: int, n: int) -> DiffOperator:
    """Alternative form (delta + z zbar) dbar + z H, equal to gen_p exactly."""
    _check_dims(k, n)
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
    """Alternative form (delta + z zbar) dbar + z h, equal to gen_p exactly."""
    _check_dims(k, n)
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


def generator(kind: str, indices, k: int, n: int) -> DiffOperator:
    """Dispatch by kind: 'h' and 'H' take (i, j), 'p' and 'pbar' take (row, col)."""
    i, j = indices
    if kind == "h":
        return gen_h(i, j, k, n)
    if kind == "H":
        return gen_H(i, j, k, n)
    if kind == "p":
        return gen_p(i, j, k, n)
    if kind == "pbar":
        return gen_pbar(i, j, k, n)
    raise ValueError(f"unknown generator kind {kind!r}")


# -- J-contracted generator families ------------------------------------------
# (X J)_{i c} contracts the second index of a generator family X with the
# almost complex structure, (J X)_{d j} the first; only one term of each sum
# survives because J is a signed permutation.

def _right_j(gen, i: int, c: int) -> DiffOperator:
    """(X J)_{i c} for the generator family ``gen(i, j)``."""
    return gen(i, mate(c)).scaled(jval(mate(c), c))


def _left_j(gen, d: int, j: int) -> DiffOperator:
    """(J X)_{d j} for the generator family ``gen(i, j)``."""
    return gen(mate(d), j).scaled(jval(d, mate(d)))


def Jh(beta: int, nu: int, k: int, n: int) -> DiffOperator:
    return _left_j(lambda i, j: gen_h(i, j, k, n), beta, nu)


def JH(d: int, b: int, k: int, n: int) -> DiffOperator:
    return _left_j(lambda i, j: gen_H(i, j, k, n), d, b)


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


def _relation_cases(k: int, n: int):
    """Yield (family, lhs, rhs) for every index combination of the seven
    commutation relations, with the right sides exactly as displayed.

    Each generator is built once, into a table per kind, and every case
    reads its operators from those tables.  In the [h,h], [H,H] and [p,p]
    families every ordered pair of generators appears, and [Y, X] is exactly
    -[X, Y]; so each pair is composed once (see :func:`_commutators`) and the
    case order is unchanged.
    """
    K, A = 2 * k, 2 * (n - k)
    row_pairs = list(itertools.product(range(K), repeat=2))
    col_pairs = list(itertools.product(range(A), repeat=2))
    row_cols = list(itertools.product(range(K), range(A)))
    h_tab = {ij: gen_h(*ij, k, n) for ij in row_pairs}
    H_tab = {ab: gen_H(*ab, k, n) for ab in col_pairs}
    p_tab = {ia: gen_p(*ia, k, n) for ia in row_cols}
    pbar_tab = {ia: op.conjugate() for ia, op in p_tab.items()}

    def h(i, j):
        return h_tab[i, j]

    def H(i, j):
        return H_tab[i, j]

    def p(i, j):
        return p_tab[i, j]

    for ((al, be), (mu, nu)), lhs in _commutators(
            h_tab, itertools.product(row_pairs, repeat=2)):
        rhs = (h(al, nu).scaled(_delta(be, mu))
               - h(mu, be).scaled(_delta(al, nu))
               - _right_j(h, al, mu).scaled(jval(be, nu))
               + _left_j(h, be, nu).scaled(jval(mu, al)))
        yield "[h,h]", lhs, rhs
    for ((a, b), (c, d)), lhs in _commutators(
            H_tab, itertools.product(col_pairs, repeat=2)):
        rhs = (H(a, d).scaled(_delta(b, c))
               - H(c, b).scaled(_delta(a, d))
               - _right_j(H, a, c).scaled(jval(b, d))
               + _left_j(H, d, b).scaled(jval(c, a)))
        yield "[H,H]", lhs, rhs
    for al, be in row_pairs:
        for a, b in col_pairs:
            lhs = commutator(h(al, be), H(a, b))
            yield "[h,H]", lhs, DiffOperator.zero()
    for al, a in row_cols:
        for mu, nu in row_pairs:
            lhs = commutator(p(al, a), h(mu, nu))
            rhs = (p(mu, a).scaled(-_delta(al, nu))
                   - _left_j(p, nu, a).scaled(jval(al, mu)))
            yield "[p,h]", lhs, rhs
    for al in range(K):
        for a, b, c in itertools.product(range(A), repeat=3):
            lhs = commutator(p(al, a), H(b, c))
            rhs = (p(al, b).scaled(-_delta(a, c))
                   + _right_j(p, al, c).scaled(jval(a, b)))
            yield "[p,H]", lhs, rhs
    pp_pairs = (((al, a), (be, b)) for al, be in row_pairs for a, b in col_pairs)
    for ((al, a), (be, b)), lhs in _commutators(p_tab, pp_pairs):
        rhs = (_right_j(h, al, be).scaled(-jval(a, b))
               - _right_j(H, a, b).scaled(jval(al, be)))
        yield "[p,p]", lhs, rhs
    for al, be in row_pairs:
        for a, b in col_pairs:
            lhs = commutator(pbar_tab[al, a], p(be, b))
            rhs = (H(b, a).scaled(_delta(al, be))
                   + h(be, al).scaled(_delta(a, b)))
            yield "[pbar,p]", lhs, rhs


def verify_commutation_table(k: int, n: int, max_degree: int = 3,
                             spot_checks: int = 8) -> dict:
    """Check all seven commutation relations at the given partition.

    Every relation is verified twice, by two independent reduction orders:
    once as an exact equality of canonical operator forms, and once by
    applying both sides to monomials up to ``max_degree`` (the first
    ``spot_checks`` index combinations of each family, to bound runtime).
    Any family that fails the displayed form would be reported with its
    discrepancies rather than silently rewritten.
    """
    _check_dims(k, n)
    basis = monomials_up_to_degree(k, n, max_degree)
    report = {
        "k": k, "n": n, "max_degree": max_degree,
        "families": {}, "all_passed": True, "rewrites": [],
    }
    for family, lhs, rhs in _relation_cases(k, n):
        entry = report["families"].setdefault(
            family, {"cases": 0, "operator_failures": 0,
                     "application_failures": 0, "applied_cases": 0})
        entry["cases"] += 1
        if lhs != rhs:
            entry["operator_failures"] += 1
            report["all_passed"] = False
        if entry["applied_cases"] < spot_checks:
            entry["applied_cases"] += 1
            diff = lhs - rhs
            for mono in basis:
                if not diff.apply(mono).is_zero():
                    entry["application_failures"] += 1
                    report["all_passed"] = False
                    break
    for entry in report["families"].values():
        entry["passed"] = (entry["operator_failures"] == 0
                           and entry["application_failures"] == 0)
    return report


# -- ladder structure ----------------------------------------------------------

def cartan_h(alpha: int, k: int, n: int) -> DiffOperator:
    return gen_h(alpha, alpha, k, n)


def cartan_H(a: int, k: int, n: int) -> DiffOperator:
    return gen_H(a, a, k, n)


def eigenvalue_of(op: DiffOperator, f: PolyFunction) -> CRat:
    """Exact eigenvalue of ``f`` under ``op``; raises NotEigenvector."""
    if f.is_zero():
        raise NotEigenvector("the zero polynomial is not an eigenvector")
    g = op.apply(f)
    if g.is_zero():
        return ZERO
    mono, c = next(iter(f.terms.items()))
    top = g.terms.get(mono)
    if top is None:
        raise NotEigenvector("image lost the leading monomial")
    denom = c.re * c.re + c.im * c.im
    lam = top * c.conjugate() * CRat(Fraction(1, 1) / denom, Fraction(0))
    for m2, c2 in f.terms.items():
        if g.terms.get(m2, ZERO) != c2 * lam:
            raise NotEigenvector("image is not a scalar multiple of the input")
    if len(g.terms) != len(f.terms):
        raise NotEigenvector("image has extra monomials")
    return lam


def ladder_check(k: int, n: int, vector: PolyFunction,
                 alpha: int = 0, a: int = 0) -> dict:
    """Raising/lowering on an eigen-monomial of the Cartan elements.

    ``vector`` must be an exact eigenvector of H_{aa} and of h_{alpha alpha}.
    Applying p_{alpha a} shifts the H_{aa} eigenvalue by exactly +1, and
    applying pbar_{alpha a} shifts the h_{alpha alpha} eigenvalue by exactly
    -1 (whenever the image is nonzero).
    """
    big = cartan_H(a, k, n)
    small = cartan_h(alpha, k, n)
    n_a = eigenvalue_of(big, vector)
    n_alpha = eigenvalue_of(small, vector)
    out = {"H_eigenvalue": n_a, "h_eigenvalue": n_alpha,
           "raised": None, "lowered": None}
    up = gen_p(alpha, a, k, n).apply(vector)
    if not up.is_zero():
        out["raised"] = eigenvalue_of(big, up)
        if out["raised"] != n_a + ONE:
            raise NotEigenvector(
                f"raising produced eigenvalue {out['raised']}, "
                f"expected {n_a + ONE}")
    down = gen_pbar(alpha, a, k, n).apply(vector)
    if not down.is_zero():
        out["lowered"] = eigenvalue_of(small, down)
        if out["lowered"] != n_alpha - ONE:
            raise NotEigenvector(
                f"lowering produced eigenvalue {out['lowered']}, "
                f"expected {n_alpha - ONE}")
    return out


# -- the Laplace-Beltrami composite ------------------------------------------------

def laplace_beltrami(k: int, n: int) -> DiffOperator:
    """tr(h h*) + tr(p p*) + tr(H H*) + tr(p* p), a second-order operator.

    The trace of a product with the conjugate-transposed generator matrix
    turns into sums of compositions with conjugated generators.  The result
    annihilates constants, is invariant under the J conjugation, and
    commutes with every Cartan generator.
    """
    _check_dims(k, n)
    K, A = 2 * k, 2 * (n - k)
    p_ops = [gen_p(al, a, k, n) for al in range(K) for a in range(A)]
    total = DiffOperator.zero()
    for al, be in itertools.product(range(K), repeat=2):
        op = gen_h(al, be, k, n)
        total = total + op.compose(op.conjugate())
    for op in p_ops:
        total = total + op.compose(op.conjugate())
    for a, b in itertools.product(range(A), repeat=2):
        op = gen_H(a, b, k, n)
        total = total + op.compose(op.conjugate())
    for op in p_ops:
        total = total + op.conjugate().compose(op)
    return total


def linear_part(op: DiffOperator) -> DiffOperator:
    """Drop all terms with non-constant polynomial coefficients.

    Near the origin the off-diagonal generator reduces to its constant part,
    the bare conjugate derivative.
    """
    return op.coefficient_degree_filter(0)
