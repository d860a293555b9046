"""Sparse exact sums: the additive arithmetic that the polynomial and
operator classes share, and the one ring of exact polynomials.

A monomial is one int of ``FIELD_BITS``-bit fields.  The symbol with index
i owns field i + 1, which holds its power; field 0 holds the total degree,
the sum of the others.  Every field's top bit is a guard that every stored
key leaves clear, so a field holds at most ``MAX_POWER``.  A monomial
product is then one integer add, and a derivative a field test and a
subtraction; the degree is the low field.  No symbol's power exceeds the
degree, so an add that takes any power past ``MAX_POWER`` sets the guard
bit of the degree field, without carrying into the next field.  A product
that could build such a key checks that bit on each key before it stores
them (:func:`check_guard`), and a polynomial product, whose degree is the
sum of its factors' degrees, checks those before it multiplies; either
raises :class:`ExponentOverflow`.  Keys are decoded only where text is
printed, and for the order in which terms print.
"""

import operator
from fractions import Fraction

from .errors import ExponentOverflow, IndexOutOfRange

FIELD_BITS = 16
MAX_POWER = (1 << FIELD_BITS - 1) - 1
# the number of symbol indices a key may use, which bounds a key's size: a
# symbol at index i makes every key that holds it 16 (i + 2) bits long
MAX_SYMBOLS = 4095
_DEGREE_GUARD = MAX_POWER + 1


def exact(value):
    """An int unchanged, any other real number as the equal Fraction, or as
    its int when that Fraction is integral.

    A complex value raises TypeError.
    """
    if type(value) is int:
        return value
    value = Fraction(value)
    return int(value) if value.denominator == 1 else value


def unit(index: int) -> int:
    """The key of the symbol with index ``index`` to the first power; an
    index outside 0..MAX_SYMBOLS-1 raises IndexOutOfRange."""
    index = operator.index(index)
    if not 0 <= index < MAX_SYMBOLS:
        raise IndexOutOfRange(f"symbol index {index} outside 0..{MAX_SYMBOLS - 1}")
    return (1 << FIELD_BITS * (index + 1)) + 1


def check_guard(keys) -> None:
    """Raise ExponentOverflow if the degree field of any of ``keys`` has its
    guard bit set: an add took a power past MAX_POWER."""
    if any(map(_DEGREE_GUARD.__and__, keys)):
        raise ExponentOverflow(f"a power or derivative count passed {MAX_POWER}, "
                               f"the largest a monomial field holds")


# the total degree of a key, its low field
key_degree = MAX_POWER.__and__


def power(key: int, index: int) -> int:
    """The power of the symbol with index ``index`` in ``key``."""
    return key >> FIELD_BITS * (index + 1) & MAX_POWER


def fields(key: int) -> list:
    """The (symbol index, power) pairs of the symbols that ``key`` holds, by
    index."""
    out = []
    key >>= FIELD_BITS
    while key:
        index = ((key & -key).bit_length() - 1) // FIELD_BITS
        p = key >> FIELD_BITS * index & MAX_POWER
        out.append((index, p))
        key -= p << FIELD_BITS * index
    return out


class SparseSum:
    """Sum of coefficient x key over a dict of nonzero coefficients.

    The constructor takes exact coefficients as given and drops zero ones;
    subclasses coerce numbers from callers where they enter (see
    :func:`exact`).  Values of two classes are never equal, and adding or
    subtracting them raises TypeError.  A subclass prints its keys through
    ``_texts(key)``, the tuple of texts that follow the coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def _taking(cls, terms: dict):
        """The sum of ``terms``, a dict that nothing else holds, kept as it
        is unless it holds a zero coefficient."""
        if not all(terms.values()):
            return cls(terms)
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    @classmethod
    def combination(cls, pairs):
        """Sum of c x s over the (c, s) pairs whose c is nonzero; ``pairs``
        may be an iterator, so only the s being added need be held.  An s of
        another class raises TypeError."""
        out = {}
        for c0, s in pairs:
            if type(s) is not cls:
                raise TypeError(f"cannot combine {type(s).__name__} "
                                f"into {cls.__name__}")
            if c0:
                for k, c in s.terms.items():
                    out[k] = out.get(k, 0) + c * c0
        return cls._taking(out)

    def __add__(self, o):
        if type(o) is not type(self):
            return NotImplemented
        return self.combination(((1, self), (1, o)))

    def __sub__(self, o):
        if type(o) is not type(self):
            return NotImplemented
        return self.combination(((1, self), (-1, o)))

    def __neg__(self):
        return self.combination(((-1, self),))

    def __eq__(self, o) -> bool:
        return type(o) is type(self) and self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # the sort key of the printed terms, applied to each key; None keeps the
    # keys' natural order
    _order = None

    def __repr__(self) -> str:
        """The terms joined by " + ", or "0" for an empty sum; a term is its
        coefficient and the non-empty texts of its key, joined by "*"."""
        return " + ".join(
            "*".join(t for t in (str(self.terms[k]), *self._texts(k)) if t)
            for k in sorted(self.terms, key=self._order)) or "0"


class Polynomial(SparseSum):
    """Exact polynomial: {monomial: coefficient}.

    A monomial is packed as the module docstring says; 0 is the constant
    monomial.  Subclasses choose the symbols: ``_index(symbol)`` gives a
    symbol's index and ``_symbol(index)`` takes it back.  A number
    multiplies as a constant, and a product with a polynomial of another
    class raises TypeError.
    """

    __slots__ = ()

    @classmethod
    def monomial(cls, powers) -> int:
        """The packed monomial of the (symbol, power) pairs ``powers``; the
        powers of a repeated symbol add.  A power outside 0..MAX_POWER, or a
        sum of them past it, raises ExponentOverflow."""
        key = 0
        for sym, p in powers:
            if not 0 <= p <= MAX_POWER:
                raise ExponentOverflow(f"power {p} outside 0..{MAX_POWER}")
            key += p * unit(cls._index(sym))
            check_guard((key,))
        return key

    @classmethod
    def powers(cls, mono: int) -> tuple:
        """The (symbol, power) pairs of a packed monomial, sorted by symbol,
        the inverse of :meth:`monomial`; also the order in which terms
        print."""
        return tuple(sorted((cls._symbol(i), p) for i, p in fields(mono)))

    _order = powers

    @classmethod
    def constant(cls, value):
        return cls({0: exact(value)})

    def __mul__(self, o):
        if type(o) is not type(self):
            o = self.constant(o)
        # a product's degree is the sum of its factors' degrees
        if self.degree() + o.degree() > MAX_POWER:
            raise ExponentOverflow(f"a product of degree above {MAX_POWER}, "
                                   f"the largest a monomial field holds")
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return self._taking(out)

    __rmul__ = __mul__

    def diff(self, sym):
        """Partial derivative with respect to ``sym``."""
        index = self._index(sym)
        step = unit(index)
        out = {}
        for mono, c in self.terms.items():
            p = power(mono, index)
            if p:
                # lowering one field maps distinct monomials to distinct
                # ones, so the derivative needs no accumulation
                out[mono - step] = c * p
        return self._taking(out)

    def degree(self) -> int:
        return max(map(key_degree, self.terms), default=0)
