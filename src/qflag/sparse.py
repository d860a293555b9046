"""Sparse exact sums: the additive arithmetic that the polynomial and
operator classes share, and the one ring of exact polynomials."""

import functools
from fractions import Fraction


def exact(value):
    """An int unchanged, any other real number as the equal Fraction, or as
    its int when that Fraction is integral.

    A complex value raises TypeError.
    """
    if type(value) is int:
        return value
    value = Fraction(value)
    return int(value) if value.denominator == 1 else value


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
        return cls(out)

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


@functools.lru_cache(maxsize=2048)
def _merged(m1: tuple, m2: tuple) -> tuple:
    """The monomial product ``m1 m2``; few pairs of monomials recur across
    the generator calculus's products, as the generators share their
    coefficients."""
    if not m1:
        return m2
    if not m2:
        return m1
    # a symbol is held at most once per factor, so equal symbols sort into
    # adjacent pairs; the rest keep their (symbol, power) tuples
    out = []
    for item in sorted(m1 + m2):
        if out and out[-1][0] == item[0]:
            out[-1] = (item[0], out[-1][1] + item[1])
        else:
            out.append(item)
    return tuple(out)


class Polynomial(SparseSum):
    """Exact polynomial: {monomial: coefficient}.

    A monomial is a tuple of (symbol, power) pairs sorted by symbol, each
    symbol held once with a positive power; the empty tuple is the
    constant monomial.  Subclasses choose the symbols.  A number multiplies
    as a constant, and a product with a polynomial of another class raises
    TypeError.
    """

    __slots__ = ()

    @classmethod
    def constant(cls, value):
        return cls({(): exact(value)})

    def __mul__(self, o):
        if type(o) is not type(self):
            o = self.constant(o)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = _merged(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return type(self)(out)

    __rmul__ = __mul__

    def diff(self, sym):
        """Partial derivative with respect to ``sym``."""
        out = {}
        for mono, c in self.terms.items():
            for idx, (var, power) in enumerate(mono):
                if var == sym:
                    rest = ((var, power - 1),) if power > 1 else ()
                    # lowering one symbol maps distinct monomials to
                    # distinct ones, so the derivative needs no accumulation
                    out[mono[:idx] + rest + mono[idx + 1:]] = c * power
                    break
        return type(self)(out)

    def degree(self) -> int:
        return max((sum(p for _, p in m) for m in self.terms), default=0)
