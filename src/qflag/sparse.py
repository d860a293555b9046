"""Sparse exact sums: the additive arithmetic that the polynomial and
operator classes share."""

from fractions import Fraction


def exact(value):
    """An int unchanged, any other real number as the equal Fraction.

    A complex value raises TypeError.
    """
    return value if type(value) is int else Fraction(value)


class SparseSum:
    """Sum of coefficient x key over a dict of nonzero coefficients.

    The constructor takes exact coefficients as given and drops zero ones;
    subclasses coerce numbers from callers where they enter (see
    :func:`exact`).  Values of two classes are never equal, and adding or
    subtracting them raises TypeError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, o):
        if type(o) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            out[k] = out[k] + c if k in out else c
        return type(self)(out)

    def __sub__(self, o):
        if type(o) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            out[k] = out[k] - c if k in out else -c
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __eq__(self, o) -> bool:
        return type(o) is type(self) and self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))
