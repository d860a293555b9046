"""Numerical tolerance policy.

Every identity implemented by the library is exact in real arithmetic; the
constants below state how much floating-point slack each class of check is
allowed, and routines read them from this module at call time.  One
routine takes a tolerance, because its callers need two bounds:
``GroupElement(m, tol=)`` (``IDENTITY``, and ``10 * STRUCTURE`` for
``coset.coset_element``, whose blocks come back through checked spectral
readbacks).  Every other routine has one fixed bound: a constant below, or
a literal that its docstring or a comment beside it states.
``qflag verify --tol`` overrides the bounds of the verify checks.
"""

#: algebraic identities evaluated directly (products, adjoints, traces)
IDENTITY = 1e-10
#: relative tolerance for matching doubled eigenvalue pairs
PAIRING_REL = 1e-8
#: quaternionic-structure residual allowed when projecting a complex
#: embedding back to quaternion entries
STRUCTURE = 1e-9
#: ceiling on the 1-norm condition number of a complex embedding before
#: its matrix counts as singular
COND_LIMIT = 1e12
