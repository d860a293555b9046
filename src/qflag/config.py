"""Numerical tolerance policy.

Every identity implemented by the library is exact in real arithmetic; the
constants below state how much floating-point slack each class of check is
allowed.  They are the single policy of the library: routines read them
from this module at call time and take no tolerance objects of their own.
"""

#: algebraic identities evaluated directly (products, adjoints, traces)
IDENTITY = 1e-10
#: relative tolerance for matching doubled eigenvalue pairs
PAIRING_REL = 1e-8
#: quaternionic-structure residual allowed when projecting a complex
#: embedding back to quaternion entries
STRUCTURE = 1e-9
#: step for first-order central differences (tangent pushforwards)
FD_STEP = 1e-6
#: step for doubly-differentiated quantities (Maurer-Cartan residuals)
SECOND_DIFF_STEP = 1e-4
#: ceiling on the 1-norm condition number of a complex embedding before
#: its matrix counts as singular
COND_LIMIT = 1e12
