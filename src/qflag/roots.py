"""The C_n root system and the weight-label scheme.

The rank-n symplectic algebra has the 2n^2 roots {±L_i ± L_j : i < j}
together with the long roots {±2 L_i}, written here as integer vectors in
the L-basis.  Lower ranks embed by zero padding.  Weight terms are labelled
with the quark letters u, d, s, c for L_1..L_4 (generic names beyond that),
an overbar for negative coefficients, and an optional quaternion basis tag
playing the role of a colour marker; one, two, or three weight terms
classify as lepton, meson, or baryon.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass

from .errors import InvalidRank, OddDimension, UnsupportedWeightCount

BAR = "̄"  # combining macron

_NAMES = ("u", "d", "s", "c")


def _symbol(index: int) -> str:
    return _NAMES[index] if index < len(_NAMES) else f"q{index + 1}"


@dataclass(frozen=True)
class RootSystem:
    n: int
    roots: tuple

    @functools.cached_property
    def _members(self) -> frozenset:
        """The roots as a set, built on the first membership test; it is not
        a field, so repr, equality and hashing ignore it."""
        return frozenset(self.roots)

    def __contains__(self, vec) -> bool:
        return tuple(vec) in self._members


def _require_rank(n) -> int:
    """``n`` as an int, once it is a positive integer of an integer type."""
    try:
        rank = operator.index(n)
    except TypeError:
        rank = 0
    if rank < 1 or isinstance(n, bool):     # True is no rank
        raise InvalidRank(f"rank must be a positive integer, got {n!r}")
    return rank


def generate(n: int) -> RootSystem:
    """All 2 n^2 roots of the rank-n algebra, sorted lexicographically."""
    n = _require_rank(n)
    # i == j gives the long roots ±2 L_i and, with opposite signs, zero
    roots = {tuple(si * (m == i) + sj * (m == j) for m in range(n))
             for i in range(n) for j in range(i, n)
             for si in (1, -1) for sj in (1, -1)}
    roots.discard((0,) * n)
    return RootSystem(n, tuple(sorted(roots)))


def embed_check(m: int, n: int) -> bool:
    """True when every rank-m root, zero padded, is a rank-n root."""
    m, n = _require_rank(m), _require_rank(n)
    if not m < n:
        raise InvalidRank(f"need 1 <= m < n, got m={m}, n={n}")
    big, padding = generate(n), (0,) * (n - m)
    return all(root + padding in big for root in generate(m).roots)


def euler_characteristic(sphere_dim: int) -> int:
    """Euler characteristic of an even-dimensional sphere: always 2."""
    if sphere_dim < 2 or sphere_dim % 2 != 0:
        raise OddDimension(f"even dimension >= 2 required, got {sphere_dim}")
    return 2


@dataclass(frozen=True)
class ParticleLabel:
    label: str            # plain quark string, e.g. "ud", "ūd", "uud"
    classification: str   # lepton | meson | baryon
    terms: tuple          # ((coefficient vector, tag-or-None), ...)

    def canonical(self) -> str:
        """Round-trippable rendering: terms separated by spaces, colour tags
        attached with '@'."""
        bits = []
        for vec, tag in self.terms:
            text = _term_string(vec)
            bits.append(f"{text}@{tag}" if tag else text)
        return " ".join(bits)


_CLASSES = {1: "lepton", 2: "meson", 3: "baryon"}


def _term_string(vec) -> str:
    out = []
    for idx, coeff in enumerate(vec):
        if coeff == 0:
            continue
        name = _symbol(idx) + (BAR if coeff < 0 else "")
        out.append(name * abs(coeff))
    return "".join(out)


def particle_label(weights) -> ParticleLabel:
    """Label a list of (coefficient vector, quaternion tag) weight terms."""
    terms = []
    for entry in weights:
        vec, tag = entry
        vec = tuple(int(c) for c in vec)
        if tag is not None and tag not in ("i", "j", "k"):
            raise UnsupportedWeightCount(f"colour tag must be i, j, or k: {tag!r}")
        terms.append((vec, tag))
    if len(terms) not in _CLASSES:
        raise UnsupportedWeightCount(
            f"{len(terms)} weight terms; the scheme covers 1, 2, or 3")
    label = "".join(_term_string(vec) for vec, _ in terms)
    return ParticleLabel(label=label,
                         classification=_CLASSES[len(terms)],
                         terms=tuple(terms))


def parse_label(text: str, n: int = 4) -> ParticleLabel:
    """Parse the canonical rendering back into weight terms."""
    n = _require_rank(n)
    index = {_symbol(i): i for i in range(n)}
    # longest name first: from rank 123 on, q123 is one name, not q12 then 3
    symbol = re.compile(
        f"({'|'.join(sorted(index, key=len, reverse=True))})({BAR})?")
    terms = []
    for chunk in text.split():
        body, at, tag = chunk.partition("@")
        if not body:
            raise UnsupportedWeightCount(f"term {chunk!r} has no symbol")
        vec = [0] * n
        idx = 0
        while idx < len(body):
            match = symbol.match(body, idx)
            if not match:
                raise UnsupportedWeightCount(f"unparseable symbol at {body[idx:]!r}")
            vec[index[match[1]]] += -1 if match[2] else 1
            idx = match.end()
        terms.append((tuple(vec), tag if at else None))
    return particle_label(terms)


def projection(system: RootSystem, dims: int = 2):
    """Orthographic projection of the roots onto the first coordinates."""
    if dims not in (2, 3):
        raise InvalidRank("projection supports 2 or 3 output coordinates")
    out = []
    for root in system.roots:
        padded = tuple(root) + (0,) * max(0, dims - system.n)
        out.append(padded[:dims])
    return out
