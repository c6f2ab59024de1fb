"""Binary linear codes spanned by adjacency rows, with exact weight data.

Codewords are ints, bit i = coordinate of vertex i in the graph's canonical
order; a graph and its switch share that order, so their codes are directly
comparable.  Weight enumeration walks the 2^dim message space along a Gray
code, one basis-row XOR per codeword, and is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .gf2geom import ELLIPTIC, echelonize
from .srg import Graph

ENUMERATION_GUARD = 24  # 2^24 codewords is the largest exact sweep we allow


class CodeError(ValueError):
    """Length mismatch, empty code, or an enumeration beyond the guard."""


@dataclass(frozen=True)
class BinaryCode:
    """Row space of a 0/1 matrix over GF(2), held as a reduced echelon basis."""

    length: int
    basis: tuple[int, ...]

    def __post_init__(self):
        if self.basis != echelonize(self.basis):
            raise CodeError("basis is not in reduced echelon form")
        if any(b >> self.length for b in self.basis):
            raise CodeError("basis vector longer than the code length")

    @property
    def dim(self) -> int:
        return len(self.basis)


def code_from_graph(g: Graph) -> BinaryCode:
    """The code generated by the graph's adjacency rows modulo 2."""
    return BinaryCode(g.v, echelonize(g.rows))


def from_vectors(length: int, vectors) -> BinaryCode:
    """Code spanned by arbitrary generator vectors."""
    vecs = list(vectors)
    if any(v < 0 or v >> length for v in vecs):
        raise CodeError("generator vector does not fit the code length")
    return BinaryCode(length, echelonize(vecs))


def contains(code: BinaryCode, vector: int) -> bool:
    """Membership by reduction against the echelon basis."""
    if vector < 0 or vector >> code.length:
        raise CodeError(f"vector does not fit in length {code.length}")
    for b in code.basis:
        if vector ^ b < vector:
            vector ^= b
    return vector == 0


def iter_codewords(code: BinaryCode) -> Iterator[int]:
    """All 2^dim codewords, Gray-code order (starts at 0, one XOR per step)."""
    if code.dim > ENUMERATION_GUARD:
        raise CodeError(f"dim {code.dim} exceeds the exact-enumeration guard {ENUMERATION_GUARD}")
    word = 0
    yield word
    for m in range(1, 1 << code.dim):
        word ^= code.basis[(m & -m).bit_length() - 1]
        yield word


def weight_distribution(code: BinaryCode) -> dict[int, int]:
    """Exact weight enumerator as a map weight -> number of codewords."""
    dist: dict[int, int] = {}
    for w in iter_codewords(code):
        wt = w.bit_count()
        dist[wt] = dist.get(wt, 0) + 1
    return dict(sorted(dist.items()))


def min_weight_codewords(code: BinaryCode) -> list[int]:
    """All nonzero codewords of minimum weight, sorted."""
    if code.dim == 0:
        raise CodeError("the zero code has no nonzero codewords")
    best = None
    words: list[int] = []
    for w in iter_codewords(code):
        if not w:
            continue
        wt = w.bit_count()
        if best is None or wt < best:
            best = wt
            words = [w]
        elif wt == best:
            words.append(w)
    return sorted(words)


def expected_gamma_weight_distribution(n: int, kind: str) -> dict[int, int]:
    """Closed-form weight enumerator of the unswitched quadric graph's code."""
    h = 1 << ((n - 1) // 2)
    if kind == ELLIPTIC:
        return {0: 1, 1 << (n - 1): (1 << n) - h - 1, (1 << (n - 1)) + h: (1 << n) + h}
    return {0: 1, (1 << (n - 1)) - h: (1 << n) - h, 1 << (n - 1): (1 << n) + h - 1}
