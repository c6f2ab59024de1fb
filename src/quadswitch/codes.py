"""Binary linear codes spanned by adjacency rows, with exact weight data.

Codewords are ints, bit i = coordinate of vertex i in the graph's canonical
order; a graph and its switch share that order, so their codes are directly
comparable.  Weight enumeration walks the 2^dim message space along a Gray
code, one basis-row XOR per codeword, and is exact by construction.

The pipeline reads every code off the quadratic form (see distinguish).
code_from_graph, weight_distribution and min_weight_codewords read a
graph's rows and walk a whole code; they are the reference the form's reads
are tested against, and no pipeline code calls them.

A code C' = C + <s, h>, with s and h independent modulo C, is the union of
the four cosets C, C + h, C + s and C + s + h, and augmented_min_words finds
its minimum words from C's least nonzero weight m and a walk of only the
cosets that can hold one.  Each walked coset is a Gray walk over C's basis
from its offset.  C + s needs no walk when m > 2|s|: for c in C,
|c + s| >= |c| - |s| >= m - |s| > |s| unless c = 0, so s is the only word of
that coset of weight |s| or less, and the least weight of C' is at most |s|.
By the same triangle inequality, with M the greatest weight in C, every
word of C + x is at least |x| - M heavy, so C + h and C + s + h need no walk
when |x| - M > |s| for x = h or s + h: none of their words can tie s.  For
the quadric graph's switches that holds at every n from 7 to 15, where no
coset is walked.  When the least weight found reaches m, C's own nonzero
words would count too, and the walk refuses with CodeError.

The whole weight enumerator of C' needs no coset walked when s and h are
also disjoint: for c in C, |c + s| = |c| + |s| - 2|c & s|, and as
c & (s + h) = (c & s) + (c & h), |c + s + h| = |c| + |s| + |h| - 2|c & s|
- 2|c & h|.  So augmented_weight_distribution counts the triples
(|c|, |c & s|, |c & h|) over one Gray walk of C's 2^dim words and reads
all 4 * 2^dim weights of C' off them, exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .gf2geom import QuadswitchError, echelonize
from .srg import Graph, expected_params

ENUMERATION_GUARD = 24  # 2^24 codewords is the largest exact sweep we allow


class CodeError(QuadswitchError, ValueError):
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


def iter_codewords(code: BinaryCode, offset: int = 0) -> Iterator[int]:
    """All 2^dim words of the coset code + offset, Gray-code order (starts at
    offset, one XOR per step); the codewords themselves for offset 0."""
    if code.dim > ENUMERATION_GUARD:
        raise CodeError(f"dim {code.dim} exceeds the exact-enumeration guard {ENUMERATION_GUARD}")
    word = offset
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


def augmented_min_words(code: BinaryCode, min_weight: int, max_weight: int, s: int, h: int) -> list[int]:
    """The minimum-weight words of code + <s, h>, sorted, by the coset walk of
    the module docstring; CodeError when their weight reaches min_weight.

    Preconditions: min_weight and max_weight are the least and the greatest
    weight of a nonzero word of code, and s and h are independent modulo
    code, so the four cosets are distinct and none but code holds the zero
    word."""
    bound = s.bit_count()
    if min_weight > 2 * bound:  # s is the one word of code + s this light
        best, words, offsets = bound, [s], (h, s ^ h)
    else:
        best, words, offsets = None, [], (s, h, s ^ h)
    for offset in offsets:
        if offset.bit_count() - max_weight > bound:  # every word of the coset is heavier than s
            continue
        for w in iter_codewords(code, offset):
            wt = w.bit_count()
            if best is None or wt < best:
                best, words = wt, [w]
            elif wt == best:
                words.append(w)
    if best >= min_weight:
        raise CodeError(f"the cosets' least weight {best} reaches the base code's {min_weight}")
    return sorted(words)


def augmented_weight_distribution(code: BinaryCode, s: int, h: int) -> dict[int, int]:
    """The weight enumerator of code + <s, h>, from one walk of code (see the
    module docstring).  s and h must be disjoint, and are refused otherwise;
    the caller shows them independent modulo code, so that the four cosets
    are distinct."""
    if s & h:
        raise CodeError("the coset weights need s and h disjoint")
    words = iter_codewords(code)
    triples = Counter((c.bit_count(), (c & s).bit_count(), (c & h).bit_count()) for c in words)
    ws, wh = s.bit_count(), h.bit_count()
    dist: Counter = Counter()
    for (w, a, b), count in triples.items():
        for weight in (w, w + ws - 2 * a, w + wh - 2 * b, w + ws + wh - 2 * a - 2 * b):
            dist[weight] += count
    return dict(sorted(dist.items()))


def expected_gamma_weight_distribution(n: int, kind: str) -> dict[int, int]:
    """Closed-form weight enumerator of the unswitched quadric graph's code,
    of dimension n+1, from its parameters (v, k) = expected_params(n, kind):
    v words of weight k, and every other nonzero word of weight 2^(n-1)."""
    p = expected_params(n, kind)
    return dict(sorted({0: 1, p.k: p.v, 1 << (n - 1): (1 << (n + 1)) - p.v - 1}.items()))
