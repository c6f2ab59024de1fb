"""The graph on non-quadric points of PG(n,2) and exact SRG verification.

Vertices are the points off the quadric in canonical order; two vertices are
adjacent iff the line joining them is external (all three of x, y, x+y off
the quadric).  Adjacency rows are bit-packed ints, so common-neighbour
counts are popcounts of row ANDs and the whole strong-regularity identity
A^2 = kI + lam*A + mu*(J - I - A) is checked exactly over the integers.

Rows are built whole: with N the mask of the points off the quadric (bit p
for point p), the neighbours of x are N & (N translated by x), where the
translation moves bit p to bit p^x by one block swap per set bit of x; the
label bits of that point-indexed row are then gathered into vertex order.

verify_srg checks all v(v-1)/2 pairs and is the reference.  A graph that
differs from an already verified one only in the rows and columns of a small
vertex set, such as a Godsil-McKay switch at S, is checked by
verify_srg_near: the rows of that set in full, and the pairs of all other
rows through the exact identity for how their common-neighbour counts move,
once per pair of classes of vertices that meet the set alike.  It reaches
the same decision as verify_srg.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import itemgetter

from .gf2geom import PARABOLIC, GeometryError, QuadraticForm, nonquadric_points


class NotStronglyRegular(ValueError):
    """Raised with a witness when the SRG identity fails."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Graph:
    """Immutable graph with geometric vertex labels.

    labels[i] is the point represented by vertex i (strictly increasing);
    rows[i] is the adjacency bitmask of vertex i (bit j = edge ij).
    """

    labels: tuple[int, ...]
    rows: tuple[int, ...]

    @property
    def v(self) -> int:
        return len(self.labels)

    def adjacent(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def neighbors(self, i: int) -> list[int]:
        r = self.rows[i]
        return [j for j in range(self.v) if (r >> j) & 1]

    def index_of(self, point: int) -> int:
        """Vertex index of a point label (labels are sorted)."""
        i = bisect.bisect_left(self.labels, point)
        if i == len(self.labels) or self.labels[i] != point:
            raise KeyError(f"point {point} is not a vertex")
        return i

    def check_well_formed(self) -> None:
        v = self.v
        if list(self.labels) != sorted(set(self.labels)):
            raise ValueError("labels must be strictly increasing")
        for i, r in enumerate(self.rows):
            if r >> v:
                raise ValueError(f"row {i} has bits beyond the vertex count")
            if (r >> i) & 1:
                raise ValueError(f"vertex {i} has a loop")
            for j in range(v):
                if ((r >> j) & 1) != ((self.rows[j] >> i) & 1):
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")


def _translate(mask: int, x: int, halves: list[int]) -> int:
    """Move bit p of a point-indexed mask to bit p^x: one block swap per set
    bit b of x, exchanging the 2^b-wide blocks that differ in coordinate b."""
    b = 0
    while x:
        if x & 1:
            width, low = 1 << b, halves[b]
            mask = ((mask & low) << width) | ((mask >> width) & low)
        x >>= 1
        b += 1
    return mask


def build_gamma(form: QuadraticForm) -> Graph:
    """Graph on the non-quadric points, adjacency = joining line is external."""
    if form.kind == PARABOLIC or form.n % 2 == 0 or form.n < 5:
        raise GeometryError(
            "the external-line graph needs an elliptic or hyperbolic quadric with odd n >= 5"
        )
    labels = nonquadric_points(form)
    size = 1 << (form.n + 1)  # bit positions 0 .. 2^(n+1)-1, one per vector
    ones = (1 << size) - 1
    # halves[b]: the positions whose coordinate b is 0
    halves = [ones // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1) for b in range(form.n + 1)]
    off = ones & ~form.zero_mask & ~1  # N: the points off the quadric
    # format(row, spec)[size - 1 - p] is bit p, so this picks the label bits of
    # a point-indexed row, highest vertex first: a vertex-indexed row in binary
    gather = itemgetter(*[size - 1 - p for p in reversed(labels)])
    spec = f"0{size}b"
    rows = [
        # y is a neighbour of x iff y and x^y are both off the quadric
        int("".join(gather(format(off & _translate(off, x, halves), spec))), 2)
        for x in labels
    ]
    return Graph(tuple(labels), tuple(rows))


@dataclass(frozen=True)
class SrgParams:
    """Strongly-regular parameters with the derived spectral data.

    r, s, f, g are None when the eigenvalues are irrational (conference
    graphs); every graph in this package has an integral spectrum.
    """

    v: int
    k: int
    lam: int
    mu: int
    r: int | None = None
    s: int | None = None
    f: int | None = None
    g: int | None = None

    def basic(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)


def _spectral(v: int, k: int, lam: int, mu: int):
    """Integer eigenvalues and multiplicities of an SRG, or Nones."""
    disc = (lam - mu) * (lam - mu) + 4 * (k - mu)
    root = math.isqrt(disc)
    if root * root != disc or (lam - mu + root) % 2 != 0:
        return None, None, None, None
    r = (lam - mu + root) // 2
    s = (lam - mu - root) // 2
    if r == s:
        return None, None, None, None
    fr_num = -(v - 1) * s - k
    gr_num = (v - 1) * r + k
    if fr_num % (r - s) or gr_num % (r - s):
        return None, None, None, None
    return r, s, fr_num // (r - s), gr_num // (r - s)


def verify_srg(g: Graph) -> SrgParams:
    """Exact strong-regularity check; returns the parameters or raises.

    Verifies that every vertex has degree k and every pair of distinct
    vertices has lam (adjacent) or mu (non-adjacent) common neighbours.
    """
    v = g.v
    if v < 2:
        raise NotStronglyRegular("need at least two vertices")
    k = g.rows[0].bit_count()
    for i in range(1, v):
        if g.rows[i].bit_count() != k:
            raise NotStronglyRegular(
                f"not regular: deg({0}) = {k} but deg({i}) = {g.rows[i].bit_count()}",
                witness=(0, i),
            )
    if k == 0 or k == v - 1:
        raise NotStronglyRegular("complete and empty graphs are excluded")

    lam = mu = None
    for i in range(v):
        ri = g.rows[i]
        for j in range(i + 1, v):
            common = (ri & g.rows[j]).bit_count()
            if (ri >> j) & 1:
                if lam is None:
                    lam = common
                elif common != lam:
                    raise NotStronglyRegular(
                        f"adjacent pair ({i},{j}) has {common} common neighbours, expected {lam}",
                        witness=(i, j),
                    )
            else:
                if mu is None:
                    mu = common
                elif common != mu:
                    raise NotStronglyRegular(
                        f"non-adjacent pair ({i},{j}) has {common} common neighbours, expected {mu}",
                        witness=(i, j),
                    )
    if lam is None or mu is None:
        raise NotStronglyRegular("graph is disconnected from one of the pair classes")
    if k * (k - lam - 1) != (v - k - 1) * mu:
        raise NotStronglyRegular("parameter identity k(k-lam-1) = (v-k-1)mu fails")
    r, s, f, gg = _spectral(v, k, lam, mu)
    if r is not None:
        if 1 + f + gg != v or k + f * r + gg * s != 0:
            raise NotStronglyRegular("spectral multiplicities are inconsistent")
    return SrgParams(v, k, lam, mu, r, s, f, gg)


def _wrong_count(rows, i: int, j: int, lam: int, mu: int):
    """The error for a pair i < j whose common-neighbour count is not lam/mu.
    Adjacency is read from the lower-indexed row, as verify_srg reads it."""
    common = (rows[i] & rows[j]).bit_count()
    if (rows[i] >> j) & 1:
        what, want = "adjacent", lam
    else:
        what, want = "non-adjacent", mu
    return NotStronglyRegular(
        f"{what} pair ({i},{j}) has {common} common neighbours, expected {want}",
        witness=(i, j),
    )


def verify_srg_near(g: Graph, base: Graph, base_params: SrgParams, changed) -> SrgParams:
    """Exact check that g is strongly regular with base_params, where base is a
    graph that verify_srg accepted with those parameters and g differs from it
    mainly in the rows of the vertex set `changed` (for a switch: its S).

    Rows of `changed` are checked in full.  A row outside `changed` that
    differs from base off the changed columns is added to `changed` first, so
    every other row i equals base there, and for i, j outside `changed`

        |r'_i & r'_j| = |r_i & r_j| - |p_i & p_j| + |p'_i & p'_j|

    where r, r' are the rows in base and g and p, p' those rows restricted
    to `changed`; likewise deg'(i) = deg(i) - |p_i| + |p'_i|.  So g keeps the
    counts of base exactly when |p_i| = |p'_i| and |p_i & p_j| = |p'_i & p'_j|,
    which is checked once per class of vertices sharing (p, p') and once per
    pair of classes.  This is the same decision as verify_srg(g) ==
    base_params.  Raises NotStronglyRegular with a vertex or pair whose count
    is wrong in g.
    """
    v = g.v
    if v != base.v or v != base_params.v:
        raise NotStronglyRegular(f"{v} vertices, but the base graph has {base.v}")
    k, lam, mu = base_params.k, base_params.lam, base_params.mu
    rows, base_rows = g.rows, base.rows
    cmask = 0
    for i in changed:
        cmask |= 1 << i
    rest = ~cmask
    for i in range(v):
        if (rows[i] ^ base_rows[i]) & rest:
            cmask |= 1 << i

    full = {i for i in range(v) if (cmask >> i) & 1}
    for i in sorted(full):
        ri = rows[i]
        if ri.bit_count() != k:
            raise NotStronglyRegular(f"deg({i}) = {ri.bit_count()}, expected {k}", witness=i)
        for j in range(i):
            if j not in full and (ri & rows[j]).bit_count() != (lam if (rows[j] >> i) & 1 else mu):
                raise _wrong_count(rows, j, i, lam, mu)
        for j in range(i + 1, v):
            if (ri & rows[j]).bit_count() != (lam if (ri >> j) & 1 else mu):
                raise _wrong_count(rows, i, j, lam, mu)

    classes: dict[tuple[int, int], list[int]] = {}
    for i in range(v):
        if i not in full:
            classes.setdefault((base_rows[i] & cmask, rows[i] & cmask), []).append(i)
    keyed = list(classes.items())
    for a, ((p, q), members) in enumerate(keyed):
        if p.bit_count() != q.bit_count():
            i = members[0]
            raise NotStronglyRegular(f"deg({i}) = {rows[i].bit_count()}, expected {k}", witness=i)
        # a class meets itself only through two distinct members
        for (pb, qb), others in keyed[a if len(members) > 1 else a + 1 :]:
            if (p & pb).bit_count() != (q & qb).bit_count():
                i, j = sorted((members[0], others[-1]))
                raise _wrong_count(rows, i, j, lam, mu)
    return base_params


def expected_params(n: int, kind: str) -> SrgParams:
    """Closed-form parameters of the quadric graph, including the spectrum."""
    if n % 2 == 0 or n < 5:
        raise GeometryError(f"quadric graphs need odd n >= 5, got n={n}")
    h = 1 << ((n - 1) // 2)  # 2^((n-1)/2)
    hh = h >> 1  # 2^((n-3)/2)
    third = ((1 << (n + 1)) - 4) // 3
    other = ((1 << n) + 1) // 3
    if kind == "elliptic":
        return SrgParams(
            v=(1 << n) + h,
            k=(1 << (n - 1)) + h,
            lam=(1 << (n - 2)) + hh,
            mu=(1 << (n - 2)) + h,
            r=hh,
            s=-h,
            f=third,
            g=other + h,
        )
    if kind == "hyperbolic":
        return SrgParams(
            v=(1 << n) - h,
            k=(1 << (n - 1)) - h,
            lam=(1 << (n - 2)) - hh,
            mu=(1 << (n - 2)) - h,
            r=h,
            s=-hh,
            f=other - h,
            g=third,
        )
    raise GeometryError(f"no parameter table for kind {kind!r}")
