"""The graph on non-quadric points of PG(n,2) and exact SRG verification.

Vertices are the points off the quadric in canonical order; two vertices are
adjacent iff the line joining them is external (all three of x, y, x+y off
the quadric).  Adjacency rows are bit-packed ints, so common-neighbour
counts are popcounts of row ANDs and the whole strong-regularity identity
A^2 = kI + lam*A + mu*(J - I - A) is checked exactly over the integers.

Rows are built whole on the form's point masks (see gf2geom): with N the
points off the quadric, the neighbours of x are N & translate(N, x),
gathered into vertex order.

verify_srg checks all v(v-1)/2 pairs and is the reference.  The quadric
graph itself is checked by certify_gamma from the point-indexed rows that
build_gamma_rows computes, in three steps:

  1. reflections: for nonsingular r the map x -> x + B(x,r) r preserves Q,
     so it is an automorphism.  On point masks it is
     (M & ~H_r) | translate(M & H_r, r), H_r = nonorth(r).
     Each reflection used must map the vertex mask to itself and the row
     of every vertex x to the row of its image.
  2. transitivity: an orbit walk from vertex 0 under those reflections
     covers the vertex mask.  Reflections are chosen greedily, each the
     lightest that still enlarges the orbit.  They generate the orthogonal
     group of Q, which is transitive on the nonsingular points, so the
     walk succeeds after a few of them (n+1 or n+2 here).
  3. one vertex: the degree of vertex 0 and the counts of its v-1 pairs
     give k, lambda and mu, followed by verify_srg's closing identity and
     spectral checks.

By step 2 any pair {x, y} is carried by a product of checked automorphisms
onto a pair through vertex 0, and by step 1 that product keeps both the
adjacency and the common-neighbour count.  So step 3 covers every pair and
the result is exactly verify_srg's.  Nothing rests on the group theory:
if the reflections fail to give transitivity, or a check fails, verify_srg
decides, and a rejection carries a vertex or pair whose count is wrong.

A graph that differs from an already verified one only in the rows and
columns of a small vertex set, such as a Godsil-McKay switch at S, is
checked by verify_srg_near: the rows of that set in full, and the pairs of
all other rows through the exact identity for how their common-neighbour
counts move, once per pair of classes of vertices that meet the set alike.
It reaches the same decision as verify_srg.

Every switch of one (n, kind) starts from the same quadric graph, so
certified_gamma builds and certifies it once per process and hands out that
immutable graph and certificate again; the point rows are dropped once the
certificate is made.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

from .gf2geom import PARABOLIC, GeometryError, QuadraticForm, canonical_form, set_bits, swap_blocks

# The point rows of a quadric graph, v * 2^(n+1) bits: ~257 MiB at n = 15, ~4 GiB at n = 17
MAX_POINT_ROW_BYTES = 1 << 30


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

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def neighbors(self, i: int) -> list[int]:
        return set_bits(self.rows[i] & ((1 << self.v) - 1))


def _point_rows(form: QuadraticForm) -> Iterator[int]:
    """The row of each vertex in order, indexed by point: bit p set iff the
    point p is a neighbour.  Made one at a time, so a caller that keeps only
    the vertex-order rows never holds them all."""
    if form.kind == PARABOLIC or form.n % 2 == 0 or form.n < 5:
        raise GeometryError(
            "the external-line graph needs an elliptic or hyperbolic quadric with odd n >= 5"
        )
    off = form.off
    size = off.bit_count() << (form.n + 1) >> 3
    if size > MAX_POINT_ROW_BYTES:
        raise GeometryError(f"PG({form.n},2) is out of reach: its point rows take {size >> 20} MiB")
    # y is a neighbour of x iff y and x^y are both off the quadric.  Labels in
    # order differ in few bits, so each translate of off starts from the last.
    moved, last = off, 0
    for x in form.labels:
        moved, last = form.translate(moved, x ^ last), x
        yield off & moved


def build_gamma_rows(form: QuadraticForm) -> tuple[Graph, tuple[int, ...]]:
    """The quadric graph and its rows indexed by point: entry i of the second
    value has bit p set iff the point p is a neighbour of vertex i.
    certify_gamma reads the point rows."""
    rows = tuple(_point_rows(form))
    return Graph(form.labels, tuple(map(form.vertices, rows))), rows


def build_gamma(form: QuadraticForm) -> Graph:
    """Graph on the non-quadric points, adjacency = joining line is external.
    Each row is gathered into vertex order as it is made."""
    return Graph(form.labels, tuple(map(form.vertices, _point_rows(form))))


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
                    raise _wrong_count(g.rows, i, j, lam, mu)
            else:
                if mu is None:
                    mu = common
                elif common != mu:
                    raise _wrong_count(g.rows, i, j, lam, mu)
    return _srg_params(v, k, lam, mu)


def _srg_params(v: int, k: int, lam, mu) -> SrgParams:
    """The parameters once every pair count is known to be lam or mu: the
    feasibility identity and the spectrum, which verify_srg and certify_gamma
    both end with."""
    if lam is None or mu is None:
        raise NotStronglyRegular("graph is disconnected from one of the pair classes")
    if k * (k - lam - 1) != (v - k - 1) * mu:
        raise NotStronglyRegular("parameter identity k(k-lam-1) = (v-k-1)mu fails")
    r, s, f, gg = _spectral(v, k, lam, mu)
    if r is not None:
        if 1 + f + gg != v or k + f * r + gg * s != 0:
            raise NotStronglyRegular("spectral multiplicities are inconsistent")
    return SrgParams(v, k, lam, mu, r, s, f, gg)


class _NotCertified(Exception):
    """The reflection certificate could not be completed; verify_srg decides."""


def _reflection(form: QuadraticForm, r: int):
    """The map x -> x + B(x,r) r as (r, H, swaps), H the points it moves and swaps the
    translation by r.  As B(r,r) = 0, x and x^r lie in H together: an involution."""
    return r, form.nonorth(r), tuple(form.block_swaps(r))


def _reflect(mask: int, reflection) -> int:
    """Image of a point mask: the points of H move by r, the others stay."""
    _, h, swaps = reflection
    return (mask & ~h) | swap_blocks(mask & h, swaps)


def _orbit(orbit: int, reflections) -> int:
    """Point mask of the union of the orbits of a point mask's points under
    the group the reflections generate."""
    while True:
        grown = orbit
        for reflection in reflections:
            grown |= _reflect(grown, reflection)
        if grown == orbit:
            return orbit
        orbit = grown


def _transitive_reflections(form: QuadraticForm) -> list:
    """Reflections in vertices until the orbit of the first vertex is
    form.off: each time the lightest one that enlarges the orbit, as it moves
    a row in few block swaps.  Stops early when none does."""
    lightest_first = sorted(form.labels, key=int.bit_count)
    chosen: list = []
    orbit = 1 << form.labels[0]
    while orbit != form.off:
        candidates = (_reflection(form, r) for r in lightest_first)
        reflection = next((c for c in candidates if _reflect(orbit, c) != orbit), None)
        if reflection is None:
            break
        chosen.append(reflection)
        orbit = _orbit(orbit, chosen)
    return chosen


def _certificate(form: QuadraticForm, point_rows, reflections) -> SrgParams:
    """The parameters of the graph on form.labels with these point rows,
    from the three checks of the module docstring, or _NotCertified."""
    labels, vmask, v = form.labels, form.off, len(form.labels)
    size = 1 << len(form.halves)
    spec, top = f"0{size}b", size - 1
    row_of = dict(zip(labels, point_rows))
    for reflection in reflections:
        r, h, swaps = reflection
        if _reflect(vmask, reflection) != vmask:
            raise _NotCertified(f"the reflection in {r} moves a vertex off the vertex set")
        moves = format(h, spec)
        for x, row in row_of.items():
            fixed = moves[top - x] == "0"
            if not fixed and x > x ^ r:
                continue  # x and x^r swap, and the reflection is an involution: x^r covers both
            part = row & h
            moved = swap_blocks(part, swaps)
            if fixed:
                if moved != part:  # x is fixed, so its row must be
                    raise _NotCertified(f"the reflection in {r} moves the row of {x}")
            elif (row ^ part) | moved != row_of[x ^ r]:
                raise _NotCertified(f"the reflection in {r} maps the row of {x} wrongly")
    if _orbit(1 << labels[0], reflections) != vmask:
        raise _NotCertified("the reflections are not transitive on the vertices")

    first = point_rows[0]
    k = first.bit_count()
    if first & ~vmask or k == 0 or k == v - 1:
        raise _NotCertified("the first row leaves the vertex set or is empty or full")
    adjacent = format(first, spec)
    lam = mu = None
    for y, row in zip(labels[1:], point_rows[1:]):
        common = (first & row).bit_count()
        if adjacent[top - y] == "1":
            if lam is None:
                lam = common
            elif common != lam:
                raise _NotCertified(f"pair of {labels[0]} and {y} breaks lambda")
        elif mu is None:
            mu = common
        elif common != mu:
            raise _NotCertified(f"pair of {labels[0]} and {y} breaks mu")
    return _srg_params(v, k, lam, mu)


@dataclass(frozen=True)
class GammaCertificate:
    """What certify_gamma proved about the graph of its point rows: the
    parameters, and the reflections it checked as automorphisms of that graph,
    each as (r, H, swaps) for _reflect.  No reflections after the verify_srg
    fallback."""

    form: QuadraticForm
    params: SrgParams
    reflections: tuple = ()


def certify_gamma(form: QuadraticForm, point_rows) -> GammaCertificate:
    """Exact strong-regularity check of the quadric graph of form from its
    point rows, as build_gamma_rows returns them.

    The parameters are what verify_srg returns for the graph the rows
    describe, by the certificate of the module docstring, or else from
    verify_srg itself.  Raises GeometryError unless there is one row per vertex.
    """
    v = len(form.labels)
    if len(point_rows) != v:
        raise GeometryError(f"{len(point_rows)} point rows for the {v} vertices of the form")
    reflections = tuple(_transitive_reflections(form))
    try:
        return GammaCertificate(form, _certificate(form, point_rows, reflections), reflections)
    except _NotCertified:
        return GammaCertificate(form, verify_srg(Graph(form.labels, tuple(map(form.vertices, point_rows)))))


# One entry per kind: a batch of requests at one n alternates between the two.
@functools.lru_cache(maxsize=2)
def certified_gamma(n: int, kind: str) -> tuple[Graph, GammaCertificate]:
    """The quadric graph of the canonical form of (n, kind) and its
    certify_gamma certificate, whose form is the one the graph was built on.
    Made once per process for each of the last two (n, kind) asked for; the
    point rows are not kept.  Raises GeometryError, and caches nothing, where
    build_gamma_rows does."""
    form = canonical_form(n, kind)
    gamma, point_rows = build_gamma_rows(form)
    return gamma, certify_gamma(form, point_rows)


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


def verify_srg_near(g: Graph, base: Graph, base_params: SrgParams, changed: int) -> SrgParams:
    """Exact check that g is strongly regular with base_params, where base is a
    graph that verify_srg accepted with those parameters and g differs from it
    mainly in the rows of the vertex mask `changed` (for a switch: its S).

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
    cmask, rest = changed, ~changed
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
