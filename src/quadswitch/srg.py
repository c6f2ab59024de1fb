"""The graph on non-quadric points of PG(n,2) and exact SRG verification.

Vertices are the points off the quadric in canonical order; two vertices are
adjacent iff the line joining them is external (all three of x, y, x+y off
the quadric).  Adjacency rows are bit-packed ints, so common-neighbour
counts are popcounts of row ANDs and the whole strong-regularity identity
A^2 = kI + lam*A + mu*(J - I - A) is checked exactly over the integers.

Rows are built by linearity on the form's point masks (see gf2geom).  With
N = form.off the points off the quadric, the neighbours of a vertex x are
N & translate(N, x), and for two vertices Q(x + y) = B(x, y), so that row
is N & L(x), L(x) the XOR of L_i = nonorth(e_i) over the bits i of x.  So
build_gamma gathers the n + 1 words W_i = vertices(N & L_i), XORs each half
of them into a span table of 2^ceil((n+1)/2) entries, and makes the row of
x as one XOR of two entries, picked by the low and high bits of x.  It
first checks, in O(n) mask operations, what the identity rests on:

  a. each block swap of translate is the translation by e_b (step 1a below);
  b. each L_i is the XOR of the coordinate masks C_b at the points e_b it
     holds, so it is where a linear functional is 1;
  c. N ^ translate(N, e_i) is L_i, complemented if e_i is in N: that is,
     Q(p + e_i) = Q(p) + Q(e_i) + [p in L_i] for every vector p;
  d. N holds neither point 0 nor a bit above the points, so Q(0) = 0.

Then Q(x + y) = Q(x) + Q(y) + [x in L(y)] for all x and y, by induction on
y from d: c at p = x + y and at p = y, with L_i(x + y) = L_i(x) + L_i(y) by
b, carry it from y to y + e_i.  For vertices x and p this is Q(p + x) =
[p in L(x)], so N & translate(N, x) = N & L(x).  The gather is ANDs, XORs
and shifts, so vertices is linear, and the rows are exactly those of the
reference path, _point_rows, which makes each N & translate(N, x) and
gathers it.  A form that fails a check gets the reference rows; only an
edited form does.

verify_srg checks all v(v-1)/2 pairs and is the reference.  The quadric
graph itself is built and checked by certify_gamma, in three steps, and the
certificate is about the graph it returns.  N = form.off is the vertex mask
and translate(M, x) moves bit p to bit p^x, and the row of every vertex x is
N & translate(N, x): on the reference path by construction, and on the
polar path by checks a-d.

  1. automorphisms: for nonsingular r the reflection x -> x + B(x,r) r
     preserves Q.  It is named by its point r, and form.reflect(M, r)
     applies it to a point mask M: the translation by r on a mask H, the
     identity off it.  Two checks show that each reflection used maps
     the graph to itself:
     a. translations: for each coordinate b, translate trades the bits
        of halves[b] with those 2^b above them, C_b = halves[b] << 2^b.
        The two masks must split the points.  Going up from point 0 in
        blocks of 2^b, that forces halves[b] to be the points whose
        coordinate b is 0 and C_b those whose coordinate b is 1, so the
        swap is the translation by e_b = 2^b, and each row is N & (N + x).
        The C_b separate points: a point is the one bit in C_b exactly
        for its set coordinates b.
     b. reflections: each one keeps the mask of all points, so H is
        closed under the translation by r and the map is a bit
        permutation; it keeps N; and it is linear: the image of each C_b
        is where a linear functional is 1, the XOR of the C_c whose e_c it
        holds, so the inverse map and with it the map are linear.
     A linear bit permutation s that keeps N maps the row of x to
     s(N & (N + x)) = N & (N + s(x)), the row of s(x).
  2. transitivity: an orbit walk from vertex 0 under those reflections
     covers the vertex mask.  Reflections are chosen greedily, each the
     lightest that still enlarges the orbit.  They generate the orthogonal
     group of Q, which is transitive on the nonsingular points, so the
     walk succeeds after a few of them (n+1 or n+2 here).
  3. one vertex: the degree of vertex 0 and the counts of its v-1 pairs,
     read off the graph's rows, give k, lambda and mu, followed by
     verify_srg's closing identity and spectral checks.

By step 2 any pair {x, y} is carried by a product of checked automorphisms
onto a pair through vertex 0, and by step 1 that product keeps both the
adjacency and the common-neighbour count.  So step 3 covers every pair and
the result is exactly verify_srg's.  Nothing rests on the group theory or
on what a reflection is meant to be, only on the maps that translate and
reflect apply: if the reflections fail a check of step 1 or 2, verify_srg
decides on the same graph.  Once those steps hold, every row has vertex 0's
degree, so a rejection in step 3 is the one verify_srg makes, with the same
message and the same pair through vertex 0, and it is raised without
verify_srg.  Step 1 costs n + 3 reflects of one mask per reflection, where
reflecting every row in every reflection would cost v reflects per
reflection.

A graph that differs from an already verified one only in the rows and
columns of a small vertex set, such as a Godsil-McKay switch at S, is
checked by verify_srg_near: the rows of that set in full, and the pairs of
all other rows through the exact identity for how their common-neighbour
counts move, once per pair of classes of vertices that meet the set alike.
It reaches the same decision as verify_srg.

A switch of the quadric graph is checked by verify_srg_orbit from one row
of S, given maps that keep S and its half-class T (for the switching
module's flags: reflections and Siegel maps rho_{a,w} = sigma_w sigma_{w+a},
x -> x + B(x,a) w + B(x,w) a + B(x,a) a, a word of two reflections in the
vertices w and w + a when Q(a) = B(w,a) = 0).  The base graph must be the
one certify_gamma returned, so that its rows are N & (N + x).  Five steps:

  1. each reflection in the maps passes step 1b above, after step 1a,
     unless certify_gamma already checked it on this form;
  2. each map keeps the point masks of S and of T;
  3. the graph is GM(base, S): row i differs from the base row by T for i
     in S, by S for i in T, and not at all elsewhere; each row of T meets S
     in |S|/2 vertices, and each other row outside S in none or all of S;
  4. the orbit of S's first vertex s0 under the maps is S; maps are taken
     in order while they enlarge it;
  5. the row of s0 has degree k and lambda or mu common neighbours with
     every other vertex.

By steps 1 and 2 each map is an automorphism of the base graph that keeps
S and T, so by step 3 an automorphism of the switched graph; by step 4 each
pair through a vertex of S is carried onto a pair through s0, so step 5
covers every check verify_srg_near makes on the rows of S.  For rows i, j
outside S, step 3 leaves p_i = p'_i (the rows restricted to S, before and
after) unless i is in T, where p'_i = S - p_i with |p_i| = |S|/2, and every
other p_j is empty or S; so |p_i| = |p'_i| and |p_i & p_j| = |p'_i & p'_j|
for every pair, which is verify_srg_near's class-pair identity.  So the
decision is verify_srg_near's.  If any step fails, verify_srg_near itself
decides, so an error is the one it raises, with its witness.  Below 1,024
pairs through S (|S| * v) verify_srg_near decides at once: it counts the
few rows of S faster than the maps can be checked.

Every switch of one (n, kind) starts from the same quadric graph, so
certified_gamma builds and certifies it once per process and hands out that
immutable graph and certificate again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import eq
from typing import Iterable, Iterator

from .gf2geom import (ELLIPTIC, HYPERBOLIC, GeometryError, QuadraticForm, QuadswitchError,
                      canonical_form, set_bits)

# The point rows the reference build (_point_rows) walks one at a time, v * 2^(n+1)
# bits in all: ~257 MiB at n = 15, ~4 GiB at n = 17.  Only one row is held, so this
# bounds the walk's work; build_gamma refuses a form above it before either path
# starts, so both serve the same forms.
MAX_POINT_ROW_BYTES = 1 << 30


class NotStronglyRegular(QuadswitchError, ValueError):
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


def _refuse_out_of_reach(form: QuadraticForm) -> None:
    """GeometryError for a form with no quadric graph, or whose point rows
    would take more than MAX_POINT_ROW_BYTES.  Every build starts here."""
    expected_params(form.n, form.kind)  # refuses a form with no quadric graph
    size = form.off.bit_count() << (form.n + 1) >> 3
    if size > MAX_POINT_ROW_BYTES:
        raise GeometryError(f"PG({form.n},2) is out of reach: its point rows take {size >> 20} MiB")


def _point_rows(form: QuadraticForm) -> Iterator[int]:
    """The reference rows: the row of each vertex in order, indexed by point,
    N & translate(N, x) for each label x, N = form.off, since y is a neighbour
    of x iff y and x^y are both off the quadric.  Made one at a time, so a
    caller that keeps only the vertex-order rows never holds them all; labels
    in order differ in few bits, so each translate of N starts from the last."""
    off = form.off
    moved, last = off, 0
    for x in form.labels:
        moved, last = form.translate(moved, x ^ last), x
        yield off & moved


def _polar_words(form: QuadraticForm) -> list[int] | None:
    """W_i = vertices(N & nonorth(e_i)) for each coordinate i, once checks a-d
    of the module docstring show that the row of every vertex x is the XOR of
    the W_i over the bits i of x; None if one fails."""
    try:
        coords = _coordinate_masks(form)  # a
    except _NotCertified:
        return None
    off, ones = form.off, (1 << (1 << len(coords))) - 1
    if off & 1 or off & ~ones:  # d
        return None
    words = []
    for i in range(len(coords)):
        unit = 1 << i  # the point e_i
        polar = form.nonorth(unit)
        if polar != _functional(coords, polar):  # b
            return None
        if off ^ form.translate(off, unit) != polar ^ (ones if off >> unit & 1 else 0):  # c
            return None
        words.append(form.vertices(off & polar))
    return words


def _span(words: list[int]) -> list[int]:
    """table[y], the XOR of words[i] over the bits i of y, for y < 2^len(words)."""
    table = [0]
    for word in words:
        table += [t ^ word for t in table]
    return table


def build_gamma(form: QuadraticForm) -> Graph:
    """Graph on the non-quadric points, adjacency = joining line is external.
    Each row is one XOR of two span tables of the words W_i, split on the low
    and high half of the vertex's bits; a form that fails the checks behind
    that build gets the reference rows, each gathered as it is made."""
    _refuse_out_of_reach(form)
    words = _polar_words(form)
    if words is None:
        return Graph(form.labels, tuple(map(form.vertices, _point_rows(form))))
    half = (len(words) + 1) // 2
    low, high, mask = _span(words[:half]), _span(words[half:]), (1 << half) - 1
    return Graph(form.labels, tuple(high[x >> half] ^ low[x & mask] for x in form.labels))


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


def _apply(form: QuadraticForm, mask: int, word) -> int:
    """Image of a point mask under a word in reflection points, applied in order."""
    for r in word:
        mask = form.reflect(mask, r)
    return mask


def _orbit(form: QuadraticForm, orbit: int, reflections) -> int:
    """Point mask of the union of the orbits of a point mask's points under
    the group the reflections in these points generate."""
    return _word_orbit(form, orbit, [(r,) for r in reflections])


def _word_orbit(form: QuadraticForm, orbit: int, words) -> int:
    """_orbit for the group generated by words in reflection points."""
    while True:
        grown = orbit
        for word in words:
            grown |= _apply(form, grown, word)
        if grown == orbit:
            return orbit
        orbit = grown


def _transitive_reflections(form: QuadraticForm) -> list[int]:
    """Vertices to reflect in until the orbit of the first vertex is
    form.off: each time the lightest one that enlarges the orbit, as a light
    r moves a mask in few block swaps, here in the orbit walk and the checks
    of step 1 and in the walk of the singular points (covers).  Stops early
    when none does."""
    lightest_first = sorted(form.labels, key=int.bit_count)
    chosen: list[int] = []
    orbit = 1 << form.labels[0]
    while orbit != form.off:
        r = next((r for r in lightest_first if form.reflect(orbit, r) & ~orbit), None)
        if r is None:
            break
        chosen.append(r)
        orbit = _orbit(form, orbit, chosen)
    return chosen


def _coordinate_masks(form: QuadraticForm) -> list[int]:
    """Step 1a: coords[b], the points whose coordinate b is 1, once the block
    swap of each coordinate b is shown to be the translation by 2^b."""
    ones = (1 << (1 << len(form.halves))) - 1
    coords = []
    for b, half in enumerate(form.halves):
        coord = half << (1 << b)
        if half & coord or half | coord != ones:
            raise _NotCertified(f"the block swap of coordinate {b} is not the translation by {1 << b}")
        coords.append(coord)
    return coords


def _functional(coords: list[int], mask: int) -> int:
    """The XOR of the coordinate masks C_b over the points e_b that mask holds:
    mask itself exactly when mask is where a linear functional is 1."""
    functional = 0
    for b, coord in enumerate(coords):
        if mask & 1 << (1 << b):  # mask holds the point e_b
            functional ^= coord
    return functional


def _check_reflection(form: QuadraticForm, coords: list[int], r: int) -> None:
    """Step 1b: the reflection in r, as form.reflect applies it, is a bit
    permutation of the points that keeps the vertex mask and is linear."""
    ones = (1 << (1 << len(coords))) - 1
    if form.reflect(ones, r) != ones:
        raise _NotCertified(f"the reflection in {r} is not a permutation of the points")
    if form.reflect(form.off, r) != form.off:
        raise _NotCertified(f"the reflection in {r} moves a vertex off the vertex set")
    for coord in coords:
        image = form.reflect(coord, r)
        if image != _functional(coords, image):
            raise _NotCertified(f"the reflection in {r} is not linear")


def _certificate(form: QuadraticForm, g: Graph, reflections) -> SrgParams:
    """The parameters of g, the graph build_gamma makes on form, from the
    three steps of the module docstring: _NotCertified if step 1 or 2 fails,
    and verify_srg's NotStronglyRegular if step 3 does."""
    labels, vmask, v = form.labels, form.off, len(form.labels)
    coords = _coordinate_masks(form)
    for r in reflections:
        _check_reflection(form, coords, r)
    if _orbit(form, 1 << labels[0], reflections) != vmask:
        raise _NotCertified("the reflections are not transitive on the vertices")

    # steps 1-2 hold, so every row has the first row's degree, and verify_srg
    # would reach the same rejection from the pairs through vertex 0
    first = g.rows[0]
    k = first.bit_count()
    if k == 0 or k == v - 1:
        raise NotStronglyRegular("complete and empty graphs are excluded")
    adjacent = format(first, f"0{v}b")[::-1]  # adjacent[j] is "1" iff vertex j is a neighbour
    lam = mu = None
    for j, (row, bit) in enumerate(zip(g.rows[1:], adjacent[1:]), 1):
        common = (first & row).bit_count()
        if bit == "1":
            if lam is None:
                lam = common
            elif common != lam:
                raise _wrong_count(g.rows, 0, j, lam, mu)
        elif mu is None:
            mu = common
        elif common != mu:
            raise _wrong_count(g.rows, 0, j, lam, mu)
    return _srg_params(v, k, lam, mu)


@dataclass(frozen=True)
class GammaCertificate:
    """What certify_gamma proved about the graph it returned: the parameters,
    the reflections it checked as automorphisms of that graph, each named by
    its point r for form.reflect, and the polar words W_i = vertices(N &
    nonorth(e_i)) the graph was built from.  By checks a-d of the module
    docstring, the row of each vertex x is word(x), the XOR of the W_i over
    the bits i of x, and word(a) = vertices(N & {p : B(p, a) = 1}) for every
    vector a, B the polarization of the Q whose ones are N; so a -> word(a)
    is linear.  A certified reflection s is linear and keeps N, so it keeps Q
    and B and maps word(a) onto word(s(a)), as an automorphism of the graph.
    No words after the reference build, and neither words nor reflections
    after the verify_srg fallback."""

    form: QuadraticForm
    params: SrgParams
    reflections: tuple[int, ...] = ()
    words: tuple[int, ...] = ()

    def covers(self, mask: int) -> bool:
        """Whether the reflections carry the least point of a nonempty point
        mask over exactly that mask."""
        return bool(mask) and _orbit(self.form, mask & -mask, self.reflections) == mask


def certify_gamma(form: QuadraticForm) -> tuple[Graph, GammaCertificate]:
    """The quadric graph of form, from build_gamma, and an exact
    strong-regularity check of that graph.

    The parameters are what verify_srg returns for the graph: from the three
    steps of the module docstring, which check each reflection on n + 3 masks
    before one vertex's pairs are counted, or else, when the reflections fail
    their checks, from verify_srg itself on the same graph.  A graph that
    passes those checks but fails one vertex's pairs raises the error
    verify_srg raises.  A certified graph built by linearity also gets its
    polar words, which _polar_words makes again in O(n) mask operations.
    Raises GeometryError where build_gamma does.
    """
    g = build_gamma(form)
    reflections = tuple(_transitive_reflections(form))
    try:
        params = _certificate(form, g, reflections)
    except _NotCertified:
        return g, GammaCertificate(form, verify_srg(g))
    words = _polar_words(form)  # build_gamma's, as it took the polar path iff they exist
    return g, GammaCertificate(form, params, reflections, () if words is None else tuple(words))


# One entry per kind: a batch of requests at one n alternates between the two.
@functools.lru_cache(maxsize=2)
def certified_gamma(n: int, kind: str) -> tuple[Graph, GammaCertificate]:
    """certify_gamma of the canonical form of (n, kind): the quadric graph and
    its certificate, whose form is the one the graph was built on.  Made once
    per process for each of the last two (n, kind) asked for.  Raises
    GeometryError, and caches nothing, where build_gamma does."""
    return certify_gamma(canonical_form(n, kind))


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
    if v != base.v:
        raise NotStronglyRegular(f"{v} vertices, but the base graph has {base.v}")
    if v != base_params.v:
        raise NotStronglyRegular(f"{v} vertices, but the base parameters have v = {base_params.v}")
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


def verify_srg_orbit(
    g: Graph, base: Graph, certificate: GammaCertificate, s: int, t: int, words: Iterable[tuple[int, ...]]
) -> SrgParams:
    """verify_srg_near(g, base, certificate.params, s), decided from the row
    of S's first vertex s0 by the five steps of the module docstring.

    s and t are vertex masks: a switching set S on base and its half-class
    T.  words are candidate maps, each a tuple of reflection points applied
    in order (see form.reflect); they are taken in order while they enlarge
    the orbit of s0, and each reflection in them is checked once.  Below
    _ORBIT_MIN_PAIRS pairs through S, verify_srg_near, the cheaper check
    there, decides without them.

    Precondition: base is the graph certify_gamma returned with certificate,
    so its rows are N & (N + x) on certificate.form, as verify_srg_near
    needs base verified with the parameters.  A base whose vertices are not
    the form's points, sets that do not fit, or any failed step leaves the
    decision to verify_srg_near, so an error is the one it raises, with its
    witness.
    """
    if s.bit_count() * g.v >= _ORBIT_MIN_PAIRS:
        try:
            return _orbit_certificate(g, base, certificate, s, t, words)
        except _NotCertified:
            pass
    return verify_srg_near(g, base, certificate.params, s)


# |S| * v from which checking the maps costs less than verify_srg_near's
# count of the rows of S: at n = 7 (v = 120 or 136) the two cross near |S| = 8
_ORBIT_MIN_PAIRS = 1024


def _orbit_certificate(g: Graph, base: Graph, certificate: GammaCertificate, s: int, t: int, words) -> SrgParams:
    """The parameters from steps 1-5 of the module docstring's switch
    certificate, or _NotCertified if one fails."""
    form, params = certificate.form, certificate.params
    v, rows, base_rows = g.v, g.rows, base.rows
    if v != base.v or v != params.v or not s or not t or s & t or (s | t) >> v:
        raise _NotCertified("the graphs or the sets do not fit")
    if base.labels is not form.labels and base.labels != form.labels:
        raise _NotCertified("the base graph's vertices are not the form's points")

    # step 3: row i moves by T for i in S, by S for i in T, and not at all
    # elsewhere; a row of T meets S in half of it, any other row outside S in
    # none or all of it
    if not is_switch_of(g, base, s, t):
        raise _NotCertified("the graph is not the switch of the base graph at S and T")
    if {2 * (base_rows[i] & s).bit_count() for i in set_bits(t)} != {s.bit_count()} or not {
        base_rows[i] & s for i in set_bits(((1 << v) - 1) ^ s ^ t)
    } <= {0, s}:
        raise _NotCertified("a row outside S meets S in other than none, half or all of it")

    # steps 1, 2 and 4: maps that keep S and T, chosen while they enlarge the orbit of s0
    s_points, t_points = form.points(s), form.points(t)
    s0 = (s & -s).bit_length() - 1
    orbit, chosen, coords = 1 << form.labels[s0], [], None
    checked = set(certificate.reflections)  # certify_gamma checked these on this form
    for word in words:
        if orbit == s_points:
            break
        image = _apply(form, orbit, word)
        if not image & ~orbit:
            continue
        for r in set(word) - checked:
            coords = coords or _coordinate_masks(form)
            _check_reflection(form, coords, r)
            checked.add(r)
        if _apply(form, s_points, word) != s_points or _apply(form, t_points, word) != t_points:
            raise _NotCertified(f"the map {word} moves S or T")
        chosen.append(word)
        orbit |= image  # within the orbit of s0, which the closure below completes
    if orbit != s_points and _word_orbit(form, orbit, chosen) != s_points:
        raise _NotCertified("the maps are not transitive on S")

    # step 5: the row of s0 in full
    first = rows[s0]
    counts = list(map(int.bit_count, map(first.__and__, rows)))
    counts[s0] = params.mu  # s0's pair with itself is not one
    if first.bit_count() != params.k or not {*zip(format(first, f"0{v}b")[::-1], counts)} <= {
        ("1", params.lam),
        ("0", params.mu),
    }:
        raise _NotCertified(f"a pair through vertex {s0} has a wrong count")
    return params


def is_switch_of(g: Graph, base: Graph, s: int, t: int) -> bool:
    """Whether g is base switched at the vertex mask s against t, row by row:
    row i of g is base's row XOR t for i in s, XOR s for i in t, and base's
    row elsewhere.  False unless s and t are nonempty, disjoint and fit."""
    rows, base_rows, v = g.rows, base.rows, g.v
    if v != base.v or not s or not t or s & t or (s | t) >> v:
        return False
    members, half = set_bits(s), set_bits(t)
    return (  # rows of S and T differ from base's, so every other row must equal it
        sum(map(eq, rows, base_rows)) == v - len(members) - len(half)
        and {rows[i] ^ base_rows[i] for i in members} == {t}
        and {rows[i] ^ base_rows[i] for i in half} == {s}
    )


def expected_params(n: int, kind: str) -> SrgParams:
    """Closed-form parameters of the quadric graph, including the spectrum.
    The package's one test of which (n, kind) have one: GeometryError for the rest."""
    if kind not in (ELLIPTIC, HYPERBOLIC) or n % 2 == 0 or n < 5:
        raise GeometryError("the quadric graph needs an elliptic or hyperbolic form with odd n >= 5")
    h = 1 << ((n - 1) // 2)  # 2^((n-1)/2)
    hh = h >> 1  # 2^((n-3)/2)
    third = ((1 << (n + 1)) - 4) // 3
    other = ((1 << n) + 1) // 3
    if kind == ELLIPTIC:
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
