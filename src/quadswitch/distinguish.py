"""Non-isomorphism certificates for the quadric graph and its switches.

The primary separator is a code-based signature: 2-rank, minimum weight,
and the multiset of (weight, induced degree sequence on the support) over
the minimum-weight codewords.  All three survive vertex relabelling, so
differing signatures certify non-isomorphism.

Every code is read off the form, and a failed precondition raises CodeError
naming it; no code is read off a graph's rows.  gamma's certificate holds
the polar words W_i, and the row of each vertex x is word(x), the XOR of
the W_i over the bits i of x; a -> word(a) is linear, and word(a) =
vertices(N & {p : B(p, a) = 1}) (see srg.GammaCertificate).  So the rows
span the image of a -> word(a) once the labels span F_2^(n+1), which an
(n+1)-bit echelon of the labels, lightest first, shows as soon as it
reaches full rank.  The code is then from_vectors(v, W) (gamma_code), and
its dimension n + 1 makes a -> word(a) one-to-one: the nonzero words are
the word(a) for the points a, each once.  A certified reflection s maps
word(a) onto word(s(a)) as a graph automorphism, so weight and profile are
constant on the orbits of the points.  The vertices are one orbit (the
certificate's step 2), and one walk from the least singular point must
cover the singular points; then the two point classes give the weight
distribution, the minimum words are word(P) for the lighter class P, and
the signature is one profile with multiplicity |P| (read_gamma).  No word
is listed.

A switched graph's code is gamma's code C plus v_S and v_H, H the
half-class.  A Switch makes its graph from gamma's rows by XOR of v_H on S
and v_S on H (switching._complement_edges), so the switched row of x is
word(x) + [x in S] v_H + [x in H] v_S by construction, and
switched_code reads no graph.  The rows are the images of the lifts
(x, [x in S], [x in H]) under the linear map (a, b, c) -> word(a) + b v_H
+ c v_S.  When the lifts reach rank n + 3 (S's vertices first, so the
echelon stops early), the rows span the image of that map, which is
from_vectors(v, C + (v_S, v_H)), of dimension n + 3.  For build_family the
minimum words come from codes.augmented_min_words, a walk of the cosets
C + v_H and C + v_S + v_H only, and of C + v_S when min|C - 0| <= 2|v_S|;
for switch --code the whole weight enumerator comes from
codes.augmented_weight_distribution, one walk of C's 2^(n+1) words, as S
and H are disjoint.  A switched member's signature profiles each of its
words.

The exact tester `are_isomorphic` is an independent cross-check.  It first
compares the pair profiles of the two graphs: for every vertex pair x, y,
its adjacency and the sorted numbers |N(x) & N(y) & N(z)| over all z.
Godsil-McKay switches keep v, k, lambda, mu and the spectrum, so colour
refinement cannot tell them apart, but the profile (a multiset of triple
intersection numbers) does, and a differing profile certifies
non-isomorphism with no search.  Only when the profiles are equal does
_isomorphic run its colour-refinement / individualization backtracking
search, and every "yes" it gives comes from an explicit mapping.

build_family makes each switched graph once: it is checked strongly
regular, its code, minimum words and signature are read as above, and it
is dropped, so a family holds the rows of its quadric graph only.  The
cross-check of classify_family makes each switched member's graph again,
once per call, from its Switch, and profiles each member at most once, on
the first pair that needs it.  The quadric graph's profile is read off
vertex 0 alone when its certificate has reflections: they are automorphisms
transitive on the vertices, so every vertex sees the pairs through it as
vertex 0 does, and summing over all v vertices counts each pair twice.  So
the profile is the multiset over y != 0 of (A_0y, sorted counts), each
multiplicity times v/2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator, Optional

from .codes import BinaryCode, CodeError, augmented_min_words, from_vectors
from .gf2geom import GeometryError, QuadraticForm, QuadswitchError, set_bits
from .srg import GammaCertificate, Graph, SrgParams, certified_gamma
from .switching import Switch, build_switch, legal_t_range, make_config, verify_switch

DEFAULT_NODE_BUDGET = 10_000_000
MAX_EXACT_VERTICES = 600


class IsomorphismBudgetExceeded(QuadswitchError, RuntimeError):
    """Backtracking gave up before reaching a decision (never a wrong answer)."""


class IsomorphismTooLarge(QuadswitchError, ValueError):
    """The graphs exceed the vertex cap of the exact tester; nothing was decided."""


@dataclass(frozen=True)
class GraphSignature:
    """Isomorphism-invariant triple read off the graph's binary code; the
    min-word profiles are a multiset, as sorted (profile, multiplicity) pairs."""

    two_rank: int
    min_weight: int
    min_word_profiles: tuple[tuple[tuple[int, tuple[int, ...]], int], ...]


def _profile(g: Graph, w: int) -> tuple[int, tuple[int, ...]]:
    """The support size of w and the sorted degrees of the graph induced on it."""
    supp = set_bits(w)
    return len(supp), tuple(sorted((g.rows[i] & w).bit_count() for i in supp))


def signature(g: Graph, code: BinaryCode, words) -> GraphSignature:
    """Signature from the graph's code and that code's minimum-weight words:
    rank, minimum weight, min-word support shapes with their multiplicities,
    each word profiled."""
    if not words:
        raise CodeError("a signature needs the code's minimum-weight words, got none")
    profiles = Counter(_profile(g, w) for w in words)
    return GraphSignature(code.dim, words[0].bit_count(), tuple(sorted(profiles.items())))


# --- exact isomorphism testing -------------------------------------------------


def _refine(adj1, adj2, c1, c2) -> Optional[tuple[list[int], list[int], int]]:
    """Simultaneous colour refinement with shared colour ids.

    Colour signature: (own colour, sorted multiset of neighbour colours),
    iterated to a fixed point.  Returns None as soon as the two graphs
    disagree on a colour class size, which certifies non-isomorphism at
    this node of the search.
    """
    n = len(c1)
    while True:
        table: dict[tuple, int] = {}
        new1 = [0] * n
        new2 = [0] * n
        for u in range(n):
            sig = (c1[u], tuple(sorted(c1[w] for w in adj1[u])))
            new1[u] = table.setdefault(sig, len(table))
        for u in range(n):
            sig = (c2[u], tuple(sorted(c2[w] for w in adj2[u])))
            cid = table.get(sig)
            if cid is None:
                return None
            new2[u] = cid
        if Counter(new1) != Counter(new2):
            return None
        if new1 == c1 and new2 == c2:
            return new1, new2, len(table)
        c1, c2 = new1, new2


def _pair_profile(g: Graph) -> Counter:
    """Multiset over vertex pairs x < y of (A_xy, sorted |r_x & r_y & r_z| over all z).

    Relabelling permutes the pairs and, within a pair, the z, so the multiset
    is an isomorphism invariant; it costs v^3/2 popcounts.
    """
    rows = g.rows
    profile: Counter = Counter()
    for x, rx in enumerate(rows):
        for y in range(x + 1, g.v):
            common = rx & rows[y]
            counts = tuple(sorted(map(int.bit_count, map(common.__and__, rows))))
            profile[(rx >> y) & 1, counts] += 1
    return profile


def _certified_pair_profile(g: Graph, certificate: GammaCertificate) -> Counter:
    """_pair_profile(g), from the pairs through vertex 0 when the certificate's
    reflections make g vertex-transitive (see the module docstring)."""
    rows, v = g.rows, g.v
    if certificate.reflections:
        r0 = rows[0]
        seen = Counter(
            ((r0 >> y) & 1, tuple(sorted(map(int.bit_count, map((r0 & ry).__and__, rows)))))
            for y, ry in enumerate(rows)
            if y
        )
        if all(m * v % 2 == 0 for m in seen.values()):
            return Counter({key: m * v // 2 for key, m in seen.items()})
    return _pair_profile(g)


def are_isomorphic(g1: Graph, g2: Graph, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Exact isomorphism decision: pair profiles first, then refinement +
    individualization when the profiles agree.  Graphs with equal rows are
    isomorphic through the identity, with no profile or search."""
    return _isomorphic(g1, g2, lambda: _pair_profile(g1) == _pair_profile(g2), budget)


def _isomorphic(g1: Graph, g2: Graph, same_profiles, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """are_isomorphic, with the profile comparison a call made only when the
    cheap invariants agree.  The search counts each node against budget and
    refines both colourings together.  A discrete partition maps colour to
    colour and is accepted only if every permuted row of g1 is g2's row;
    otherwise the first vertex of g1's smallest split class (the first to
    appear, on a tie) is individualized against each g2 vertex of its colour,
    in index order."""
    if max(g1.v, g2.v) > MAX_EXACT_VERTICES:
        raise IsomorphismTooLarge(f"exact testing is capped at {MAX_EXACT_VERTICES} vertices")
    if g1.rows == g2.rows:
        return True
    if g1.v != g2.v:
        return False
    if g1.edge_count() != g2.edge_count():
        return False
    if sorted(r.bit_count() for r in g1.rows) != sorted(r.bit_count() for r in g2.rows):
        return False
    if not same_profiles():
        return False

    n = g1.v
    adj1 = [g1.neighbors(i) for i in range(n)]
    adj2 = [g2.neighbors(i) for i in range(n)]
    nodes = 0

    def search(c1: list[int], c2: list[int]) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise IsomorphismBudgetExceeded(f"gave up after {budget} search nodes")
        refined = _refine(adj1, adj2, c1, c2)
        if refined is None:
            return False
        c1, c2, ncolours = refined
        if ncolours == n:
            # discrete partition: the induced bijection is the only candidate
            vertex2 = {c: w for w, c in enumerate(c2)}
            mapping = [vertex2[c] for c in c1]
            return all(sum(1 << mapping[j] for j in adj1[i]) == g2.rows[mapping[i]] for i in range(n))
        sizes = Counter(c1)
        colour = min((c for c, k in sizes.items() if k > 1), key=sizes.__getitem__)
        u = c1.index(colour)
        for w, c in enumerate(c2):
            if c == colour:
                nc1, nc2 = list(c1), list(c2)
                nc1[u] = nc2[w] = ncolours
                if search(nc1, nc2):
                    return True
        return False

    return search([0] * n, [0] * n)


# --- whole-family classification ------------------------------------------------


@dataclass(frozen=True)
class FamilyMember:
    """One graph of a family with what was read off it, each computed once.
    The graph itself is not held: it is the family's gamma, or switch.graph."""

    name: str
    t: int  # 0 for the unswitched graph
    variant: str  # "", "t" or "tt"
    params: SrgParams  # the certificate's, or what verify_switch returned for the switch
    code: BinaryCode
    words: tuple[int, ...]  # the minimum-weight codewords, sorted; () for the unswitched graph
    sig: GraphSignature
    switch: Optional[Switch]  # None for the unswitched graph


@dataclass(frozen=True)
class Family:
    """The quadric graph of one (n, kind) and every legal switch of it."""

    members: tuple[FamilyMember, ...]  # the unswitched graph first
    gamma: Graph  # the unswitched graph, the only one whose rows are held
    certificate: GammaCertificate  # of gamma, from certify_gamma
    # gamma's weight distribution as sorted (weight, count) pairs, read off its
    # two point classes
    weights: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PairEvidence:
    """Separation evidence for one pair: distinct is True on an invariant or
    an exhausted search, False on an explicit mapping, None when unknown."""

    first: str
    second: str
    distinct: Optional[bool]
    invariant: str  # "2-rank", "min weight", "min-word support profile", or "none"
    cross_checked: Optional[bool] = None  # are_isomorphic result, when run


@dataclass(frozen=True)
class FamilyReport:
    members: tuple[FamilyMember, ...]
    pairs: tuple[PairEvidence, ...]
    distinct_count: int
    claimed_switched: int  # published count of new graphs; asserted nowhere
    computed_switched: int
    claim_discrepancy: bool


def _separating_invariant(a: GraphSignature, b: GraphSignature) -> str:
    if a.two_rank != b.two_rank:
        return "2-rank"
    if a.min_weight != b.min_weight:
        return "min weight"
    if a.min_word_profiles != b.min_word_profiles:
        return "min-word support profile"
    return "none"


def _word(words, a: int) -> int:
    """word(a): the XOR of the polar words over the bits of the vector a."""
    out = 0
    for i, w in enumerate(words):
        if a >> i & 1:
            out ^= w
    return out


def _full_rank(vectors, dim: int) -> bool:
    """Whether the vectors, of dim bits, span F_2^dim; stops at full rank."""
    pivots: dict[int, int] = {}
    for x in vectors:
        while x:
            top = x.bit_length() - 1
            if top not in pivots:
                pivots[top] = x
                if len(pivots) == dim:
                    return True
                break
            x ^= pivots[top]
    return False


def _light_first(points: int, width: int) -> Iterator[int]:
    """The points of a point mask over F_2^width, fewest set bits first."""
    for weight in range(1, width + 1):
        for bits in combinations(range(width), weight):
            p = sum(1 << b for b in bits)
            if points >> p & 1:
                yield p


def _lifts(form: QuadraticForm, s: int, h: int) -> Iterator[int]:
    """The lift x + [x in S] 2^(n+1) + [x in H] 2^(n+2) of each vertex x, for
    the vertex masks S and H: S's vertices first, then every vertex, fewest
    set bits first."""
    width, s_points, h_points = form.n + 1, form.points(s), form.points(h)
    for x in chain((form.labels[i] for i in set_bits(s)), _light_first(form.off, width)):
        yield x | (s_points >> x & 1) << width | (h_points >> x & 1) << (width + 1)


def gamma_code(gamma: Graph, certificate: GammaCertificate) -> BinaryCode:
    """gamma's code, from_vectors(v, W) of the certificate's polar words (see
    the module docstring).  gamma is the graph certify_gamma returned with
    certificate; raises CodeError naming the precondition that fails."""
    form, words = certificate.form, certificate.words
    width = form.n + 1
    if not words:
        raise CodeError("gamma's certificate holds no polar words")
    if gamma.labels is not form.labels and gamma.labels != form.labels:
        raise CodeError("gamma's vertices are not the points of its certificate's form")
    code = from_vectors(gamma.v, words)
    if code.dim != width:
        raise CodeError(f"the polar words span dimension {code.dim}, not n + 1 = {width}")
    if not _full_rank(_light_first(form.off, width), width):
        raise CodeError(f"gamma's vertex points do not span F_2^{width}")
    return code


def _class_words(certificate: GammaCertificate) -> tuple[tuple[int, int], tuple[int, int]]:
    """word(a) for one point a of each point class, the least singular point
    and vertex 0, each with the size of its class."""
    form, words = certificate.form, certificate.words
    singular = form.zero_mask
    return (
        (_word(words, (singular & -singular).bit_length() - 1), singular.bit_count()),
        (_word(words, form.labels[0]), len(form.labels)),
    )


def read_gamma(
    gamma: Graph, certificate: GammaCertificate
) -> tuple[BinaryCode, GraphSignature, dict[int, int]]:
    """gamma's code, signature and weight distribution, read off the
    certificate's polar words with one orbit walk (see the module docstring).
    gamma is the graph certify_gamma returned with certificate; raises
    CodeError naming the precondition that fails."""
    code = gamma_code(gamma, certificate)
    if not certificate.covers(certificate.form.zero_mask):  # never, with no reflections
        raise CodeError("the orbit of the least singular point misses a singular point")
    (word, size), (heavy, heavy_size) = sorted(_class_words(certificate), key=lambda c: c[0].bit_count())
    weight = word.bit_count()
    if weight == heavy.bit_count():
        raise CodeError("the two point classes have one weight")
    sig = GraphSignature(code.dim, weight, ((_profile(gamma, word), size),))
    return code, sig, {0: 1, weight: size, heavy.bit_count(): heavy_size}


def switched_code(sw: Switch, gamma: Graph, code: BinaryCode) -> BinaryCode:
    """The code of sw's graph, from_vectors(v, C + (v_S, v_H)) for gamma's code
    C, once the lifts reach rank n + 3 (see the module docstring); no graph is
    made.  sw is a switch of gamma; raises CodeError naming the precondition
    that fails."""
    if sw.base is not gamma:
        raise CodeError("the switch is not a switch of this gamma")
    s, h, width = sw.s, sw.certificate.half_class, code.dim + 2
    if not _full_rank(_lifts(sw.config.form, s, h), width):
        raise CodeError(f"the lifts of the vertices do not reach rank {width}")
    switched = from_vectors(gamma.v, code.basis + (s, h))
    if switched.dim != width:
        raise CodeError(f"v_S and v_H add {switched.dim - code.dim} dimensions to gamma's code, not 2")
    return switched


def build_family(n: int, kind: str) -> Family:
    """The unswitched graph, certified strongly regular, plus every legal
    switch of both shapes, first flag each.  Each switched graph is made
    once, checked strongly regular, profiled for its signature, and dropped;
    raises NotStronglyRegular (with a witness) for a switch that fails the
    check.  Every code and its minimum words are read off the form (see the
    module docstring), and CodeError names a precondition that fails."""
    if n % 2 == 0 or not 5 <= n <= 9:
        raise GeometryError(f"families are classified for odd n in [5, 9], got {n}")
    gamma, certificate = certified_gamma(n, kind)
    code, base_sig, weights = read_gamma(gamma, certificate)
    members = [FamilyMember("gamma", 0, "", certificate.params, code, (), base_sig, None)]
    for variant in ("t", "tt"):
        for t in legal_t_range(n, kind, variant):
            sw = build_switch(gamma, make_config(certificate.form, t, variant))
            name = f"gamma_{variant}{t}"
            members.append(_switch_member(name, t, variant, gamma, certificate, sw, code, base_sig.min_weight))
    return Family(tuple(members), gamma, certificate, tuple(sorted(weights.items())))


def _switch_member(
    name: str,
    t: int,
    variant: str,
    gamma: Graph,
    certificate: GammaCertificate,
    sw: Switch,
    base: BinaryCode,
    min_weight: int,
) -> FamilyMember:
    """The switch's member: its graph made here, checked strongly regular by
    verify_switch, profiled, and dropped on return.  base is gamma's code and
    min_weight its least nonzero weight."""
    graph = sw.graph
    params = verify_switch(sw, certificate, graph)
    code = switched_code(sw, gamma, base)
    words = augmented_min_words(base, min_weight, sw.s, sw.certificate.half_class)
    return FamilyMember(name, t, variant, params, code, tuple(words), signature(graph, code, words), sw)


def classify_family(family: Family, cross_check: Optional[bool] = None) -> FamilyReport:
    """Partition the family by signature; cross-check pairs with the exact
    tester (by default only at n = 5, where it is fast)."""
    certificate, members = family.certificate, family.members
    n, kind = certificate.form.n, certificate.form.kind
    if cross_check is None:
        cross_check = n == 5

    # Two members are equivalent when their signatures are equal and the
    # cross-check has not separated them: equal signatures and, when checked,
    # isomorphism, both equivalences.  So a member is new unless an earlier
    # member is equivalent to it.
    profiles: dict[int, Counter] = {}  # by member index, made on first use
    graphs: list[Graph] = []  # the cross-check's, each switched one made once for this call
    if cross_check:
        graphs = [family.gamma if m.switch is None else m.switch.graph for m in members]

    def profile(i: int) -> Counter:
        if i not in profiles:
            g = graphs[i]
            profiles[i] = _certified_pair_profile(g, certificate) if i == 0 else _pair_profile(g)
        return profiles[i]

    pairs, repeats = [], set()
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            a, b = members[i], members[j]
            inv = _separating_invariant(a.sig, b.sig)
            iso = None
            if cross_check:
                iso = _isomorphic(graphs[i], graphs[j], lambda: profile(i) == profile(j))
            if inv == "none":
                distinct_pair = None if iso is None else not iso
            else:  # an isomorphism that an invariant contradicts leaves the pair unknown
                distinct_pair = None if iso else True
            pairs.append(PairEvidence(a.name, b.name, distinct_pair, inv, iso))
            if inv == "none" and iso is not False:
                repeats.add(j)

    computed_switched = len(members) - 1
    # published count of new graphs: n-3 (elliptic), n-2 (hyperbolic); the hyperbolic
    # construction only yields (n-3)/2 + (n-5)/2 = n-4, so both numbers are reported
    claimed = n - 3 if kind == "elliptic" else n - 2
    return FamilyReport(
        members=members,
        pairs=tuple(pairs),
        distinct_count=len(members) - len(repeats),
        claimed_switched=claimed,
        computed_switched=computed_switched,
        claim_discrepancy=claimed != computed_switched,
    )
