"""Non-isomorphism certificates for the quadric graph and its switches.

The primary separator is a code-based signature: 2-rank, minimum weight,
and the multiset of (weight, induced degree sequence on the support) over
the minimum-weight codewords.  All three survive vertex relabelling, so
differing signatures certify non-isomorphism.

The quadric graph's words are profiled once per orbit.  The reflections
in certify_gamma's certificate are automorphisms of the graph it returned, so
they permute its rows, its code and its minimum-weight words, and keep every
induced degree: the words of one orbit share one profile, and the orbit's
size is added to its multiplicity.  The orbits are walked in point space,
each word expanded once and moved by form.reflect in each reflection's
point, and every image must be a word.  If one is not, or
no reflections were certified (the verify_srg fallback, and every switched
graph), each word is profiled on its own.

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
regular, its code, minimum words and signature are read off it, and it is
dropped, so a family holds the rows of its quadric graph only.  The
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
from typing import Optional

from .codes import BinaryCode, CodeError, code_from_graph, min_weight_codewords
from .gf2geom import GeometryError, QuadswitchError, set_bits
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


def _orbit_profiles(g: Graph, words, certificate: GammaCertificate) -> Optional[Counter]:
    """The profiles of the words with their multiplicities, one computed per
    orbit of the certificate's reflections, or None unless there are
    reflections and they map every word to a word."""
    form, reflections = certificate.form, certificate.reflections
    if not reflections:
        return None
    expanded = list(map(form.points, words))  # the walk stays in point space
    unseen = Counter(expanded)  # a word listed twice counts twice
    profiles: Counter = Counter()
    for w, start in zip(words, expanded):
        size = unseen[start]
        if not size:
            continue
        unseen[start], frontier = 0, [start]
        while frontier:
            mask = frontier.pop()
            for r in reflections:
                image = form.reflect(mask, r)
                count = unseen.get(image)
                if count is None:
                    return None  # not an automorphism of the word set: profile every word
                if count:
                    unseen[image] = 0
                    size += count
                    frontier.append(image)
        profiles[_profile(g, w)] += size
    return profiles


def signature(
    g: Graph, code: BinaryCode, words, certificate: Optional[GammaCertificate] = None
) -> GraphSignature:
    """Signature from the graph's code and that code's minimum-weight words:
    rank, minimum weight, min-word support shapes with their multiplicities.
    With the certificate that certify_gamma gave with g, each
    orbit of words under its reflections is profiled once (see the module
    docstring); otherwise, or when the walk fails, every word is."""
    if not words:
        raise CodeError("a signature needs the code's minimum-weight words, got none")
    profiles = _orbit_profiles(g, words, certificate) if certificate is not None else None
    if profiles is None:
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
    words: tuple[int, ...]  # the minimum-weight codewords, sorted
    sig: GraphSignature
    switch: Optional[Switch]  # None for the unswitched graph


@dataclass(frozen=True)
class Family:
    """The quadric graph of one (n, kind) and every legal switch of it."""

    members: tuple[FamilyMember, ...]  # the unswitched graph first
    gamma: Graph  # the unswitched graph, the only one whose rows are held
    certificate: GammaCertificate  # of gamma, from certify_gamma


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


def _member(
    name: str,
    t: int,
    variant: str,
    gamma: Graph,
    certificate: GammaCertificate,
    switch: Optional[Switch] = None,
) -> FamilyMember:
    """gamma's member, or switch's: its graph made here, checked strongly
    regular by verify_switch, read, and dropped on return."""
    if switch is None:
        graph, params = gamma, certificate.params
    else:
        graph = switch.graph
        params = verify_switch(switch, certificate, graph)
    code = code_from_graph(graph)
    words = tuple(min_weight_codewords(code))
    sig = signature(graph, code, words, certificate if switch is None else None)
    return FamilyMember(name, t, variant, params, code, words, sig, switch)


def build_family(n: int, kind: str) -> Family:
    """The unswitched graph, certified strongly regular, plus every legal
    switch of both shapes, first flag each.  Each switched graph is made
    once, checked strongly regular, read for its code, minimum words and
    signature, and dropped; raises NotStronglyRegular (with a witness) for a
    switch that fails the check."""
    if n % 2 == 0 or not 5 <= n <= 9:
        raise GeometryError(f"families are classified for odd n in [5, 9], got {n}")
    gamma, certificate = certified_gamma(n, kind)
    members = [_member("gamma", 0, "", gamma, certificate)]
    for variant in ("t", "tt"):
        for t in legal_t_range(n, kind, variant):
            sw = build_switch(gamma, make_config(certificate.form, t, variant))
            members.append(_member(f"gamma_{variant}{t}", t, variant, gamma, certificate, sw))
    return Family(tuple(members), gamma, certificate)


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
