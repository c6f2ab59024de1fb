"""Signatures, the exact isomorphism tester, and family classification."""

import random
from collections import Counter
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadswitch import codes, distinguish, srg, switching
from quadswitch.codes import (
    CodeError,
    augmented_min_words,
    augmented_weight_distribution,
    code_from_graph,
    expected_gamma_weight_distribution,
    min_weight_codewords,
    weight_distribution,
)
from quadswitch.distinguish import (
    IsomorphismBudgetExceeded,
    PairEvidence,
    _certified_pair_profile,
    _pair_profile,
    _profile,
    are_isomorphic,
    build_family,
    classify_family,
    gamma_code,
    read_gamma,
    signature,
    switched_code,
)
from quadswitch.gf2geom import ELLIPTIC, HYPERBOLIC, GeometryError, canonical_form
from quadswitch.srg import Graph, build_gamma, certified_gamma, certify_gamma, verify_srg
from quadswitch.switching import build_S, build_switch, gm_switch, legal_t_range, make_config

from conftest import (
    flip_switched_edge,
    form,
    graph_signature,
    member_graph,
    orbit_profiles,
    random_graph,
    relabel,
    relabel_mask,
    to_nx,
)

E5 = canonical_form(5, ELLIPTIC)
H5 = canonical_form(5, HYPERBOLIC)


def switched(form, t, variant, choice=0):
    g = build_gamma(form)
    return gm_switch(g, build_S(make_config(form, t, variant, choice)))


# --- signatures -------------------------------------------------------------------


def test_signature_gamma_n5_elliptic():
    sig = graph_signature(build_gamma(E5))
    assert sig.two_rank == 6
    assert sig.min_weight == 16


def test_signature_single_switch_n5_elliptic():
    sig = graph_signature(switched(E5, 1, "t"))
    assert sig.two_rank == 8
    assert sig.min_weight == 4
    assert sig.min_word_profiles == (((4, (0, 0, 0, 0)), 1),)


def test_signature_double_switch_n5_elliptic():
    sig = graph_signature(switched(E5, 1, "tt"))
    assert sig.two_rank == 8
    assert sig.min_weight == 8
    # v^S induces the 4-regular support; three companion minimum words with
    # 6-regular supports appear at this dimension (measured; see codes tests)
    assert sig.min_word_profiles == (((8, (4,) * 8), 1), ((8, (6,) * 8), 3))


def test_signature_refuses_an_empty_word_list():
    g = build_gamma(E5)
    with pytest.raises(CodeError, match="minimum-weight words"):
        signature(g, code_from_graph(g), [])


def test_signature_invariant_under_relabelling():
    rng = random.Random(11)
    for g in (build_gamma(H5), switched(E5, 1, "t")):
        sig = graph_signature(g)
        for _ in range(10):
            perm = list(range(g.v))
            rng.shuffle(perm)
            assert graph_signature(relabel(g, perm)) == sig


def certified_words(n, kind):
    """Graph, certificate, code and minimum words of one quadric graph."""
    g, certificate = certify_gamma(form(n, kind))
    code = code_from_graph(g)
    return g, certificate, code, tuple(min_weight_codewords(code))


@pytest.mark.parametrize("n", [5, 7, 9, 11])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_orbit_signature_equals_the_direct_signature(monkeypatch, n, kind):
    # gamma's code from its n + 1 polar words and its signature from one orbit
    # walk on points equal the code of its rows, the orbit walk over the words
    # (the oracle) and every word profiled on its own
    g, certificate, code, words = certified_words(n, kind)
    assert certificate.reflections and len(certificate.words) == n + 1
    calls = []
    monkeypatch.setattr(distinguish, "_profile", lambda g, w: calls.append(w) or _profile(g, w))
    read_code, sig, weights = read_gamma(g, certificate)
    # one profile computed, of a minimum word; its multiplicity the word count
    assert len(calls) == 1 and calls[0] in words
    assert read_code == code and weights == weight_distribution(code)
    assert sig.min_word_profiles == ((_profile(g, words[0]), len(words)),)
    assert sig.min_word_profiles == tuple(sorted(orbit_profiles(g, words, certificate).items()))
    assert sig == signature(g, code, words)
    expected = expected_gamma_weight_distribution(n, kind)
    assert expected[sig.min_weight] == len(words) and sig.min_weight == min(w for w in expected if w)


def assert_direct(g, words, certificate):
    """The oracle's walk refuses the mutated case."""
    assert orbit_profiles(g, words, certificate) is None


@pytest.mark.parametrize("n,kind", [(5, ELLIPTIC), (7, HYPERBOLIC)])
def test_orbit_signature_needs_every_image_to_be_a_word(n, kind):
    g, certificate, code, words = certified_words(n, kind)
    for drop in (0, len(words) // 2, len(words) - 1):
        assert_direct(g, words[:drop] + words[drop + 1 :], certificate)
    w = words[0]
    low_set, low_clear = w & -w, ~w & (w + 1)  # a vector of the same weight that is no word
    assert w ^ low_set ^ low_clear not in words
    assert_direct(g, words + (w ^ low_set ^ low_clear,), certificate)
    twice = words + (words[0],)  # counted twice, as the direct Counter counts it
    assert orbit_profiles(g, twice, certificate) == Counter(_profile(g, w) for w in twice)
    # the read takes no word list: it profiles one word of the point class
    assert read_gamma(g, certificate)[1] == signature(g, code, words)


@pytest.mark.parametrize("n,kind", [(5, HYPERBOLIC), (7, ELLIPTIC)])
def test_orbit_signature_rejects_a_singular_reflection(n, kind):
    # x -> x + B(x,r) r with Q(r) = 0 keeps B but not Q: it moves words off the
    # vertex set, and singular points off the quadric, so the orbit of the
    # least singular point is not the singular points and the read refuses
    g, certificate, code, words = certified_words(n, kind)
    bad = next(p for p in range(1, 1 << (n + 1)) if certificate.form.contains(p))
    forged = replace(certificate, reflections=(bad, *certificate.reflections))
    assert_direct(g, words, forged)
    assert not forged.covers(forged.form.zero_mask)
    with pytest.raises(CodeError, match="misses a singular point"):
        read_gamma(g, forged)


@pytest.mark.parametrize("n,kind", [(5, ELLIPTIC), (7, HYPERBOLIC)])
def test_orbit_signature_needs_certified_reflections(monkeypatch, n, kind):
    g, _, code, words = certified_words(n, kind)
    good = srg._transitive_reflections(form(n, kind))
    monkeypatch.setattr(srg, "_transitive_reflections", lambda *a: good[:-1])
    fell_back = certify_gamma(form(n, kind))[1]
    assert fell_back.reflections == () and fell_back.words == ()
    assert_direct(g, words, fell_back)
    with pytest.raises(CodeError, match="no polar words"):
        read_gamma(g, fell_back)
    other = certified_words(n, HYPERBOLIC if kind == ELLIPTIC else ELLIPTIC)[1]
    assert_direct(g, words, other)  # reflections of another form
    with pytest.raises(CodeError, match="no polar words"):  # certified under the same patch
        read_gamma(g, other)


# --- codes read off the form ----------------------------------------------------


def reference_member(graph):
    """Oracle: a graph's code, minimum words and signature from its rows."""
    code = code_from_graph(graph)
    words = tuple(min_weight_codewords(code))
    return code, words, signature(graph, code, words)


def reference_weights(graph):
    """Oracle: a graph's code and weight distribution from its rows."""
    code = code_from_graph(graph)
    return code, weight_distribution(code)


def count_walks(monkeypatch):
    """Record the number of words each coset or code walk yields."""
    walks, walk = [], codes.iter_codewords

    def counted(code, offset=0):
        walks.append(0)
        for w in walk(code, offset):
            walks[-1] += 1
            yield w

    monkeypatch.setattr(codes, "iter_codewords", counted)
    return walks


def read_switch_case(n, kind, t, variant, choice):
    """One switch of the certified gamma, its graph, and the read of its code
    and minimum words, as build_family reads them."""
    gamma, certificate = certified_gamma(n, kind)
    sw = build_switch(gamma, make_config(certificate.form, t, variant, choice))
    base, sig, _ = read_gamma(gamma, certificate)
    code = switched_code(sw, gamma, base)
    return sw, sw.graph, (code, augmented_min_words(base, sig.min_weight, sw.s, sw.certificate.half_class))


def read_weights(gamma, certificate, sw):
    """The code of sw's graph and its weight enumerator, as switch --code reads them."""
    base = gamma_code(gamma, certificate)
    return switched_code(sw, gamma, base), augmented_weight_distribution(base, sw.s, sw.certificate.half_class)


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_switched_codes_read_off_the_form_equal_the_reference(monkeypatch, n, kind):
    walks = count_walks(monkeypatch)
    gamma, certificate = certified_gamma(n, kind)
    for variant in ("t", "tt"):
        for t in legal_t_range(n, kind, variant):
            for choice in (0, 7, 21):
                walks.clear()
                sw, graph, (code, words) = read_switch_case(n, kind, t, variant, choice)
                walked = list(walks)
                case = (t, variant, choice)
                assert (code, tuple(words)) == reference_member(graph)[:2], case
                assert code.dim == n + 3 and sw.s in words, case
                cert = sw.certificate
                if kind == HYPERBOLIC and variant == "t" and t == (n - 3) // 2:
                    # no vertex outside S and its half-class: no row is unchanged
                    assert not cert.none_class and not cert.all_class, case
                # the walk took two cosets of C, or three at n = 5 elliptic tt,
                # where C's least weight 16 is not more than 2|v_S| = 16
                cosets = 3 if (n, kind, variant) == (5, ELLIPTIC, "tt") else 2
                assert walked == [1 << (n + 1)] * cosets, case
                # switch --code's weight enumerator: one walk of C, no coset
                walks.clear()
                read = read_weights(gamma, certificate, sw)
                assert walks == [1 << (n + 1)], case
                assert read == reference_weights(graph), case


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_switched_codes_read_off_the_form_at_n11(kind):
    gamma, certificate = certified_gamma(11, kind)
    for variant in ("t", "tt"):
        for t in legal_t_range(11, kind, variant):
            sw, graph, (code, words) = read_switch_case(11, kind, t, variant, 0)
            assert (code, tuple(words)) == reference_member(graph)[:2], (t, variant)
            assert words == [sw.s], (t, variant)
            assert read_weights(gamma, certificate, sw) == reference_weights(graph), (t, variant)


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_gamma_weights_are_read_off_the_point_classes(n, kind):
    # the two point classes give the whole weight distribution of gamma's code
    family = build_family(n, kind)
    assert dict(family.weights) == weight_distribution(code_from_graph(family.gamma))
    assert dict(family.weights) == expected_gamma_weight_distribution(n, kind)


def test_augmented_walk_declines_at_the_base_codes_weight():
    # with min_weight at most the lightest coset word, C's own words would
    # count: the walk refuses to answer
    sw, graph, (code, words) = read_switch_case(7, ELLIPTIC, 1, "t", 0)
    gamma, certificate = certified_gamma(7, ELLIPTIC)
    base, sig, _ = read_gamma(gamma, certificate)
    h = sw.certificate.half_class
    assert augmented_min_words(base, sig.min_weight, sw.s, h) == words
    with pytest.raises(CodeError, match="reaches the base code's"):
        augmented_min_words(base, words[0].bit_count(), sw.s, h)


def assert_refuses(n, kind, reason):
    """build_family(n, kind) raises CodeError naming the failed precondition."""
    with pytest.raises(CodeError, match=reason):
        build_family(n, kind)


@pytest.mark.parametrize("n,kind", [(5, ELLIPTIC), (7, HYPERBOLIC)])
def test_family_falls_back_when_the_orbit_misses_a_singular_point(monkeypatch, n, kind):
    # the point-class read is gamma's only path: it refuses
    gamma, certificate = certified_gamma(n, kind)  # certified before the orbit is broken
    orbit, singular = srg._orbit, certificate.form.zero_mask

    def short(f, mask, reflections):
        got = orbit(f, mask, reflections)
        return got & ~(1 << got.bit_length() - 1) if mask & singular else got

    monkeypatch.setattr(srg, "_orbit", short)
    assert not certificate.covers(singular)
    with pytest.raises(CodeError, match="misses a singular point"):
        read_gamma(gamma, certificate)
    assert_refuses(n, kind, "misses a singular point")


def test_family_falls_back_on_a_form_that_fails_the_polar_check(monkeypatch):
    # nonorth(e_2) one point off fails check b: the graph gets the reference
    # rows (the same graph, as they do not read nonorth), and its certificate
    # holds no polar words, so no code can be read off the form
    f = canonical_form(7, HYPERBOLIC)
    nonorth, bad = f.nonorth, f.nonorth(4) ^ 1 << 3
    f.nonorth = lambda y: bad if y == 4 else nonorth(y)
    gamma, certificate = certify_gamma(f)
    assert certificate.reflections and certificate.words == () and srg._polar_words(f) is None
    with pytest.raises(CodeError, match="no polar words"):
        read_gamma(gamma, certificate)
    monkeypatch.setattr(distinguish, "certified_gamma", lambda n, kind: (gamma, certificate))
    assert_refuses(7, HYPERBOLIC, "no polar words")


@pytest.mark.parametrize("n,kind", [(5, ELLIPTIC), (7, HYPERBOLIC)])
def test_family_falls_back_when_the_lifts_fall_short(monkeypatch, n, kind):
    # lifts without their H coordinate span at most n + 2 dimensions: refused
    lifts, width = distinguish._lifts, n + 1
    monkeypatch.setattr(distinguish, "_lifts", lambda *a: (x & ~(2 << width) for x in lifts(*a)))
    assert_refuses(n, kind, f"lifts of the vertices do not reach rank {n + 3}")


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_switched_code_makes_no_graph(monkeypatch, kind):
    # the switched rows are gamma's XOR v_H on S and v_S on H by construction:
    # the code is read off the switch and gamma's code, and no graph is made
    gamma, certificate = certified_gamma(7, kind)
    base = gamma_code(gamma, certificate)
    switches = [build_switch(gamma, make_config(certificate.form, 1, variant)) for variant in ("t", "tt")]
    references = [reference_member(sw.graph)[0] for sw in switches]

    def refuse(*args):
        raise AssertionError("a switched graph was made")

    monkeypatch.setattr(switching, "_complement_edges", refuse)
    assert [switched_code(sw, gamma, base) for sw in switches] == references


def test_switched_code_refuses_a_switch_of_another_graph():
    gamma, certificate = certified_gamma(5, ELLIPTIC)
    sw = build_switch(build_gamma(certificate.form), make_config(certificate.form, 1, "t"))
    with pytest.raises(CodeError, match="not a switch of this gamma"):
        switched_code(sw, gamma, gamma_code(gamma, certificate))


def test_family_reads_the_codes_at_n9_with_two_coset_walks(monkeypatch):
    # gamma walks no word, and each switch two cosets of its 2^(n+1)-word base code
    walks = count_walks(monkeypatch)
    for kind in (ELLIPTIC, HYPERBOLIC):
        family = build_family(9, kind)
        assert walks == [1 << 10] * 2 * (len(family.members) - 1), kind
        assert family.members[0].words == ()
        for m in family.members:
            graph = member_graph(family, m)
            code, words, sig = reference_member(graph)
            assert (m.code, m.sig) == (code, sig) and m.words in ((), words), (kind, m.name)
        walks.clear()


# --- exact isomorphism ------------------------------------------------------------


def test_isomorphic_to_own_relabelling():
    rng = random.Random(5)
    g = build_gamma(E5)
    for _ in range(3):
        perm = list(range(g.v))
        rng.shuffle(perm)
        assert are_isomorphic(g, relabel(g, perm))


def test_self_isomorphic():
    for g in (build_gamma(E5), switched(H5, 1, "t")):
        assert are_isomorphic(g, g)


def test_every_family_member_self_isomorphic():
    # equal rows are answered by the identity; a relabelled copy of each
    # n = 5 member keeps a "yes" that has to come from the search covered
    rng = random.Random(13)
    for n in (5, 7):
        for kind in (ELLIPTIC, HYPERBOLIC):
            family = build_family(n, kind)
            for m in family.members:
                g = member_graph(family, m)
                assert are_isomorphic(g, g), (n, kind, m.name)
                if n == 5:
                    for _ in range(2):
                        perm = list(range(g.v))
                        rng.shuffle(perm)
                        assert are_isomorphic(g, relabel(g, perm)), (kind, m.name)


def test_switched_graphs_not_isomorphic_n5():
    assert not are_isomorphic(switched(E5, 1, "t"), switched(E5, 1, "tt"))
    assert not are_isomorphic(build_gamma(H5), switched(H5, 1, "t"))


def test_vertex_count_mismatch_is_false():
    assert not are_isomorphic(build_gamma(E5), build_gamma(H5))


def test_agrees_with_networkx_on_random_graphs():
    rng = random.Random(17)
    for trial in range(10):
        a = random_graph(rng, 9, 0.4)
        b = random_graph(rng, 9, 0.4)
        assert are_isomorphic(a, b) == nx.is_isomorphic(to_nx(a), to_nx(b))
        perm = list(range(9))
        rng.shuffle(perm)
        assert are_isomorphic(a, relabel(a, perm))


def test_budget_exhaustion_raises():
    # an isomorphic pair has equal pair profiles, so it always reaches the
    # search, which needs 108 nodes for this relabelling
    g1 = switched(E5, 1, "t")
    perm = list(range(g1.v))
    random.Random(1).shuffle(perm)
    with pytest.raises(IsomorphismBudgetExceeded):
        are_isomorphic(g1, relabel(g1, perm), budget=1)
    # the non-isomorphic pair is settled by the pair profile before any node
    assert are_isomorphic(g1, switched(E5, 1, "tt"), budget=1) is False


def test_the_search_decides_a_relabelled_switch_in_108_nodes():
    # pins the search order: a node is counted on entry, so budget=107 gives up
    g1 = switched(E5, 1, "t")
    perm = list(range(g1.v))
    random.Random(1).shuffle(perm)
    g2 = relabel(g1, perm)
    assert are_isomorphic(g1, g2, budget=108) is True
    with pytest.raises(IsomorphismBudgetExceeded, match="gave up after 107 search nodes"):
        are_isomorphic(g1, g2, budget=107)


def degree_preserving_swap(g, rng):
    """g with edges xy, uw replaced by xw, uy for one random choice of four
    distinct vertices where xw and uy are not edges, or None if there is none."""
    edges = [(x, y) for x in range(g.v) for y in g.neighbors(x)]
    swaps = [
        (x, y, u, w)
        for x, y in edges
        for u, w in edges
        if len({x, y, u, w}) == 4 and not (g.rows[x] >> w) & 1 and not (g.rows[u] >> y) & 1
    ]
    if not swaps:
        return None
    x, y, u, w = rng.choice(swaps)
    rows = list(g.rows)
    for a, b, c in ((x, y, w), (u, w, y), (y, x, u), (w, u, x)):
        rows[a] ^= 1 << b | 1 << c  # drop a's old edge to b, add its new one to c
    return Graph(g.labels, tuple(rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.randoms(use_true_random=False))
def test_the_search_agrees_with_networkx(v, rng):
    # same_profiles always agrees, so every pair with equal v, edge count and
    # degrees is decided by the search
    a = random_graph(rng, v, rng.random())
    perm = list(range(v))
    rng.shuffle(perm)
    for b in (a, degree_preserving_swap(a, rng)):
        if b is not None:
            b = relabel(b, perm)
            assert distinguish._isomorphic(a, b, lambda: True) == nx.is_isomorphic(to_nx(a), to_nx(b))


# --- the pair profile -------------------------------------------------------------


def family_pairs(n):
    """(kind, (name, graph), (name, graph)) for each pair of members at n."""
    for kind in (ELLIPTIC, HYPERBOLIC):
        family = build_family(n, kind)
        named = [(m.name, member_graph(family, m)) for m in family.members]
        for i, a in enumerate(named):
            for b in named[i + 1 :]:
                yield kind, a, b


def test_pair_profile_settles_n5_family_pairs_without_search():
    # budget=0 raises at the first search node, so False means no search ran
    pairs = list(family_pairs(5))
    assert len(pairs) == 4
    for kind, (a, ga), (b, gb) in pairs:
        assert are_isomorphic(ga, gb, budget=0) is False, (kind, a, b)


def test_pair_profile_settles_n7_family_pairs_without_search(monkeypatch):
    # each member is in several pairs: its profile is computed once, keyed by its rows
    profiles = {}

    def pair_profile(g):
        if g.rows not in profiles:
            profiles[g.rows] = _pair_profile(g)
        return profiles[g.rows]

    monkeypatch.setattr(distinguish, "_pair_profile", pair_profile)
    pairs = list(family_pairs(7))
    assert len(pairs) == 16
    for kind, (a, ga), (b, gb) in pairs:
        assert are_isomorphic(ga, gb, budget=0) is False, (kind, a, b)
    assert len(profiles) == 9  # one per member: 5 elliptic, 4 hyperbolic


def z4_cayley_graph(connection):
    """Cayley graph on Z4 x Z4 for a connection set closed under negation."""
    elems = [(a, b) for a in range(4) for b in range(4)]
    rows = [0] * 16
    for i, (a, b) in enumerate(elems):
        for j, (c, d) in enumerate(elems):
            if ((c - a) % 4, (d - b) % 4) in connection:
                rows[i] |= 1 << j
    return Graph(tuple(range(1, 17)), tuple(rows))


def test_equal_profiles_fall_back_to_the_search():
    # the 4x4 rook's graph and the Shrikhande graph are both SRG(16, 6, 2, 2)
    # with equal pair profiles; only the search can tell them apart
    rook = z4_cayley_graph({(1, 0), (3, 0), (2, 0), (0, 1), (0, 3), (0, 2)})
    shrikhande = z4_cayley_graph({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
    assert _pair_profile(rook) == _pair_profile(shrikhande)
    with pytest.raises(IsomorphismBudgetExceeded):
        are_isomorphic(rook, shrikhande, budget=0)
    assert are_isomorphic(rook, shrikhande) is False
    assert not nx.is_isomorphic(to_nx(rook), to_nx(shrikhande))


def test_the_search_separates_rook_and_shrikhande_in_113_nodes():
    rook = z4_cayley_graph({(1, 0), (3, 0), (2, 0), (0, 1), (0, 3), (0, 2)})
    shrikhande = z4_cayley_graph({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
    assert are_isomorphic(rook, shrikhande, budget=113) is False
    with pytest.raises(IsomorphismBudgetExceeded, match="gave up after 112 search nodes"):
        are_isomorphic(rook, shrikhande, budget=112)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.randoms(use_true_random=False))
def test_pair_profile_invariant_under_relabelling(v, rng):
    g = random_graph(rng, v, rng.random())
    perm = list(range(v))
    rng.shuffle(perm)
    assert _pair_profile(relabel(g, perm)) == _pair_profile(g)


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_pair_profile_invariant_on_n5_family(rng):
    for kind in (ELLIPTIC, HYPERBOLIC):
        family = build_family(5, kind)
        for m in family.members:
            g = member_graph(family, m)
            perm = list(range(g.v))
            rng.shuffle(perm)
            assert _pair_profile(relabel(g, perm)) == _pair_profile(g), m.name


def counted_pair_profiles(monkeypatch):
    """The graphs that classify_family hands to _pair_profile, one per call."""
    calls = []
    monkeypatch.setattr(distinguish, "_pair_profile", lambda g: calls.append(g) or _pair_profile(g))
    return calls


@pytest.mark.parametrize("n, kind, direct", [(5, ELLIPTIC, 2), (5, HYPERBOLIC, 1), (7, ELLIPTIC, 4), (7, HYPERBOLIC, 3)])
def test_the_cross_check_profiles_each_switched_member_once(monkeypatch, n, kind, direct):
    # one profile per member, gamma's from one vertex: the switched members only
    family = build_family(n, kind)
    calls = counted_pair_profiles(monkeypatch)
    rep = classify_family(family, cross_check=True)
    assert len(calls) == direct == len(family.members) - 1
    assert [sum(g == m.switch.graph for g in calls) for m in family.members[1:]] == [1] * direct
    assert all(p.distinct is True and p.cross_checked is False for p in rep.pairs)
    assert rep.distinct_count == len(family.members)


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_gamma_pair_profile_from_one_vertex(monkeypatch, n, kind):
    gamma, certificate = srg.certified_gamma(n, kind)
    assert certificate.reflections
    calls = counted_pair_profiles(monkeypatch)
    one_vertex = _certified_pair_profile(gamma, certificate)
    assert not calls
    assert one_vertex == _pair_profile(gamma)


def test_certified_pair_profile_falls_back_on_an_odd_multiplicity(monkeypatch):
    # the path 0 - 1 - 2 is not vertex-transitive; v = 3 times the multiplicity 1
    # of each pair through vertex 0 is odd, so the reflections are not trusted
    path = Graph((1, 2, 3), (0b010, 0b101, 0b010))
    certificate = srg.certified_gamma(5, ELLIPTIC)[1]
    calls = counted_pair_profiles(monkeypatch)
    assert _certified_pair_profile(path, certificate) == _pair_profile(path)
    assert calls == [path]


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_a_relabelled_member_is_cross_checked_as_isomorphic_and_merged(monkeypatch, kind):
    family = build_family(5, kind)
    base = classify_family(family, cross_check=True)
    last = family.members[-1]
    sw = last.switch
    perm = list(range(family.gamma.v))
    random.Random(3).shuffle(perm)
    # switching commutes with relabelling: relabel the base and every mask
    masks = ("s_vertices", "none_class", "half_class", "all_class")
    cert = replace(sw.certificate, **{f: relabel_mask(getattr(sw.certificate, f), perm) for f in masks})
    moved = replace(sw, certificate=cert, base=relabel(sw.base, perm), t_set=relabel_mask(sw.t_set, perm))
    copy_graph = relabel(sw.graph, perm)
    assert moved.graph == copy_graph
    copy = replace(last, name="copy", switch=moved)
    calls = counted_pair_profiles(monkeypatch)
    rep = classify_family(replace(family, members=family.members + (copy,)), cross_check=True)
    assert len(calls) == len(family.members)  # the switched members and the copy, once each
    assert sum(g == copy_graph for g in calls) == 1
    # the copy is paired as its original is, and with its original it is isomorphic
    expected = {(p.first, p.second): p for p in base.pairs}
    expected.update({(p.first, "copy"): replace(p, second="copy") for p in base.pairs if p.second == last.name})
    expected[last.name, "copy"] = PairEvidence(last.name, "copy", False, "none", True)
    assert len(rep.pairs) == len(expected)
    assert {(p.first, p.second): p for p in rep.pairs} == expected
    assert rep.distinct_count == base.distinct_count


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_a_certificate_without_reflections_profiles_gamma_directly(monkeypatch, kind):
    family = build_family(5, kind)
    base = classify_family(family, cross_check=True)
    stripped = replace(family, certificate=replace(family.certificate, reflections=()))
    calls = counted_pair_profiles(monkeypatch)
    assert classify_family(stripped, cross_check=True) == base
    assert sum(g is family.gamma for g in calls) == 1
    assert len(calls) == len(family.members)


def test_relabel_rejects_non_permutation():
    g = build_gamma(E5)
    with pytest.raises(ValueError):
        relabel(g, [0] * g.v)


# --- families ---------------------------------------------------------------------


def test_family_n5_elliptic():
    family = build_family(5, ELLIPTIC)
    rep = classify_family(family)
    assert rep.members is family.members  # classified as built, not rebuilt
    assert rep.distinct_count == 3
    assert len(rep.members) == 3
    assert all(p.distinct for p in rep.pairs)
    assert all(p.cross_checked is False for p in rep.pairs)
    by_pair = {(p.first, p.second): p.invariant for p in rep.pairs}
    assert by_pair[("gamma", "gamma_t1")] == "2-rank"
    assert by_pair[("gamma", "gamma_tt1")] == "2-rank"
    assert by_pair[("gamma_t1", "gamma_tt1")] == "min weight"
    assert not rep.claim_discrepancy  # published n-3 = 2 equals the computed count


def test_family_n5_hyperbolic_flags_claim():
    rep = classify_family(build_family(5, HYPERBOLIC))
    assert rep.distinct_count == 2
    assert rep.computed_switched == 1
    assert rep.claimed_switched == 3  # published n-2; the enumerated family is smaller
    assert rep.claim_discrepancy


def test_family_n7_elliptic(monkeypatch):
    calls = []
    monkeypatch.setattr(distinguish, "_profile", lambda g, w: calls.append(w) or _profile(g, w))
    rep = classify_family(build_family(7, ELLIPTIC))
    assert rep.distinct_count == 5
    assert {m.name for m in rep.members} == {
        "gamma",
        "gamma_t1",
        "gamma_t2",
        "gamma_tt1",
        "gamma_tt2",
    }
    assert all(p.distinct for p in rep.pairs)
    by_pair = {(p.first, p.second): p.invariant for p in rep.pairs}
    # same rank and same minimum weight: only the support shape separates them
    assert by_pair[("gamma_t2", "gamma_tt1")] == "min-word support profile"
    assert not rep.claim_discrepancy
    # gamma's words were profiled through its certificate, once for their one
    # orbit; every switched member's words were profiled one by one
    assert len(calls) == 1 + sum(len(m.words) for m in rep.members[1:])


def test_family_n7_hyperbolic():
    rep = classify_family(build_family(7, HYPERBOLIC))
    assert rep.distinct_count == 4
    assert rep.computed_switched == 3
    assert rep.claimed_switched == 5
    assert rep.claim_discrepancy
    assert all(p.distinct for p in rep.pairs)


def test_an_isomorphism_against_an_invariant_leaves_the_pair_unknown(monkeypatch):
    # the invariants separate every pair; a cross-check that says otherwise
    # is a contradiction, reported as unknown and not merged
    monkeypatch.setattr(distinguish, "_isomorphic", lambda a, b, same_profiles: True)
    rep = classify_family(build_family(5, ELLIPTIC))
    assert all(p.invariant != "none" and p.distinct is None for p in rep.pairs)
    assert all(p.cross_checked is True for p in rep.pairs)
    assert rep.distinct_count == 3


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_a_repeated_member_is_merged_unless_the_cross_check_separates_it(monkeypatch, kind):
    # every real pair is separated by an invariant, so only a copy reaches the merge;
    # at n = 5 hyperbolic both copies are of gamma_t1: three equal members count once
    family = build_family(5, kind)
    twice = replace(family, members=family.members + family.members[1:2] + family.members[-1:])
    rep = classify_family(twice, cross_check=False)
    assert rep.distinct_count == len(family.members)
    assert all((p.invariant == "none") == (p.distinct is None) == (p.first == p.second) for p in rep.pairs)
    monkeypatch.setattr(distinguish, "_isomorphic", lambda a, b, same_profiles: False)
    rep = classify_family(twice, cross_check=True)
    assert rep.distinct_count == len(twice.members)
    assert all(p.distinct is True and p.cross_checked is False for p in rep.pairs)


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_family_rejects_a_switched_graph_that_is_not_strongly_regular(monkeypatch, kind):
    flip_switched_edge(monkeypatch)
    with pytest.raises(srg.NotStronglyRegular) as exc:
        build_family(5, kind)
    assert exc.value.witness is not None


def test_family_rejects_out_of_range():
    with pytest.raises(GeometryError):
        build_family(6, ELLIPTIC)
    with pytest.raises(GeometryError):
        build_family(11, ELLIPTIC)


def test_family_members_share_parameters():
    # each member's params are what the reference check gives for its graph
    for n in (5, 7):
        for kind in (ELLIPTIC, HYPERBOLIC):
            family = build_family(n, kind)
            params = [verify_srg(member_graph(family, m)) for m in family.members]
            assert [m.params for m in family.members] == params, (n, kind)
            assert len(set(params)) == 1, (n, kind)
            if (n, kind) == (5, ELLIPTIC):
                assert {(p.v, p.k, p.lam, p.mu) for p in params} == {(36, 20, 10, 12)}


def test_alternative_flag_choices_give_isomorphic_switches():
    # whether different (alpha, Pi) flags yield isomorphic switched graphs is
    # an open empirical question; at n=5 the answer observed here is yes for
    # the first few flags (reported, not asserted as a theorem)
    for variant in ("t", "tt"):
        g0 = switched(E5, 1, variant, choice=0)
        g1 = switched(E5, 1, variant, choice=1)
        assert are_isomorphic(g0, g1)
