"""Graph construction and exact strong-regularity verification."""

import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (check_well_formed, form, gamma, legal_cases, reflection_maps_rows, relabel, relabel_mask,
                      switch_case)
from quadswitch import srg, switching
from quadswitch.gf2geom import ELLIPTIC, HYPERBOLIC, MAX_N, PARABOLIC, GeometryError, canonical_form, set_bits
from quadswitch.srg import (
    Graph,
    NotStronglyRegular,
    SrgParams,
    build_gamma,
    certified_gamma,
    certify_gamma,
    expected_params,
    verify_srg,
    verify_srg_near,
)
from quadswitch.switching import Switch, build_switch, make_config, verify_switch


def graph_from_edges(v, edges):
    rows = [0] * v
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(tuple(range(1, v + 1)), tuple(rows))


def common_neighbours_oracle(g, i, j):
    """Oracle: common neighbourhood via Python sets, not popcounts."""
    return len(set(g.neighbors(i)) & set(g.neighbors(j)))


@pytest.mark.parametrize(
    "kind,v,k",
    [(ELLIPTIC, 36, 20), (HYPERBOLIC, 28, 12)],
)
def test_build_gamma_n5(kind, v, k):
    g = build_gamma(canonical_form(5, kind))
    assert g.v == v
    assert all(g.rows[i].bit_count() == k for i in range(v))
    check_well_formed(g)
    assert g.edge_count() == v * k // 2


def test_build_gamma_rejects_parabolic_and_small():
    with pytest.raises(GeometryError):
        build_gamma(canonical_form(4, PARABOLIC))
    with pytest.raises(GeometryError):
        build_gamma(canonical_form(3, HYPERBOLIC))


def test_gamma_adjacency_is_external_line():
    # x ~ y demands x, y, x+y all off the quadric; tangent pairs are non-adjacent
    form = canonical_form(5, ELLIPTIC)
    g = build_gamma(form)
    for i in range(g.v):
        for j in range(i + 1, g.v):
            joins_quadric = form.contains(g.labels[i] ^ g.labels[j])
            assert (g.rows[i] >> j) & 1 == (not joins_quadric)


def test_gamma_complementary_consistency_n5():
    # non-adjacent distinct vertices meet the quadric on their joining line
    for kind in (ELLIPTIC, HYPERBOLIC):
        form = canonical_form(5, kind)
        g = build_gamma(form)
        for i in range(g.v):
            for j in range(i + 1, g.v):
                if not (g.rows[i] >> j) & 1:
                    assert form.contains(g.labels[i] ^ g.labels[j])


def test_verify_srg_n7_elliptic():
    g = build_gamma(canonical_form(7, ELLIPTIC))
    p = verify_srg(g)
    assert (p.v, p.k, p.lam, p.mu) == (136, 72, 36, 40)


def test_verify_srg_matches_set_oracle_n5():
    g = build_gamma(canonical_form(5, HYPERBOLIC))
    params = verify_srg(g)
    for i in range(g.v):
        for j in range(i + 1, g.v):
            want = params.lam if (g.rows[i] >> j) & 1 else params.mu
            assert common_neighbours_oracle(g, i, j) == want


def test_verify_srg_five_cycle():
    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    params = verify_srg(c5)
    assert (params.v, params.k, params.lam, params.mu) == (5, 2, 0, 1)
    # conference graph: the eigenvalues are irrational, so no integer spectrum
    assert params.r is None and params.s is None


def test_verify_srg_path_gives_witness():
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotStronglyRegular) as exc:
        verify_srg(p3)
    assert exc.value.witness is not None


def test_verify_srg_rejects_complete_and_empty():
    k4 = graph_from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    with pytest.raises(NotStronglyRegular):
        verify_srg(k4)
    with pytest.raises(NotStronglyRegular):
        verify_srg(graph_from_edges(3, []))


def test_verify_srg_rejects_almost_srg():
    # C6 is regular but pairs at distance 2 and 3 split the "non-adjacent" class
    c6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(NotStronglyRegular) as exc:
        verify_srg(c6)
    assert exc.value.witness is not None


@pytest.mark.parametrize(
    "n,kind,expect",
    [
        (5, ELLIPTIC, SrgParams(36, 20, 10, 12, 2, -4, 20, 15)),
        (5, HYPERBOLIC, SrgParams(28, 12, 6, 4, 4, -2, 7, 20)),
        (7, HYPERBOLIC, SrgParams(120, 56, 28, 24, 8, -4, 35, 84)),
    ],
)
def test_expected_params_table(n, kind, expect):
    got = expected_params(n, kind)
    assert got == expect


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_expected_params_identities(n, kind):
    p = expected_params(n, kind)
    assert p.k * (p.k - p.lam - 1) == (p.v - p.k - 1) * p.mu
    assert 1 + p.f + p.g == p.v
    assert p.k + p.f * p.r + p.g * p.s == 0


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_gamma_is_srg_with_expected_params(n, kind):
    g = build_gamma(canonical_form(n, kind))
    assert verify_srg(g) == expected_params(n, kind)


def test_expected_params_rejects_bad_requests():
    with pytest.raises(GeometryError):
        expected_params(6, ELLIPTIC)
    with pytest.raises(GeometryError):
        expected_params(5, PARABOLIC)


def test_the_graph_builder_and_the_parameter_table_refuse_with_one_message():
    messages = set()
    for request in (
        lambda: build_gamma(canonical_form(4, PARABOLIC)),
        lambda: build_gamma(canonical_form(3, HYPERBOLIC)),
        lambda: expected_params(5, PARABOLIC),
        lambda: expected_params(6, ELLIPTIC),
        lambda: expected_params(7, "foo"),
    ):
        with pytest.raises(GeometryError) as exc:
            request()
        messages.add(str(exc.value))
    assert messages == {"the quadric graph needs an elliptic or hyperbolic form with odd n >= 5"}


# --- gamma rows by translation against the pairwise definition -----------------------


def pairwise_gamma(form):
    """Oracle: x ~ y iff x^y is off the quadric, one pair at a time."""
    labels = form.labels
    zeros = form.zero_mask
    rows = [0] * len(labels)
    for i, x in enumerate(labels):
        for j in range(i + 1, len(labels)):
            if not (zeros >> (x ^ labels[j])) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(tuple(labels), tuple(rows))


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_build_gamma_matches_pairwise_definition(n, kind):
    form = canonical_form(n, kind)
    assert build_gamma(form) == pairwise_gamma(form)


# --- the incremental check of a switched graph against verify_srg --------------------


def flip(g, i, j):
    """g with the pair {i, j} toggled between edge and non-edge."""
    rows = list(g.rows)
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    return Graph(g.labels, tuple(rows))


def assert_real_witness(g, params, exc):
    """The witness of a rejection is a vertex or pair whose count is wrong in g."""
    w = exc.witness
    if isinstance(w, int):
        assert g.rows[w].bit_count() != params.k
    else:
        i, j = w
        want = params.lam if (g.rows[i] >> j) & 1 else params.mu
        assert common_neighbours_oracle(g, i, j) != want


def near_outcome(g, base, params, changed):
    """verify_srg_near's answer, params or None; a rejection must carry a real witness."""
    try:
        return verify_srg_near(g, base, params, changed)
    except NotStronglyRegular as exc:
        assert_real_witness(g, params, exc)
        return None


def reference_outcome(g, params):
    """What verify_srg decides, in verify_srg_near's terms: params or None."""
    try:
        got = verify_srg(g)
    except NotStronglyRegular:
        return None
    return params if got == params else None


@pytest.mark.parametrize(
    "n,kind,t,variant", list(legal_cases((5, 7))) + list(legal_cases((9,)))
)
def test_verify_srg_near_matches_verify_srg(n, kind, t, variant):
    base = gamma(n, kind)
    sw = switch_case(n, kind, t, variant)
    params = verify_srg(base)
    assert verify_srg_near(sw.graph, base, params, sw.s) == verify_srg(sw.graph) == params


def test_verify_srg_near_exact_whatever_the_changed_set():
    # `changed` only steers the work: rows outside it that differ join it
    base = gamma(7, ELLIPTIC)
    sw = switch_case(7, ELLIPTIC, 1, "tt")
    params = verify_srg(base)
    for changed in (sw.s, sw.t_set, 0, (1 << base.v) - 1, sw.s | 1 | 1 << 5):
        assert verify_srg_near(sw.graph, base, params, changed) == params
    assert verify_srg_near(base, base, params, 0) == params


@pytest.mark.parametrize("n,kind,t,variant", [(5, ELLIPTIC, 1, "tt"), (7, HYPERBOLIC, 2, "t")])
@pytest.mark.parametrize("where", ["s_x_t", "outside_s", "inside_s"])
def test_both_checks_reject_a_flipped_edge(n, kind, t, variant, where):
    base = gamma(n, kind)
    sw = switch_case(n, kind, t, variant)
    params = verify_srg(base)
    s = set_bits(sw.s)
    if where == "s_x_t":
        i, j = s[0], set_bits(sw.t_set)[0]
    elif where == "outside_s":  # breaks the precondition that g equals base off S
        outside = [x for x in range(base.v) if not (sw.s >> x) & 1]
        i, j = outside[0], outside[-1]
    else:
        i, j = s[0], s[1]
    bad = flip(sw.graph, i, j)
    with pytest.raises(NotStronglyRegular):
        verify_srg(bad)
    with pytest.raises(NotStronglyRegular) as exc:
        verify_srg_near(bad, base, params, sw.s)
    assert_real_witness(bad, params, exc.value)


def test_verify_srg_near_rejects_a_degree_preserving_swap_outside_s():
    # a-b, c-d become a-c, b-d: every degree stays k, so only pair counts can tell
    base = gamma(5, ELLIPTIC)
    sw = switch_case(5, ELLIPTIC, 1, "t")
    params = verify_srg(base)
    g = sw.graph
    outside = [x for x in range(g.v) if not (sw.s >> x) & 1]
    a, b, c, d = next(
        (a, b, c, d)
        for a in outside
        for b in g.neighbors(a)
        for c in outside
        for d in g.neighbors(c)
        if len({a, b, c, d}) == 4
        and not (sw.s >> b) & 1
        and not (sw.s >> d) & 1
        and not (g.rows[a] >> c) & 1
        and not (g.rows[b] >> d) & 1
    )
    bad = flip(flip(flip(flip(g, a, b), c, d), a, c), b, d)
    assert all(bad.rows[i].bit_count() == params.k for i in range(bad.v))
    assert near_outcome(bad, base, params, sw.s) is None
    assert reference_outcome(bad, params) is None


def test_verify_srg_near_agrees_on_one_sided_edits_through_s():
    # row x alone trades a neighbour in S for a non-neighbour in S: rows of S
    # and every degree stay as they were, so only the pair counts of vertices
    # outside S (the per-class check) can tell
    base = gamma(5, ELLIPTIC)
    sw = switch_case(5, ELLIPTIC, 1, "tt")
    params = verify_srg(base)
    g = sw.graph
    for x in range(g.v):
        if (sw.s >> x) & 1:
            continue
        for s1 in set_bits(sw.s):
            for s2 in set_bits(sw.s):
                if (g.rows[x] >> s1) & 1 and not (g.rows[x] >> s2) & 1:
                    rows = list(g.rows)
                    rows[x] ^= (1 << s1) | (1 << s2)
                    bad = Graph(g.labels, tuple(rows))
                    assert near_outcome(bad, base, params, sw.s) == reference_outcome(bad, params)


def test_verify_srg_near_checks_pairs_below_a_changed_row():
    # the last vertex trades a neighbour for a non-neighbour in its own row
    # only: every partner of it has a lower index and lies outside `changed`
    base = gamma(5, HYPERBOLIC)
    params = verify_srg(base)
    last = base.v - 1
    y = base.neighbors(last)[0]
    y2 = next(j for j in range(last) if not (base.rows[last] >> j) & 1)
    rows = list(base.rows)
    rows[last] ^= (1 << y) | (1 << y2)
    bad = Graph(base.labels, tuple(rows))
    assert near_outcome(bad, base, params, 1 << last) is None
    assert reference_outcome(bad, params) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 35), st.integers(0, 35))
def test_random_flipped_edge_is_rejected_by_both(i, j):
    assume(i != j)
    base = gamma(5, ELLIPTIC)
    sw = switch_case(5, ELLIPTIC, 1, "tt")
    params = verify_srg(base)
    bad = flip(sw.graph, i, j)
    assert near_outcome(bad, base, params, sw.s) is None
    assert reference_outcome(bad, params) is None



@settings(max_examples=60, deadline=None)
@given(st.integers(0, 35), st.integers(0, 35), st.integers(-(1 << 40), 1 << 40))
def test_any_changed_mask_gives_the_same_decision(i, j, changed):
    # `changed` steers the work only: any int, negative or with bits past v,
    # accepts the switch and rejects a flipped edge with a real witness
    assume(i != j)
    base = gamma(5, ELLIPTIC)
    sw = switch_case(5, ELLIPTIC, 1, "tt")
    params = verify_srg(base)
    assert near_outcome(sw.graph, base, params, changed) == params
    assert near_outcome(flip(sw.graph, i, j), base, params, changed) is None

def test_verify_srg_near_rejects_a_vertex_count_mismatch():
    base = gamma(5, ELLIPTIC)
    params = verify_srg(base)
    with pytest.raises(NotStronglyRegular, match="36 vertices, but the base graph has 28"):
        verify_srg_near(base, gamma(5, HYPERBOLIC), params, 0)
    with pytest.raises(NotStronglyRegular, match="36 vertices, but the base parameters have v = 40"):
        verify_srg_near(base, base, replace(params, v=40), 0)


# --- the reflection certificate of the quadric graph ---------------------------------


def assert_real_srg_witness(g, params, exc):
    """verify_srg's witness: two vertices of unequal degree, or a pair whose
    common-neighbour count is not the one params give its adjacency."""
    i, j = exc.witness
    if "not regular" in str(exc):
        assert g.rows[i].bit_count() != g.rows[j].bit_count()
    else:
        want = params.lam if (g.rows[i] >> j) & 1 else params.mu
        assert common_neighbours_oracle(g, i, j) != want


def refuse_pair_check(g):
    raise AssertionError("the certificate fell back to verify_srg")


def certificate_case(n, kind):
    """Form, graph and the chosen reflections."""
    f = form(n, kind)
    g = gamma(n, kind)
    assert f.off == sum(1 << x for x in g.labels)
    return f, g, srg._transitive_reflections(f)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_certify_gamma_matches_verify_srg(monkeypatch, n, kind):
    # differential: the certificate, made without the fallback, is verify_srg's
    # answer on the graph it returns
    f = form(n, kind)
    with monkeypatch.context() as m:
        m.setattr(srg, "verify_srg", refuse_pair_check)
        g, got = certify_gamma(f)
    assert g == gamma(n, kind)
    assert got.params == verify_srg(g) == expected_params(n, kind)
    assert got.form is f and got.reflections == tuple(srg._transitive_reflections(f))


@pytest.mark.parametrize("n", [5, 7, 9, 11])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_certified_reflections_pass_the_former_row_check(monkeypatch, n, kind):
    # differential: every reflection the certificate accepts, without the
    # fallback, also maps each point row, reflected in full, to the row of the
    # image vertex; the certificate's params were checked against verify_srg
    # above, so verify_srg is not run here a second time
    f = form(n, kind)
    with monkeypatch.context() as m:
        m.setattr(srg, "verify_srg", refuse_pair_check)
        _, certificate = certify_gamma(f)
    assert certificate.reflections
    assert certificate.params == expected_params(n, kind)
    rows = list(srg._point_rows(f))
    assert all(reflection_maps_rows(f, rows, r) for r in certificate.reflections)


def test_build_gamma_rows_are_the_point_rows():
    f = form(7, HYPERBOLIC)
    g, rows = build_gamma(f), list(srg._point_rows(f))
    for i, row in enumerate(rows):
        assert [y for y in g.labels if (row >> y) & 1] == [g.labels[j] for j in g.neighbors(i)]
    assert not any(row & ~sum(1 << x for x in g.labels) for row in rows)


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_build_gamma_never_holds_all_point_rows(kind):
    # each row is read off two span tables of the n + 1 polar words, already
    # in vertex order, so neither the build nor the certificate of the built
    # graph gets near the v * 2^(n+1) bits that the point rows take together
    n = 11
    f = canonical_form(n, kind)
    for build in (build_gamma, lambda f: certify_gamma(f)[0]):
        tracemalloc.start()
        try:
            g = build(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.v << (n + 1) >> 3
        assert g == gamma(n, kind)


def reference_gamma(f):
    """The graph the reference path makes on f: each point row, gathered."""
    return Graph(f.labels, tuple(map(f.vertices, srg._point_rows(f))))


def refuse_point_rows(f):
    raise AssertionError("build_gamma walked the point rows")


@pytest.mark.parametrize("n", [5, 7, 9, 11])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_build_gamma_by_linearity_is_the_reference(monkeypatch, n, kind):
    # differential: the polar build, with the reference path refused, makes the
    # rows that the reference path makes on the same form
    f = canonical_form(n, kind)
    with monkeypatch.context() as m:
        m.setattr(srg, "_point_rows", refuse_point_rows)
        g = build_gamma(f)
    assert g == reference_gamma(f) and g.labels is f.labels


@pytest.mark.parametrize("n", range(5, MAX_N + 1, 2))
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_every_canonical_form_passes_the_polar_check(n, kind):
    # no real form falls back to the reference path unseen
    words = srg._polar_words(canonical_form(n, kind))
    assert words is not None and len(words) == n + 1


@pytest.mark.parametrize("n", [5, 7, 9, 11])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_the_certificate_keeps_the_polar_words_of_the_rows(n, kind):
    # gamma's row of each vertex x is the XOR of the certificate's words at
    # the bits of x, and each word is the vertices off the quadric where B(., e_i) = 1
    g, certificate = certified_gamma(n, kind)
    f, words = certificate.form, certificate.words
    assert words == tuple(srg._polar_words(f)) and len(words) == n + 1
    assert all(w == f.vertices(f.off & f.nonorth(1 << i)) for i, w in enumerate(words))
    word = [0]
    for w in words:
        word += [u ^ w for u in word]  # word[a], the XOR of the words at the bits of a
    assert g.rows == tuple(word[x] for x in f.labels)
    assert certificate.covers(f.off) and certificate.covers(f.zero_mask)


@pytest.mark.parametrize("n,kind,t,variant", [(5, ELLIPTIC, 1, "tt"), (7, HYPERBOLIC, 1, "t")])
def test_is_switch_of_checks_every_row(n, kind, t, variant):
    sw = switch_case(n, kind, t, variant)
    graph, base, s, h = sw.graph, sw.base, sw.s, sw.certificate.half_class
    assert srg.is_switch_of(graph, base, s, h)
    outside = set_bits(((1 << graph.v) - 1) & ~s & ~h)
    for i, j in ((set_bits(s)[0], set_bits(h)[0]), (outside[0], outside[1]), (set_bits(h)[0], outside[-1])):
        assert not srg.is_switch_of(flip(graph, i, j), base, s, h), (i, j)
    assert not srg.is_switch_of(graph, base, s, 0) and not srg.is_switch_of(graph, base, s, h | s)
    assert not srg.is_switch_of(base, base, s, h) and not srg.is_switch_of(graph, base, s, h ^ h & -h)


def doctored_form(n, kind, edit, data):
    """A fresh canonical form with one mask edited: a bit of one nonorth(e_i),
    of off (its labels made to match) or of one halves[b]."""
    f = canonical_form(n, kind)
    if edit == "nonorth":
        i = data.draw(st.integers(0, n), label="i")
        bad = f.nonorth(1 << i) ^ 1 << data.draw(st.integers(0, (2 << n) - 1), label="point")
        nonorth = f.nonorth
        f.nonorth = lambda y: bad if y == 1 << i else nonorth(y)
    elif edit == "off":
        f.off ^= 1 << data.draw(st.integers(0, (2 << n) - 1), label="point")
        f.labels = tuple(set_bits(f.off))
    else:
        b = data.draw(st.integers(0, n), label="b")
        halves = list(f.halves)
        halves[b] ^= 1 << data.draw(st.integers(0, (2 << n) - 1), label="bit")
        f.halves = tuple(halves)
    return f


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from([(5, ELLIPTIC), (5, HYPERBOLIC), (7, ELLIPTIC), (7, HYPERBOLIC)]),
    edit=st.sampled_from(["nonorth", "off", "halves"]),
    data=st.data(),
)
def test_one_toggled_bit_fails_the_polar_check(case, edit, data):
    # a linear functional with one point toggled is no longer one (b); a vertex
    # mask with one point toggled breaks Q(p + e_i) = Q(p) + Q(e_i) + L_i(p)
    # (c, or d at point 0); a halves mask with one bit toggled no longer splits
    # the points with its shift (a).  build_gamma then makes exactly the
    # reference graph of the edited form
    f = doctored_form(*case, edit, data)
    assert srg._polar_words(f) is None
    assert build_gamma(f) == reference_gamma(f)


@pytest.mark.parametrize("edit", ["nonorth", "off", "point 0", "halves"])
def test_each_doctored_form_gets_the_reference_graph(edit):
    # one case of each edit, point 0 in off (check d) among them: the check
    # fails and the reference rows are built, which differ from the real graph
    # wherever the edit is one the reference path reads
    f, real = canonical_form(7, HYPERBOLIC), gamma(7, HYPERBOLIC)
    if edit == "nonorth":
        nonorth, bad = f.nonorth, f.nonorth(4) ^ 1 << 3
        f.nonorth = lambda y: bad if y == 4 else nonorth(y)
    elif edit in ("off", "point 0"):
        f.off ^= 1 << (0 if edit == "point 0" else f.labels[5])
        f.labels = tuple(set_bits(f.off))
    else:
        halves = list(f.halves)
        halves[2] ^= 1
        f.halves = tuple(halves)
    assert srg._polar_words(f) is None
    g = build_gamma(f)
    assert g == reference_gamma(f)
    assert (g == real) is (edit == "nonorth")  # nonorth is not read by the reference path


def test_a_vertex_above_the_points_fails_the_polar_check():
    f = canonical_form(7, ELLIPTIC)
    f.off |= f.ones + 1  # the bit just above the points
    assert srg._polar_words(f) is None


def test_neighbors_lists_the_row_bits_below_v():
    g = gamma(7, ELLIPTIC)
    for i in range(g.v):
        assert g.neighbors(i) == [j for j in range(g.v) if (g.rows[i] >> j) & 1]
    stray = Graph((1, 2, 3), (0b110, 0b1001, 0b11 | 1 << 40))  # bits above v are no vertices
    assert [stray.neighbors(i) for i in range(3)] == [[1, 2], [0], [0, 1]]


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_one_form_keeps_one_label_tuple_and_one_gather(kind):
    f = canonical_form(7, kind)  # a form of its own, nothing made on it yet
    g = build_gamma(f)
    assert g.labels is f.labels
    made = {name: f.__dict__[name] for name in ("labels", "_gather")}
    certified, certificate = certify_gamma(f)
    assert certified.labels is f.labels and certificate.params == expected_params(7, kind)
    sw = build_switch(g, make_config(f, 1, "tt", 5))
    assert sw.graph.labels is f.labels
    assert sw.t_set == sw.certificate.half_class
    assert all(f.__dict__[name] is value for name, value in made.items())


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_certified_gamma_is_made_once_on_its_own_form(kind):
    g, certificate = certified_gamma(7, kind)
    again = certified_gamma(7, kind)
    assert again[0] is g and again[1] is certificate
    assert certified_gamma.cache_info().misses == 1
    assert g.labels is certificate.form.labels and g == gamma(7, kind)
    assert certificate.params == expected_params(7, kind) and certificate.reflections


@pytest.mark.parametrize(
    "n,kind",
    [(4, ELLIPTIC), (3, HYPERBOLIC), (6, PARABOLIC), (7, PARABOLIC), (7, "spherical"), (19, ELLIPTIC)],
)
def test_certified_gamma_caches_no_failure(n, kind):
    for _ in range(2):
        with pytest.raises(GeometryError):
            certified_gamma(n, kind)
    info = certified_gamma.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_certified_reflections_are_vertices(n, kind):
    _, certificate = certified_gamma(n, kind)
    reflections = certificate.reflections
    assert type(reflections) is tuple and reflections
    assert all(type(r) is int for r in reflections)
    assert set(reflections) <= set(certificate.form.labels)


def assert_verify_srg_decides(monkeypatch, f, reflections):
    """certify_gamma(f), with these reflections chosen, falls back to verify_srg
    on the graph it built, the one build_gamma makes on f, and ends as
    verify_srg decides there: the same certificate, or the same error."""
    seen = []
    monkeypatch.setattr(srg, "_transitive_reflections", lambda *a: list(reflections))
    monkeypatch.setattr(srg, "verify_srg", lambda h: seen.append(h) or verify_srg(h))
    built = build_gamma(f)
    try:
        want = srg.GammaCertificate(f, verify_srg(built), ())
    except NotStronglyRegular as exc:
        with pytest.raises(NotStronglyRegular) as got:
            certify_gamma(f)
        assert (str(got.value), got.value.witness) == (str(exc), exc.witness)
    else:
        g, certificate = certify_gamma(f)
        assert certificate == want and seen[0] is g
    assert seen == [built]


@pytest.mark.parametrize("n,kind", [(5, HYPERBOLIC), (7, ELLIPTIC)])
def test_certificate_rejects_a_singular_reflection(monkeypatch, n, kind):
    f, g, good = certificate_case(n, kind)
    assert srg._certificate(f, g, good) == expected_params(n, kind)
    bad = next(p for p in range(1, 1 << (n + 1)) if f.contains(p))
    assert f.reflect(f.nonorth(bad), bad) == f.nonorth(bad)  # still a permutation of the points
    with pytest.raises(srg._NotCertified, match="off the vertex set"):
        srg._certificate(f, g, [bad, *good])
    assert_verify_srg_decides(monkeypatch, f, [bad, *good])


@pytest.mark.parametrize("n,kind", [(5, ELLIPTIC), (7, HYPERBOLIC)])
def test_certificate_needs_a_transitive_set(monkeypatch, n, kind):
    f, g, good = certificate_case(n, kind)
    with pytest.raises(srg._NotCertified, match="not transitive"):
        srg._certificate(f, g, good[:-1])
    assert_verify_srg_decides(monkeypatch, f, good[:-1])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(5, ELLIPTIC), (5, HYPERBOLIC), (7, ELLIPTIC), (7, HYPERBOLIC)]), st.data())
def test_flipped_pair_is_rejected_by_every_checker(case, data):
    n, kind = case
    g = gamma(n, kind)
    i = data.draw(st.integers(0, g.v - 1))
    j = data.draw(st.integers(0, g.v - 1))
    assume(i != j)
    params = expected_params(n, kind)
    bad = flip(g, i, j)
    with pytest.raises(NotStronglyRegular) as exc:
        verify_srg(bad)
    assert_real_srg_witness(bad, params, exc.value)
    with pytest.raises(NotStronglyRegular) as exc:
        verify_srg_near(bad, g, params, 1 << i)
    assert_real_witness(bad, params, exc.value)


@pytest.mark.parametrize("n,kind", [(5, ELLIPTIC), (7, HYPERBOLIC)])
def test_each_reflection_checks_fixed_and_moved_rows(n, kind):
    # a row the reflection r fixes and a row it moves, each with one point of
    # nonorth(r) toggled: the former per-row check, kept as the tests' oracle,
    # fails r on either
    f, g, good = certificate_case(n, kind)
    rows = list(srg._point_rows(f))
    r = good[0]
    h = f.nonorth(r)
    fixed = next(i for i, x in enumerate(g.labels) if not (h >> x) & 1)
    moved = next(i for i, x in enumerate(g.labels) if (h >> x) & 1 and x < x ^ r)
    y = next(p for p in g.labels if (h >> p) & 1)
    assert reflection_maps_rows(f, rows, r)
    for i in (fixed, moved):
        bad = list(rows)
        bad[i] ^= 1 << y
        assert not reflection_maps_rows(f, bad, r)


def gf64_times(a, b):
    """a * b in GF(64) = F_2[X] / (X^6 + X + 1), in which 2 (the class of X) is primitive."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
        if a >> 6:
            a ^= 0b1000011
    return out


def gf64_powers_of_2():
    powers = [1]
    for _ in range(62):
        powers.append(gf64_times(powers[-1], 2))
    return powers


GF64_UNITS = gf64_powers_of_2()
GF64_CUBES = sorted(GF64_UNITS[::3])
GF64_NON_CUBES = sorted(set(GF64_UNITS) - set(GF64_CUBES))


def gf64_stand_in(connection):
    """A form on F_2^6 = GF(64) whose vertices are the connection set N, with
    x -> r x^2 as its reflection in r, and the graph build_gamma makes on it."""
    stand_in = canonical_form(5, HYPERBOLIC)  # a form on F_2^6 of its own ...
    stand_in.off, stand_in.labels = sum(1 << x for x in connection), tuple(connection)  # ... with N as vertices,
    stand_in.reflect = lambda mask, r: sum(1 << gf64_times(r, gf64_times(p, p)) for p in set_bits(mask))
    return stand_in, build_gamma(stand_in)


@pytest.mark.parametrize("connection,broken", [(GF64_CUBES, "lambda"), (GF64_NON_CUBES, "mu")])
def test_certificate_checks_every_pair_through_the_first_vertex(connection, broken):
    # a Cayley graph on F_2^6 = GF(64) cut down to its connection set N, the
    # cubes or the non-cubes of GF(64)*: x ~ y iff x + y is in N, which are
    # the rows N & translate(N, x) that build_gamma makes.  The "reflections"
    # x -> r x^2 for r = 1 and r = 2^3 are linear bit permutations that keep N,
    # and together they are transitive on it.  So every check before the pair
    # counts passes, but the graph is not strongly regular, and only the pair
    # counts through the first vertex can tell: they reject it as verify_srg does
    stand_in, g = gf64_stand_in(connection)
    assert [[connection[j] for j in g.neighbors(i)] for i in range(g.v)] == [
        [y for y in connection if (x ^ y) in connection] for x in connection
    ]
    assert srg._orbit(stand_in, 1 << connection[0], (1, 8)) == stand_in.off
    with pytest.raises(NotStronglyRegular) as want:
        verify_srg(g)
    with pytest.raises(NotStronglyRegular) as got:
        srg._certificate(stand_in, g, (1, 8))
    assert (str(got.value), got.value.witness) == (str(want.value), want.value.witness)
    what = "adjacent" if broken == "lambda" else "non-adjacent"
    assert str(got.value).startswith(f"{what} pair (0,") and got.value.witness[0] == 0


def test_certify_gamma_rejects_from_the_first_vertex_without_verify_srg(monkeypatch):
    # the pair counts through vertex 0 decide once the reflections are checked:
    # certify_gamma raises verify_srg's error without running verify_srg
    stand_in, g = gf64_stand_in(GF64_CUBES)
    with pytest.raises(NotStronglyRegular) as want:
        verify_srg(g)
    monkeypatch.setattr(srg, "_transitive_reflections", lambda *a: (1, 8))
    monkeypatch.setattr(srg, "verify_srg", refuse_pair_check)
    with pytest.raises(NotStronglyRegular) as got:
        certify_gamma(stand_in)
    assert (str(got.value), got.value.witness) == (str(want.value), want.value.witness)


@pytest.mark.parametrize("connection", [GF64_CUBES, GF64_NON_CUBES])
def test_polar_masks_that_are_not_linear_fail_the_polar_check(monkeypatch, connection):
    # the GF(64) stand-in's N is no quadric.  With nonorth(e_i) patched to
    # N ^ translate(N, e_i), complemented when e_i is in N, check c holds by
    # construction, but these masks are not linear functionals: check b alone
    # refuses them, and build_gamma makes the reference rows
    stand_in, g = gf64_stand_in(connection)
    off, ones, coords = stand_in.off, stand_in.ones, srg._coordinate_masks(stand_in)
    polar = {1 << i: off ^ stand_in.translate(off, 1 << i) ^ (ones if off >> (1 << i) & 1 else 0) for i in range(6)}
    monkeypatch.setattr(stand_in, "nonorth", polar.__getitem__)
    assert any(mask != srg._functional(coords, mask) for mask in polar.values())
    assert srg._polar_words(stand_in) is None
    assert build_gamma(stand_in) == g == reference_gamma(stand_in)


@pytest.mark.parametrize("row", ["empty", "full"])
def test_certificate_refuses_an_empty_or_full_graph_as_verify_srg_does(row):
    # step 3 reads only the graph's rows: on rows that are all empty or all
    # full it gives verify_srg's rejection, though the reflections pass
    f, g, good = certificate_case(5, ELLIPTIC)
    everyone = (1 << g.v) - 1
    rows = tuple(0 if row == "empty" else everyone ^ 1 << i for i in range(g.v))
    bad = Graph(g.labels, rows)
    with pytest.raises(NotStronglyRegular, match="^complete and empty graphs are excluded$"):
        verify_srg(bad)
    with pytest.raises(NotStronglyRegular, match="^complete and empty graphs are excluded$"):
        srg._certificate(f, bad, good)


@pytest.mark.parametrize("b", range(6))
def test_certificate_checks_every_block_swap(monkeypatch, b):
    # the translations behind the rows and the reflections are the block swaps
    # of halves: halves[b] one point short no longer splits the points with
    # its shift by 2^b, so step 1 refuses the translation by e_b.  The edit
    # also changes the graph build_gamma makes, and verify_srg judges that one
    f = canonical_form(5, ELLIPTIC)  # a form of its own, whose halves are edited
    good = srg._transitive_reflections(canonical_form(5, ELLIPTIC))
    halves = list(f.halves)
    halves[b] ^= 1  # point 0 has coordinate b 0
    f.halves = tuple(halves)
    with pytest.raises(srg._NotCertified, match=f"block swap of coordinate {b} is not"):
        srg._certificate(f, build_gamma(f), good)
    assert_verify_srg_decides(monkeypatch, f, good)


def test_certificate_refuses_a_reflection_that_is_no_permutation(monkeypatch):
    # nonorth(r) one point short is not closed under the translation by r, so
    # the reflection in r drops a point: step 1 refuses it
    f = canonical_form(5, HYPERBOLIC)  # a form of its own, whose nonorth is edited
    g = build_gamma(f)
    good = srg._transitive_reflections(canonical_form(5, HYPERBOLIC))
    r, nonorth = good[0], f.nonorth
    short = nonorth(r) & (nonorth(r) - 1)
    monkeypatch.setattr(f, "nonorth", lambda y: short if y == r else nonorth(y))
    with pytest.raises(srg._NotCertified, match=f"reflection in {r} is not a permutation"):
        srg._certificate(f, g, good)
    assert_verify_srg_decides(monkeypatch, f, good)


def test_the_greedy_choice_ends_on_reflections_that_drop_points(monkeypatch):
    # nonorth(1) with point 6 toggled: the reflection in the vertex 1 is no
    # permutation, so it changes the orbit of vertex 0 without enlarging it.
    # A reflection is chosen only when it adds a point to the orbit, so the
    # choice ends, the certificate fails step 1, and verify_srg decides.
    f = canonical_form(7, ELLIPTIC)  # a form of its own, whose nonorth is edited
    nonorth, reflect, calls = f.nonorth, f.reflect, []
    monkeypatch.setattr(f, "nonorth", lambda y: nonorth(y) ^ 1 << 6 if y == 1 else nonorth(y))

    def capped(mask, r):
        calls.append(r)
        assert len(calls) <= 10_000, "the choice of reflections does not end"
        return reflect(mask, r)

    monkeypatch.setattr(f, "reflect", capped)
    g, certificate = certify_gamma(f)
    assert certificate.reflections == () and certificate.words == ()
    assert certificate.params == verify_srg(g) == expected_params(7, ELLIPTIC)


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_certificate_refuses_a_transitive_map_that_is_not_linear(monkeypatch, kind):
    # a "reflection" that moves each vertex to the next label is a bit
    # permutation, keeps N and is transitive on it by itself, but is not linear:
    # step 1 refuses it before the orbit walk could accept it
    f = canonical_form(5, kind)  # a form of its own, whose reflect is replaced
    g = build_gamma(f)
    v, r = g.v, g.labels[0]

    def turn(mask, _):
        inside = f.vertices(mask)
        return mask & ~f.off | f.points(inside << 1 | inside >> (v - 1))

    f.reflect = turn
    assert turn(f.ones, r) == f.ones and turn(f.off, r) == f.off
    assert srg._orbit(f, 1 << r, [r]) == f.off
    with pytest.raises(srg._NotCertified, match=f"reflection in {r} is not linear"):
        srg._certificate(f, g, [r])
    assert_verify_srg_decides(monkeypatch, f, [r])


# --- the flag-symmetry certificate of a switched graph --------------------------------


def count_fallbacks(monkeypatch):
    """Record each call verify_switch makes to verify_srg_near, which still
    answers it; every switch tries its maps, however small."""
    calls = []
    monkeypatch.setattr(srg, "verify_srg_near", lambda *a: calls.append(a) or verify_srg_near(*a))
    monkeypatch.setattr(srg, "_ORBIT_MIN_PAIRS", 0)
    return calls


def refuse_switched_graphs(monkeypatch):
    """Make every read of Switch.graph an error."""
    def refuse(*args):
        raise AssertionError("a switched graph was made")

    monkeypatch.setattr(switching, "_complement_edges", refuse)


def certify_switch(n, kind, t, variant):
    """A switch of a form of its own, its base graph from certify_gamma, and that certificate."""
    f = canonical_form(n, kind)
    base, certificate = certify_gamma(f)
    return build_switch(base, make_config(f, t, variant)), certificate


def fields_of(sw):
    """The fields of a Switch, to make it again by hand."""
    return sw.config, sw.certificate, sw.base, sw.t_set


def assert_near_decides(monkeypatch, sw, certificate):
    """verify_switch calls verify_srg_near on sw.graph once and ends as it
    does: the same parameters, or the same error with the same witness, one
    whose count is really wrong in sw.graph."""
    params, g = certificate.params, sw.graph
    calls = count_fallbacks(monkeypatch)
    try:
        want = verify_srg_near(g, certificate.graph, params, sw.s)
    except NotStronglyRegular as exc:
        assert_real_witness(g, params, exc)
        with pytest.raises(NotStronglyRegular) as got:
            verify_switch(sw, certificate)
        assert (str(got.value), got.value.witness) == (str(exc), exc.witness)
    else:
        assert verify_switch(sw, certificate) == want
    assert len(calls) == 1


@pytest.mark.parametrize("n,kind,t,variant", list(legal_cases((5, 7, 9, 11))))
def test_switch_certificate_decides_as_verify_srg_near(monkeypatch, n, kind, t, variant):
    # differential: every legal switch up to n = 11, three flags each, is decided
    # without the fallback and without its graph, as verify_srg_near and (up to
    # n = 9) verify_srg decide on the graph
    base, certificate = certified_gamma(n, kind)
    params = certificate.params
    calls = count_fallbacks(monkeypatch)
    for k in (0, 7, 21):
        sw = build_switch(base, make_config(certificate.form, t, variant, k))
        with monkeypatch.context() as patched:
            refuse_switched_graphs(patched)
            assert verify_switch(sw, certificate) == params
        assert calls == [], k
        g = sw.graph
        assert verify_srg_near(g, base, params, sw.s) == params
        if n <= 9:
            assert verify_srg(g) == params


@pytest.mark.parametrize("n,kind,t,variant", [(5, ELLIPTIC, 1, "tt"), (7, HYPERBOLIC, 2, "t"), (7, ELLIPTIC, 2, "t")])
def test_small_switches_go_to_verify_srg_near_without_their_maps(monkeypatch, n, kind, t, variant):
    # below _ORBIT_MIN_PAIRS pairs through S verify_srg_near, which counts
    # those rows faster than the maps are checked, decides without reading a map
    sw, certificate = certify_switch(n, kind, t, variant)
    small = sw.s.bit_count() * sw.base.v < srg._ORBIT_MIN_PAIRS
    assert small == (n == 5 or kind == HYPERBOLIC)

    def maps():
        raise AssertionError("a map was read")
        yield

    calls = []
    monkeypatch.setattr(srg, "verify_srg_near", lambda *a: calls.append(a) or verify_srg_near(*a))
    params = certificate.params
    if small:
        assert srg.verify_srg_orbit(sw.base, certificate, sw.s, sw.certificate.half_class, maps()) is None
    assert verify_switch(sw, certificate) == params
    assert len(calls) == small


@pytest.mark.parametrize("n,kind,t,variant", list(legal_cases((5, 7, 9, 11))))
def test_only_hyperbolic_top_t_needs_points_beyond_alpha_basis(n, kind, t, variant):
    # the maps of alpha's basis (and u for tt) carry s0 over S, except at
    # hyperbolic t = (n-3)/2, where alpha-perp has no vertex w with B(w,y) = 1:
    # there the maps of the further points of alpha close the orbit
    base, certificate = certified_gamma(n, kind)
    form = certificate.form
    sw = build_switch(base, make_config(form, t, variant))
    words = list(switching._flag_words(sw.config))
    basis = words[: t + 1 + (variant == "tt")]
    s_points = form.points(sw.s)
    start = 1 << form.labels[set_bits(sw.s)[0]]
    assert srg._word_orbit(form, start, words) == s_points
    top = kind == HYPERBOLIC and variant == "t" and t == (n - 3) // 2
    assert (srg._word_orbit(form, start, basis) != s_points) == top
    assert len(words) == 2 ** (t + 1) - 1 + (variant == "tt")  # one map per point of alpha, and u's


@pytest.mark.parametrize("n,kind,t,variant", [(5, HYPERBOLIC, 1, "t"), (7, ELLIPTIC, 2, "tt")])
def test_switch_certificate_checks_each_reflection_once(monkeypatch, n, kind, t, variant):
    # each reflection the chosen maps use is checked once, and none that
    # certify_gamma already checked on the form; the certificate keeps each
    # pass, so a second check of the switch and its cross-check orbits, which
    # offer the flag's maps first, check none of them again
    sw, certificate = certify_switch(n, kind, t, variant)
    checked, check = [], srg._check_reflection
    monkeypatch.setattr(srg, "_check_reflection", lambda f, coords, r: checked.append(r) or check(f, coords, r))
    monkeypatch.setattr(srg, "_ORBIT_MIN_PAIRS", 0)
    assert verify_switch(sw, certificate) == certificate.params
    assert checked and len(set(checked)) == len(checked)
    assert not set(checked) & set(certificate.reflections)
    first = list(checked)
    assert verify_switch(sw, certificate) == certificate.params
    assert checked == first
    assert switching.switch_orbits(sw, certificate) is not None
    assert len(set(checked)) == len(checked)


def test_switch_certificate_refuses_a_reflection_that_is_not_linear(monkeypatch):
    # the reflection in one of the flag's points, made to swap two vertices
    # outside S and T as well: a bit permutation that keeps N, S and T, but
    # not linear.  It passed step 1 on the process's certified form before
    # the swap; with reflect replaced it is checked anew, step 1 refuses it,
    # and verify_srg_near decides
    gamma, certificate = certified_gamma(7, ELLIPTIC)
    sw = build_switch(gamma, make_config(certificate.form, 1, "t"))
    f, half = certificate.form, sw.certificate.half_class
    words = list(switching._flag_words(sw.config))
    r = next(r for word in words for r in word if r not in certificate.reflections)
    assert srg._orbit_certificate(gamma, certificate, sw.s, half, words) == certificate.params
    assert r in certificate.checked[f.reflect]
    p, q = set_bits(f.points(((1 << sw.base.v) - 1) & ~(sw.s | half)))[:2]
    reflect = f.reflect

    def swapped(mask, x):
        image = reflect(mask, x)
        if x == r and (image >> p & 1) != (image >> q & 1):
            image ^= 1 << p | 1 << q
        return image

    monkeypatch.setattr(f, "reflect", swapped)
    with pytest.raises(srg._NotCertified, match=f"reflection in {r} is not linear"):
        srg._orbit_certificate(gamma, certificate, sw.s, half, words)
    assert_near_decides(monkeypatch, sw, certificate)


def test_a_replaced_reflect_checks_the_certificates_own_reflections_anew(monkeypatch):
    # certify_gamma's reflections count as checked only under the reflect it
    # called: with reflect replaced by a non-linear bit permutation on one of
    # them, the orbits of a map through it are refused, not trusted
    gamma, certificate = certified_gamma(5, ELLIPTIC)
    f = certificate.form
    r = next(r for r in certificate.reflections if f.nonorth(r) >> f.labels[0] & 1)
    blocks, words = ((1 << gamma.v) - 1,), [(r,)]
    assert srg.symmetry_orbits(certificate, blocks, words) is not None
    assert r in certificate.checked[f.reflect]
    p, q = f.labels[1:3]
    reflect = f.reflect

    def swapped(mask, x):
        image = reflect(mask, x)
        if x == r and (image >> p & 1) != (image >> q & 1):
            image ^= 1 << p | 1 << q
        return image

    monkeypatch.setattr(f, "reflect", swapped)
    with pytest.raises(srg._NotCertified, match=f"reflection in {r} is not linear"):
        srg._check_reflections(certificate, (r,))
    assert srg.symmetry_orbits(certificate, blocks, words) is None
    monkeypatch.undo()
    assert srg.symmetry_orbits(certificate, blocks, words) is not None


@pytest.mark.parametrize("n,kind,t,variant", [(5, ELLIPTIC, 1, "t"), (7, HYPERBOLIC, 1, "tt")])
@pytest.mark.parametrize("bad", ["moves S", "fixes S"])
def test_switch_certificate_refuses_maps_that_do_not_carry_s0_over_s(monkeypatch, n, kind, t, variant, bad):
    # the reflection in a vertex w with B(w,y) = 1 moves s0's point y off S:
    # step 2 refuses it.  Siegel maps rho_{a,w} with w in alpha-perp and
    # B(w,y) = 0 fix S pointwise: no orbit grows, and step 4 refuses them
    sw, certificate = certify_switch(n, kind, t, variant)
    f, alpha, half = certificate.form, sw.config.alpha, sw.certificate.half_class
    y = f.labels[set_bits(sw.s)[0]]
    if bad == "moves S":
        w = set_bits(f.off & f.nonorth(y))[0]
        assert not f.reflect(1 << y, w) & f.points(sw.s)
        words, refusal = [(w,), *switching._flag_words(sw.config)], "moves S or T"
    else:
        perp = f.off & ~f.nonorth(y) & ~switching._off_perp(f, alpha)
        w = set_bits(perp)[0]
        words, refusal = [(w ^ a, w) for a in alpha.basis], "not transitive on S"
    with pytest.raises(srg._NotCertified, match=refusal):
        srg._orbit_certificate(sw.base, certificate, sw.s, half, words)
    monkeypatch.setattr(switching, "_flag_words", lambda config: iter(words))
    assert_near_decides(monkeypatch, sw, certificate)


@pytest.mark.parametrize("n,kind,t,variant", [(5, ELLIPTIC, 1, "tt"), (7, HYPERBOLIC, 2, "t")])
@pytest.mark.parametrize("where", ["s0_row", "other_s_row", "between_classes"])
def test_switch_certificate_leaves_a_flipped_edge_to_verify_srg_near(monkeypatch, n, kind, t, variant, where):
    # the flipped edge is in the Switch's base: a graph that is not the
    # certified gamma, whose switch is the true one with that edge flipped.
    # Step 3 refuses the base, and verify_srg_near, against the certified
    # gamma, rejects the graph with its own message and a real witness
    sw, certificate = certify_switch(n, kind, t, variant)
    members, half = set_bits(sw.s), set_bits(sw.certificate.half_class)
    if where == "s0_row":
        i, j = members[0], half[0]
    elif where == "other_s_row":
        i, j = members[1], half[-1]
    else:
        outside = set_bits(((1 << sw.base.v) - 1) & ~sw.s)  # two of these in different classes
        i = outside[0]
        j = next(j for j in outside if sw.base.rows[j] & sw.s != sw.base.rows[i] & sw.s)
    bad = Switch(sw.config, sw.certificate, flip(sw.base, i, j), sw.t_set)
    assert bad.graph == flip(sw.graph, i, j)
    with pytest.raises(srg._NotCertified, match="not the one certify_gamma returned"):
        srg._orbit_certificate(bad.base, certificate, sw.s, sw.certificate.half_class, [])
    with pytest.raises(NotStronglyRegular):
        verify_srg_near(bad.graph, sw.base, certificate.params, sw.s)
    assert_near_decides(monkeypatch, bad, certificate)


@pytest.mark.parametrize("n,kind,t,variant", [(5, ELLIPTIC, 1, "t"), (7, ELLIPTIC, 1, "tt")])
@pytest.mark.parametrize("which", ["short", "wide"])
def test_switch_certificate_refuses_a_half_class_it_does_not_switch(monkeypatch, n, kind, t, variant, which):
    # a hand-made Switch whose half-class is short of one vertex, or has the
    # all-class added: its graph is switched at that class as given, but
    # build_switch did not prove it, and validate_switching_set does not give
    # it again, so verify_srg_near decides on that graph
    sw, certificate = certify_switch(n, kind, t, variant)
    cert = sw.certificate
    assert cert.all_class and sw.proved
    half = cert.half_class & (cert.half_class - 1) if which == "short" else cert.half_class | cert.all_class
    other = Switch(sw.config, replace(cert, half_class=half), sw.base, sw.t_set)
    assert not other.proved and not replace(sw, certificate=other.certificate).proved
    assert switching.validate_switching_set(sw.base, sw.s) == cert != other.certificate
    with pytest.raises(NotStronglyRegular):
        verify_srg(other.graph)
    assert_near_decides(monkeypatch, other, certificate)


@pytest.mark.parametrize("n,kind,t,variant", [(5, ELLIPTIC, 1, "t"), (7, ELLIPTIC, 1, "tt")])
def test_a_switch_made_by_hand_has_its_classes_proved_again(monkeypatch, n, kind, t, variant):
    # a true Switch made again by hand is not marked proved: its classes are
    # checked again, once, and the flag's maps then decide it with no graph
    sw, certificate = certify_switch(n, kind, t, variant)
    again = Switch(*fields_of(sw))
    assert not again.proved and again == sw
    calls = count_fallbacks(monkeypatch)
    validated, validate = [], switching.validate_switching_set
    monkeypatch.setattr(switching, "validate_switching_set", lambda g, s: validated.append(s) or validate(g, s))
    refuse_switched_graphs(monkeypatch)
    assert verify_switch(sw, certificate) == certificate.params and validated == []
    assert verify_switch(again, certificate) == certificate.params and validated == [sw.s]
    assert calls == []


@pytest.mark.parametrize("n,kind,t,variant", [(5, ELLIPTIC, 1, "t"), (7, HYPERBOLIC, 1, "tt")])
@pytest.mark.parametrize("field", ["k", "lam", "mu"])
def test_switch_certificate_counts_the_row_of_s0(monkeypatch, n, kind, t, variant, field):
    # steps 1-4 pass on a true switch; with one parameter off by one, the
    # count of the row of s0 refuses it, and verify_srg_near rejects the graph
    # with its own message and witness
    sw, certificate = certify_switch(n, kind, t, variant)
    params = certificate.params
    wrong = replace(certificate, params=replace(params, **{field: getattr(params, field) + 1}))
    s0 = set_bits(sw.s)[0]
    with pytest.raises(srg._NotCertified, match=f"through vertex {s0} has a wrong count"):
        srg._orbit_certificate(sw.base, wrong, sw.s, sw.certificate.half_class, switching._flag_words(sw.config))
    assert_near_decides(monkeypatch, sw, wrong)


def test_switch_certificate_needs_the_certified_base_graph(monkeypatch):
    # a base whose vertices are not the form's points, or an isomorphic copy
    # of gamma on the same points switched at the image of S, is not the graph
    # certify_gamma returned: step 3 refuses it, and verify_srg_near decides
    # against the certified gamma
    sw, certificate = certify_switch(5, ELLIPTIC, 1, "t")
    base, params = sw.base, certificate.params
    half = sw.certificate.half_class
    renamed = Graph(tuple(x + 64 for x in base.labels), base.rows)
    with pytest.raises(srg._NotCertified, match="not the one certify_gamma returned"):
        srg._orbit_certificate(renamed, certificate, sw.s, half, switching._flag_words(sw.config))
    copy = Graph(base.labels, base.rows)  # equal to gamma, but not the graph certified
    with pytest.raises(srg._NotCertified, match="not the one certify_gamma returned"):
        srg._orbit_certificate(copy, certificate, sw.s, half, switching._flag_words(sw.config))

    perm = list(range(base.v))
    random.Random(3).shuffle(perm)
    cert = sw.certificate
    masks = ("s_vertices", "none_class", "half_class", "all_class")
    moved_cert = replace(cert, **{name: relabel_mask(getattr(cert, name), perm) for name in masks})
    moved = Switch(sw.config, moved_cert, relabel(base, perm), relabel_mask(sw.t_set, perm))
    assert moved.graph == relabel(sw.graph, perm)
    with pytest.raises(srg._NotCertified, match="not the one certify_gamma returned"):
        srg._orbit_certificate(moved.base, certificate, moved.s, moved_cert.half_class, switching._flag_words(sw.config))
    assert_near_decides(monkeypatch, moved, certificate)
