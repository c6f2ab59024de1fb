"""Graph construction and exact strong-regularity verification."""

import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bilinear, check_well_formed, form, gamma, legal_cases, switch_case
from quadswitch import srg
from quadswitch.gf2geom import ELLIPTIC, HYPERBOLIC, PARABOLIC, GeometryError, canonical_form, set_bits
from quadswitch.srg import (
    Graph,
    NotStronglyRegular,
    SrgParams,
    build_gamma,
    build_gamma_rows,
    certified_gamma,
    certify_gamma,
    expected_params,
    verify_srg,
    verify_srg_near,
)
from quadswitch.switching import build_switch, make_config


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
    with pytest.raises(NotStronglyRegular):
        verify_srg_near(gamma(5, HYPERBOLIC), base, verify_srg(base), 0)


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
    """Form, graph, point rows, the chosen reflections and the point count."""
    f = form(n, kind)
    g, rows = build_gamma_rows(f)
    assert f.off == sum(1 << x for x in g.labels)
    return f, g, rows, srg._transitive_reflections(f), 1 << (n + 1)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_certify_gamma_matches_verify_srg(monkeypatch, n, kind):
    f = form(n, kind)
    g, rows = build_gamma_rows(f)
    assert g == gamma(n, kind)
    with monkeypatch.context() as m:
        m.setattr(srg, "verify_srg", refuse_pair_check)
        got = certify_gamma(f, rows)
    assert got.params == verify_srg(g) == expected_params(n, kind)
    assert got.form is f and got.reflections == tuple(srg._transitive_reflections(f))


def test_build_gamma_rows_are_the_point_rows():
    f = form(7, HYPERBOLIC)
    g, rows = build_gamma_rows(f)
    for i, row in enumerate(rows):
        assert [y for y in g.labels if (row >> y) & 1] == [g.labels[j] for j in g.neighbors(i)]
    assert not any(row & ~sum(1 << x for x in g.labels) for row in rows)


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_build_gamma_never_holds_all_point_rows(kind):
    # each row is gathered into vertex order as it is made, so the peak stays
    # below the v * 2^(n+1) bits that the point rows take together
    n = 11
    f = canonical_form(n, kind)
    tracemalloc.start()
    try:
        g = build_gamma(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.v << (n + 1) >> 3
    assert g == build_gamma_rows(f)[0]


def test_neighbors_lists_the_row_bits_below_v():
    g = gamma(7, ELLIPTIC)
    for i in range(g.v):
        assert g.neighbors(i) == [j for j in range(g.v) if (g.rows[i] >> j) & 1]
    stray = Graph((1, 2, 3), (0b110, 0b1001, 0b11 | 1 << 40))  # bits above v are no vertices
    assert [stray.neighbors(i) for i in range(3)] == [[1, 2], [0], [0, 1]]


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_one_form_keeps_one_label_tuple_and_one_gather(kind):
    f = canonical_form(7, kind)  # a form of its own, nothing made on it yet
    g, rows = build_gamma_rows(f)
    assert g.labels is f.labels
    made = {name: f.__dict__[name] for name in ("labels", "_gather")}
    assert certify_gamma(f, rows).params == expected_params(7, kind)
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


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_reflection_moves_points_as_defined(kind):
    # x -> x + B(x,r) r on point masks; it keeps B always, and Q exactly
    # when r is off the quadric
    f = form(5, kind)
    points = range(1, 64)
    for r in points:
        reflection = srg._reflection(f, r)
        image = {x: srg._reflect(1 << x, reflection).bit_length() - 1 for x in points}
        assert all(image[x] == (x ^ r if bilinear(f, x, r) else x) for x in points)
        assert all(bilinear(f, image[x], image[y]) == bilinear(f, x, y) for x in points for y in points)
        keeps_q = srg._reflect(f.zero_mask, reflection) == f.zero_mask
        assert keeps_q == (not f.contains(r))


@pytest.mark.parametrize("n,kind", [(5, HYPERBOLIC), (7, ELLIPTIC)])
def test_certificate_rejects_a_singular_reflection(monkeypatch, n, kind):
    f, g, rows, good, size = certificate_case(n, kind)
    assert srg._certificate(f, rows, good) == expected_params(n, kind)
    r = next(p for p in range(1, size) if f.contains(p))
    bad = srg._reflection(f, r)
    assert srg._reflect(bad[1], bad) == bad[1]  # still a permutation of the points
    with pytest.raises(srg._NotCertified, match="off the vertex set"):
        srg._certificate(f, rows, [bad, *good])
    calls = []
    monkeypatch.setattr(srg, "_transitive_reflections", lambda *a: [bad, *good])
    monkeypatch.setattr(srg, "verify_srg", lambda g: calls.append(g) or verify_srg(g))
    assert certify_gamma(f, rows) == srg.GammaCertificate(f, expected_params(n, kind), ())
    assert calls == [g]


@pytest.mark.parametrize("n,kind", [(5, ELLIPTIC), (7, HYPERBOLIC)])
def test_certificate_needs_a_transitive_set(monkeypatch, n, kind):
    f, g, rows, good, size = certificate_case(n, kind)
    with pytest.raises(srg._NotCertified, match="not transitive"):
        srg._certificate(f, rows, good[:-1])
    calls = []
    monkeypatch.setattr(srg, "_transitive_reflections", lambda *a: good[:-1])
    monkeypatch.setattr(srg, "verify_srg", lambda g: calls.append(g) or verify_srg(g))
    assert certify_gamma(f, rows) == srg.GammaCertificate(f, expected_params(n, kind), ())
    assert calls == [g]


@pytest.mark.parametrize("n,kind", [(5, ELLIPTIC), (7, HYPERBOLIC)])
@pytest.mark.parametrize("edit", ["symmetric_flip", "one_row"])
def test_certificate_rejects_a_corrupted_row(n, kind, edit):
    f, g, rows, good, size = certificate_case(n, kind)
    params = expected_params(n, kind)
    rows, vrows = list(rows), list(g.rows)
    last = g.v - 1
    if edit == "symmetric_flip":
        i, j = 3, last
        rows[i] ^= 1 << g.labels[j]
        rows[j] ^= 1 << g.labels[i]
        vrows[i] ^= 1 << j
        vrows[j] ^= 1 << i
    else:  # the last row alone trades a neighbour for a non-neighbour: degrees stay k
        a = g.neighbors(last)[-1]
        b = next(j for j in range(last - 1, 0, -1) if not (g.rows[last] >> j) & 1)
        rows[last] ^= (1 << g.labels[a]) | (1 << g.labels[b])
        vrows[last] ^= (1 << a) | (1 << b)
    bad = Graph(g.labels, tuple(vrows))
    with pytest.raises(srg._NotCertified, match="row of"):
        srg._certificate(f, rows, good)
    with pytest.raises(NotStronglyRegular) as exc:
        certify_gamma(f, rows)
    assert_real_srg_witness(bad, params, exc.value)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(5, ELLIPTIC), (5, HYPERBOLIC), (7, ELLIPTIC), (7, HYPERBOLIC)]), st.data())
def test_flipped_pair_is_rejected_by_every_checker(case, data):
    n, kind = case
    f = form(n, kind)
    g, rows = build_gamma_rows(f)
    i = data.draw(st.integers(0, g.v - 1))
    j = data.draw(st.integers(0, g.v - 1))
    assume(i != j)
    params = expected_params(n, kind)
    bad = flip(g, i, j)
    bad_rows = list(rows)
    bad_rows[i] ^= 1 << g.labels[j]
    bad_rows[j] ^= 1 << g.labels[i]
    for check in (verify_srg, lambda b: certify_gamma(f, bad_rows)):
        with pytest.raises(NotStronglyRegular) as exc:
            check(bad)
        assert_real_srg_witness(bad, params, exc.value)
    with pytest.raises(NotStronglyRegular) as exc:
        verify_srg_near(bad, g, params, 1 << i)
    assert_real_witness(bad, params, exc.value)


@pytest.mark.parametrize("n,kind", [(5, ELLIPTIC), (7, HYPERBOLIC)])
def test_each_reflection_checks_fixed_and_moved_rows(n, kind):
    # one reflection alone: a row it fixes and a row it moves, each with one
    # point of H_r toggled, fail the row step before the orbit step is reached
    f, g, rows, good, size = certificate_case(n, kind)
    first = good[0]
    r, h, _ = first
    fixed = next(i for i, x in enumerate(g.labels) if not (h >> x) & 1)
    moved = next(i for i, x in enumerate(g.labels) if (h >> x) & 1 and x < x ^ r)
    y = next(p for p in g.labels if (h >> p) & 1)
    for i, message in ((fixed, "moves the row"), (moved, "maps the row")):
        bad = list(rows)
        bad[i] ^= 1 << y
        with pytest.raises(srg._NotCertified, match=message):
            srg._certificate(f, bad, [first])


def test_certificate_ignores_no_point_outside_the_vertex_set():
    # point 0 added to every row is fixed by every reflection, so the rows stay
    # equivariant; the graph (which has no vertex 0) is untouched
    f, g, rows, good, size = certificate_case(5, ELLIPTIC)
    with_zero = [row | 1 for row in rows]
    with pytest.raises(srg._NotCertified, match="first row"):
        srg._certificate(f, with_zero, good)
    assert certify_gamma(f, with_zero).params == verify_srg(g) == expected_params(5, ELLIPTIC)
    assert certify_gamma(f, with_zero).reflections == ()


@pytest.mark.parametrize("stray", [1, 1 << 64], ids=["point 0", "past the points"])
def test_certify_gamma_falls_back_on_the_graph_its_rows_describe(monkeypatch, stray):
    # a bit off the vertex set in every row forces the fallback; verify_srg
    # must then see the graph the rows describe, which is gamma
    f, g, rows, good, size = certificate_case(5, HYPERBOLIC)
    seen = []
    monkeypatch.setattr(srg, "verify_srg", lambda h: seen.append(h) or verify_srg(h))
    assert certify_gamma(f, [row | stray for row in rows]).params == expected_params(5, HYPERBOLIC)
    assert seen == [build_gamma(f)]


@pytest.mark.parametrize("connection,broken", [((1, 2, 3, 4), "lambda"), ((1, 2), "mu")])
def test_certificate_checks_every_pair_through_the_first_vertex(connection, broken):
    # a Cayley graph on F_2^4 with the translations as "reflections" (H = all
    # points): every row check and the orbit walk pass, but the vertex
    # stabiliser is trivial, so only the pair counts through point 0 can tell
    size = 16
    rows = tuple(sum(1 << (x ^ d) for d in connection) for x in range(size))
    g = Graph(tuple(range(size)), rows)
    everything = (1 << size) - 1
    stand_in = canonical_form(3, HYPERBOLIC)  # a form on F_2^4 of its own ...
    stand_in.off, stand_in.labels = everything, g.labels  # ... with every vector a vertex, 0 included
    translations = [(r, everything, stand_in.block_swaps(r)) for r in (1, 2, 4, 8)]
    with pytest.raises(srg._NotCertified, match=broken):
        srg._certificate(stand_in, rows, translations)
    with pytest.raises(NotStronglyRegular):
        verify_srg(g)


def test_certify_gamma_needs_one_row_per_vertex():
    f = form(5, ELLIPTIC)
    rows = build_gamma_rows(f)[1]
    for wrong in ((), rows[:-1], rows + rows[-1:]):
        with pytest.raises(GeometryError, match="36 vertices"):
            certify_gamma(f, wrong)
