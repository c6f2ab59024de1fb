"""Switching-set construction, validation, the switch, and the T-sets."""

from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadswitch.gf2geom import (
    ELLIPTIC,
    HYPERBOLIC,
    bilinear,
    canonical_form,
    nonquadric_points,
    perp,
    quadric_points,
    span,
    whole_space,
)
from quadswitch.srg import Graph, build_gamma, verify_srg
from quadswitch.switching import (
    NotSwitchingSet,
    SearchExhausted,
    SwitchConfig,
    SwitchingError,
    T_formula,
    build_S,
    build_switch,
    expected_T_size,
    find_second_tangent_space,
    find_singular_subspace,
    find_tangent_space,
    gm_switch,
    iter_flags,
    iter_second_tangent_spaces,
    iter_singular_subspaces,
    iter_tangent_spaces,
    legal_t_range,
    make_config,
    validate_switching_set,
)

E5 = canonical_form(5, ELLIPTIC)
H5 = canonical_form(5, HYPERBOLIC)


def all_lines(n):
    top = 1 << (n + 1)
    for a in range(1, top):
        for b in range(a + 1, top):
            c = a ^ b
            if c > b:
                yield (a, b, c)


def legal_cases(ns=(5, 7)):
    for n in ns:
        for kind in (ELLIPTIC, HYPERBOLIC):
            for variant in ("t", "tt"):
                for t in legal_t_range(n, kind, variant):
                    yield n, kind, t, variant


# --- singular subspace search -----------------------------------------------------


def test_singular_point_is_lex_least_quadric_point():
    for form in (E5, H5):
        sub = find_singular_subspace(form, 0)
        assert sub.points() == [min(quadric_points(form))]


def test_singular_line_n5_elliptic_exhaustive():
    # oracle: scan all 651 lines for those inside the quadric, take the
    # lexicographically least; the search must return exactly that one
    contained = [
        line
        for line in all_lines(5)
        if all(E5.contains(p) for p in line)
    ]
    assert contained  # the elliptic quadric of PG(5,2) does carry lines
    best = min(contained)
    got = find_singular_subspace(E5, 1)
    assert tuple(got.points()) == best
    assert all(E5.contains(p) for p in got.points())


def test_singular_plane_n5_elliptic_not_found():
    # planes would need t = 2 > (n-3)/2; confirmed by exhaustive plane search
    with pytest.raises(SearchExhausted):
        find_singular_subspace(E5, 2)
    planes = set()
    qpts = sorted(quadric_points(E5))
    for a in qpts:
        for b in qpts:
            if b <= a:
                continue
            for c in qpts:
                if c <= b or c in (a ^ b,):
                    continue
                pts = span(5, [a, b, c]).points()
                if len(pts) == 7 and all(E5.contains(p) for p in pts):
                    planes.add(tuple(pts))
    assert not planes


def test_singular_search_is_deterministic():
    a = find_singular_subspace(E5, 1)
    b = find_singular_subspace(E5, 1)
    assert a == b == span(5, [4, 16, 20])


def test_singular_search_rejects_negative_t():
    with pytest.raises(SwitchingError):
        find_singular_subspace(E5, -1)


def test_singular_search_rejects_a_negative_index():
    with pytest.raises(SwitchingError, match="must be >= 0"):
        find_singular_subspace(E5, 1, -1)


def test_tangent_search_rejects_a_negative_index():
    with pytest.raises(SwitchingError, match="must be >= 0"):
        find_tangent_space(E5, find_singular_subspace(E5, 1), -1)


def test_second_tangent_search_rejects_a_negative_index():
    cfg = make_config(E5, 1, "tt")
    with pytest.raises(SwitchingError, match="must be >= 0"):
        find_second_tangent_space(E5, cfg.alpha, cfg.pi, -1)


def reference_singular_subspaces(form, t):
    """The earlier search: every increasing chain of pairwise orthogonal
    singular points, each span yielded the first time it is reached."""
    qpts = [p for p in range(1, 1 << (form.n + 1)) if form.contains(p)]
    seen = set()

    def extend(chain, spanned):
        if len(chain) == t + 1:
            sub = span(form.n, chain)
            if sub not in seen:
                seen.add(sub)
                yield sub
            return
        floor = chain[-1] if chain else 0
        for q in qpts:
            if q <= floor or q in spanned:
                continue
            if any(bilinear(form, q, c) for c in chain):
                continue
            yield from extend(chain + [q], spanned | {q ^ s for s in spanned} | {q})

    yield from extend([], set())


def greedy_singular_subspaces(form, t):
    """The point-by-point walk that the mask walk replaced: increasing chains
    of pairwise orthogonal singular points, each holding none of the chain's
    top bits."""
    qpts = [p for p in range(1, 1 << (form.n + 1)) if form.contains(p)]

    def extend(chain, pivots):
        if len(chain) == t + 1:
            yield span(form.n, chain)
            return
        floor = chain[-1] if chain else 0
        for q in qpts:
            if q <= floor or q & pivots:
                continue
            if any(bilinear(form, q, c) for c in chain):
                continue
            yield from extend(chain + [q], pivots | (1 << (q.bit_length() - 1)))

    yield from extend([], 0)


def polar_rank(n, kind):
    """(r, e): the rank of the polar space and the e of its count formula."""
    return ((n + 1) // 2, 0) if kind == HYPERBOLIC else ((n - 1) // 2, 2)


def singular_space_count(n, kind, t):
    """[r, t+1]_2 * prod_{i=0}^{t} (2^(r-i-1+e) + 1), zero when t >= r."""
    r, e = polar_rank(n, kind)
    if t + 1 > r:
        return 0
    count = 1
    for i in range(t + 1):
        count = count * ((1 << (r - i)) - 1) // ((1 << (i + 1)) - 1)
        count *= (1 << (r - i - 1 + e)) + 1
    return count


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_singular_space_counts_match_closed_form(n, kind):
    r, _ = polar_rank(n, kind)
    for t in range(r + 1):
        spaces = list(iter_singular_subspaces(canonical_form(n, kind), t))
        assert len(spaces) == singular_space_count(n, kind, t), (n, kind, t)
        assert len(set(spaces)) == len(spaces)


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_singular_search_matches_reference_order(n, kind):
    form = canonical_form(n, kind)
    r, _ = polar_rank(n, kind)
    for t in range(r):
        # the reference regenerates each space once per chain, which takes
        # seconds from t = 2 at n = 7, so only a prefix is compared there
        limit = None if n == 5 or t <= 1 else 100
        want = list(islice(reference_singular_subspaces(form, t), limit))
        assert list(islice(iter_singular_subspaces(form, t), limit)) == want, (n, kind, t)


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_singular_search_matches_greedy_walk(n, kind):
    form = canonical_form(n, kind)
    r, _ = polar_rank(n, kind)
    for t in range(r):
        want = list(greedy_singular_subspaces(form, t))
        assert list(iter_singular_subspaces(form, t)) == want, (n, kind, t)


# --- tangent space search ----------------------------------------------------------


def brute_force_tangent_spaces(form, alpha, pi=None):
    """Oracle: scan *all* extension points, no alpha-perp pruning."""
    base = pi if pi is not None else alpha
    avec = [0] + alpha.points()
    basevec = [0] + base.points()
    found = {}
    for x in range(1, 1 << (form.n + 1)):
        if form.contains(x) or base.contains(x):
            continue
        if any(form.contains(x ^ s) for s in basevec):
            continue
        cand = span(form.n, list(alpha.basis) + [x])
        found[tuple(cand.points())] = cand
    return [found[k] for k in sorted(found)]


@pytest.mark.parametrize("form", [E5, H5], ids=["elliptic", "hyperbolic"])
def test_tangent_space_structure(form):
    alpha = find_singular_subspace(form, 1)
    pi = find_tangent_space(form, alpha)
    assert pi.projective_dim == 2
    assert alpha.is_subspace_of(pi)
    on_q = sorted(p for p in pi.points() if form.contains(p))
    assert on_q == alpha.points()
    off_q = [p for p in pi.points() if not form.contains(p)]
    assert len(off_q) == 4  # 2^(t+1)


@pytest.mark.parametrize("form", [E5, H5], ids=["elliptic", "hyperbolic"])
def test_tangent_space_is_lex_least(form):
    alpha = find_singular_subspace(form, 1)
    oracle = brute_force_tangent_spaces(form, alpha)
    assert oracle
    assert find_tangent_space(form, alpha) == oracle[0]


def test_second_tangent_space_n5_elliptic():
    alpha = find_singular_subspace(E5, 1)
    pi = find_tangent_space(E5, alpha)
    pi2 = find_second_tangent_space(E5, alpha, pi)
    assert pi2 != pi
    joint = span(5, list(pi.basis) + list(pi2.basis))
    assert joint.projective_dim == 3
    on_q = sorted(p for p in joint.points() if E5.contains(p))
    assert on_q == alpha.points() and len(on_q) == 3
    # both contain alpha with one extra dimension, so they meet exactly in alpha
    both = [p for p in pi.points() if pi2.contains(p)]
    assert sorted(both) == alpha.points()
    # lex-least against the unpruned oracle
    oracle = brute_force_tangent_spaces(E5, alpha, pi)
    assert pi2 == oracle[0]


def test_second_tangent_space_n5_hyperbolic_not_found():
    alpha = find_singular_subspace(H5, 1)
    pi = find_tangent_space(H5, alpha)
    with pytest.raises(SearchExhausted):
        find_second_tangent_space(H5, alpha, pi)
    # the unpruned oracle agrees that nothing exists
    assert brute_force_tangent_spaces(H5, alpha, pi) == []


# --- the flag walk against the point-by-point walk it replaced ----------------------


def reference_extensions(form, alpha, space):
    """The spaces <alpha, x>, one per coset x + alpha, for the points x of
    alpha-perp off the quadric whose whole coset x + <space> avoids the
    quadric, in the order of x."""
    zeros = form.zero_mask
    candidates = [x for x in perp(form, alpha).points() if not form.contains(x)]
    svec = [0] + space.points()
    avec = [0] + alpha.points()
    seen = set()
    for x in candidates:
        if not all(not (zeros >> (x ^ s)) & 1 for s in svec):
            continue
        coset = frozenset(x ^ a for a in avec)
        if coset in seen:
            continue
        seen.add(coset)
        yield span(form.n, list(alpha.basis) + [x])


def reference_flags(form, t, variant, alphas=None):
    """Every flag (alpha, Pi, Pi' or None) in the walk's nested order."""
    for alpha in alphas if alphas is not None else greedy_singular_subspaces(form, t):
        for pi in reference_extensions(form, alpha, alpha):
            if variant == "t":
                yield alpha, pi, None
            else:
                for pi2 in reference_extensions(form, alpha, pi):
                    yield alpha, pi, pi2


@lru_cache(maxsize=None)
def reference_flag_prefix(n, kind, t, variant, limit=2000):
    """The first `limit` reference flags: all of them when fewer exist."""
    return tuple(islice(reference_flags(canonical_form(n, kind), t, variant), limit))


def reference_last_flag(form, t, variant):
    """The reference walk's last flag, from the last singular space that has one."""
    for alpha in reversed(list(greedy_singular_subspaces(form, t))):
        flags = list(reference_flags(form, t, variant, alphas=[alpha]))
        if flags:
            return flags[-1]
    return None


FLAG_COUNTS = {
    (5, ELLIPTIC, 1, "t"): 135,
    (5, ELLIPTIC, 1, "tt"): 270,
    (5, HYPERBOLIC, 1, "t"): 105,
    (7, ELLIPTIC, 1, "t"): 10710,
    (7, ELLIPTIC, 2, "t"): 2295,
    (7, ELLIPTIC, 1, "tt"): 64260,
    (7, ELLIPTIC, 2, "tt"): 4590,
    (7, HYPERBOLIC, 1, "t"): 9450,
    (7, HYPERBOLIC, 2, "t"): 2025,
    (7, HYPERBOLIC, 1, "tt"): 18900,
}


def test_flag_counts_cover_every_legal_case():
    assert sorted(FLAG_COUNTS) == sorted(legal_cases())


@pytest.mark.parametrize("n,kind,t,variant", list(legal_cases(ns=(5,))))
def test_every_flag_matches_reference_n5(n, kind, t, variant):
    form = canonical_form(n, kind)
    flags = reference_flag_prefix(n, kind, t, variant)
    assert len(flags) == FLAG_COUNTS[n, kind, t, variant]
    assert list(iter_flags(form, t, variant)) == list(flags)
    for k, flag in enumerate(flags):
        assert make_config(form, t, variant, k) == SwitchConfig(form, t, *flag), k


@pytest.mark.parametrize("n,kind,t,variant", list(legal_cases(ns=(7,))))
def test_first_flags_match_reference_n7(n, kind, t, variant):
    form = canonical_form(n, kind)
    flags = reference_flag_prefix(n, kind, t, variant)
    assert len(flags) == 2000
    assert list(islice(iter_flags(form, t, variant), 2000)) == list(flags)
    for k in list(range(0, 2000, 97)) + [1999]:
        assert make_config(form, t, variant, k) == SwitchConfig(form, t, *flags[k]), k


@pytest.mark.parametrize("n,kind,t,variant", list(FLAG_COUNTS))
def test_flag_count_and_last_flag(n, kind, t, variant):
    form = canonical_form(n, kind)
    count = FLAG_COUNTS[n, kind, t, variant]
    assert sum(1 for _ in iter_flags(form, t, variant)) == count
    last = reference_last_flag(form, t, variant)
    assert make_config(form, t, variant, count - 1) == SwitchConfig(form, t, *last)
    with pytest.raises(SearchExhausted):
        make_config(form, t, variant, count)


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(list(legal_cases())), k=st.integers(0, 2100))
def test_make_config_is_the_reference_kth_flag(case, k):
    n, kind, t, variant = case
    form = canonical_form(n, kind)
    flags = reference_flag_prefix(n, kind, t, variant)
    if k < len(flags):
        assert make_config(form, t, variant, k) == SwitchConfig(form, t, *flags[k])
    elif len(flags) < 2000:  # the prefix holds every flag, so k is past the end
        with pytest.raises(SearchExhausted):
            make_config(form, t, variant, k)


@pytest.mark.parametrize(
    "n,kind,t", [(5, ELLIPTIC, 1), (5, HYPERBOLIC, 1), (7, ELLIPTIC, 2), (7, HYPERBOLIC, 1)]
)
def test_tangent_iterators_match_reference(n, kind, t):
    form = canonical_form(n, kind)
    alphas = list(greedy_singular_subspaces(form, t))
    if n == 7:
        alphas = alphas[:3] + alphas[-3:]
    for alpha in alphas:
        pis = list(reference_extensions(form, alpha, alpha))
        assert list(iter_tangent_spaces(form, alpha)) == pis
        for pi in pis:
            want = list(reference_extensions(form, alpha, pi))
            assert list(iter_second_tangent_spaces(form, alpha, pi)) == want


def test_tangent_iterators_check_their_inputs_first():
    cfg = make_config(E5, 1, "tt")
    alpha, pi = cfg.alpha, cfg.pi
    not_singular = span(5, [1, 2])  # a line off the quadric
    outside = next(p for p in sorted(quadric_points(E5)) if not alpha.contains(p))
    other = next(a for a in iter_singular_subspaces(E5, 1) if a != alpha)
    bad_pis = {
        "meets the quadric beyond alpha": span(5, list(alpha.basis) + [outside]),
        "does not contain alpha": find_tangent_space(E5, other),
        "wrong dimension": whole_space(5),
    }
    # the calls raise before any space is asked for
    with pytest.raises(SwitchingError, match="not contained in the quadric"):
        iter_tangent_spaces(E5, not_singular)
    with pytest.raises(SwitchingError, match="not contained in the quadric"):
        iter_second_tangent_spaces(E5, not_singular, pi)
    with pytest.raises(SwitchingError, match="not contained in the quadric"):
        find_tangent_space(E5, not_singular)
    with pytest.raises(SwitchingError, match="different spaces"):
        iter_tangent_spaces(canonical_form(7, ELLIPTIC), alpha)
    for message, bad in bad_pis.items():
        with pytest.raises(SwitchingError, match=message):
            iter_second_tangent_spaces(E5, alpha, bad)
        with pytest.raises(SwitchingError, match=message):
            find_second_tangent_space(E5, alpha, bad)


# --- configurations and S ------------------------------------------------------------


def reference_build_S(config):
    """The previous build_S: the points of S, mapped through a point -> vertex dict."""
    idx = {p: i for i, p in enumerate(nonquadric_points(config.form))}
    pts = set(config.pi.points())
    if config.pi2 is not None:
        pts |= set(config.pi2.points())
    pts -= set(config.alpha.points())
    return frozenset(idx[p] for p in pts)


def reference_T_formula(config):
    """The previous T_formula: the closed form tested vertex by vertex."""
    form = config.form
    labels = nonquadric_points(form)
    a_perp = perp(form, config.alpha).point_mask()
    out = {i for i, p in enumerate(labels) if not (a_perp >> p) & 1}
    if config.pi2 is not None:
        sym = perp(form, config.pi).point_mask() ^ perp(form, config.pi2).point_mask()
        s_points = (set(config.pi.points()) | set(config.pi2.points())) - set(config.alpha.points())
        out |= {i for i, p in enumerate(labels) if (sym >> p) & 1 and p not in s_points}
    return frozenset(out)


@pytest.mark.parametrize("n,kind,t,variant", list(legal_cases()))
def test_build_S_and_T_formula_match_the_point_list_reference(n, kind, t, variant):
    # every flag at n = 5, every 97th at n = 7
    form = canonical_form(n, kind)
    for flag in islice(iter_flags(form, t, variant), 0, None, 1 if n == 5 else 97):
        cfg = SwitchConfig(form, t, *flag)
        assert build_S(cfg) == reference_build_S(cfg)
        assert T_formula(cfg) == reference_T_formula(cfg)


def test_build_S_sizes():
    assert len(build_S(make_config(E5, 1, "t"))) == 4
    assert len(build_S(make_config(E5, 1, "tt"))) == 8
    assert len(build_S(make_config(canonical_form(7, ELLIPTIC), 2, "t"))) == 8


def test_config_validation_rejects_bad_configs():
    # a SwitchConfig checks itself on construction
    cfg = make_config(E5, 1, "t")
    not_singular = span(5, [1, 2])  # generic line, not inside the quadric
    with pytest.raises(SwitchingError):
        SwitchConfig(E5, 1, not_singular, cfg.pi)
    with pytest.raises(SwitchingError):
        SwitchConfig(E5, 1, cfg.alpha, whole_space(5))
    with pytest.raises(SwitchingError):
        SwitchConfig(E5, 2, cfg.alpha, cfg.pi)
    with pytest.raises(SwitchingError):
        SwitchConfig(E5, 1, cfg.alpha, cfg.pi, cfg.pi)
    good = make_config(E5, 1, "tt")
    assert SwitchConfig(E5, 1, good.alpha, good.pi, good.pi2) == good
    # hyperbolic double construction is out of range at n=5
    cfg_h = make_config(H5, 1, "t")
    with pytest.raises(SwitchingError):
        SwitchConfig(H5, 1, cfg_h.alpha, cfg_h.pi, cfg_h.pi)


def test_make_config_bounds():
    with pytest.raises(SearchExhausted):
        make_config(E5, 2, "t")
    with pytest.raises(SearchExhausted) as exc:
        make_config(H5, 1, "tt")
    assert "second tangent" in str(exc.value)


def test_make_config_choice_indexes_flags():
    flags = list(iter_flags(E5, 1, "t"))
    assert len(flags) > 1
    assert make_config(E5, 1, "t", choice=1) == SwitchConfig(E5, 1, *flags[1])
    with pytest.raises(SearchExhausted):
        make_config(E5, 1, "t", choice=len(flags))
    with pytest.raises(SwitchingError):
        make_config(E5, 1, "t", choice=-1)


# --- validation of switching sets ------------------------------------------------------


def test_validate_S_t_is_null_induced():
    g = build_gamma(E5)
    cert = validate_switching_set(g, build_S(make_config(E5, 1, "t")))
    assert cert.induced_degree == 0
    assert not cert.none_class & cert.half_class
    assert not cert.half_class & cert.all_class


def test_validate_S_tt_is_regular_induced():
    g = build_gamma(E5)
    cert = validate_switching_set(g, build_S(make_config(E5, 1, "tt")))
    assert cert.induced_degree == 4  # 2^(t+1)


def test_validate_arbitrary_vertices_fail_with_witness():
    g = build_gamma(E5)
    start = 0
    while True:
        candidate = frozenset(range(start, start + 4))
        try:
            validate_switching_set(g, candidate)
        except NotSwitchingSet as exc:
            assert exc.witness is not None
            break
        else:
            start += 1  # that window happened to work; slide to the next one
        assert start < g.v - 4, "every window validated, which cannot happen"


def test_validate_preconditions():
    g = build_gamma(E5)
    with pytest.raises(SwitchingError):
        validate_switching_set(g, set())
    with pytest.raises(SwitchingError):
        validate_switching_set(g, {0, 1, 2})
    with pytest.raises(SwitchingError):
        validate_switching_set(g, {0, g.v})


def test_partition_covers_everything():
    g = build_gamma(E5)
    s = build_S(make_config(E5, 1, "tt"))
    cert = validate_switching_set(g, s)
    whole = cert.none_class | cert.half_class | cert.all_class | cert.s_vertices
    assert whole == frozenset(range(g.v))


# --- the switch itself ------------------------------------------------------------------


def test_switch_is_involution_and_preserves_params():
    for n, kind, t, variant in legal_cases(ns=(5,)):
        form = canonical_form(n, kind)
        g = build_gamma(form)
        s = build_S(make_config(form, t, variant))
        sw = gm_switch(g, s)
        assert gm_switch(sw, s) == g
        assert verify_srg(sw) == verify_srg(g)
        assert sw.labels == g.labels
        assert sorted(r.bit_count() for r in sw.rows) == sorted(
            r.bit_count() for r in g.rows
        )
        sw.check_well_formed()


def test_switch_changes_only_half_rows():
    g = build_gamma(E5)
    s = build_S(make_config(E5, 1, "tt"))
    cert = validate_switching_set(g, s)
    sw = gm_switch(g, s)
    smask = sum(1 << i for i in s)
    for i in range(g.v):
        if i in cert.half_class:
            # complemented inside S, untouched outside
            assert (sw.rows[i] ^ g.rows[i]) == smask
        elif i in cert.s_vertices:
            assert (sw.rows[i] ^ g.rows[i]).bit_count() == len(cert.half_class)
        else:
            # none- and all-class vertices keep their rows entirely
            assert sw.rows[i] == g.rows[i]


def test_switch_differs_from_original():
    g = build_gamma(E5)
    s = build_S(make_config(E5, 1, "t"))
    assert gm_switch(g, s) != g


# --- T sets --------------------------------------------------------------------------


@pytest.mark.parametrize("n,kind,t,variant", list(legal_cases()))
def test_T_formula_equals_half_class(n, kind, t, variant):
    form = canonical_form(n, kind)
    g = build_gamma(form)
    cfg = make_config(form, t, variant)
    s = build_S(cfg)
    cert = validate_switching_set(g, s)
    t_set = T_formula(cfg)
    assert t_set == cert.half_class
    assert len(t_set) == expected_T_size(n, kind, t, variant)
    assert not (t_set & s)


def test_T_formula_equals_half_class_n9():
    # the formula-vs-brute-force identity extends to the stretch dimension
    form = canonical_form(9, ELLIPTIC)
    g = build_gamma(form)
    for t, variant in ((3, "t"), (2, "tt")):
        cfg = make_config(form, t, variant)
        cert = validate_switching_set(g, build_S(cfg))
        t_set = T_formula(cfg)
        assert t_set == cert.half_class
        assert len(t_set) == expected_T_size(9, ELLIPTIC, t, variant)


def test_T_sizes_match_lemma_values():
    # spot values: n=5 elliptic t=1 gives 32-8 = 24; with the second space
    # 32+4-4-8 = 24 as well; n=7 hyperbolic t=1 gives 128-32 = 96
    assert len(T_formula(make_config(E5, 1, "t"))) == 24
    assert len(T_formula(make_config(E5, 1, "tt"))) == 24
    f7 = canonical_form(7, HYPERBOLIC)
    assert len(T_formula(make_config(f7, 1, "t"))) == 96


def test_S_inside_alpha_perp_off_quadric():
    for n, kind, t, variant in legal_cases(ns=(5,)):
        form = canonical_form(n, kind)
        cfg = make_config(form, t, variant)
        labels = nonquadric_points(form)
        ap = perp(form, cfg.alpha)
        for i in build_S(cfg):
            assert ap.contains(labels[i])
            assert not form.contains(labels[i])


# --- the Switch record against the reference path ---------------------------------------


@pytest.mark.parametrize("n,kind,t,variant", list(legal_cases()))
def test_switch_record_matches_reference_path(n, kind, t, variant):
    form = canonical_form(n, kind)
    g = build_gamma(form)
    cfg = make_config(form, t, variant)
    sw = build_switch(g, cfg)
    s = build_S(cfg)
    assert sw.config == cfg
    assert sw.s == s
    assert sw.certificate == validate_switching_set(g, s)
    assert sw.graph == gm_switch(g, s)
    assert sw.t_set == T_formula(cfg)


@pytest.mark.parametrize("kind,variant", [(ELLIPTIC, "t"), (ELLIPTIC, "tt"), (HYPERBOLIC, "t")])
def test_switch_record_rejects_flipped_edge(kind, variant):
    # corrupt gamma by one S x T edge (both directions): S is no longer a switching set
    form = canonical_form(5, kind)
    g = build_gamma(form)
    cfg = make_config(form, 1, variant)
    sw = build_switch(g, cfg)
    i, j = min(sw.s), min(sw.t_set)
    rows = list(g.rows)
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    with pytest.raises(NotSwitchingSet) as exc:
        build_switch(Graph(g.labels, tuple(rows)), cfg)
    # the T-end of the flipped edge now sees half of S plus or minus one
    assert exc.value.witness[0] == j
