"""Switching-set construction, validation, the switch, and the T-sets."""

from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_lines, bilinear, check_well_formed, gamma, is_subspace_of, legal_cases
from quadswitch.gf2geom import (
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    GeometryError,
    Subspace,
    canonical_form,
    perp,
    set_bits,
    span,
)
from quadswitch import switching
from quadswitch.srg import Graph, build_gamma, certified_gamma, verify_srg
from quadswitch.switching import (
    _flag_groups,
    _singular_chains,
    NotSwitchingSet,
    SearchExhausted,
    SwitchConfig,
    SwitchingError,
    T_formula,
    build_S,
    build_switch,
    expected_switch,
    gm_switch,
    legal_t_range,
    make_config,
    validate_switching_set,
)

E5 = canonical_form(5, ELLIPTIC)
H5 = canonical_form(5, HYPERBOLIC)
WHOLE5 = Subspace(5, (32, 16, 8, 4, 2, 1))  # all of PG(5,2)


def walk_singular_subspaces(form, t):
    """The singular t-spaces in the order the flag walk visits them."""
    return (Subspace(form.n, tuple(reversed(chain))) for chain, _ in _singular_chains(form, t))


def walk_flags(form, t, variant):
    """Every flag (alpha, Pi, Pi' or None) of the walk, in the order make_config counts them."""
    for chain, y, points in _flag_groups(form, t, variant):
        alpha = Subspace(form.n, tuple(reversed(chain)))
        pi = None if y is None else span(form.n, [*alpha.basis, y])
        for x in set_bits(points):
            other = span(form.n, [*alpha.basis, x])
            yield (alpha, other, None) if pi is None else (alpha, pi, other)


# --- singular subspace search -----------------------------------------------------


def test_singular_point_is_lex_least_quadric_point():
    for form in (E5, H5):
        sub = next(walk_singular_subspaces(form, 0))
        assert sub.points() == [set_bits(form.zero_mask)[0]]


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
    got = next(walk_singular_subspaces(E5, 1))
    assert tuple(got.points()) == best
    assert all(E5.contains(p) for p in got.points())


def test_singular_plane_n5_elliptic_not_found():
    # planes would need t = 2 > (n-3)/2; confirmed by exhaustive plane search
    assert list(walk_singular_subspaces(E5, 2)) == []
    planes = set()
    qpts = set_bits(E5.zero_mask)
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
    a = next(walk_singular_subspaces(E5, 1))
    b = next(walk_singular_subspaces(E5, 1))
    assert a == b == span(5, [4, 16, 20])


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
        spaces = list(walk_singular_subspaces(canonical_form(n, kind), t))
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
        assert list(islice(walk_singular_subspaces(form, t), limit)) == want, (n, kind, t)


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_singular_search_matches_greedy_walk(n, kind):
    form = canonical_form(n, kind)
    r, _ = polar_rank(n, kind)
    for t in range(r):
        want = list(greedy_singular_subspaces(form, t))
        assert list(walk_singular_subspaces(form, t)) == want, (n, kind, t)


# --- tangent spaces, as the flag walk yields them ------------------------------------


def flags_by_alpha(form, t, variant):
    """The walk's flags grouped by alpha, each group in walk order."""
    groups = {}
    for flag in walk_flags(form, t, variant):
        groups.setdefault(flag[0], []).append(flag)
    return groups


def tangent_spaces(form, alpha):
    """The Pi through alpha, from the single-space flags."""
    return [pi for _, pi, _ in flags_by_alpha(form, alpha.projective_dim, "t").get(alpha, [])]


def brute_force_tangent_spaces(form, alpha, pi=None):
    """Oracle: scan *all* extension points, no alpha-perp pruning."""
    base = pi if pi is not None else alpha
    basevec = [0] + base.points()
    found = {}
    for x in range(1, 1 << (form.n + 1)):
        if form.contains(x) or x in basevec:
            continue
        if any(form.contains(x ^ s) for s in basevec):
            continue
        cand = span(form.n, list(alpha.basis) + [x])
        found[tuple(cand.points())] = cand
    return [found[k] for k in sorted(found)]


@pytest.mark.parametrize("form", [E5, H5], ids=["elliptic", "hyperbolic"])
def test_tangent_space_structure(form):
    alpha = next(walk_singular_subspaces(form, 1))
    pi = tangent_spaces(form, alpha)[0]
    assert pi.projective_dim == 2
    assert is_subspace_of(alpha, pi)
    on_q = sorted(p for p in pi.points() if form.contains(p))
    assert on_q == alpha.points()
    off_q = [p for p in pi.points() if not form.contains(p)]
    assert len(off_q) == 4  # 2^(t+1)


@pytest.mark.parametrize("form", [E5, H5], ids=["elliptic", "hyperbolic"])
def test_tangent_space_is_lex_least(form):
    alpha = next(walk_singular_subspaces(form, 1))
    oracle = brute_force_tangent_spaces(form, alpha)
    assert oracle
    assert tangent_spaces(form, alpha)[0] == oracle[0]


def test_second_tangent_space_n5_elliptic():
    alpha = next(walk_singular_subspaces(E5, 1))
    pi = tangent_spaces(E5, alpha)[0]
    first_alpha, first_pi, pi2 = next(walk_flags(E5, 1, "tt"))
    assert (first_alpha, first_pi) == (alpha, pi)
    assert pi2 != pi
    joint = span(5, list(pi.basis) + list(pi2.basis))
    assert joint.projective_dim == 3
    on_q = sorted(p for p in joint.points() if E5.contains(p))
    assert on_q == alpha.points() and len(on_q) == 3
    # both contain alpha with one extra dimension, so they meet exactly in alpha
    both = set(pi.points()) & set(pi2.points())
    assert sorted(both) == alpha.points()
    # lex-least against the unpruned oracle
    oracle = brute_force_tangent_spaces(E5, alpha, pi)
    assert pi2 == oracle[0]


def test_second_tangent_space_n5_hyperbolic_not_found():
    alpha = next(walk_singular_subspaces(H5, 1))
    pi = tangent_spaces(H5, alpha)[0]
    assert list(walk_flags(H5, 1, "tt")) == []  # no Pi' under any Pi
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
    assert list(walk_flags(form, t, variant)) == list(flags)
    for k, flag in enumerate(flags):
        assert make_config(form, t, variant, k) == SwitchConfig(form, *flag), k


@pytest.mark.parametrize("n,kind,t,variant", list(legal_cases(ns=(7,))))
def test_first_flags_match_reference_n7(n, kind, t, variant):
    form = canonical_form(n, kind)
    flags = reference_flag_prefix(n, kind, t, variant)
    assert len(flags) == 2000
    assert list(islice(walk_flags(form, t, variant), 2000)) == list(flags)
    for k in list(range(0, 2000, 97)) + [1999]:
        assert make_config(form, t, variant, k) == SwitchConfig(form, *flags[k]), k


@pytest.mark.parametrize("n,kind,t,variant", list(FLAG_COUNTS))
def test_flag_count_and_last_flag(n, kind, t, variant):
    form = canonical_form(n, kind)
    count = FLAG_COUNTS[n, kind, t, variant]
    assert sum(1 for _ in walk_flags(form, t, variant)) == count
    last = reference_last_flag(form, t, variant)
    assert make_config(form, t, variant, count - 1) == SwitchConfig(form, *last)
    with pytest.raises(SearchExhausted):
        make_config(form, t, variant, count)


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(list(legal_cases())), k=st.integers(0, 2100))
def test_make_config_is_the_reference_kth_flag(case, k):
    n, kind, t, variant = case
    form = canonical_form(n, kind)
    flags = reference_flag_prefix(n, kind, t, variant)
    if k < len(flags):
        assert make_config(form, t, variant, k) == SwitchConfig(form, *flags[k])
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
    singles, doubles = flags_by_alpha(form, t, "t"), flags_by_alpha(form, t, "tt")
    for alpha in alphas:
        pis = list(reference_extensions(form, alpha, alpha))
        assert [pi for _, pi, _ in singles.get(alpha, [])] == pis
        for pi in pis:
            want = list(reference_extensions(form, alpha, pi))
            assert [pi2 for _, p, pi2 in doubles.get(alpha, []) if p == pi] == want


def test_config_rejects_bad_flags_with_their_messages():
    cfg = make_config(E5, 1, "tt")
    alpha, pi, pi2 = cfg.alpha, cfg.pi, cfg.pi2
    not_singular = span(5, [1, 2])  # a line off the quadric
    alpha7 = next(walk_singular_subspaces(canonical_form(7, ELLIPTIC), 1))
    outside = next(p for p in set_bits(E5.zero_mask) if p not in alpha.points())
    other = next(a for a in walk_singular_subspaces(E5, 1) if a != alpha)
    bad_pis = {
        "meets the quadric beyond alpha": span(5, list(alpha.basis) + [outside]),
        "does not contain alpha": tangent_spaces(E5, other)[0],
        "has the wrong dimension": WHOLE5,
    }
    for flag in ((not_singular, pi), (not_singular, pi, pi2)):
        with pytest.raises(SwitchingError, match="^alpha is not contained in the quadric$"):
            SwitchConfig(E5, *flag)
    with pytest.raises(SwitchingError, match="^alpha and the form live in different spaces$"):
        SwitchConfig(E5, alpha7, pi)
    for message, bad in bad_pis.items():
        with pytest.raises(SwitchingError, match=f"^pi {message}$"):
            SwitchConfig(E5, alpha, bad)
        with pytest.raises(SwitchingError, match=f"^pi2 {message}$"):
            SwitchConfig(E5, alpha, pi, bad)
    with pytest.raises(SwitchingError, match="^pi2 must differ from pi$"):
        SwitchConfig(E5, alpha, pi, pi)
    # at n = 7, <alpha, x> and <alpha, y> with B(x, y) = 0 span a space beyond alpha
    f7 = canonical_form(7, ELLIPTIC)
    alpha, pi, _ = next(walk_flags(f7, 1, "t"))
    beyond = "span(pi, pi2) meets the quadric beyond alpha"
    partners = [p for a, p, _ in islice(walk_flags(f7, 1, "t"), 50) if a == alpha]
    bad = next(p for p in partners if reference_config_error(f7, alpha, pi, p) == beyond)
    with pytest.raises(SwitchingError, match=r"^span\(pi, pi2\) meets the quadric beyond alpha$"):
        SwitchConfig(f7, alpha, pi, bad)


def reference_config_error(form, alpha, pi, pi2=None):
    """The point-list checks SwitchConfig made before it checked point masks:
    the message of the first check that fails, or None."""
    variant, t = "t" if pi2 is None else "tt", alpha.projective_dim
    if t not in legal_t_range(form.n, form.kind, variant):
        return f"t={t} outside the legal range of variant {variant} for n={form.n}"
    if alpha.n != form.n:
        return "alpha and the form live in different spaces"
    if not all(form.contains(p) for p in alpha.points()):
        return "alpha is not contained in the quadric"

    def tangent(sub, name):
        if sub.n != form.n or sub.projective_dim != alpha.projective_dim + 1:
            return f"{name} has the wrong dimension"
        if not is_subspace_of(alpha, sub):
            return f"{name} does not contain alpha"
        on_q = [p for p in sub.points() if form.contains(p)]
        if sorted(on_q) != alpha.points():
            return f"{name} meets the quadric beyond alpha"
        return None

    error = tangent(pi, "pi")
    if error or pi2 is None:
        return error
    error = tangent(pi2, "pi2")
    if error:
        return error
    if pi2 == pi:
        return "pi2 must differ from pi"
    joint = span(form.n, list(pi.basis) + list(pi2.basis))
    if joint.projective_dim != t + 2:
        return "span(pi, pi2) has the wrong dimension"
    on_q = [p for p in joint.points() if form.contains(p)]
    if sorted(on_q) != alpha.points():
        return "span(pi, pi2) meets the quadric beyond alpha"
    return None


def config_error(form, *flag):
    """SwitchConfig's message for the flag, or None if it accepts it."""
    try:
        SwitchConfig(form, *flag)
    except SwitchingError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_mask_checks_match_the_point_list_checks_on_every_n5_flag(kind):
    # every flag of both variants, and every pair of tangent spaces under one
    # alpha as (Pi, Pi'): at n = 5 the pairs are pi2 == pi or a valid double
    # flag (elliptic), or have t outside the range of variant tt (hyperbolic)
    form = canonical_form(5, kind)
    for variant in ("t", "tt"):
        for flag in walk_flags(form, 1, variant):
            assert config_error(form, *flag) is None
            assert reference_config_error(form, *flag) is None
    seen = set()
    for alpha, flags in flags_by_alpha(form, 1, "t").items():
        for _, pi, _ in flags:
            for _, pi2, _ in flags:
                want = reference_config_error(form, alpha, pi, pi2)
                assert config_error(form, alpha, pi, pi2) == want
                seen.add(want)
    if kind == ELLIPTIC:
        assert seen == {None, "pi2 must differ from pi"}
    else:
        assert seen == {"t=1 outside the legal range of variant tt for n=5"}


@lru_cache(maxsize=None)
def flag_prefix(n, kind, t, variant, limit=300):
    return tuple(islice(walk_flags(canonical_form(n, kind), t, variant), limit))


CORRUPTIONS = (
    "pi without alpha",
    "pi beyond alpha",
    "pi2 is pi",
    "span beyond alpha",
    "wrong dimension",
    "alpha off the quadric",
)


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(list(legal_cases())),
    corruption=st.sampled_from(CORRUPTIONS),
    data=st.data(),
)
def test_mask_checks_match_the_point_list_checks_on_corrupted_flags(case, corruption, data):
    n, kind, t, variant = case
    form = canonical_form(n, kind)
    flags = flag_prefix(n, kind, t, variant)
    alpha, pi, pi2 = data.draw(st.sampled_from(flags))
    point = st.integers(1, (1 << (n + 1)) - 1)
    tangents = [p for _, p, _ in flag_prefix(n, kind, t, "t")]  # most hang off other alphas
    same_alpha = [p for a, p, _ in flag_prefix(n, kind, t, "t") if a == alpha]
    which = data.draw(st.sampled_from(["pi", "pi2"]))
    if corruption == "pi without alpha":
        bad = data.draw(st.sampled_from(tangents))
    elif corruption == "pi beyond alpha":  # <alpha, x> for any point x
        bad = span(n, [*alpha.basis, data.draw(point)])
    elif corruption == "pi2 is pi":
        which, bad = "pi2", pi
    elif corruption == "span beyond alpha":  # another Pi' through alpha
        which, bad = "pi2", data.draw(st.sampled_from(same_alpha))
    elif corruption == "wrong dimension":  # any part replaced by a random span
        which = data.draw(st.sampled_from(["alpha", "pi", "pi2"]))
        bad = span(n, data.draw(st.lists(point, min_size=1, max_size=t + 4)))
    else:  # alpha off the quadric: a random span of t + 1 points
        which, bad = "alpha", span(n, data.draw(st.lists(point, min_size=t + 1, max_size=t + 1)))
    parts = {"alpha": alpha, "pi": pi, "pi2": pi2, which: bad}
    alpha, pi, pi2 = parts["alpha"], parts["pi"], parts["pi2"]
    flag = (alpha, pi) if pi2 is None else (alpha, pi, pi2)
    assert config_error(form, *flag) == reference_config_error(form, *flag)


# --- configurations and S ------------------------------------------------------------


def mask_of(vertices):
    """The vertex mask of an iterable of vertex indices."""
    mask = 0
    for i in vertices:
        mask |= 1 << i
    return mask


def reference_build_S(config):
    """The previous build_S: the points of S, mapped through a point -> vertex dict."""
    idx = {p: i for i, p in enumerate(config.form.labels)}
    pts = set(config.pi.points())
    if config.pi2 is not None:
        pts |= set(config.pi2.points())
    pts -= set(config.alpha.points())
    return mask_of(idx[p] for p in pts)


def reference_T_formula(config):
    """The previous T_formula: the closed form tested vertex by vertex."""
    form = config.form
    labels = form.labels
    a_perp = perp(form, config.alpha).point_mask()
    out = {i for i, p in enumerate(labels) if not (a_perp >> p) & 1}
    if config.pi2 is not None:
        sym = perp(form, config.pi).point_mask() ^ perp(form, config.pi2).point_mask()
        s_points = (set(config.pi.points()) | set(config.pi2.points())) - set(config.alpha.points())
        out |= {i for i, p in enumerate(labels) if (sym >> p) & 1 and p not in s_points}
    return mask_of(out)


@pytest.mark.parametrize("n,kind,t,variant", list(legal_cases()))
def test_build_S_and_T_formula_match_the_point_list_reference(n, kind, t, variant):
    # every flag at n = 5, every 97th at n = 7
    form = canonical_form(n, kind)
    for flag in islice(walk_flags(form, t, variant), 0, None, 1 if n == 5 else 97):
        cfg = SwitchConfig(form, *flag)
        assert build_S(cfg) == reference_build_S(cfg)
        assert T_formula(cfg) == reference_T_formula(cfg)


def test_build_S_sizes():
    assert build_S(make_config(E5, 1, "t")).bit_count() == 4
    assert build_S(make_config(E5, 1, "tt")).bit_count() == 8
    assert build_S(make_config(canonical_form(7, ELLIPTIC), 2, "t")).bit_count() == 8


def test_config_validation_rejects_bad_configs():
    # a SwitchConfig checks itself on construction
    cfg = make_config(E5, 1, "t")
    not_singular = span(5, [1, 2])  # generic line, not inside the quadric
    with pytest.raises(SwitchingError):
        SwitchConfig(E5, not_singular, cfg.pi)
    with pytest.raises(SwitchingError):
        SwitchConfig(E5, cfg.alpha, WHOLE5)
    with pytest.raises(SwitchingError):
        SwitchConfig(E5, cfg.alpha, cfg.pi, cfg.pi)
    good = make_config(E5, 1, "tt")
    assert SwitchConfig(E5, good.alpha, good.pi, good.pi2) == good
    # hyperbolic double construction is out of range at n=5
    cfg_h = make_config(H5, 1, "t")
    with pytest.raises(SwitchingError):
        SwitchConfig(H5, cfg_h.alpha, cfg_h.pi, cfg_h.pi)


def test_make_config_bounds():
    with pytest.raises(SearchExhausted):
        make_config(E5, 2, "t")
    with pytest.raises(SearchExhausted) as exc:
        make_config(H5, 1, "tt")
    assert "second tangent" in str(exc.value)


NO_QUADRIC_GRAPH = "^the quadric graph needs an elliptic or hyperbolic form with odd n >= 5$"


def test_the_switch_layer_refuses_a_form_with_no_quadric_graph():
    # perp and the graph builder refuse parabolic forms, so no flag, range or size table has one
    p8 = canonical_form(8, PARABOLIC)
    for variant in ("t", "tt"):
        with pytest.raises(GeometryError, match=NO_QUADRIC_GRAPH):
            make_config(p8, 1, variant)
        with pytest.raises(GeometryError, match=NO_QUADRIC_GRAPH):
            legal_t_range(8, PARABOLIC, variant)
        with pytest.raises(GeometryError, match=NO_QUADRIC_GRAPH):
            expected_switch(8, PARABOLIC, 1, variant)
    with pytest.raises(GeometryError, match=NO_QUADRIC_GRAPH):
        SwitchConfig(p8, span(8, [1, 2]), span(8, [1, 2, 4]))
    with pytest.raises(GeometryError, match=NO_QUADRIC_GRAPH):
        legal_t_range(7, "foo", "tt")


def test_make_config_refuses_a_bad_t_or_form_before_the_walk(monkeypatch):
    # the walk checks neither t nor the form: make_config's legal_t_range calls
    # refuse both before _singular_chains is entered
    def no_walk(*_):
        raise AssertionError("the flag walk was entered")

    monkeypatch.setattr(switching, "_singular_chains", no_walk)
    p8 = canonical_form(8, PARABOLIC)
    for variant in ("t", "tt"):
        for t in (0, -1):
            with pytest.raises(SearchExhausted, match=f"^no flag: t={t} outside the existence range"):
                make_config(E5, t, variant)
        with pytest.raises(GeometryError, match=NO_QUADRIC_GRAPH):
            make_config(p8, 1, variant)
        with pytest.raises(AssertionError, match="walk was entered"):  # a legal request does walk
            make_config(E5, 1, variant)


@pytest.mark.parametrize(
    "n,kind,t,variant",
    [(5, ELLIPTIC, 5, "t"), (5, ELLIPTIC, 0, "t"), (5, HYPERBOLIC, 1, "tt"), (7, ELLIPTIC, 3, "tt")],
)
def test_expected_switch_refuses_a_t_outside_the_legal_range(n, kind, t, variant):
    message = f"^t={t} outside the legal range of variant {variant} for n={n}$"
    with pytest.raises(SwitchingError, match=message):
        expected_switch(n, kind, t, variant)


def test_make_config_choice_indexes_flags():
    flags = list(walk_flags(E5, 1, "t"))
    assert len(flags) > 1
    assert make_config(E5, 1, "t", choice=1) == SwitchConfig(E5, *flags[1])
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
        candidate = 0b1111 << start
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
        validate_switching_set(g, 0)
    with pytest.raises(SwitchingError):
        validate_switching_set(g, 0b111)
    with pytest.raises(SwitchingError):
        validate_switching_set(g, 1 | 1 << g.v)



def test_bad_masks_are_refused_before_any_row_is_read():
    # the -1 case and the bit at v come first: without the bound check they fail
    # fast (a wrong message, an IndexError), while the even-size negative mask
    # would send the walk over the bits of S into an endless loop
    g = build_gamma(E5)
    s = build_S(make_config(E5, 1, "t"))
    cases = [
        (-1, "non-vertex"),
        (1 | 1 << g.v, "non-vertex"),
        (s | 1 << (g.v + 5), "non-vertex"),
        (-s, "non-vertex"),  # as many bits as S
        (0, "is empty"),
        (0b111, "must have even size"),
        (s | 1 << (g.v - 1), "must have even size"),
    ]
    for mask, message in cases:
        for check in (validate_switching_set, gm_switch):
            with pytest.raises(SwitchingError, match=message) as exc:
                check(g, mask)
            assert not isinstance(exc.value, NotSwitchingSet), mask


def frozenset_partition(g, s):
    """Oracle on a frozenset of vertices, in the earlier frozenset code's
    terms: (induced degree, none, half, all) with frozenset classes, or
    ("not", witness) when s is no switching set."""

    def inside(i):
        return sum(1 for j in s if (g.rows[i] >> j) & 1)

    degrees = {}
    for i in sorted(s):
        degrees.setdefault(inside(i), i)
    if len(degrees) != 1:
        low, high = sorted(degrees)[:2]
        return "not", (degrees[low], degrees[high])
    classes = {0: set(), len(s) // 2: set(), len(s): set()}
    for i in range(g.v):
        if i not in s:
            c = inside(i)
            if c not in classes:
                return "not", (i, c)
            classes[c].add(i)
    return (next(iter(degrees)), *(frozenset(classes[c]) for c in (0, len(s) // 2, len(s))))


N5_FLAGS = {(ELLIPTIC, "t"): 135, (ELLIPTIC, "tt"): 270, (HYPERBOLIC, "t"): 105}


@settings(max_examples=80, deadline=None)
@given(flags=st.sampled_from(sorted(N5_FLAGS)), data=st.data())
def test_certificate_classes_match_the_frozenset_oracle(flags, data):
    # an even-size vertex set: S of a random flag (a switching set), or a random
    # set, which from four vertices up is mostly none
    kind, variant = flags
    form = canonical_form(5, kind)
    g = build_gamma(form)
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, N5_FLAGS[flags] - 1))
        s = frozenset(set_bits(build_S(make_config(form, 1, variant, k))))
    else:
        picked = data.draw(st.lists(st.integers(0, g.v - 1), min_size=2, max_size=12, unique=True))
        s = frozenset(picked[: len(picked) // 2 * 2])
    want = frozenset_partition(g, s)
    try:
        cert = validate_switching_set(g, mask_of(s))
    except NotSwitchingSet as exc:
        assert want == ("not", exc.witness)
    else:
        assert cert.s_vertices == mask_of(s)
        classes = (cert.none_class, cert.half_class, cert.all_class)
        assert (cert.induced_degree, *(frozenset(set_bits(c)) for c in classes)) == want

def test_partition_covers_everything():
    g = build_gamma(E5)
    s = build_S(make_config(E5, 1, "tt"))
    cert = validate_switching_set(g, s)
    whole = cert.none_class | cert.half_class | cert.all_class | cert.s_vertices
    assert whole == (1 << g.v) - 1


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
        check_well_formed(sw)


def test_switch_changes_only_half_rows():
    g = build_gamma(E5)
    s = build_S(make_config(E5, 1, "tt"))
    cert = validate_switching_set(g, s)
    sw = gm_switch(g, s)
    for i in range(g.v):
        if (cert.half_class >> i) & 1:
            # complemented inside S, untouched outside
            assert (sw.rows[i] ^ g.rows[i]) == s
        elif (cert.s_vertices >> i) & 1:
            assert (sw.rows[i] ^ g.rows[i]).bit_count() == cert.half_class.bit_count()
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
    assert t_set.bit_count() == expected_switch(n, kind, t, variant)[2]
    assert not (t_set & s)


@pytest.mark.parametrize("n,kind,t,variant", list(legal_cases(ns=(5, 7, 9))))
def test_expected_switch_matches_the_construction(n, kind, t, variant):
    cfg = make_config(canonical_form(n, kind), t, variant)
    s = build_S(cfg)
    induced = validate_switching_set(gamma(n, kind), s).induced_degree
    assert (s.bit_count(), induced, T_formula(cfg).bit_count()) == expected_switch(n, kind, t, variant)


def test_T_formula_equals_half_class_n9():
    # the formula-vs-brute-force identity extends to the stretch dimension
    form = canonical_form(9, ELLIPTIC)
    g = build_gamma(form)
    for t, variant in ((3, "t"), (2, "tt")):
        cfg = make_config(form, t, variant)
        cert = validate_switching_set(g, build_S(cfg))
        t_set = T_formula(cfg)
        assert t_set == cert.half_class
        assert t_set.bit_count() == expected_switch(9, ELLIPTIC, t, variant)[2]


def test_T_sizes_match_lemma_values():
    # spot values: n=5 elliptic t=1 gives 32-8 = 24; with the second space
    # 32+4-4-8 = 24 as well; n=7 hyperbolic t=1 gives 128-32 = 96
    assert T_formula(make_config(E5, 1, "t")).bit_count() == 24
    assert T_formula(make_config(E5, 1, "tt")).bit_count() == 24
    f7 = canonical_form(7, HYPERBOLIC)
    assert T_formula(make_config(f7, 1, "t")).bit_count() == 96


def test_S_inside_alpha_perp_off_quadric():
    for n, kind, t, variant in legal_cases(ns=(5,)):
        form = canonical_form(n, kind)
        cfg = make_config(form, t, variant)
        labels = form.labels
        ap = perp(form, cfg.alpha).points()
        for i in set_bits(build_S(cfg)):
            assert labels[i] in ap
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


@pytest.mark.parametrize(
    "graph,flag",
    [
        ((9, HYPERBOLIC), (7, HYPERBOLIC, 1, "t", 0)),
        ((5, ELLIPTIC), (5, HYPERBOLIC, 1, "t", 7)),
        ((5, HYPERBOLIC), (5, ELLIPTIC, 1, "tt", 0)),
        ((7, ELLIPTIC), (7, HYPERBOLIC, 2, "t", 35)),
        ((7, HYPERBOLIC), (5, ELLIPTIC, 1, "t", 14)),
        ((9, ELLIPTIC), (7, ELLIPTIC, 1, "tt", 21)),
    ],
    ids=lambda case: "".join(map(str, case)),
)
def test_build_switch_refuses_a_graph_of_another_form(graph, flag):
    # S is read in the vertex order of the flag's form, so on a graph of another
    # form it would name other points: refused before S is built or checked
    gamma_other = certified_gamma(*graph)[0]
    n, kind, t, variant, choice = flag
    config = make_config(canonical_form(n, kind), t, variant, choice)
    with pytest.raises(SwitchingError, match="^the graph's vertices are not the points of the flag's form$"):
        build_switch(gamma_other, config)


@pytest.mark.parametrize("kind,variant", [(ELLIPTIC, "t"), (ELLIPTIC, "tt"), (HYPERBOLIC, "t")])
def test_switch_record_rejects_flipped_edge(kind, variant):
    # corrupt gamma by one S x T edge (both directions): S is no longer a switching set
    form = canonical_form(5, kind)
    g = build_gamma(form)
    cfg = make_config(form, 1, variant)
    sw = build_switch(g, cfg)
    i, j = set_bits(sw.s)[0], set_bits(sw.t_set)[0]
    rows = list(g.rows)
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    with pytest.raises(NotSwitchingSet) as exc:
        build_switch(Graph(g.labels, tuple(rows)), cfg)
    # the T-end of the flipped edge now sees half of S plus or minus one
    assert exc.value.witness[0] == j
