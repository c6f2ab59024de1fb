"""Points, forms, quadrics, polarity: exhaustive checks at desk scale."""

import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CONTAINED,
    EXTERNAL,
    SECANT,
    TANGENT,
    all_lines,
    bilinear,
    classify_line,
    is_subspace_of,
    poly_eval,
)
from quadswitch import srg
from quadswitch.gf2geom import (
    ELLIPTIC,
    HYPERBOLIC,
    MAX_N,
    PARABOLIC,
    GeometryError,
    QuadraticForm,
    Subspace,
    canonical_form,
    coordinate_masks,
    count_external_lines_through,
    echelonize,
    kernel,
    perp,
    quadric_size,
    set_bits,
    span,
)


def monomials(form):
    return {(i, j) for i, row in enumerate(form.rows) for j in range(len(form.rows)) if (row >> j) & 1}


def points(n):
    """Every point of PG(n,2), in order."""
    return range(1, 1 << (n + 1))


# --- canonical forms ------------------------------------------------------------


def test_canonical_hyperbolic_monomials():
    form = canonical_form(5, HYPERBOLIC)
    assert monomials(form) == {(0, 1), (2, 3), (4, 5)}


def test_canonical_elliptic_monomials():
    form = canonical_form(5, ELLIPTIC)
    assert monomials(form) == {(0, 0), (0, 1), (1, 1), (2, 3), (4, 5)}


def test_canonical_parabolic_monomials():
    form = canonical_form(4, PARABOLIC)
    assert monomials(form) == {(0, 0), (1, 2), (3, 4)}


@pytest.mark.parametrize(
    "n,kind",
    [(4, ELLIPTIC), (4, HYPERBOLIC), (5, PARABOLIC), (6, ELLIPTIC), (7, PARABOLIC)],
)
def test_canonical_form_parity_mismatch(n, kind):
    with pytest.raises(GeometryError):
        canonical_form(n, kind)



@pytest.mark.parametrize(
    "n,kind,message",
    [
        (0, ELLIPTIC, "must be >= 1"),  # before the rows X0, X1 are indexed
        (-1, HYPERBOLIC, "must be >= 1"),
        (5, "purple", "unknown quadric kind"),
        (4, ELLIPTIC, "^elliptic quadrics need odd n, got n=4$"),  # the one parity test is quadric_size's
        (6, HYPERBOLIC, "^hyperbolic quadrics need odd n, got n=6$"),
        (5, PARABOLIC, "^parabolic quadrics need even n, got n=5$"),
        (MAX_N + 2, ELLIPTIC, "out of reach"),
        (101, HYPERBOLIC, "out of reach"),
        (10**9, PARABOLIC, "out of reach"),  # before a list of n + 1 rows is made
    ],
)
def test_canonical_form_refuses_what_the_constructor_refuses(n, kind, message):
    with pytest.raises(GeometryError, match=message):
        canonical_form(n, kind)
    if n <= MAX_N + 2:
        with pytest.raises(GeometryError, match=message):
            QuadraticForm(n, kind, (0,) * (n + 1))


def test_the_largest_form_builds():
    form = canonical_form(MAX_N, HYPERBOLIC)
    assert form.zero_mask.bit_count() == quadric_size(MAX_N, HYPERBOLIC)

def test_singular_form_rejected():
    # X0X1 alone has too many zeros in PG(3,2) to be non-singular hyperbolic
    with pytest.raises(GeometryError):
        QuadraticForm(3, HYPERBOLIC, (0b0010, 0, 0, 0))


def test_evaluate_matches_polynomial_oracle():
    # Q(x) is the bit of the off mask at x: the zero mask is its complement on the points
    for n in range(1, 10):
        for kind in (PARABOLIC,) if n % 2 == 0 else (ELLIPTIC, HYPERBOLIC):
            form = canonical_form(n, kind)
            for x in points(n):
                assert (form.off >> x) & 1 == poly_eval(form.rows, x) == (not form.contains(x))
            assert form.zero_mask == sum(1 << x for x in points(n) if not poly_eval(form.rows, x))


# --- quadric sizes ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n,kind,size",
    [
        (5, ELLIPTIC, 27),
        (5, HYPERBOLIC, 35),
        (4, PARABOLIC, 15),
    ],
)
def test_quadric_point_examples(n, kind, size):
    assert canonical_form(n, kind).zero_mask.bit_count() == size


def test_quadric_sizes_all_desk_dimensions():
    for n in range(4, 10):
        kinds = (PARABOLIC,) if n % 2 == 0 else (ELLIPTIC, HYPERBOLIC)
        for kind in kinds:
            form = canonical_form(n, kind)
            assert form.zero_mask.bit_count() == quadric_size(n, kind)


# --- bilinear form: the oracle, and the form's own B(x, y) as bit x of nonorth(y) -----


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_bilinear_alternating(kind):
    form = canonical_form(5, kind)
    for x in points(5):
        assert bilinear(form, x, x) == (form.nonorth(x) >> x) & 1 == 0


def test_bilinear_symmetric_sampled():
    rng = random.Random(42)
    for kind in (ELLIPTIC, HYPERBOLIC):
        form = canonical_form(7, kind)
        pts = points(7)
        for _ in range(200):
            x, y = rng.choice(pts), rng.choice(pts)
            assert (form.nonorth(y) >> x) & 1 == (form.nonorth(x) >> y) & 1 == bilinear(form, x, y)


def test_bilinear_hyperbolic_e0_e1():
    form = canonical_form(5, HYPERBOLIC)
    # expand X0X1+X2X3+X4X5 on e0, e1, e0+e1 by hand: 0 + 0 + 1
    e0, e1 = 1, 2
    assert poly_eval(form.rows, e0) == 0
    assert poly_eval(form.rows, e1) == 0
    assert poly_eval(form.rows, e0 ^ e1) == 1
    assert bilinear(form, e0, e1) == (form.nonorth(e1) >> e0) & 1 == 1


def test_bilinear_is_polarization_of_evaluation():
    # the form's polarization (from its Gram matrix) against Q read off its own off mask
    rng = random.Random(1)
    for kind in (ELLIPTIC, HYPERBOLIC):
        form = canonical_form(5, kind)
        pts = points(5)
        for _ in range(300):
            x, y = rng.choice(pts), rng.choice(pts)
            q = [(form.off >> p) & 1 for p in (x ^ y, x, y)]
            assert (form.nonorth(y) >> x) & 1 == q[0] ^ q[1] ^ q[2] == bilinear(form, x, y)


# --- subspaces and the polarity ---------------------------------------------------


def random_subspace(rng, n, max_vdim):
    pts = [rng.randrange(1, 1 << (n + 1)) for _ in range(rng.randint(1, max_vdim))]
    return span(n, pts)


def test_span_examples():
    assert span(5, [9]).vdim == 1
    assert span(5, [9, 9]).vdim == 1
    assert span(5, [1, 2, 3]).vdim == 2
    with pytest.raises(GeometryError):
        span(5, [])


@given(st.lists(st.integers(min_value=1, max_value=63), min_size=1, max_size=7))
@settings(max_examples=80)
def test_span_properties(points):
    sub = span(5, points)
    assert len(sub.points()) == (1 << sub.vdim) - 1
    assert set(points) <= set(sub.points())
    # echelon representation is canonical: re-spanning the points reproduces it
    assert span(5, sub.points()).basis == sub.basis


@given(st.lists(st.integers(min_value=1, max_value=255), min_size=1, max_size=9))
@settings(max_examples=80)
def test_echelonize_idempotent_and_order_free(vectors):
    basis = echelonize(vectors)
    assert echelonize(basis) == basis
    shuffled = list(reversed(vectors))
    assert echelonize(shuffled) == basis


def test_perp_whole_space_is_trivial():
    form = canonical_form(5, ELLIPTIC)
    assert perp(form, Subspace(5, (32, 16, 8, 4, 2, 1))).vdim == 0


def test_perp_dimension_involution_containment():
    rng = random.Random(3)
    for kind in (ELLIPTIC, HYPERBOLIC):
        form = canonical_form(5, kind)
        for _ in range(50):
            u = random_subspace(rng, 5, 5)
            pu = perp(form, u)
            assert u.vdim + pu.vdim == 6
            assert perp(form, pu) == u
            w = span(5, u.points() + [rng.randrange(1, 64)])
            assert is_subspace_of(perp(form, w), pu)


def test_perp_rejects_parabolic():
    form = canonical_form(4, PARABOLIC)
    with pytest.raises(GeometryError):
        perp(form, span(4, [1]))


def test_perp_of_singular_line_n7_elliptic():
    # a line inside the quadric has 2^(n-t-1) + 2^((n-1)/2) = 40 points off Q in its perp
    form = canonical_form(7, ELLIPTIC)
    line = None
    for a, b, c in all_lines(7):
        if form.contains(a) and form.contains(b) and form.contains(c):
            line = (a, b, c)
            break
    assert line is not None
    pp = perp(form, span(7, list(line)))
    off = [p for p in pp.points() if not form.contains(p)]
    assert len(off) == 40


# --- line classification ----------------------------------------------------------


def test_classify_line_definitional():
    form = canonical_form(5, ELLIPTIC)
    seen = set()
    for a, b, c in all_lines(5):
        hits = sum((form.zero_mask >> p) & 1 for p in (a, b, c))
        want = {0: EXTERNAL, 1: TANGENT, 2: SECANT, 3: CONTAINED}[hits]
        assert classify_line(form, a, b) == want
        seen.add(want)
    assert seen == {EXTERNAL, TANGENT, SECANT, CONTAINED}


def test_classify_line_rejects_equal_points():
    form = canonical_form(5, ELLIPTIC)
    with pytest.raises(GeometryError):
        classify_line(form, 7, 7)


def test_external_line_total_n5_elliptic():
    # full enumeration of all 651 lines; closed form (1/3)*2^(n-2)*(2^((n+1)/2)+1)*(2^((n-1)/2)+1)
    form = canonical_form(5, ELLIPTIC)
    lines = list(all_lines(5))
    assert len(lines) == 651
    external = sum(1 for a, b, _ in lines if classify_line(form, a, b) == EXTERNAL)
    assert external == 120 == (1 * 8 * 9 * 5) // 3


@pytest.mark.parametrize("kind,count", [(ELLIPTIC, 10), (HYPERBOLIC, 6)])
def test_external_lines_through_every_point_n5(kind, count):
    form = canonical_form(5, kind)
    for x in form.labels:
        assert count_external_lines_through(form, x) == count


def test_external_lines_through_rejects_quadric_point():
    form = canonical_form(5, ELLIPTIC)
    x = set_bits(form.zero_mask)[0]  # the least quadric point
    with pytest.raises(GeometryError):
        count_external_lines_through(form, x)


def test_external_lines_through_even_dimension():
    # nucleus sees none; every other point sees 2^(n-2) of them (the off-by-one
    # variant 2^(n-2)-1 fails the triple-count identity below)
    form = canonical_form(4, PARABOLIC)
    nuc = brute_force_nucleus(form)
    for x in form.labels:
        want = 0 if x == nuc else 4
        assert count_external_lines_through(form, x) == want


@pytest.mark.parametrize(
    "n,kind", [(5, ELLIPTIC), (5, HYPERBOLIC), (4, PARABOLIC), (2, PARABOLIC)]
)
def test_external_line_count_sum_identity(n, kind):
    # every external line has 3 points, so per-point counts sum to 3x the total
    form = canonical_form(n, kind)
    total = sum(1 for a, b, _ in all_lines(n) if classify_line(form, a, b) == EXTERNAL)
    per_point = sum(count_external_lines_through(form, x) for x in form.labels)
    assert per_point == 3 * total


# --- nucleus ----------------------------------------------------------------------


def brute_force_nucleus(form):
    """Oracle: the non-quadric point through which every line is tangent."""
    hits = []
    for x in form.labels:
        if all(
            classify_line(form, x, y) == TANGENT
            for y in points(form.n)
            if y != x
        ):
            hits.append(x)
    assert len(hits) == 1
    return hits[0]


@pytest.mark.parametrize("n", [2, 4])
def test_nucleus_is_e0_for_canonical_parabolic(n):
    # the nucleus is the radical of the polarization: the kernel of the Gram matrix
    form = canonical_form(n, PARABOLIC)
    assert kernel(form.gram, n + 1) == (1,)
    assert brute_force_nucleus(form) == 1


def test_nucleus_rejects_elliptic():
    # a non-degenerate polarity: no radical, so no nucleus
    assert kernel(canonical_form(5, ELLIPTIC).gram, 6) == ()


# --- hyperplane sections -----------------------------------------------------------


def hyperplanes(n):
    """Every hyperplane of PG(n,2) as its point list, via a linear functional."""
    top = 1 << (n + 1)
    for c in range(1, top):
        yield [x for x in range(1, top) if (x & c).bit_count() % 2 == 0]


@pytest.mark.parametrize(
    "n,kind",
    [(5, ELLIPTIC), (5, HYPERBOLIC), (7, ELLIPTIC), (7, HYPERBOLIC)],
)
def test_hyperplane_nonquadric_counts(n, kind):
    form = canonical_form(n, kind)
    h = 1 << ((n - 1) // 2)
    base = 1 << (n - 1)
    allowed = {base, base + h} if kind == ELLIPTIC else {base, base - h}
    for sigma in hyperplanes(n):
        off = sum(1 for p in sigma if not form.contains(p))
        assert off in allowed


def test_singular_space_perp_meets_quadric_in_cone_size():
    # perp of a t-space inside the quadric carries 2^(n-t-1) -+ 2^((n-1)/2) - 1
    # quadric points (minus sign for elliptic), the point count of a cone over
    # the small quadric of the same kind
    from quadswitch.switching import legal_t_range, make_config

    for n in (5, 7):
        for kind in (ELLIPTIC, HYPERBOLIC):
            form = canonical_form(n, kind)
            sign = -1 if kind == ELLIPTIC else 1
            for t in legal_t_range(n, kind, "t"):
                alpha = make_config(form, t, "t").alpha
                pp = perp(form, alpha)
                on_q = sum(1 for p in pp.points() if form.contains(p))
                want = (1 << (n - t - 1)) + sign * (1 << ((n - 1) // 2)) - 1
                assert on_q == want


def test_subspace_point_count_matches_vdim():
    rng = random.Random(9)
    for _ in range(30):
        sub = random_subspace(rng, 6, 6)
        assert len(sub.points()) == (1 << sub.vdim) - 1


def test_subspace_rejects_non_echelon_basis():
    with pytest.raises(GeometryError):
        Subspace(5, (3, 1))  # reducible pair: 3 ^ 1 = 2 has a fresh pivot


# --- point masks -------------------------------------------------------------


def itemgetter_gather(f, mask):
    """Oracle: the string gather the compress replaced, picking the label
    characters of the mask's binary string, highest vertex first."""
    size = 1 << (f.n + 1)
    pick = itemgetter(*[size - 1 - p for p in reversed(f.labels)])
    return int("".join(pick(format(mask & f.ones, f"0{size}b"))), 2)


def bitwise_gather(f, mask):
    """Oracle: bit i set iff the mask has the bit of the point labels[i]."""
    return sum(1 << i for i, p in enumerate(f.labels) if (mask >> p) & 1)


def random_form(rng, n):
    """A non-singular elliptic or hyperbolic form from random upper-triangular rows."""
    while True:
        rows = tuple(rng.getrandbits(n + 1) >> i << i for i in range(n + 1))
        for kind in (ELLIPTIC, HYPERBOLIC):
            try:
                return QuadraticForm(n, kind, rows)
            except GeometryError:
                pass


def awkward_masks(rng, f):
    """Masks with bits off the points: above ones, the vector 0, negatives."""
    width = f.ones.bit_length()
    yield 0
    yield 1  # the vector 0 alone, which is no point
    yield f.ones
    yield f.off
    yield f.zero_mask | 1
    yield -1
    yield -f.off
    yield ~f.off
    for _ in range(8):
        yield rng.getrandbits(width)
        yield rng.getrandbits(width + 64) | (1 << (width + 63))
        yield rng.getrandbits(width) | 1
        yield -rng.getrandbits(width + 32) - 1


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([(5, ELLIPTIC), (5, HYPERBOLIC), (7, ELLIPTIC), (7, HYPERBOLIC)]), data=st.data())
def test_point_masks_vertices_reads_the_label_bits(case, data):
    f = canonical_form(*case)
    labels = [p for p in range(1, 1 << (f.n + 1)) if poly_eval(f.rows, p)]
    assert f.labels == tuple(labels)
    assert f.off == sum(1 << p for p in labels)
    mask = data.draw(st.integers(0, f.ones))
    assert f.vertices(mask) == sum(1 << i for i, p in enumerate(labels) if (mask >> p) & 1)
    wide = data.draw(st.integers(-(f.ones << 8), f.ones << 8))  # stray bits and negatives too
    assert f.vertices(wide) == itemgetter_gather(f, wide) == bitwise_gather(f, wide)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_vertices_matches_the_string_gather(n, kind):
    f = canonical_form(n, kind)
    rng = random.Random(n)
    for mask in awkward_masks(rng, f):
        assert f.vertices(mask) == itemgetter_gather(f, mask) == bitwise_gather(f, mask)
    assert f.vertices(f.off) == (1 << len(f.labels)) - 1


@pytest.mark.parametrize("n", [5, 7, 9])
def test_vertices_matches_the_string_gather_on_random_forms(n):
    rng = random.Random(100 + n)
    forms = [random_form(rng, n) for _ in range(4)]
    assert all(f.off != canonical_form(n, f.kind).off for f in forms)
    for f in forms:
        for mask in awkward_masks(rng, f):
            assert f.vertices(mask) == itemgetter_gather(f, mask) == bitwise_gather(f, mask)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_gamma_rows_match_the_string_gather(n, kind):
    f = canonical_form(n, kind)
    assert srg.build_gamma(f).rows == tuple(itemgetter_gather(f, row) for row in srg._point_rows(f))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([5, 7, 9]), kind=st.sampled_from([ELLIPTIC, HYPERBOLIC]), stale=st.booleans(), data=st.data())
def test_vertices_is_linear_whatever_the_masks(n, kind, stale, data):
    # the gather is ANDs, XORs and shifts, so vertices(a ^ b) = vertices(a) ^
    # vertices(b) for any masks, even on a form whose off was edited after its
    # gather was made; srg's polar build of the rows rests on this
    f = canonical_form(n, kind)
    if stale:
        f.vertices(0)  # the gather is made on the real off ...
        f.off ^= data.draw(st.integers(0, f.ones))  # ... and off is then edited
    a, b = (data.draw(st.integers(-(f.ones << 8), f.ones << 8)) for _ in range(2))
    assert f.vertices(a ^ b) == f.vertices(a) ^ f.vertices(b)


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([5, 7, 9]), kind=st.sampled_from([ELLIPTIC, HYPERBOLIC]), data=st.data())
def test_points_is_the_inverse_of_vertices(n, kind, data):
    f = canonical_form(n, kind)
    v = len(f.labels)
    vmask = data.draw(st.integers(0, (1 << v) - 1))
    assert f.points(vmask) == sum(1 << p for i, p in enumerate(f.labels) if (vmask >> i) & 1)
    assert f.vertices(f.points(vmask)) == vmask
    mask = data.draw(st.integers(-(f.ones << 8), f.ones << 8))  # stray bits and negatives too
    assert f.points(f.vertices(mask)) == mask & f.off
    stray = data.draw(st.integers(-(1 << (v + 8)), 1 << (v + 8)))  # bits at or above v are dropped
    assert f.points(stray) == f.points(stray & ((1 << v) - 1))


@pytest.mark.parametrize("n", range(1, 16))
def test_coordinate_masks_match_the_division_formula(n):
    # the masks were once ones // (2^(2^(b+1)) - 1) * (2^(2^b) - 1), a big-int
    # division superlinear in the 2^(n+1) bits; doubling builds the same masks
    ones = (1 << (1 << (n + 1))) - 1
    want = tuple(ones // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1) for b in range(n + 1))
    assert coordinate_masks(n) == want


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([5, 7]), data=st.data())
def test_point_masks_translate_moves_each_point(n, data):
    f = canonical_form(n, ELLIPTIC)
    mask = data.draw(st.integers(0, f.ones))
    x = data.draw(st.integers(0, (1 << (n + 1)) - 1))
    want = sum(1 << (p ^ x) for p in range(1 << (n + 1)) if (mask >> p) & 1)
    assert f.translate(mask, x) == want


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_point_masks_nonorth_is_the_hyperplane(kind):
    f = canonical_form(5, kind)
    for y in points(5):
        assert f.nonorth(y) == sum(1 << x for x in points(5) if bilinear(f, x, y))


def reflect_cases():
    """(n, kind, r): every point r at n = 5; at n = 7 and 9, four points r on
    the quadric and four off it."""
    cases = [(5, kind, r) for kind in (ELLIPTIC, HYPERBOLIC) for r in points(5)]
    for n in (7, 9):
        for kind in (ELLIPTIC, HYPERBOLIC):
            f, rng = canonical_form(n, kind), random.Random(n)
            for side in (f.zero_mask, f.off):
                cases += [(n, kind, r) for r in rng.sample(set_bits(side), 4)]
    return cases


@pytest.mark.parametrize("n,kind,r", reflect_cases())
def test_reflect_moves_points_as_defined(n, kind, r):
    # x -> x + B(x,r) r on point masks: an involution that keeps B always,
    # and Q exactly when r is off the quadric
    f = canonical_form(n, kind)  # a form of its own: nothing cached for r yet
    rng = random.Random(r)
    mask = rng.getrandbits(1 << (n + 1))
    image = f.reflect(mask, r)
    assert f.reflect(mask, r) == image == canonical_form(n, kind).reflect(mask, r)  # a hit, a fresh form
    assert f.reflect(image, r) == mask
    moved = {x: x ^ r if bilinear(f, x, r) else x for x in points(n)}
    assert all(f.reflect(1 << x, r) == 1 << moved[x] for x in points(n))
    sample = points(n) if n == 5 else rng.sample(points(n), 40)
    assert all(bilinear(f, moved[x], moved[y]) == bilinear(f, x, y) for x in sample for y in sample)
    assert (f.reflect(f.zero_mask, r) == f.zero_mask) == (not f.contains(r))
    for bad in (0, 1 << (n + 1)) * 2:  # twice: a refused r is not cached
        with pytest.raises(GeometryError, match="not a point"):
            f.reflect(mask, bad)
