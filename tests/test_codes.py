"""Row-space codes: rank, membership, weight data, minimum words."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import characteristic_vector
from quadswitch.codes import (
    ENUMERATION_GUARD,
    BinaryCode,
    CodeError,
    augmented_min_words,
    augmented_weight_distribution,
    code_from_graph,
    contains,
    expected_gamma_weight_distribution,
    from_vectors,
    iter_codewords,
    min_weight_codewords,
    weight_distribution,
)
from quadswitch.gf2geom import (
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    GeometryError,
    canonical_form,
    echelonize,
    set_bits,
)
from quadswitch.srg import Graph, build_gamma
from quadswitch.switching import T_formula, build_S, gm_switch, legal_t_range, make_config

E5 = canonical_form(5, ELLIPTIC)
H5 = canonical_form(5, HYPERBOLIC)


def switched_setup(form, t, variant):
    g = build_gamma(form)
    cfg = make_config(form, t, variant)
    v_s = build_S(cfg)
    sw = gm_switch(g, v_s)
    v_t = T_formula(cfg)
    return g, sw, v_s, v_t


def naive_weight_distribution(code):
    """Oracle: rebuild every codeword from its message bits, no Gray stepping."""
    dist = {}
    for m in range(1 << code.dim):
        w = 0
        for i in range(code.dim):
            if (m >> i) & 1:
                w ^= code.basis[i]
        dist[w.bit_count()] = dist.get(w.bit_count(), 0) + 1
    return dist


# --- construction and rank -----------------------------------------------------------


def test_code_dimension_gamma_n5():
    assert code_from_graph(build_gamma(E5)).dim == 6


def test_code_dimension_switched_is_n_plus_3():
    _, sw, _, _ = switched_setup(E5, 1, "t")
    assert code_from_graph(sw).dim == 8


def test_code_of_empty_graph():
    empty = Graph((), ())
    code = code_from_graph(empty)
    assert code.dim == 0
    assert weight_distribution(code) == {0: 1}
    with pytest.raises(CodeError):
        min_weight_codewords(code)


def test_codewords_are_pairwise_distinct():
    code = code_from_graph(build_gamma(H5))
    words = list(iter_codewords(code))
    assert len(words) == len(set(words)) == 1 << code.dim


# --- membership -------------------------------------------------------------------------


def test_v_S_in_switched_code():
    _, sw, v_s, _ = switched_setup(E5, 1, "t")
    assert contains(code_from_graph(sw), v_s)


def test_v_T_not_in_base_code():
    g, _, _, v_t = switched_setup(E5, 1, "t")
    assert not contains(code_from_graph(g), v_t)


def test_zero_vector_always_member():
    assert contains(code_from_graph(build_gamma(E5)), 0)


def test_contains_rejects_oversize_vector():
    code = code_from_graph(build_gamma(E5))
    with pytest.raises(CodeError):
        contains(code, 1 << code.length)


# --- weight distributions ------------------------------------------------------------------


def test_weight_distribution_n5_elliptic():
    code = code_from_graph(build_gamma(E5))
    assert weight_distribution(code) == {0: 1, 16: 27, 20: 36}


def test_weight_distribution_n5_hyperbolic():
    code = code_from_graph(build_gamma(H5))
    assert weight_distribution(code) == {0: 1, 12: 28, 16: 35}


@pytest.mark.parametrize("n,kind", [(6, ELLIPTIC), (7, PARABOLIC), (3, HYPERBOLIC), (7, "foo")])
def test_gamma_weight_table_refuses_an_n_kind_with_no_quadric_graph(n, kind):
    with pytest.raises(GeometryError, match="needs an elliptic or hyperbolic form with odd n >= 5"):
        expected_gamma_weight_distribution(n, kind)


def test_weight_distribution_matches_naive_oracle():
    for form in (E5, H5):
        _, sw, _, _ = switched_setup(form, 1, "t")
        for g in (build_gamma(form), sw):
            code = code_from_graph(g)
            assert weight_distribution(code) == naive_weight_distribution(code)


def test_weight_distribution_counts_sum():
    code = code_from_graph(build_gamma(E5))
    dist = weight_distribution(code)
    assert sum(dist.values()) == 1 << code.dim
    assert dist[0] == 1


def test_enumeration_guard():
    rows = tuple(1 << i for i in range(25))
    code = from_vectors(30, rows)
    with pytest.raises(CodeError):
        weight_distribution(code)


def test_weight_classes_match_hyperplane_section_types():
    # codewords of the unswitched graph are exactly the complements of
    # hyperplane sections; counts per weight equal counts per section type
    for form, params in ((E5, (16, 27, 20, 36)), (H5, (12, 28, 16, 35))):
        g = build_gamma(form)
        code = code_from_graph(g)
        top = 1 << (form.n + 1)
        vectors = set()
        section_sizes = {}
        for c in range(1, top):
            sigma = {x for x in range(1, top) if (x & c).bit_count() % 2 == 0}
            rest = [p for p in g.labels if p not in sigma]
            vec = characteristic_vector(g, rest)
            vectors.add(vec)
            w = len(rest)
            section_sizes[w] = section_sizes.get(w, 0) + 1
        w1, c1, w2, c2 = params
        assert section_sizes == {w1: c1, w2: c2}
        all_words = set(iter_codewords(code))
        assert vectors | {0} == all_words


# --- minimum words -----------------------------------------------------------------------------


def test_min_words_variant_t_unique():
    for form in (E5, H5):
        _, sw, v_s, _ = switched_setup(form, 1, "t")
        words = min_weight_codewords(code_from_graph(sw))
        assert words == [v_s]
        assert v_s.bit_count() == 4


def test_min_words_n7_unique_both_variants():
    f7 = canonical_form(7, ELLIPTIC)
    for variant, t in (("t", 2), ("tt", 1)):
        _, sw, v_s, _ = switched_setup(f7, t, variant)
        words = min_weight_codewords(code_from_graph(sw))
        assert words == [v_s]
        assert v_s.bit_count() == (1 << (t + 1 + (variant == "tt")))


def test_min_words_n5_elliptic_double_not_unique():
    # below the n >= 7 hypothesis of the uniqueness claims the minimum weight
    # is still 2^(t+2) = 8 and v^S attains it, but three further weight-8
    # words exist whose supports induce 6-regular subgraphs (measured value)
    g, sw, v_s, _ = switched_setup(E5, 1, "tt")
    words = min_weight_codewords(code_from_graph(sw))
    assert v_s in words
    assert [w.bit_count() for w in words] == [8, 8, 8, 8]
    profiles = sorted(
        tuple(sorted((g.rows[i] & w).bit_count() for i in set_bits(w))) for w in words
    )
    assert profiles == [(4,) * 8, (6,) * 8, (6,) * 8, (6,) * 8]


def test_min_words_gamma_n5_hyperbolic():
    words = min_weight_codewords(code_from_graph(build_gamma(H5)))
    assert len(words) == 28
    assert all(w.bit_count() == 12 for w in words)


# --- characteristic vectors -----------------------------------------------------------------


def test_characteristic_vector_basics():
    g = build_gamma(E5)
    assert characteristic_vector(g, []) == 0
    full = characteristic_vector(g, g.labels)
    assert full.bit_count() == g.v
    s_points = [g.labels[i] for i in set_bits(build_S(make_config(E5, 1, "t")))]
    assert characteristic_vector(g, s_points).bit_count() == 4


def test_characteristic_vector_rejects_foreign_point():
    g = build_gamma(E5)
    quadric_point = next(p for p in range(1, 64) if E5.contains(p))
    with pytest.raises(CodeError):
        characteristic_vector(g, [quadric_point])


# --- switched code equals the augmented base code ----------------------------------------------


@pytest.mark.parametrize("n", [5, 7])
def test_switched_code_span_identity(n):
    for kind in (ELLIPTIC, HYPERBOLIC):
        form = canonical_form(n, kind)
        for variant in ("t", "tt"):
            for t in legal_t_range(n, kind, variant):
                g, sw, v_s, v_t = switched_setup(form, t, variant)
                switched = code_from_graph(sw)
                # inclusion one way: every augmented generator is in the switched code
                for gen in list(g.rows) + [v_s, v_t]:
                    assert contains(switched, gen)
                # and back: every switched row reduces against the augmented set
                augmented = from_vectors(g.v, list(g.rows) + [v_s, v_t])
                for row in sw.rows:
                    assert contains(augmented, row)
                assert augmented.basis == switched.basis


def test_every_base_codeword_weight_large():
    # nonzero words of the unswitched code never drop below 2^(n-1) - 2^((n-1)/2)
    for form, floor in ((E5, 16), (H5, 12)):
        code = code_from_graph(build_gamma(form))
        assert all(w.bit_count() >= floor for w in iter_codewords(code) if w)


def test_a_coset_walk_starts_at_its_offset():
    code = code_from_graph(build_gamma(H5))
    offset = 0b1011 << 20
    words = list(iter_codewords(code, offset))
    assert words[0] == offset
    assert set(words) == {w ^ offset for w in iter_codewords(code)} and len(words) == 1 << code.dim


@settings(max_examples=200, deadline=None)
@given(
    basis=st.lists(st.integers(1, (1 << 12) - 1), min_size=1, max_size=5),
    s=st.integers(1, (1 << 12) - 1),
    h=st.integers(1, (1 << 12) - 1),
    slack=st.integers(0, 2),
)
@example(basis=[(1 << 12) - 1], s=0b1, h=0b110, slack=0)  # min|C - 0| > 2|s|: C + s is not walked
@example(basis=[(1 << 12) - 1], s=0b111, h=0b1000, slack=0)  # and the lightest word lies in C + h
@example(basis=[0b11], s=0b100, h=0b1111 << 4, slack=0)  # |h| - max|C| > |s|: C + h is not walked
@example(basis=[0b11], s=0b100, h=0b111 << 4, slack=0)  # |h| - max|C| = |s|: C + h is still walked
def test_augmented_min_words_equal_the_whole_walk(basis, s, h, slack):
    # the walk of at most three cosets gives the minimum words of C + <s, h>
    # whenever they are lighter than C's, and refuses otherwise, for any
    # bound on C's greatest weight
    code = from_vectors(12, basis)
    joined = from_vectors(12, code.basis + (s, h))
    if joined.dim != code.dim + 2:
        return  # s and h are not independent modulo C
    min_weight = min_weight_codewords(code)[0].bit_count()
    max_weight = max(weight_distribution(code)) + slack
    want = min_weight_codewords(joined)
    if want[0].bit_count() < min_weight:
        assert augmented_min_words(code, min_weight, max_weight, s, h) == want
    else:
        with pytest.raises(CodeError, match="reaches the base code's"):
            augmented_min_words(code, min_weight, max_weight, s, h)


def test_augmented_min_words_respect_the_enumeration_guard():
    dim = ENUMERATION_GUARD + 1
    code = BinaryCode(dim + 2, tuple(1 << i for i in reversed(range(dim))))
    with pytest.raises(CodeError, match="enumeration guard"):
        augmented_min_words(code, 1, dim, 1 << dim, 2 << dim)


@settings(max_examples=200, deadline=None)
@given(
    basis=st.lists(st.integers(1, (1 << 12) - 1), max_size=5),
    s=st.integers(1, (1 << 12) - 1),
    h=st.integers(1, (1 << 12) - 1),
)
def test_augmented_weight_distribution_equals_the_whole_walk(basis, s, h):
    # one walk of C gives the weights of all four cosets of C + <s, h>
    h &= ~s
    code = from_vectors(12, basis)
    joined = from_vectors(12, code.basis + (s, h))
    assume(joined.dim == code.dim + 2)  # s and h independent modulo C
    assert augmented_weight_distribution(code, s, h) == weight_distribution(joined)


def test_augmented_weight_distribution_refuses_overlapping_cosets():
    code = from_vectors(12, [0b111 << 6])
    with pytest.raises(CodeError, match="disjoint"):
        augmented_weight_distribution(code, 0b011, 0b110)


def test_augmented_weight_distribution_respects_the_enumeration_guard():
    dim = ENUMERATION_GUARD + 1
    code = BinaryCode(dim + 2, tuple(1 << i for i in reversed(range(dim))))
    with pytest.raises(CodeError, match="enumeration guard"):
        augmented_weight_distribution(code, 1 << dim, 2 << dim)


def test_echelonize_round_trip_with_from_vectors():
    rows = (0b1101, 0b0110, 0b1011)
    code = from_vectors(4, rows)
    assert code.basis == echelonize(rows)
    for r in rows:
        assert contains(code, r)


def test_support_lists_the_set_bits():
    g = build_gamma(canonical_form(7, ELLIPTIC))
    vectors = [0, 1, 2, (1 << 300) | 5, *min_weight_codewords(code_from_graph(g))]
    for w in vectors:
        assert set_bits(w) == [i for i in range(w.bit_length()) if (w >> i) & 1]
