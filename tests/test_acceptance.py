"""Acceptance suite: one test per criterion, each printing a PASS line.

Desk scale: n in {5, 7} is mandatory everywhere, n = 9 for quadric sizes,
graph parameters and weight distributions.  Every tolerance is exact.
"""

import hashlib
import json
import random
import time

import pytest

from quadswitch import cli
from quadswitch.codes import (
    code_from_graph,
    contains,
    expected_gamma_weight_distribution,
    min_weight_codewords,
    weight_distribution,
)
from quadswitch.distinguish import are_isomorphic, build_family, classify_family
from quadswitch.gf2geom import (
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    canonical_form,
    count_external_lines_through,
    quadric_size,
)
from quadswitch.srg import expected_params, verify_srg

from conftest import form, gamma, graph_signature, legal_cases, relabel, switch_case


def test_criterion_1_quadric_sizes():
    for n in range(4, 10):
        kinds = (PARABOLIC,) if n % 2 == 0 else (ELLIPTIC, HYPERBOLIC)
        for kind in kinds:
            assert canonical_form(n, kind).zero_mask.bit_count() == quadric_size(n, kind)
    print("PASS criterion 1: quadric sizes exact for n in 4..9, all kinds")


def test_criterion_2_srg_construction():
    for n in (5, 7, 9):
        for kind in (ELLIPTIC, HYPERBOLIC):
            params = verify_srg(gamma(n, kind))
            expect = expected_params(n, kind)
            assert params == expect
            assert None not in (params.r, params.s, params.f, params.g)
    print("PASS criterion 2: SRG parameters (v,k,lambda,mu,r,s,f,g) exact for n in {5,7,9}")


def test_criterion_3_external_line_counts():
    for kind, want in ((ELLIPTIC, 10), (HYPERBOLIC, 6)):
        f = form(5, kind)
        for x in f.labels:
            assert count_external_lines_through(f, x) == want
    print("PASS criterion 3: external-line counts through every point, n=5, both kinds")


def test_criterion_4_switching_validity():
    for n, kind, t, variant in legal_cases():
        sw = switch_case(n, kind, t, variant)
        want_induced = 0 if variant == "t" else 1 << (t + 1)
        assert sw.certificate.induced_degree == want_induced, (n, kind, t, variant)
        assert sw.t_set == sw.certificate.half_class, (n, kind, t, variant)
    print("PASS criterion 4: switching sets valid, induced degrees right, T formula = half class")


def test_criterion_5_switched_graphs_are_srg():
    for n, kind, t, variant in legal_cases():
        switched = switch_case(n, kind, t, variant).graph
        assert verify_srg(switched) == expected_params(n, kind), (n, kind, t, variant)
    print("PASS criterion 5: every switched graph is an SRG with unchanged parameters")


def test_criterion_6_gamma_weight_distributions():
    for n in (5, 7, 9):
        for kind in (ELLIPTIC, HYPERBOLIC):
            dist = weight_distribution(code_from_graph(gamma(n, kind)))
            assert dist == expected_gamma_weight_distribution(n, kind), (n, kind)
    print("PASS criterion 6: weight distributions match the closed-form tables, n in {5,7,9}")


def test_criterion_7_switched_codes():
    # dimension and minimum weight hold at every legal configuration; the
    # uniqueness of the minimum word is a theorem for n >= 7 and it holds
    # for the single-space construction at n = 5 too
    for n, kind, t, variant in legal_cases():
        sw = switch_case(n, kind, t, variant)
        s, switched = sw.s, sw.graph
        code = code_from_graph(switched)
        words = min_weight_codewords(code)
        v_s = s
        want_weight = 1 << (t + 1 + (variant == "tt"))
        assert code.dim == n + 3, (n, kind, t, variant)
        assert words[0].bit_count() == want_weight, (n, kind, t, variant)
        assert v_s in words, (n, kind, t, variant)
        if n >= 7 or variant == "t":
            assert words == [v_s], (n, kind, t, variant)
    print("PASS criterion 7: switched codes are [.., n+3, 2^(t+1) or 2^(t+2)] with v^S minimal")


def test_criterion_7_minimum_word_uniqueness_boundary():
    # below the n >= 7 hypothesis the uniqueness claim genuinely fails:
    # at n=5, elliptic, double construction there are exactly four minimum
    # words (weight 8); v^S is the one whose support induces a 4-regular
    # subgraph.  Pinned so any change in this boundary behaviour is loud.
    sw = switch_case(5, ELLIPTIC, 1, "tt")
    s, switched = sw.s, sw.graph
    words = min_weight_codewords(code_from_graph(switched))
    v_s = s
    assert len(words) == 4
    assert v_s in words
    print(
        "PASS criterion 7 (boundary): n=5 elliptic double switch has 4 minimum words; "
        "uniqueness starts at n=7 as claimed"
    )


def test_criterion_8_membership_lemmas():
    for n, kind, t, variant in legal_cases():
        sw = switch_case(n, kind, t, variant)
        base_code = code_from_graph(gamma(n, kind))
        sw_code = code_from_graph(sw.graph)
        v_s = sw.s
        v_t = sw.t_set
        assert contains(sw_code, v_s), (n, kind, t, variant)
        assert contains(sw_code, v_t), (n, kind, t, variant)
        assert not contains(base_code, v_t), (n, kind, t, variant)
    print("PASS criterion 8: v^S, v^T in the switched code, v^T outside the base code")


def test_criterion_9_family_counts():
    expected = {
        (5, ELLIPTIC): 3,
        (5, HYPERBOLIC): 2,
        (7, ELLIPTIC): 5,
        (7, HYPERBOLIC): 4,
    }
    allowed = {"2-rank", "min weight", "min-word support profile"}
    for (n, kind), want in expected.items():
        rep = classify_family(build_family(n, kind), cross_check=False)
        assert rep.distinct_count == want, (n, kind)
        for pair in rep.pairs:
            assert pair.distinct, (n, kind, pair)
            assert pair.invariant in allowed, (n, kind, pair)
    hyp = classify_family(build_family(7, HYPERBOLIC), cross_check=False)
    assert hyp.claimed_switched == 5 and hyp.computed_switched == 3
    assert hyp.claim_discrepancy
    print(
        "PASS criterion 9: family counts 3/2/5/4; n=7 hyperbolic reported as 4 "
        "against the published n-2 claim (flagged)"
    )


def test_criterion_10_isomorphism_cross_checks():
    rng = random.Random(2024)
    slowest = 0.0
    for kind in (ELLIPTIC, HYPERBOLIC):
        rep = classify_family(build_family(5, kind), cross_check=False)
        graphs = {m.name: m.graph for m in rep.members}
        sigs = {m.name: m.sig for m in rep.members}
        for pair in rep.pairs:
            assert sigs[pair.first] != sigs[pair.second]
            t0 = time.perf_counter()
            assert not are_isomorphic(graphs[pair.first], graphs[pair.second])
            slowest = max(slowest, time.perf_counter() - t0)
        for name, g in graphs.items():
            for _ in range(10):
                perm = list(range(g.v))
                rng.shuffle(perm)
                t0 = time.perf_counter()
                assert are_isomorphic(g, relabel(g, perm)), name
                slowest = max(slowest, time.perf_counter() - t0)
                assert graph_signature(relabel(g, perm)) == sigs[name]
    assert slowest < 10.0
    print(
        f"PASS criterion 10: exact tester confirms every separation and 10 relabellings "
        f"per graph at n=5 (slowest decision {slowest:.2f}s)"
    )


def test_criterion_11_verify_all_deterministic(capsys):
    reports = []
    for _ in range(2):
        code = cli.main(["verify-all", "--n", "7"])
        out = capsys.readouterr().out
        assert code == 0
        rep = json.loads(out)
        rep.pop("timings")
        reports.append(json.dumps(rep, sort_keys=True, indent=2))
    assert reports[0] == reports[1]
    print("PASS criterion 11: verify-all --n 7 is byte-identical across runs minus timings")


# sha256 of the verify-all report without its timings, dumped as the CLI dumps it
VERIFY_ALL_DIGESTS = {
    5: "d9a9e1b5b15d62dc026263932be2d741536dcb1c7c2196c82bc28dcb2d4962ab",
    7: "821937e2a15eed0e7f45ce778f27014aa40a4d4d03aab2578b55f28bb10fba45",
    9: "f93598f3e872e303996d6260f12e291003321b3a39288f9e80c76c65fde78741",
}


@pytest.mark.parametrize("n", sorted(VERIFY_ALL_DIGESTS))
def test_criterion_11_verify_all_report_bytes_are_pinned(capsys, n):
    code = cli.main(["verify-all", "--n", str(n)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    rep.pop("timings")
    text = json.dumps(rep, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == VERIFY_ALL_DIGESTS[n]
    print(f"PASS criterion 11: verify-all --n {n} report matches its pinned digest minus timings")
