"""Command-line behaviour: reports, exit codes, determinism, export files."""

import errno
import gc
import importlib
import io
import json
import os
import pkgutil
import random
import shlex
import subprocess
import sys
import time
import types
import weakref

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    flip_switched_edge, from_nx, legal_cases, random_graph, read_export, read_labels, relabel, switch_case, to_nx,
)
import quadswitch
from quadswitch import cli, codes, distinguish, graph6, srg, switching
from quadswitch.codes import code_from_graph, min_weight_codewords
from quadswitch.cli import _write_json, main
from quadswitch.gf2geom import ELLIPTIC, HYPERBOLIC, QuadswitchError, canonical_form
from quadswitch.srg import Graph, build_gamma, certified_gamma, certify_gamma, expected_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_verify_n5(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "5", "--kind", "elliptic", "--verify")
    assert code == 0
    rep = json.loads(out)
    assert rep["srg"]["v"] == 36
    assert rep["srg"]["k"] == 20
    assert rep["srg"]["lambda"] == 10
    assert rep["srg"]["mu"] == 12
    assert rep["checks"]["srg_matches_expected"]


def test_switch_n7_hyperbolic_double_with_code(capsys):
    code, out, _ = run_cli(
        capsys, "switch", "--n", "7", "--kind", "hyperbolic",
        "--t", "1", "--variant", "tt", "--code",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["code"]["dimension"] == 10
    assert rep["code"]["min_weight"] == 8


@pytest.mark.parametrize("case", [(7, HYPERBOLIC, 1, "tt"), (7, ELLIPTIC, 2, "tt")])
def test_switch_code_report_matches_the_minimum_word_walk(capsys, case):
    n, kind, t, variant = case
    code, out, _ = run_cli(
        capsys, "switch", "--n", str(n), "--kind", kind, "--t", str(t), "--variant", variant, "--code",
    )
    assert code == 0
    rep = json.loads(out)["code"]
    words = min_weight_codewords(code_from_graph(switch_case(*case).graph))
    assert (rep["min_weight"], rep["min_word_count"]) == (words[0].bit_count(), len(words))


def rows_code_report(graph):
    """Oracle: the code report of a graph from its rows, every word walked."""
    code = code_from_graph(graph)
    dist = codes.weight_distribution(code)
    least = min(w for w in dist if w)
    return {
        "dimension": code.dim,
        "length": code.length,
        "min_weight": least,
        "min_word_count": dist[least],
        "weight_distribution": [[w, c] for w, c in sorted(dist.items())],
    }


def switched_graph(n, kind, t, variant, choice=0):
    gamma, certificate = certified_gamma(n, kind)
    return switching.build_switch(gamma, switching.make_config(certificate.form, t, variant, choice)).graph


def without_timings(out):
    report = json.loads(out)
    del report["timings"]
    return report


def assert_refused(capsys, argv, reason):
    """The request exits 1 with a JSON error naming reason, and no traceback."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and reason in json.loads(out)["error"]
    assert "Traceback" not in err


@pytest.mark.parametrize("choice", [0, 7])
@pytest.mark.parametrize("case", list(legal_cases((5, 7, 9))))
def test_switch_code_equals_the_rows_code(capsys, case, choice):
    # without --verify nothing else checks the switch: the code read off the
    # form is the code of the switched graph's rows, walked whole
    n, kind, t, variant = case
    argv = ["switch", "--n", str(n), "--kind", kind, "--t", str(t), "--variant", variant,
            "--seed-choice", str(choice), "--code"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["code"] == rows_code_report(switched_graph(n, kind, t, variant, choice))


@pytest.mark.parametrize(
    "n,kind,t,variant,choice",
    [(9, ELLIPTIC, 1, "tt", 7), (9, HYPERBOLIC, 3, "t", 0), (11, ELLIPTIC, 4, "t", 0), (11, HYPERBOLIC, 1, "tt", 0)],
)
def test_switch_code_is_read_off_the_form(capsys, monkeypatch, n, kind, t, variant, choice):
    # switch --code takes the switched code and its weights from gamma's polar
    # words and one walk of gamma's code: no rows echelonized, no fallback
    argv = ["switch", "--n", str(n), "--kind", kind, "--t", str(t), "--variant", variant,
            "--seed-choice", str(choice), "--verify", "--code"]
    honest = rows_code_report(switched_graph(n, kind, t, variant, choice))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["code"] == honest

    def refuse(*args):
        raise AssertionError("the switched code was read off its rows or walked whole")

    monkeypatch.setattr(codes, "code_from_graph", refuse)
    monkeypatch.setattr(codes, "weight_distribution", refuse)
    code, patched, _ = run_cli(capsys, *argv)
    assert code == 0
    assert without_timings(patched) == without_timings(out)


def test_switch_code_makes_no_switched_graph(capsys, monkeypatch):
    # switch --code reads the code off gamma's form and the switch's S and H
    argv = ["switch", "--n", "7", "--kind", ELLIPTIC, "--t", "1", "--variant", "tt", "--code"]
    code, honest, _ = run_cli(capsys, *argv)
    assert code == 0

    def refuse(*args):
        raise AssertionError("a switched graph was made")

    monkeypatch.setattr(switching, "_complement_edges", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and without_timings(out) == without_timings(honest)


def test_switch_verify_rejects_a_flipped_switched_edge(capsys, monkeypatch):
    # the code is read off the switch, not its graph: --verify is what checks the graph
    flip_switched_edge(monkeypatch)
    argv = ["switch", "--n", "7", "--kind", ELLIPTIC, "--t", "1", "--verify", "--code"]
    assert_refused(capsys, argv, "deg(0) = 71, expected 72")  # the flipped edge's witness
    assert "code" not in json.loads(run_cli(capsys, *argv)[1])


def test_switch_code_falls_back_when_the_lifts_fall_short(capsys, monkeypatch):
    # lifts without their H coordinate span at most n + 2 dimensions: refused
    lifts, width = distinguish._lifts, 8
    monkeypatch.setattr(distinguish, "_lifts", lambda *a: (x & ~(2 << width) for x in lifts(*a)))
    argv = ["switch", "--n", "7", "--kind", HYPERBOLIC, "--t", "2", "--verify", "--code"]
    assert_refused(capsys, argv, "lifts of the vertices do not reach rank 10")


@pytest.mark.parametrize("argv", [
    ["switch", "--n", "7", "--kind", HYPERBOLIC, "--t", "1", "--variant", "tt", "--verify", "--code"],
    ["code", "--n", "7", "--kind", HYPERBOLIC],
])
def test_code_reports_fall_back_on_a_form_that_fails_the_polar_check(capsys, monkeypatch, argv):
    # nonorth(e_2) one point off fails the polar check: the same graph, from
    # the reference rows, and a certificate without polar words, so no code
    # can be read off the form and the request is refused
    f = canonical_form(7, HYPERBOLIC)
    nonorth, bad = f.nonorth, f.nonorth(4) ^ 1 << 3
    f.nonorth = lambda y: bad if y == 4 else nonorth(y)
    gamma, certificate = certify_gamma(f)
    assert gamma == certified_gamma(7, HYPERBOLIC)[0] and certificate.words == ()
    monkeypatch.setattr(cli, "certified_gamma", lambda n, kind: (gamma, certificate))
    assert_refused(capsys, argv, "no polar words")


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_code_command_reads_gamma_code_off_the_polar_words(capsys, monkeypatch, n, kind):
    # the code is from_vectors of the n + 1 polar words and its weights are
    # read off the two point classes: no row echelonized, no word walked
    honest = rows_code_report(certified_gamma(n, kind)[0])

    def refuse(*args):
        raise AssertionError("gamma's code was read off its rows or walked whole")

    monkeypatch.setattr(codes, "code_from_graph", refuse)
    monkeypatch.setattr(codes, "weight_distribution", refuse)
    monkeypatch.setattr(codes, "iter_codewords", refuse)
    code, out, _ = run_cli(capsys, "code", "--n", str(n), "--kind", kind)
    assert code == 0 and json.loads(out)["code"] == honest


def test_switch_impossible_double_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "switch", "--n", "5", "--kind", "hyperbolic", "--t", "1", "--variant", "tt",
    )
    assert code == 1
    rep = json.loads(out)
    assert "second tangent space" in rep["error"]
    assert "second tangent space" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["switch", "--n", "5", "--kind", "purple", "--t", "1"])
    assert exc.value.code == 2


def test_code_command_checks_table(capsys):
    code, out, _ = run_cli(capsys, "code", "--n", "5", "--kind", "hyperbolic")
    assert code == 0
    rep = json.loads(out)
    assert rep["code"]["weight_distribution"] == [[0, 1], [12, 28], [16, 35]]
    assert rep["checks"]["weight_distribution_matches_table"]


def test_code_command_takes_no_switch_options(capsys):
    # a switch's code is switch --code's; code reports the quadric graph's only
    with pytest.raises(SystemExit) as exc:
        main(["code", "--n", "5", "--kind", "elliptic", "--t", "1"])
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "code", "--n", "5", "--kind", "elliptic")
    assert code == 0
    request = json.loads(out)["request"]
    assert (request["t"], request["variant"], request["seed_choice"]) == (None, None, None)


def test_classify_family_n5(capsys):
    code, out, _ = run_cli(capsys, "classify-family", "--n", "5", "--kind", "elliptic")
    assert code == 0
    rep = json.loads(out)
    assert rep["family"]["distinct_count"] == 3
    invariants = {(p["first"], p["second"]): p["invariant"] for p in rep["family"]["pairs"]}
    assert invariants[("gamma_t1", "gamma_tt1")] == "min weight"


def test_classify_family_reports_the_cross_check_it_ran(capsys, monkeypatch):
    # whether pairs are cross-checked is classify_family's choice; the report
    # follows it rather than restating it
    code, out, _ = run_cli(capsys, "classify-family", "--n", "5", "--kind", "hyperbolic")
    assert code == 0 and json.loads(out)["checks"]["cross_check_agrees"] is True
    classify = distinguish.classify_family
    monkeypatch.setattr(distinguish, "classify_family", lambda family: classify(family, cross_check=False))
    code, out, _ = run_cli(capsys, "classify-family", "--n", "5", "--kind", "hyperbolic")
    assert code == 0 and json.loads(out)["checks"] == {"all_pairs_separated": True}


def strip_timings(text):
    rep = json.loads(text)
    rep.pop("timings", None)
    return json.dumps(rep, sort_keys=True)


def test_verify_all_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify-all", "--n", "5")
    code2, out2, _ = run_cli(capsys, "verify-all", "--n", "5")
    assert code1 == code2 == 0
    assert strip_timings(out1) == strip_timings(out2)
    rep = json.loads(out1)
    assert rep["checks"] and all(rep["checks"].values())


@pytest.mark.parametrize("n", [1, 4, 11, 19])
def test_verify_all_refuses_an_unclassified_n_before_any_check(capsys, n):
    # the elliptic family is the first work, so its refusal is the report's error
    code, out, _ = run_cli(capsys, "verify-all", "--n", str(n))
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == f"families are classified for odd n in [5, 9], got {n}"
    assert rep["checks"] == {}
    # a stage that raises is still timed: the run and the family build it refused
    assert set(rep["timings"]) == {"verify_all", "build_family_elliptic"}


def test_verify_all_n9_reads_every_family_code_off_the_form(capsys, monkeypatch):
    # every member's code and minimum words come from the polar words and the
    # coset walks, and gamma's weights from its point classes: no member's rows
    # are echelonized and no code is walked whole
    def refuse(*args):
        raise AssertionError("a family member was read off its rows")

    for name in ("code_from_graph", "min_weight_codewords", "weight_distribution"):
        monkeypatch.setattr(codes, name, refuse)
    code, out, _ = run_cli(capsys, "verify-all", "--n", "9")
    assert code == 0 and all(json.loads(out)["checks"].values())
    assert not hasattr(distinguish, "_orbit_profiles")


def test_verify_all_walks_gamma_code_when_its_orbit_misses_a_point(capsys, monkeypatch):
    # gamma's weights need the orbit of the least singular point to be every
    # singular point: where it misses one, the request is refused
    orbit = srg._orbit

    def short(f, mask, reflections):
        got = orbit(f, mask, reflections)
        return got & ~(1 << got.bit_length() - 1) if mask & f.zero_mask else got

    monkeypatch.setattr(srg, "_orbit", short)
    assert_refused(capsys, ["verify-all", "--n", "5"], "misses a singular point")


def test_verify_all_holds_one_family_at_a_time(capsys, monkeypatch):
    build = distinguish.build_family
    families, alive_at_build = [], []

    def tracked(n, kind):
        gc.collect()
        alive_at_build.append([ref() is not None for ref in families])
        family = build(n, kind)
        families.append(weakref.ref(family))
        return family

    monkeypatch.setattr(distinguish, "build_family", tracked)
    code, _, _ = run_cli(capsys, "verify-all", "--n", "7")
    assert code == 0
    assert alive_at_build == [[], [False]]  # the elliptic family is gone before the hyperbolic one


def test_no_switched_graph_outlives_its_checks(capsys, monkeypatch):
    complement = switching._complement_edges
    graphs, alive_at_call = [], []

    def tracked(g, cert):
        gc.collect()
        alive_at_call.append([ref() is not None for ref in graphs])
        out = complement(g, cert)
        graphs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(switching, "_complement_edges", tracked)
    code, _, _ = run_cli(capsys, "verify-all", "--n", "7")
    assert code == 0
    # one per switch that verify_srg_near decides, below 1024 pairs through S:
    # elliptic t1 and the 3 hyperbolic members; the rest are checked with no graph
    assert len(graphs) == 4
    assert alive_at_call == [[False] * i for i in range(4)]  # each checked and freed
    gc.collect()
    assert all(ref() is None for ref in graphs)


def test_a_switch_request_makes_its_graph_once(tmp_path, capsys, monkeypatch):
    # the export makes the graph, and verify_srg_near decides on that one
    # for the t switch, |S| * v = 4 * 136 < 1024; without the export,
    # --verify makes it for the t switch and not for the tt one (8 * 136)
    complement, calls = switching._complement_edges, []
    monkeypatch.setattr(switching, "_complement_edges", lambda g, cert: calls.append(g) or complement(g, cert))
    argv = ["switch", "--n", "7", "--kind", ELLIPTIC, "--t", "1", "--verify", "--code"]
    for variant in ("t", "tt"):
        calls.clear()
        code, _, _ = run_cli(capsys, *argv, "--variant", variant, "--export-graph", str(tmp_path / "g.g6"))
        assert code == 0
        assert len(calls) == 1, variant
        code, _, _ = run_cli(capsys, *argv, "--variant", variant)
        assert code == 0
        assert len(calls) == 1 + (variant == "t"), variant


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_switch_verify_makes_no_switched_graph(capsys, monkeypatch, kind):
    # switch --verify at n = 11 checks the switch from gamma's rows and its
    # masks: without --export-graph no switched graph is made
    argv = ["switch", "--n", "11", "--kind", kind, "--t", "1", "--variant", "tt", "--verify", "--code"]
    code, honest, _ = run_cli(capsys, *argv)
    assert code == 0

    def refuse(*args):
        raise AssertionError("a switched graph was made")

    monkeypatch.setattr(switching, "_complement_edges", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and without_timings(out) == without_timings(honest)
    assert json.loads(out)["checks"]["switched_srg_parameters_unchanged"]


@pytest.mark.parametrize(
    "argv", [["verify-all", "--n", "5"], ["classify-family", "--n", "5", "--kind", ELLIPTIC]]
)
def test_a_switched_graph_that_is_not_strongly_regular_is_a_json_error(capsys, monkeypatch, argv):
    flip_switched_edge(monkeypatch)
    with pytest.raises(srg.NotStronglyRegular) as exc:
        distinguish.build_family(5, ELLIPTIC)  # verify-all builds the elliptic family first
    assert exc.value.witness is not None
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"] == str(exc.value)
    assert "Traceback" not in err


def test_out_flag_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "construct", "--n", "5", "--kind", "elliptic", "--out", str(target)
    )
    assert code == 0
    assert target.read_text().strip() == out.strip()


@pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
def test_construct_verify_n11(capsys, kind):
    code, out, _ = run_cli(capsys, "construct", "--n", "11", "--kind", kind, "--verify")
    assert code == 0
    p = expected_params(11, kind)
    assert json.loads(out)["srg"] == {
        "v": p.v, "k": p.k, "lambda": p.lam, "mu": p.mu, "r": p.r, "s": p.s, "f": p.f, "g": p.g,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("switch", "--n", "9", "--kind", "hyperbolic", "--t", "3", "--verify"),
        ("verify-all", "--n", "5"),
    ],
)
def test_base_graphs_are_certified_without_the_pair_check(monkeypatch, capsys, argv):
    def refuse(g):
        raise AssertionError("verify_srg ran on a base graph")

    certified = []
    certify = srg.certify_gamma
    monkeypatch.setattr(srg, "verify_srg", refuse)
    monkeypatch.setattr(srg, "certify_gamma", lambda f: certified.append(f.kind) or certify(f))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert all(json.loads(out)["checks"].values())
    # made under the patch, not taken from an earlier test
    assert certified == ([argv[4]] if argv[0] == "switch" else [ELLIPTIC, HYPERBOLIC])


@pytest.mark.parametrize(
    "argv",
    [
        ("switch", "--n", "9", "--kind", "hyperbolic", "--t", "3", "--verify"),
        ("switch", "--n", "7", "--kind", "elliptic", "--t", "2", "--variant", "tt", "--verify"),
        ("verify-all", "--n", "9"),
    ],
)
def test_switched_graphs_are_checked_by_the_flag_certificate(monkeypatch, capsys, argv):
    # switch --verify and the family build both reach verify_switch, which
    # decides every switch without verify_srg_near
    def refuse(*args):
        raise AssertionError("verify_srg_near ran on a switched graph")

    monkeypatch.setattr(srg, "verify_srg_near", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert all(json.loads(out)["checks"].values())


def test_switch_verify_times_the_base_check(capsys):
    code, out, _ = run_cli(
        capsys, "switch", "--n", "5", "--kind", "elliptic", "--t", "1", "--verify",
    )
    assert code == 0
    timings = json.loads(out)["timings"]
    assert {"certified_gamma", "find_flag", "verify_srg"} <= set(timings)
    assert "verify_srg_base" not in timings


def n7_switch(kind, t, variant, choice):
    return [
        "switch", "--n", "7", "--kind", kind, "--t", str(t), "--variant", variant,
        "--seed-choice", str(choice), "--verify", "--code",
    ]


BATCH_N7 = [
    n7_switch(ELLIPTIC, 1, "t", 0),
    n7_switch(HYPERBOLIC, 2, "t", 17),
    n7_switch(ELLIPTIC, 1, "tt", 64260),  # one past the last flag: exit 1
    n7_switch(ELLIPTIC, 2, "tt", 5),
    ["switch", "--n", "7", "--kind", ELLIPTIC, "--t", "one"],  # an argparse error: exit 2
    n7_switch(HYPERBOLIC, 1, "tt", 999),
    n7_switch(ELLIPTIC, 1, "t", 1000),
    n7_switch(HYPERBOLIC, 1, "t", 3),
]


def run_request(capsys, argv):
    """Exit code and report text minus timings (None after an argparse error)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        capsys.readouterr()
        return exc.code, None
    return code, strip_timings(capsys.readouterr().out)


def test_a_batch_builds_and_certifies_each_base_graph_once(monkeypatch, capsys):
    builds, flag_forms = [], []
    build, make_config = srg.build_gamma, switching.make_config
    monkeypatch.setattr(srg, "build_gamma", lambda f: builds.append(f.kind) or build(f))
    monkeypatch.setattr(switching, "make_config", lambda f, *a: flag_forms.append(f) or make_config(f, *a))
    batch = [run_request(capsys, argv) for argv in BATCH_N7]
    assert [code for code, _ in batch] == [0, 0, 1, 0, 2, 0, 0, 0]
    assert sorted(builds) == [ELLIPTIC, HYPERBOLIC]
    kinds = [argv[4] for argv in BATCH_N7 if argv[-1] == "--code"]
    assert [f.kind for f in flag_forms] == kinds
    assert all(f is srg.certified_gamma(7, f.kind)[1].form for f in flag_forms)
    # each request alone in a fresh cache gives the same report, so no request,
    # failed or not, changes a later one
    for argv, got in zip(BATCH_N7, batch):
        srg.certified_gamma.cache_clear()
        assert run_request(capsys, argv) == got


GAMMA_N7 = [
    ["construct", "--n", "7", "--kind", ELLIPTIC],
    ["construct", "--n", "7", "--kind", ELLIPTIC, "--verify"],
    ["code", "--n", "7", "--kind", ELLIPTIC],
    ["switch", "--n", "7", "--kind", ELLIPTIC, "--t", "1"],
    ["switch", "--n", "7", "--kind", ELLIPTIC, "--t", "1", "--verify", "--code"],
]


def test_one_interpreter_builds_the_base_graph_once(monkeypatch, capsys):
    # counted in _refuse_out_of_reach, where every build_gamma call starts on
    # either path, so a build under any other name is counted too
    builds = []
    refuse = srg._refuse_out_of_reach
    monkeypatch.setattr(srg, "_refuse_out_of_reach", lambda f: builds.append(f.kind) or refuse(f))
    batch = [run_request(capsys, argv) for argv in GAMMA_N7]
    assert [code for code, _ in batch] == [0] * len(GAMMA_N7)
    assert builds == [ELLIPTIC]
    assert srg.certified_gamma.cache_info().misses == 1
    # verified or not, each request gives the report it gives alone
    for argv, got in zip(GAMMA_N7, batch):
        srg.certified_gamma.cache_clear()
        assert run_request(capsys, argv) == got


def test_certified_base_graphs_are_kept_per_n(capsys):
    reports = []
    for n in ("5", "7"):
        code, out, _ = run_cli(capsys, "switch", "--n", n, "--kind", ELLIPTIC, "--t", "1", "--verify")
        assert code == 0
        reports.append(json.loads(out)["srg"])
    assert [rep["v"] for rep in reports] == [expected_params(5, ELLIPTIC).v, expected_params(7, ELLIPTIC).v]
    info = srg.certified_gamma.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)


def test_error_report_keeps_timings(capsys):
    # one past the last of the 64260 flags: gamma is built, then the search runs out
    code, out, _ = run_cli(
        capsys, "switch", "--n", "7", "--kind", "elliptic", "--t", "1", "--variant", "tt",
        "--seed-choice", "64260",
    )
    assert code == 1
    rep = json.loads(out)
    assert "fewer than 64261 flags" in rep["error"]
    assert rep["checks"] == {}
    # the flag search raised after walking every flag, and is timed all the same
    assert {"certified_gamma", "find_flag"} <= set(rep["timings"])


def test_negative_seed_choice_is_a_json_error(capsys):
    code, out, err = run_cli(
        capsys, "switch", "--n", "5", "--kind", "elliptic", "--t", "1", "--seed-choice", "-1",
    )
    assert code == 1
    assert "flag choice" in json.loads(out)["error"]
    assert "flag choice" in err


def package_exceptions() -> dict:
    """Every exception class a module of the package defines, by module.name."""
    found = {}
    for info in pkgutil.iter_modules(quadswitch.__path__):
        module = importlib.import_module(f"quadswitch.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value
    return found


# the builtin base each error kept when it joined QuadswitchError, so `except ValueError` still works
BUILTIN_BASES = {
    "gf2geom.GeometryError": ValueError,
    "srg.NotStronglyRegular": ValueError,
    "switching.SwitchingError": ValueError,
    "switching.SearchExhausted": ValueError,
    "switching.NotSwitchingSet": ValueError,
    "codes.CodeError": ValueError,
    "graph6.Graph6Error": ValueError,
    "distinguish.IsomorphismTooLarge": ValueError,
    "distinguish.IsomorphismBudgetExceeded": RuntimeError,
}
REFUSALS = {name: cls for name, cls in package_exceptions().items() if name != "srg._NotCertified"}


def test_every_package_error_is_a_quadswitch_error():
    assert set(BUILTIN_BASES) <= set(REFUSALS) and quadswitch.QuadswitchError is QuadswitchError
    assert QuadswitchError.__bases__ == (Exception,)
    for name, cls in REFUSALS.items():
        assert issubclass(cls, QuadswitchError), name
    for name, builtin in BUILTIN_BASES.items():
        assert issubclass(REFUSALS[name], builtin), name
    # control flow inside certify_gamma: if it ever leaked, it must stay a traceback
    assert "srg._NotCertified" in package_exceptions()
    assert not issubclass(srg._NotCertified, QuadswitchError)


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_main_reports_every_package_error_as_json(monkeypatch, capsys, name):
    def refuse(form):
        raise REFUSALS[name]("refused")

    monkeypatch.setattr(srg, "build_gamma", refuse)
    code, out, err = run_cli(capsys, "construct", "--n", "5", "--kind", "elliptic")
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == "refused" and rep["checks"] == {}
    assert err == "error: refused\n"


def test_main_lets_any_other_exception_through(monkeypatch):
    def fail(form):
        raise srg._NotCertified("leaked")

    monkeypatch.setattr(srg, "build_gamma", fail)
    with pytest.raises(srg._NotCertified):
        main(["construct", "--n", "5", "--kind", "elliptic"])



@pytest.mark.parametrize(
    "argv,reason",
    [
        (["construct", "--n", "17", "--kind", "elliptic"], "point rows take 4104 MiB"),
        (["switch", "--n", "17", "--kind", "hyperbolic", "--t", "1"], "point rows take"),
        (["construct", "--n", "21", "--kind", "elliptic"], "forms are made up to n = 17"),
        (["construct", "--n", "101", "--kind", "hyperbolic"], "PG(101,2)"),
    ],
    ids=["construct-17", "switch-17", "construct-21", "construct-101"],
)
def test_out_of_reach_n_is_refused_up_front(capsys, argv, reason):
    # closed-form size checks refuse these before the allocation they guard;
    # unchecked, n = 17 runs into a MemoryError, n = 21 for minutes and n = 101
    # into an OverflowError
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2  # ~0.1 s
    assert code == 1
    rep = json.loads(out)
    assert "out of reach" in rep["error"] and reason in rep["error"]
    assert rep["checks"] == {}
    assert "out of reach" in err


@pytest.mark.parametrize(
    "argv, failed",
    [
        (["classify-family", "--n", "5", "--kind", "elliptic"], {"all_pairs_separated", "cross_check_agrees"}),
        (["verify-all", "--n", "5"], {"family_all_pairs_separated_elliptic", "family_all_pairs_separated_hyperbolic"}),
    ],
)
def test_a_cross_check_against_the_invariants_fails_the_run(monkeypatch, capsys, argv, failed):
    # every n = 5 pair is separated by an invariant, so "isomorphic" contradicts it
    monkeypatch.setattr(distinguish, "_isomorphic", lambda a, b, same_profiles: True)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    rep = json.loads(out)
    assert {name for name, ok in rep["checks"].items() if not ok} == failed
    families = rep["families"].values() if "families" in rep else [rep["family"]]
    assert all(p["distinct"] is None for f in families for p in f["pairs"])


@pytest.mark.parametrize("failure", ["budget", "cap"])
def test_undecided_isomorphism_is_a_json_error(monkeypatch, capsys, failure):
    real = distinguish._isomorphic
    big = Graph(tuple(range(1, 602)), (0,) * 601)

    def undecided(a, b, same_profiles):
        if failure == "budget":
            # a relabelled copy has the profile of a, so it reaches the search,
            # and a match needs more than one node
            perm = list(range(a.v))
            random.Random(1).shuffle(perm)
            return real(a, relabel(a, perm), lambda: True, budget=1)
        return real(big, big, same_profiles)

    monkeypatch.setattr(distinguish, "_isomorphic", undecided)
    code, out, err = run_cli(capsys, "classify-family", "--n", "5", "--kind", "elliptic")
    assert code == 1
    message = "1 search nodes" if failure == "budget" else "capped at 600 vertices"
    assert message in json.loads(out)["error"]
    assert message in err


def test_export_graph_into_missing_directory_is_a_json_error(tmp_path, capsys):
    target = tmp_path / "missing" / "gamma.g6"
    code, out, _ = run_cli(
        capsys, "construct", "--n", "5", "--kind", "elliptic", "--export-graph", str(target),
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == f"--export-graph: cannot create {str(target)!r}: No such file or directory"
    assert rep["checks"] == {}  # refused up front, not after the run
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "name, reason",
    [
        (".", "Is a directory"),
        ("y" * 300 + ".g6", "File name too long"),  # longer than a file name may be
        ("y" * 250 + ".g6", "File name too long"),  # the graph6 name fits, its .labels does not
    ],
)
def test_unwritable_export_graph_fails_before_any_work(tmp_path, capsys, name, reason):
    target = tmp_path / name
    code, out, _ = run_cli(
        capsys, "construct", "--n", "5", "--kind", "elliptic", "--verify", "--export-graph", str(target),
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["error"].startswith("--export-graph: cannot create ")
    assert rep["error"].endswith(reason)
    assert rep["checks"] == {} and "graph" not in rep  # refused before any work
    assert list(tmp_path.iterdir()) == []  # a half-opened pair is removed


def test_failed_request_leaves_no_export_files(tmp_path, capsys):
    target = tmp_path / "switched.g6"
    code, out, _ = run_cli(
        capsys, "switch", "--n", "5", "--kind", "elliptic", "--t", "7", "--export-graph", str(target),
    )
    assert code == 1
    assert "outside the existence range" in json.loads(out)["error"]
    assert list(tmp_path.iterdir()) == []


def test_out_into_missing_directory_fails_before_any_work(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, _ = run_cli(
        capsys, "verify-all", "--n", "5", "--out", str(target),
    )
    assert code == 1
    rep = json.loads(out)
    assert "--out" in rep["error"]
    assert rep["checks"] == {}  # refused up front, not after the run
    assert not target.parent.exists()


@pytest.mark.parametrize("out", ["g.g6", "g.g6.labels", "./g.g6", "./g.g6.labels"])
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--n", "5", "--kind", "elliptic", "--verify"],
        ["switch", "--n", "5", "--kind", "elliptic", "--t", "1", "--verify"],
    ],
)
def test_out_onto_an_export_file_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, out):
    monkeypatch.chdir(tmp_path)
    code, text, _ = run_cli(capsys, *argv, "--export-graph", "g.g6", "--out", out)
    assert code == 1
    rep = json.loads(text)
    assert "--out" in rep["error"] and "exported" not in rep
    assert rep["checks"] == {} and rep["timings"] == {}  # refused before any work
    assert list(tmp_path.iterdir()) == []  # nothing created or truncated


def test_out_beside_an_export_writes_both(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["construct", "--n", "5", "--kind", "elliptic", "--export-graph", "g.g6", "--out", "g.labels"]
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(text)["exported"] == "g.g6"
    assert (tmp_path / "g.labels").read_text() == text
    assert read_export("g.g6") == build_gamma(canonical_form(5, ELLIPTIC))


def test_out_with_an_overlong_name_is_a_json_error(tmp_path, capsys):
    target = tmp_path / ("x" * 300 + ".json")  # longer than a file name may be
    code, out, _ = run_cli(
        capsys, "construct", "--n", "5", "--kind", "elliptic", "--out", str(target),
    )
    assert code == 1
    rep = json.loads(out)
    assert "--out" in rep["error"]
    assert rep["checks"] == {} and "graph" not in rep  # refused before any work


def test_export_graph_round_trip(tmp_path, capsys):
    target = tmp_path / "gamma.g6"
    code, _, _ = run_cli(
        capsys, "construct", "--n", "5", "--kind", "elliptic",
        "--export-graph", str(target),
    )
    assert code == 0
    assert read_export(target) == build_gamma(canonical_form(5, ELLIPTIC))


# --- outputs that fail after they are opened ------------------------------------------


class Refusing(io.RawIOBase):
    """A raw file whose every write fails with one errno, as a full disk
    (ENOSPC) or a pipe whose reader has gone (EPIPE) does."""

    def __init__(self, name, code):
        self.name, self.code = name, code

    def writable(self):
        return True

    def write(self, data):
        raise OSError(self.code, os.strerror(self.code))  # a BrokenPipeError for EPIPE


def refuse_opening(monkeypatch, path, text):
    """Make cli open path as a buffered file whose flush, and so its close, fails with ENOSPC."""
    real_open = open

    def fake_open(file, mode="r", **kwargs):
        if file != path:
            return real_open(file, mode, **kwargs)
        buffered = io.BufferedWriter(Refusing(file, errno.ENOSPC))
        return io.TextIOWrapper(buffered, encoding="ascii") if text else buffered

    monkeypatch.setattr(cli, "open", fake_open, raising=False)


@pytest.mark.parametrize("suffix", ["", ".labels"])
def test_an_export_that_cannot_be_written_is_a_json_error(monkeypatch, tmp_path, capsys, suffix):
    # write_files's flush raises, and the cleanup's close flushes and raises again
    target = str(tmp_path / "gamma.g6")
    refuse_opening(monkeypatch, target + suffix, text=False)
    code, out, err = run_cli(capsys, "construct", "--n", "5", "--kind", "elliptic", "--export-graph", target)
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == f"--export-graph: cannot write {target!r}: No space left on device"
    assert err == f"error: {rep['error']}\n"
    assert "graph" not in rep and list(tmp_path.iterdir()) == []


def test_an_out_file_that_cannot_be_written_fails_with_one_error_line(monkeypatch, tmp_path, capsys):
    # the report fits the buffer, so the flush after the last piece is what raises
    target = str(tmp_path / "report.json")
    refuse_opening(monkeypatch, target, text=True)
    code, out, err = run_cli(capsys, "construct", "--n", "5", "--kind", "elliptic", "--out", target)
    assert code == 1
    assert err == f"error: cannot write the report to {target!r}: No space left on device\n"
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"  # stdout got it all


def test_a_stdout_that_cannot_be_written_fails_with_one_error_line(monkeypatch, tmp_path, capsys):
    # unbuffered, so the first write raises, as on a pipe whose reader has gone
    target = tmp_path / "report.json"
    stdout = io.TextIOWrapper(Refusing("<stdout>", errno.EPIPE), encoding="ascii", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["verify-all", "--n", "5", "--out", str(target)])
    assert code == 1
    assert capsys.readouterr().err == "error: cannot write the report to stdout: Broken pipe\n"
    assert stdout.closed  # so nothing is flushed to it again at exit
    text = target.read_text()  # the --out file still gets the whole report
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_a_closed_pipe_ends_with_one_error_line_and_no_traceback():
    # head takes 10 bytes of the ~330 kB n = 7 report and goes away
    command = f"{shlex.quote(sys.executable)} -m quadswitch.cli verify-all --n 7 | head -c 10 > /dev/null"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    done = subprocess.run(["bash", "-o", "pipefail", "-c", command], env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write the report to stdout: Broken pipe\n"


# --- the report writer against json.dumps --------------------------------------------

ints = st.integers(min_value=-(2**70), max_value=2**70)  # beyond 64 bits both ways
scalars = st.none() | st.booleans() | ints | st.floats() | st.text()  # nan, inf, -0.0, escapes
json_values = st.recursive(
    scalars | st.lists(ints | st.booleans(), max_size=5),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=30,
)


def dumped(value):
    buf = io.StringIO()
    _write_json(value, buf)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(json_values, st.lists(ints, max_size=4))
@example([[1, 1], [1, True], [0, 0], [False, 0]], [1, 1])  # bools equal the ints they are not
@example({"a": [float("nan"), float("inf"), -float("inf"), -0.0], "\u00e9\n": "\"\\\x00"}, [])
def test_write_json_matches_json_dumps(value, repeated):
    # the same list of ints at depths 1, 2, 3 and 4, once as a tuple
    value = [repeated, value, [repeated, {"k": [repeated, tuple(repeated)]}]]
    assert dumped(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_write_json_keys_lists_by_identity_and_depth():
    # one list object at two depths gets the indentation of each; equal lists
    # that are distinct objects (one a tuple) each print in full
    shared = [3, -1, 2**70]
    assert dumped([shared, {"a": shared, "b": [shared]}, shared]) == json.dumps(
        [shared, {"a": shared, "b": [shared]}, shared], indent=2, sort_keys=True
    ) + "\n"
    equal = [[5, 6], [5, 6], (5, 6), {"x": [5, 6], "y": [[5, 6]]}, [True, 6], [5, 6]]
    assert dumped(equal) == json.dumps(equal, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [{1, 2}, object(), b"bytes", [1, {2}], {"k": [object()]}])
def test_write_json_rejects_what_json_dumps_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        dumped(bad)


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["verify-all", "--n", "5"], 0),
        (["verify-all", "--n", "7"], 0),
        (["construct", "--n", "7", "--kind", "hyperbolic", "--verify"], 0),
        (["switch", "--n", "7", "--kind", "elliptic", "--t", "1", "--variant", "tt", "--code"], 0),
        (["code", "--n", "5", "--kind", "elliptic"], 0),
        (["classify-family", "--n", "5", "--kind", "hyperbolic"], 0),
        (["switch", "--n", "5", "--kind", "elliptic", "--t", "7"], 1),  # an error report
    ],
)
def test_report_text_is_json_dumps_and_out_gets_the_same_bytes(tmp_path, capsys, argv, exit_code):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == exit_code
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert target.read_bytes() == out.encode("ascii")


# --- graph6 encoding against an independent implementation ---------------------------


def bit_loop_encode(g):
    """Oracle: graph6 one bit at a time, column-wise over the upper triangle."""
    v = g.v
    size = [v] if v <= 62 else [63, v >> 12, (v >> 6) & 63, v & 63]
    out = bytearray(x + 63 for x in size)
    group = nbits = 0
    for j in range(1, v):
        for i in range(j):
            group = (group << 1) | ((g.rows[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(group + 63)
                group = nbits = 0
    if nbits:
        out.append((group << (6 - nbits)) + 63)
    return bytes(out)


def test_graph6_matches_networkx_encoder():
    rng = random.Random(23)
    for v in [*range(71), 258, 600]:  # 600: 179,700 bits, six _CHUNK_BITS chunks
        g = random_graph(rng, v, 0.35)
        data = graph6.encode(g)
        assert data == nx.to_graph6_bytes(to_nx(g), header=False).strip(), v
        assert data == bit_loop_encode(g), v


def test_graph6_matches_oracle_at_group_and_chunk_ends():
    # 120 bits at v = 16 end on a whole 24-bit group, with no padding; the
    # first v past one chunk cuts its stream and leaves a few bits after the cut
    past_chunk = next(v for v in range(2, 1000) if v * (v - 1) // 2 > graph6._CHUNK_BITS)
    assert 16 * 15 // 2 % 24 == 0 and past_chunk * (past_chunk - 1) // 2 % 24
    rng = random.Random(37)
    for v in (16, past_chunk):
        g = random_graph(rng, v, 0.5)
        assert graph6.encode(g) == bit_loop_encode(g), v


def test_graph6_round_trip_random():
    rng = random.Random(29)
    for _ in range(20):
        v = rng.randint(1, 40)
        g = random_graph(rng, v, rng.random())
        assert from_nx(nx.from_graph6_bytes(graph6.encode(g)), g.labels) == g


def test_graph6_round_trip_gamma_n9():
    g = build_gamma(canonical_form(9, ELLIPTIC))
    assert from_nx(nx.from_graph6_bytes(graph6.encode(g)), g.labels) == g


def test_graph6_round_trip_four_byte_size_prefix():
    g = random_graph(random.Random(31), 100, 0.5)
    data = graph6.encode(g)
    assert data[0] == 126 and len(data) == 4 + (100 * 99 // 2 + 5) // 6
    assert from_nx(nx.from_graph6_bytes(data), g.labels) == g


# --- a switched graph at n = 11 (v = 2016), end to end -------------------------------


def test_switch_n11_verify_code_export(tmp_path, capsys):
    target = tmp_path / "switched.g6"
    code, out, _ = run_cli(
        capsys, "switch", "--n", "11", "--kind", "hyperbolic", "--t", "1",
        "--verify", "--code", "--export-graph", str(target),
    )
    assert code == 0
    rep = json.loads(out)
    p = expected_params(11, HYPERBOLIC)
    assert rep["srg"] == {
        "v": p.v, "k": p.k, "lambda": p.lam, "mu": p.mu, "r": p.r, "s": p.s, "f": p.f, "g": p.g,
    }
    assert rep["code"]["dimension"] == 14
    # compared as bytes: a networkx read-back of this v = 2016 graph is slow
    expected = switch_case(11, HYPERBOLIC, 1, "t").graph
    assert target.read_bytes() == graph6.encode(expected) + b"\n"
    assert read_labels(target) == list(expected.labels)


# --- the package surface ---------------------------------------------------------------


def test_graph6_is_write_only():
    # the package writes exports and never reads them; networkx reads them back
    public = sorted(
        name for name, value in vars(graph6).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == graph6.__name__
    )
    assert public == ["Graph6Error", "encode", "write_files"]


def test_the_package_exports_only_what_the_pipeline_uses():
    # a name joins this list only with a user in the pipeline, the CLI, the
    # README's library example or the benchmark tracer; test oracles live in conftest
    exported = sorted(
        name
        for name, value in vars(quadswitch).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == """
        BinaryCode CodeError ELLIPTIC Family FamilyReport GammaCertificate GeometryError Graph
        GraphSignature HYPERBOLIC NotStronglyRegular NotSwitchingSet PARABOLIC QuadraticForm
        QuadswitchError SearchExhausted SrgParams Subspace Switch SwitchCertificate SwitchConfig
        SwitchingError T_formula are_isomorphic build_S build_family build_gamma build_switch
        canonical_form certified_gamma certify_gamma classify_family code_from_graph contains
        count_external_lines_through expected_params gm_switch make_config min_weight_codewords
        perp quadric_size signature span validate_switching_set verify_srg verify_srg_near
        verify_switch weight_distribution
    """.split()
