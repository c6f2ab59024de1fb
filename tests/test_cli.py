"""Command-line behaviour: reports, exit codes, determinism, export files."""

import json
import random

import networkx as nx
import pytest

from quadswitch import graph6
from quadswitch.cli import main
from quadswitch.gf2geom import ELLIPTIC, canonical_form
from quadswitch.srg import Graph, build_gamma


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


def test_classify_family_n5(capsys):
    code, out, _ = run_cli(capsys, "classify-family", "--n", "5", "--kind", "elliptic")
    assert code == 0
    rep = json.loads(out)
    assert rep["family"]["distinct_count"] == 3
    invariants = {(p["first"], p["second"]): p["invariant"] for p in rep["family"]["pairs"]}
    assert invariants[("gamma_t1", "gamma_tt1")] == "min weight"


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


def test_out_flag_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "construct", "--n", "5", "--kind", "elliptic", "--out", str(target)
    )
    assert code == 0
    assert target.read_text().strip() == out.strip()


def test_negative_seed_choice_is_a_json_error(capsys):
    code, out, err = run_cli(
        capsys, "switch", "--n", "5", "--kind", "elliptic", "--t", "1", "--seed-choice", "-1",
    )
    assert code == 1
    assert "flag choice" in json.loads(out)["error"]
    assert "flag choice" in err


def test_export_graph_into_missing_directory_is_a_json_error(tmp_path, capsys):
    target = tmp_path / "missing" / "gamma.g6"
    code, out, _ = run_cli(
        capsys, "construct", "--n", "5", "--kind", "elliptic", "--export-graph", str(target),
    )
    assert code == 1
    assert "--export-graph" in json.loads(out)["error"]
    assert not target.parent.exists()


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


def test_export_graph_round_trip(tmp_path, capsys):
    target = tmp_path / "gamma.g6"
    code, _, _ = run_cli(
        capsys, "construct", "--n", "5", "--kind", "elliptic",
        "--export-graph", str(target),
    )
    assert code == 0
    g = build_gamma(canonical_form(5, ELLIPTIC))
    assert graph6.read_files(str(target)) == g
    sidecar = (tmp_path / "gamma.g6.labels").read_text().splitlines()
    assert sidecar[0] == f"0 {g.labels[0]}"
    assert len(sidecar) == g.v


# --- graph6 encoding against an independent implementation ---------------------------


def random_graph(rng, v, p):
    rows = [0] * v
    for i in range(v):
        for j in range(i + 1, v):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(tuple(range(1, v + 1)), tuple(rows))


def test_graph6_matches_networkx_encoder():
    rng = random.Random(23)
    for v in (1, 2, 5, 30, 63, 70):
        g = random_graph(rng, v, 0.35)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(v))
        for i in range(v):
            for j in g.neighbors(i):
                if j > i:
                    nxg.add_edge(i, j)
        assert graph6.encode(g) == nx.to_graph6_bytes(nxg, header=False).strip()


def test_graph6_round_trip_random():
    rng = random.Random(29)
    for _ in range(20):
        v = rng.randint(1, 40)
        g = random_graph(rng, v, rng.random())
        assert graph6.decode(graph6.encode(g)).rows == g.rows


def test_graph6_rejects_garbage():
    with pytest.raises(graph6.Graph6Error):
        graph6.decode(b"")
    with pytest.raises(graph6.Graph6Error):
        graph6.decode(b"D")  # five vertices but no body groups
