"""Command-line surface: construct, switch, analyze codes, classify, verify.

Every command prints one JSON report (key-sorted, so byte-identical across runs
except for the "timings" block) and exits 0 only if every requested check
passed.  A refusal (a QuadswitchError) or an OSError is a JSON error with exit
1; any other exception is a bug and stays a traceback.  The report is streamed
to stdout, then to --out, as the text of json.dumps(indent=2, sort_keys=True);
one that cannot be written is an error line on stderr and exit 1.  Graphs are
exported as headerless graph6 plus a .labels sidecar of vertex points.

Every command takes the quadric graph and its certificate from certified_gamma
(cached per process); --verify chooses what a report checks, not the builder.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import codes, distinguish, graph6, switching
from .gf2geom import (
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    QuadswitchError,
    canonical_form,
    count_external_lines_through,
    quadric_size,
)
from .srg import SrgParams, certified_gamma, expected_params


def _params_dict(p: SrgParams) -> dict:
    return {
        "v": p.v,
        "k": p.k,
        "lambda": p.lam,
        "mu": p.mu,
        "r": p.r,
        "s": p.s,
        "f": p.f,
        "g": p.g,
    }


class _Runner:
    """Accumulates named checks and stage timings for one invocation."""

    def __init__(self):
        self.checks: dict[str, bool] = {}
        self.timings: dict[str, float] = {}

    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = bool(ok)
        return bool(ok)

    def time(self, name: str, fn):
        """fn(), its time recorded under name even if it raises."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.timings[name] = round(time.perf_counter() - t0, 6)

    @property
    def failures(self) -> list[str]:
        return sorted(name for name, ok in self.checks.items() if not ok)


def _code_report(code: codes.BinaryCode, dist: dict[int, int]) -> dict:
    """A code and its weight enumerator dist, as the report shows them."""
    min_weight = min(w for w in dist if w)
    return {
        "dimension": code.dim,
        "length": code.length,
        "min_weight": min_weight,
        "min_word_count": dist[min_weight],
        "weight_distribution": [[w, c] for w, c in sorted(dist.items())],
    }


def _gamma(args, runner: _Runner):
    """certified_gamma(n, kind), timed as "certified_gamma": a build and its
    certificate, or a lookup once the process has made them."""
    return runner.time("certified_gamma", lambda: certified_gamma(args.n, args.kind))


def _switch_report(sw: switching.Switch) -> dict:
    cfg, cert = sw.config, sw.certificate
    return {
        "alpha_basis": list(cfg.alpha.basis),
        "pi_basis": list(cfg.pi.basis),
        "pi2_basis": list(cfg.pi2.basis) if cfg.pi2 is not None else None,
        "s_size": sw.s.bit_count(),
        "induced_degree": cert.induced_degree,
        "class_sizes": {
            "none": cert.none_class.bit_count(),
            "half": cert.half_class.bit_count(),
            "all": cert.all_class.bit_count(),
        },
        "t_size": sw.t_set.bit_count(),
        "t_formula_equals_half_class": sw.t_set == cert.half_class,
    }


def _export(args, graph, report: dict) -> None:
    """Write graph to the --export-graph files main opened, if any; a failure
    is an OSError that names the flag."""
    if args.export_graph:
        try:
            graph6.write_files(graph, args.export_graph, args.export_files)
        except OSError as exc:
            reason = exc.strerror or exc
            raise OSError(f"--export-graph: cannot write {args.export_graph!r}: {reason}") from exc
        report["exported"] = args.export_graph


def cmd_construct(args, runner: _Runner) -> dict:
    gamma, certificate = _gamma(args, runner)
    report: dict = {"graph": {"vertices": gamma.v, "edges": gamma.edge_count()}}
    if args.verify:
        report["srg"] = _params_dict(certificate.params)
        runner.check("srg_matches_expected", certificate.params == expected_params(args.n, args.kind))
    _export(args, gamma, report)
    return report


def cmd_switch(args, runner: _Runner) -> dict:
    gamma, certificate = _gamma(args, runner)
    form, base = certificate.form, certificate.params
    cfg = runner.time(
        "find_flag", lambda: switching.make_config(form, args.t, args.variant, args.seed_choice)
    )
    sw = switching.build_switch(gamma, cfg)
    graph = sw.graph if args.verify or args.export_graph else None  # the code reads no graph
    report = {"switching": _switch_report(sw)}
    runner.check("t_formula_equals_half_class", report["switching"]["t_formula_equals_half_class"])
    if args.verify:
        swp = runner.time("verify_srg", lambda: switching.verify_switch(sw, certificate, graph))
        report["srg"] = _params_dict(swp)
        runner.check("switched_srg_parameters_unchanged", swp == base)
    if args.code:

        def read() -> dict:
            c = distinguish.gamma_code(gamma, certificate)
            switched = distinguish.switched_code(sw, gamma, c)
            return _code_report(switched, codes.augmented_weight_distribution(c, sw.s, sw.certificate.half_class))

        report["code"] = runner.time("code", read)
    _export(args, graph, report)
    return report


def cmd_code(args, runner: _Runner) -> dict:
    graph, certificate = _gamma(args, runner)

    def read() -> dict:
        code, _, dist = distinguish.read_gamma(graph, certificate)
        return _code_report(code, dist)

    report = {"code": runner.time("code", read)}
    expected = codes.expected_gamma_weight_distribution(args.n, args.kind)
    got = dict((w, c) for w, c in report["code"]["weight_distribution"])
    runner.check("weight_distribution_matches_table", got == expected)
    return report


def _family_report_dict(rep: distinguish.FamilyReport) -> dict:
    return {
        "members": [
            {
                "name": m.name,
                "t": m.t,
                "variant": m.variant,
                "two_rank": m.sig.two_rank,
                "min_weight": m.sig.min_weight,
                "min_word_profiles": [  # one entry per word, repeated, not copied
                    entry
                    for (size, degs), count in m.sig.min_word_profiles
                    for entry in [{"support_size": size, "induced_degrees": list(degs)}] * count
                ],
            }
            for m in rep.members
        ],
        "pairs": [
            {
                "first": p.first,
                "second": p.second,
                "distinct": p.distinct,
                "invariant": p.invariant,
                "cross_checked_isomorphic": p.cross_checked,
            }
            for p in rep.pairs
        ],
        "distinct_count": rep.distinct_count,
        "computed_switched": rep.computed_switched,
        "claimed_switched": rep.claimed_switched,
        "claim_discrepancy": rep.claim_discrepancy,
    }


def cmd_classify_family(args, runner: _Runner) -> dict:
    family = runner.time("build_family", lambda: distinguish.build_family(args.n, args.kind))
    rep = runner.time("classify", lambda: distinguish.classify_family(family))
    runner.check("all_pairs_separated", all(p.distinct for p in rep.pairs))
    if any(p.cross_checked is not None for p in rep.pairs):
        runner.check(
            "cross_check_agrees",
            all(p.cross_checked is False for p in rep.pairs),
        )
    return {"family": _family_report_dict(rep)}


def _check_quadric_size(form, runner: _Runner, report: dict) -> None:
    got = form.zero_mask.bit_count()
    report["quadric_sizes"][f"{form.kind}_{form.n}"] = got
    runner.check(f"quadric_size_{form.kind}_n{form.n}", got == quadric_size(form.n, form.kind))


def _verify_family(n: int, kind: str, runner: _Runner, report: dict) -> None:
    """Build kind's family at n and write its checks into report's sections.
    build_family has checked each switched graph and dropped it, and the
    family is dropped on return, before the next kind is built."""
    family = runner.time(f"build_family_{kind}", lambda: distinguish.build_family(n, kind))
    form, params, gamma = family.certificate.form, family.certificate.params, family.members[0]

    _check_quadric_size(form, runner, report)
    report["srg"][kind] = _params_dict(params)
    expected = expected_params(n, kind)
    runner.check(f"srg_{kind}", params == expected)

    if n == 5:  # each external line through x holds two of x's k neighbours
        counts = {count_external_lines_through(form, x) for x in form.labels}
        report["external_lines_per_point"][kind] = sorted(counts)
        runner.check(f"external_lines_{kind}", counts == {expected.k // 2})

    for m in family.members[1:]:
        sw, t, variant, code, words = m.switch, m.t, m.variant, m.code, m.words
        tag = f"{kind}_{variant}{t}"
        s_size, induced_degree, t_size = switching.expected_switch(n, kind, t, variant)
        entry = _switch_report(sw)
        runner.check(f"t_formula_{tag}", entry["t_formula_equals_half_class"])
        runner.check(f"induced_degree_{tag}", sw.certificate.induced_degree == induced_degree)
        runner.check(f"s_size_{tag}", sw.s.bit_count() == s_size)
        runner.check(f"t_size_{tag}", sw.t_set.bit_count() == t_size)
        runner.check(f"switched_srg_{tag}", m.params == params)

        v_s, v_t = sw.s, sw.t_set
        entry["code"] = {
            "dimension": code.dim,
            "min_weight": words[0].bit_count(),
            "min_word_count": len(words),
        }
        runner.check(f"code_dim_{tag}", code.dim == n + 3)
        runner.check(f"code_min_weight_{tag}", words[0].bit_count() == s_size)
        runner.check(f"v_s_is_min_word_{tag}", v_s in words)
        runner.check(f"v_s_in_switched_code_{tag}", codes.contains(code, v_s))
        runner.check(f"v_t_in_switched_code_{tag}", codes.contains(code, v_t))
        runner.check(f"v_t_not_in_base_code_{tag}", not codes.contains(gamma.code, v_t))
        joined = codes.from_vectors(family.gamma.v, gamma.code.basis + (v_s, v_t))
        runner.check(f"switched_code_is_augmented_base_{tag}", joined.basis == code.basis)
        report["switches"][tag] = entry

    dist = dict(family.weights)
    report["codes"][kind] = {
        "dimension": gamma.code.dim,
        "weight_distribution": [[w, c] for w, c in sorted(dist.items())],
    }
    runner.check(f"gamma_code_dim_{kind}", gamma.code.dim == n + 1)
    runner.check(
        f"gamma_weight_distribution_{kind}",
        dist == codes.expected_gamma_weight_distribution(n, kind),
    )

    rep = runner.time(f"classify_{kind}", lambda: distinguish.classify_family(family))
    report["families"][kind] = _family_report_dict(rep)
    runner.check(f"family_all_pairs_separated_{kind}", all(p.distinct for p in rep.pairs))
    expected_members = 1 + len(switching.legal_t_range(n, kind, "t")) + len(
        switching.legal_t_range(n, kind, "tt")
    )
    runner.check(f"family_count_{kind}", rep.distinct_count == expected_members)


def verify_all(n: int, runner: _Runner) -> dict:
    """Every check the library makes at one projective dimension, one quadric
    kind at a time."""
    report: dict = {"n": n, "quadric_sizes": {}, "srg": {}, "switches": {}, "codes": {}, "families": {}}
    if n == 5:
        report["external_lines_per_point"] = {}
    for kind in (ELLIPTIC, HYPERBOLIC):
        _verify_family(n, kind, runner, report)
    _check_quadric_size(canonical_form(n - 1, PARABOLIC), runner, report)
    return report


def cmd_verify_all(args, runner: _Runner) -> dict:
    return runner.time("verify_all", lambda: verify_all(args.n, runner))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, made on the first request and reused by the rest."""
    parser = argparse.ArgumentParser(
        prog="quadswitch",
        description="quadric graphs in PG(n,2), their switches, and their codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kinds=True):
        p.add_argument("--n", type=int, required=True, help="projective dimension")
        if kinds:
            p.add_argument("--kind", choices=[ELLIPTIC, HYPERBOLIC], required=True)
        p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("construct", help="build the quadric graph")
    common(p)
    p.add_argument("--verify", action="store_true", help="check strong regularity")
    p.add_argument("--export-graph", help="write graph6 + .labels files")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("switch", help="switch the quadric graph")
    common(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--variant", choices=["t", "tt"], default="t")
    p.add_argument("--seed-choice", type=int, default=0, help="use the k-th flag instead of the first")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--code", action="store_true", help="report the switched graph's code")
    p.add_argument("--export-graph", help="write graph6 + .labels files")
    p.set_defaults(fn=cmd_switch)

    p = sub.add_parser("code", help="code of the quadric graph (switch --code gives a switch's)")
    common(p)
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("classify-family", help="signatures and pairwise evidence")
    common(p)
    p.set_defaults(fn=cmd_classify_family)

    p = sub.add_parser("verify-all", help="run every check at one dimension")
    common(p, kinds=False)
    p.set_defaults(fn=cmd_verify_all)

    return parser


_WORDS = {None: "null", True: "true", False: "false"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(value, file) -> None:
    """Write json.dumps(value, indent=2, sort_keys=True) and a newline to file,
    piece by piece.  Dict keys are strings.  Each list of ints is rendered
    once per depth, since its indentation depends on the depth, and kept by
    identity: value holds every list until the write ends, so no id is reused."""
    put = file.write
    memo: dict = {}

    def walk(v, depth: int) -> None:
        if isinstance(v, str):
            put(encode_basestring_ascii(v))
        elif v is None or v is True or v is False:
            put(_WORDS[v])
        elif isinstance(v, int):
            put(int.__repr__(v))
        elif isinstance(v, float):
            text = float.__repr__(v)
            put(_NONFINITE.get(text, text))
        elif not isinstance(v, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
        elif (id(v), depth) in memo:
            put(memo[id(v), depth])
        elif not v:
            put("{}" if isinstance(v, dict) else "[]")
        else:
            inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
            if isinstance(v, dict):
                sep = "{" + inner
                for key in sorted(v):
                    put(sep + encode_basestring_ascii(key) + ": ")
                    walk(v[key], depth + 1)
                    sep = "," + inner
                put(outer + "}")
            elif set(map(type, v)) == {int}:  # no bools: they print as true and false
                text = "[" + inner + ("," + inner).join(map(int.__repr__, v)) + outer + "]"
                put(memo.setdefault((id(v), depth), text))
            else:
                sep = "[" + inner
                for item in v:
                    put(sep)
                    walk(item, depth + 1)
                    sep = "," + inner
                put(outer + "]")

    walk(value, 0)
    put("\n")


def _create(stack: contextlib.ExitStack, flag: str, path: str, mode: str):
    """path opened for writing in mode (text is ASCII) until stack closes; a
    failure is an OSError that names the flag."""
    try:
        return stack.enter_context(open(path, mode, encoding="ascii" if mode == "w" else None))
    except OSError as exc:
        raise OSError(f"{flag}: cannot create {path!r}: {exc.strerror}") from exc


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    runner = _Runner()
    report: dict = {
        "request": {
            "command": args.command,
            "n": args.n,
            "kind": getattr(args, "kind", None),
            "t": getattr(args, "t", None),
            "variant": getattr(args, "variant", None),
            "seed_choice": getattr(args, "seed_choice", None),
        }
    }
    error = None
    with contextlib.ExitStack() as stack:
        outs, args.export_files = [], []
        try:
            # open every output before any work, not after the report is printed
            export = getattr(args, "export_graph", None)
            exports = (export, export + ".labels") if export else ()
            if args.out and os.path.realpath(args.out) in map(os.path.realpath, exports):
                raise OSError(f"--out: {args.out!r} is a file that --export-graph writes")
            if args.out:
                outs.append(_create(stack, "--out", args.out, "w"))
            for path in exports:
                args.export_files.append(_create(stack, "--export-graph", path, "wb"))
            report.update(args.fn(args, runner))
        except (QuadswitchError, OSError) as exc:
            report["error"] = error = str(exc)
            for fh in args.export_files:  # a failed request leaves no export files
                with contextlib.suppress(OSError):  # the close flushes, and may fail as the write did
                    fh.close()
                if os.path.isfile(fh.name):
                    os.remove(fh.name)
        report["checks"] = runner.checks
        report["timings"] = runner.timings
        errors = [error] if error is not None else []
        for fh in [sys.stdout, *outs]:
            try:
                _write_json(report, fh)
                fh.flush()
            except OSError as exc:
                name = "stdout" if fh is sys.stdout else repr(fh.name)
                errors.append(f"cannot write the report to {name}: {exc.strerror or exc}")
                with contextlib.suppress(OSError):  # drop what it holds, not flushed again at exit
                    fh.close()
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    if errors:
        return 1
    failures = runner.failures
    if failures:
        print("failed checks: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
