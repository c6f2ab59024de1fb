"""The benchmark's workloads and their seeded request generation.

A workload is a list of *groups*.  Each group is a list of CLI argv lists that
one fresh interpreter runs one at a time, so a run costs what a CLI user pays.
The seed only picks requests; the library sees plain argv.

Every request a seed can produce comes from a fixed pool whose outputs were
recorded at the seed commit (reference.json), so each one can be checked
byte for byte.  The pools are laid out so that every seed asks for about the
same amount of work: the seed moves *which* flags are used, not how many.
"""

from __future__ import annotations

import random

ELLIPTIC, HYPERBOLIC = "elliptic", "hyperbolic"
KINDS = (ELLIPTIC, HYPERBOLIC)

# switch-n11: k is drawn from this grid.  Beyond k ~ 21 the flag search at
# t = 4 grows to a quarter of the request (1 s at hyperbolic t = 4, k = 63),
# and the flag search is flags-n7's job.
N11_CHOICES = (0, 7, 14, 21)

# flags-n7: k is drawn in mirrored pairs (base + o, base + 999 - o) inside
# each 1000-wide stratum of [0, 2000).  The request time grows about linearly
# in k, so a mirrored pair costs the same whatever o the seed draws.
N7_STRATA = (0, 1000)
N7_OFFSETS = (0, 63, 126, 189, 252, 315, 378, 441)

EXPORT_NAME = "graph.g6"


def legal_combos(n: int) -> list[tuple[str, int, str]]:
    """(kind, t, variant) with a guaranteed flag: 0 < t <= (n-3)/2, and for the
    two-space variant on hyperbolic quadrics t <= (n-5)/2."""
    out = []
    for kind in KINDS:
        for variant in ("t", "tt"):
            top = (n - 5) // 2 if (variant == "tt" and kind == HYPERBOLIC) else (n - 3) // 2
            out.extend((kind, t, variant) for t in range(1, top + 1))
    return out


def switch_argv(n: int, kind: str, t: int, variant: str, choice: int, export: bool) -> list[str]:
    argv = [
        "switch", "--n", str(n), "--kind", kind, "--t", str(t), "--variant", variant,
        "--seed-choice", str(choice), "--verify", "--code",
    ]
    if export:
        argv += ["--export-graph", EXPORT_NAME]
    return argv


def _n11(kind, t, variant, k):
    return switch_argv(11, kind, t, variant, k, export=True)


def _n7(kind, t, variant, k):
    return switch_argv(7, kind, t, variant, k, export=False)


def _verify_n9(rng):
    return [[["verify-all", "--n", "9"]]]


def _iso_n5(rng):
    return [[["verify-all", "--n", "5"]]]


def _switch_n11(rng):
    # one group per kind, because v (and so the cost) depends on the kind
    groups = []
    for kind in KINDS:
        kind_t_variant = rng.choice([c for c in legal_combos(11) if c[0] == kind])
        groups.append([_n11(*kind_t_variant, rng.choice(N11_CHOICES))])
    return groups


def _flags_n7(rng):
    batch = []
    for combo in legal_combos(7):
        for base in N7_STRATA:
            o = rng.choice(N7_OFFSETS)
            batch.append(_n7(*combo, base + o))
            batch.append(_n7(*combo, base + 999 - o))
    rng.shuffle(batch)
    return [batch]


WORKLOADS = {
    "verify-n9": _verify_n9,
    "iso-n5": _iso_n5,
    "switch-n11": _switch_n11,
    "flags-n7": _flags_n7,
}


def generate(workload: str, seed: int) -> list[list[list[str]]]:
    """The groups of requests one benchmark run repeats, fixed by the seed."""
    return WORKLOADS[workload](random.Random(seed))


def pool() -> list[list[str]]:
    """Every request any seed can generate; reference.json covers exactly these."""
    out = [["verify-all", "--n", "9"], ["verify-all", "--n", "5"]]
    out += [_n11(*c, k) for c in legal_combos(11) for k in N11_CHOICES]
    out += [
        _n7(*c, k)
        for c in legal_combos(7)
        for base in N7_STRATA
        for o in N7_OFFSETS
        for k in (base + o, base + 999 - o)
    ]
    return out
