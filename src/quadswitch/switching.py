"""Switching sets for the quadric graph and the Godsil-McKay switch itself.

The two constructions: S = Pi \\ alpha for a (t+1)-space Pi meeting the
quadric in exactly a singular t-space alpha, and S = (Pi u Pi') \\ alpha
for two such spaces whose span still meets the quadric in exactly alpha.
The vertices with half of S as neighbours admit a closed form through the
polarity (the T-sets), which is checked against brute-force counting.

All searches are deterministic: candidates are scanned in increasing point
order, so the "first" flag is reproducible, and an index argument exposes
the k-th flag in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from .gf2geom import (
    HYPERBOLIC,
    QuadraticForm,
    Subspace,
    bilinear,
    nonquadric_points,
    perp,
    span,
)
from .srg import Graph


class SwitchingError(ValueError):
    """Invalid switching configuration or precondition."""


class SearchExhausted(SwitchingError):
    """A deterministic search ran out of candidates."""


class NotSwitchingSet(SwitchingError):
    """The none/half/all partition fails; carries a witness vertex."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# --- deterministic searches for (alpha, Pi, Pi') flags ------------------------


def iter_singular_subspaces(form: QuadraticForm, t: int) -> Iterator[Subspace]:
    """Projective t-spaces inside the quadric, in lexicographic order.

    A subspace lies in the quadric iff its basis points are singular and
    pairwise orthogonal under the polarization, so the search extends
    increasing chains of such points, backtracking when stuck.  A chain is
    extended by q only when q is the least point of its coset q + <chain>,
    i.e. q holds none of the chain's top bits.  The chains are then exactly
    the reduced echelon bases in increasing order, so each space is reached
    once, through its lexicographically first chain.
    """
    if t < 0:
        raise SwitchingError(f"t must be >= 0, got {t}")
    qpts = [p for p in range(1, 1 << (form.n + 1)) if form.contains(p)]

    def extend(chain: list[int], pivots: int) -> Iterator[Subspace]:
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


def find_singular_subspace(form: QuadraticForm, t: int, index: int = 0) -> Subspace:
    """The index-th (lex order) t-space contained in the quadric."""
    sub = next(islice(iter_singular_subspaces(form, t), index, None), None)
    if sub is None:
        raise SearchExhausted(
            f"no singular {t}-space #{index} in the {form.kind} quadric of PG({form.n},2)"
        )
    return sub


def _coset_off_quadric(form: QuadraticForm, x: int, space_vectors: list[int]) -> bool:
    zeros = form.zero_mask
    return all(not (zeros >> (x ^ s)) & 1 for s in space_vectors)


def _perp_off_quadric(form: QuadraticForm, alpha: Subspace) -> list[int]:
    """The points of alpha-perp off the quadric, where every extension point lies."""
    return [x for x in perp(form, alpha).points() if not form.contains(x)]


def _extensions(
    form: QuadraticForm, alpha: Subspace, candidates: list[int], space: Subspace
) -> Iterator[Subspace]:
    """The spaces <alpha, x>, one per coset x + alpha, for the candidates x
    whose whole coset x + <space> avoids the quadric, in candidate order.
    That coset holds alpha when x lies in `space`, so such x are skipped too."""
    avec = [0] + alpha.points()
    svec = [0] + space.points()
    seen: set[frozenset[int]] = set()
    for x in candidates:
        if not _coset_off_quadric(form, x, svec):
            continue
        coset = frozenset(x ^ a for a in avec)
        if coset in seen:
            continue
        seen.add(coset)
        yield span(form.n, list(alpha.basis) + [x])


def iter_tangent_spaces(form: QuadraticForm, alpha: Subspace) -> Iterator[Subspace]:
    """(t+1)-spaces through alpha meeting the quadric in exactly alpha, lex order.

    Any such space lies in alpha-perp, so only extension points there are tried.
    """
    yield from _extensions(form, alpha, _perp_off_quadric(form, alpha), alpha)


def find_tangent_space(form: QuadraticForm, alpha: Subspace, index: int = 0) -> Subspace:
    """The index-th (t+1)-space meeting the quadric in exactly alpha."""
    sub = next(islice(iter_tangent_spaces(form, alpha), index, None), None)
    if sub is None:
        raise SearchExhausted(
            f"no tangent space #{index} through the given {alpha.projective_dim}-space"
        )
    return sub


def iter_second_tangent_spaces(
    form: QuadraticForm, alpha: Subspace, pi: Subspace
) -> Iterator[Subspace]:
    """Partners Pi' of Pi: span(Pi, Pi') still meets the quadric in exactly alpha.

    Valid extension points again lie in alpha-perp (never in Pi-perp, since
    points of Pi' \\ alpha are non-orthogonal to points of Pi \\ alpha), and
    the whole affine coset x + <Pi> must avoid the quadric.
    """
    yield from _extensions(form, alpha, _perp_off_quadric(form, alpha), pi)


def find_second_tangent_space(
    form: QuadraticForm, alpha: Subspace, pi: Subspace, index: int = 0
) -> Subspace:
    """The index-th valid partner Pi', or a not-found error if none exists."""
    sub = next(islice(iter_second_tangent_spaces(form, alpha, pi), index, None), None)
    if sub is None:
        raise SearchExhausted(
            f"no second tangent space (pi2) #{index}: the span condition has no solution here"
        )
    return sub


# --- configurations ------------------------------------------------------------


@dataclass(frozen=True)
class SwitchConfig:
    """A switching flag (alpha, Pi[, Pi']) for one quadric, checked on construction."""

    form: QuadraticForm
    t: int
    alpha: Subspace
    pi: Subspace
    pi2: Optional[Subspace] = None

    def __post_init__(self) -> None:
        form, t = self.form, self.t
        n = form.n
        if t not in legal_t_range(n, form.kind, self.variant):
            raise SwitchingError(f"t={t} outside the legal range of variant {self.variant} for n={n}")
        if self.alpha.projective_dim != t:
            raise SwitchingError("alpha has the wrong dimension")
        if not all(form.contains(p) for p in self.alpha.points()):
            raise SwitchingError("alpha is not contained in the quadric")
        self._check_tangent(self.pi, "pi")
        if self.pi2 is not None:
            self._check_tangent(self.pi2, "pi2")
            if self.pi2 == self.pi:
                raise SwitchingError("pi2 must differ from pi")
            joint = span(form.n, list(self.pi.basis) + list(self.pi2.basis))
            if joint.projective_dim != t + 2:
                raise SwitchingError("span(pi, pi2) has the wrong dimension")
            on_q = [p for p in joint.points() if form.contains(p)]
            if sorted(on_q) != self.alpha.points():
                raise SwitchingError("span(pi, pi2) meets the quadric beyond alpha")

    def _check_tangent(self, sub: Subspace, name: str) -> None:
        if sub.projective_dim != self.t + 1:
            raise SwitchingError(f"{name} has the wrong dimension")
        if not self.alpha.is_subspace_of(sub):
            raise SwitchingError(f"{name} does not contain alpha")
        on_q = [p for p in sub.points() if self.form.contains(p)]
        if sorted(on_q) != self.alpha.points():
            raise SwitchingError(f"{name} meets the quadric beyond alpha")

    @property
    def variant(self) -> str:
        return "t" if self.pi2 is None else "tt"


def legal_t_range(n: int, kind: str, variant: str) -> range:
    """The t values for which a flag (alpha, Pi[, Pi']) is guaranteed to exist."""
    if variant == "t":
        return range(1, (n - 3) // 2 + 1)
    if variant == "tt":
        top = (n - 5) // 2 if kind == HYPERBOLIC else (n - 3) // 2
        return range(1, top + 1)
    raise SwitchingError(f"unknown variant {variant!r}")


def iter_flags(
    form: QuadraticForm, t: int, variant: str
) -> Iterator[tuple[Subspace, Subspace, Optional[Subspace]]]:
    """All switching flags (alpha, Pi, Pi' or None) for (t, variant) in nested
    lexicographic order.  Plain tuples, so flags skipped over cost no validation."""
    for alpha in iter_singular_subspaces(form, t):
        candidates = _perp_off_quadric(form, alpha)  # shared by every Pi and Pi' under alpha
        for pi in _extensions(form, alpha, candidates, alpha):
            if variant == "t":
                yield alpha, pi, None
            else:
                for pi2 in _extensions(form, alpha, candidates, pi):
                    yield alpha, pi, pi2


def make_config(form: QuadraticForm, t: int, variant: str, choice: int = 0) -> SwitchConfig:
    """The choice-th switching flag, after checking the existence bounds."""
    if t not in legal_t_range(form.n, form.kind, "t"):
        raise SearchExhausted(
            f"no flag: t={t} outside the existence range 0 < t <= (n-3)/2 for n={form.n}"
        )
    if t not in legal_t_range(form.n, form.kind, variant):
        raise SearchExhausted(
            f"no second tangent space (pi2) exists: t={t} exceeds (n-5)/2 = "
            f"{(form.n - 5) // 2} for hyperbolic quadrics"
        )
    if choice < 0:
        raise SwitchingError(f"the flag choice must be >= 0, got {choice}")
    flag = next(islice(iter_flags(form, t, variant), choice, None), None)
    if flag is None:
        raise SearchExhausted(f"fewer than {choice + 1} flags exist for t={t}, variant {variant}")
    return SwitchConfig(form, t, *flag)


# --- switching sets and the switch ---------------------------------------------


def _vertex_index(form: QuadraticForm) -> dict[int, int]:
    return {p: i for i, p in enumerate(nonquadric_points(form))}


def build_S(config: SwitchConfig) -> frozenset[int]:
    """The switching set as vertex indices of the canonical quadric graph."""
    idx = _vertex_index(config.form)
    pts = set(config.pi.points())
    if config.pi2 is not None:
        pts |= set(config.pi2.points())
    pts -= set(config.alpha.points())
    return frozenset(idx[p] for p in pts)


def _mask(vertices) -> int:
    mask = 0
    for i in vertices:
        mask |= 1 << i
    return mask


@dataclass(frozen=True)
class SwitchCertificate:
    """Witness that S satisfies the switching conditions on a given graph."""

    s_vertices: frozenset[int]
    none_class: frozenset[int]
    half_class: frozenset[int]
    all_class: frozenset[int]
    induced_degree: int


def validate_switching_set(g: Graph, s_vertices) -> SwitchCertificate:
    """Check the none/half/all partition and induced regularity, or raise."""
    s = frozenset(s_vertices)
    if not s:
        raise SwitchingError("switching set is empty")
    if len(s) % 2:
        raise SwitchingError("switching set must have even size")
    if any(not 0 <= i < g.v for i in s):
        raise SwitchingError("switching set contains a non-vertex")
    smask = _mask(s)

    by_degree: dict[int, int] = {}
    for i in sorted(s):
        by_degree.setdefault((g.rows[i] & smask).bit_count(), i)
    if len(by_degree) != 1:
        degs = sorted(by_degree)
        raise NotSwitchingSet(
            f"subgraph induced on S is not regular (degrees {degs})",
            witness=(by_degree[degs[0]], by_degree[degs[1]]),
        )
    induced = next(iter(by_degree))

    half = len(s) // 2
    none_c, half_c, all_c = set(), set(), set()
    for i in range(g.v):
        if (smask >> i) & 1:
            continue
        c = (g.rows[i] & smask).bit_count()
        if c == 0:
            none_c.add(i)
        elif c == half:
            half_c.add(i)
        elif c == len(s):
            all_c.add(i)
        else:
            raise NotSwitchingSet(
                f"vertex {i} has {c} neighbours in S, not 0, {half} or {len(s)}",
                witness=(i, c),
            )
    return SwitchCertificate(s, frozenset(none_c), frozenset(half_c), frozenset(all_c), induced)


def _complement_edges(g: Graph, cert: SwitchCertificate) -> Graph:
    """Complement the edges between S and its half-class; everything else stays."""
    smask = _mask(cert.s_vertices)
    hmask = _mask(cert.half_class)
    rows = list(g.rows)
    for i in cert.half_class:
        rows[i] ^= smask
    for i in cert.s_vertices:
        rows[i] ^= hmask
    return Graph(g.labels, tuple(rows))


def gm_switch(g: Graph, s_vertices) -> Graph:
    """Validate S on the graph, then complement the edges between S and its half-class."""
    return _complement_edges(g, validate_switching_set(g, s_vertices))


def T_formula(config: SwitchConfig) -> frozenset[int]:
    """The closed-form half-class: vertices off alpha-perp, plus, for the
    two-space construction, the non-quadric part of (Pi-perp symdiff
    Pi'-perp) outside S."""
    form = config.form
    labels = nonquadric_points(form)
    a_perp = perp(form, config.alpha).point_mask()
    out = {i for i, p in enumerate(labels) if not (a_perp >> p) & 1}
    if config.pi2 is not None:
        sym = perp(form, config.pi).point_mask() ^ perp(form, config.pi2).point_mask()
        s_points = (set(config.pi.points()) | set(config.pi2.points())) - set(
            config.alpha.points()
        )
        out |= {
            i
            for i, p in enumerate(labels)
            if (sym >> p) & 1 and p not in s_points
        }
    return frozenset(out)


def expected_T_size(n: int, kind: str, t: int, variant: str) -> int:
    """Closed-form |T|: 2^n - 2^(n-t-1), or for the two-space construction
    2^n +- 2^((n-1)/2) - 2^(n-t-2) - 2^(t+2) (upper sign elliptic)."""
    if variant == "t":
        return (1 << n) - (1 << (n - t - 1))
    sign = 1 if kind == "elliptic" else -1
    return (1 << n) + sign * (1 << ((n - 1) // 2)) - (1 << (n - t - 2)) - (1 << (t + 2))


@dataclass(frozen=True)
class Switch:
    """One Godsil-McKay switch of the canonical quadric graph: the flag, the
    certificate that S is a switching set, the switched graph and the
    closed-form T-set.  Make it with build_switch, which checks S once."""

    config: SwitchConfig
    certificate: SwitchCertificate
    graph: Graph
    t_set: frozenset[int]

    @property
    def s(self) -> frozenset[int]:
        return self.certificate.s_vertices


def build_switch(gamma: Graph, config: SwitchConfig) -> Switch:
    """Switch the canonical graph of config.form at the flag's switching set.

    Raises NotSwitchingSet (with a witness) if S fails the none/half/all
    partition on gamma; T_formula is reported, not asserted, against the
    certificate's half-class.
    """
    cert = validate_switching_set(gamma, build_S(config))
    return Switch(config, cert, _complement_edges(gamma, cert), T_formula(config))
