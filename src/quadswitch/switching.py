"""Switching sets for the quadric graph and the Godsil-McKay switch itself.

The two constructions: S = Pi \\ alpha for a (t+1)-space Pi meeting the
quadric in exactly a singular t-space alpha, and S = (Pi u Pi') \\ alpha
for two such spaces whose span still meets the quadric in exactly alpha.
The vertices with half of S as neighbours admit a closed form through the
polarity (the T-sets), which is checked against brute-force counting.

All searches are deterministic: candidates are scanned in increasing point
order, so the "first" flag is reproducible, and an index argument exposes
the k-th flag in the same order.

The flag searches work on point masks (see gf2geom).  They rest on two
identities of Q(x+y) = Q(x) + Q(y) + B(x,y):

* For x in alpha-perp and a in alpha, Q(x+a) = Q(x).  So each coset
  x + alpha with x in alpha-perp off the quadric avoids the quadric, and
  the tangent spaces Pi through alpha are the spaces <alpha, y>, one per
  pivot-free candidate y: a point of alpha-perp off the quadric holding
  none of alpha's pivot bits, which is the least point of its coset.
* For x, y in alpha-perp off the quadric and a in alpha, Q(x+y+a) = B(x,y).
  So <alpha, x> is a valid Pi' for Pi = <alpha, y> exactly when x is a
  pivot-free candidate with B(x,y) = 1.

The singular t-spaces are walked as chains carrying two masks, alpha-perp
(an AND of hyperplanes) and the pivot-free points, so the flags under one
alpha are counted by one popcount (or one per Pi for the two-space
construction), and make_config skips them without building anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from .gf2geom import HYPERBOLIC, PointMasks, QuadraticForm, Subspace, perp, span
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


def _bits(mask: int) -> Iterator[int]:
    """The set bit positions of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _PointMasks(PointMasks):
    """The flag walk on the point masks of one form, made per search."""

    def candidates(self, alpha: Subspace) -> int:
        """The pivot-free points of alpha-perp off the quadric."""
        perp, free = self.ones, self.ones
        for b in alpha.basis:  # reduced echelon: the pivots are the top bits
            perp &= ~self.nonorth(b)
            free &= self.halves[b.bit_length() - 1]
        return self.off & perp & free

    def singular_chains(self, t: int) -> Iterator[tuple[list[int], int]]:
        """(chain, candidates) for each singular t-space in lexicographic order:
        its basis as an increasing chain, and the pivot-free points of its
        perp off the quadric."""
        if t < 0:
            raise SwitchingError(f"t must be >= 0, got {t}")
        zeros, halves, off = self.form.zero_mask, self.halves, self.off

        def extend(chain: list[int], perp: int, free: int):
            above = -(2 << chain[-1]) if chain else -2  # the points past the last one
            for q in _bits(zeros & perp & free & above):
                q_perp, q_free = perp & ~self.nonorth(q), free & halves[q.bit_length() - 1]
                if len(chain) == t:
                    yield chain + [q], off & q_perp & q_free
                else:
                    yield from extend(chain + [q], q_perp, q_free)

        return extend([], self.ones, self.ones)

    def flag_groups(self, t: int, variant: str) -> Iterator[tuple[list[int], Optional[int], int]]:
        """(chain, y, points) in flag order: the Pi points under each singular
        space (y None), or for tt the Pi' points of each Pi = <alpha, y>."""
        for chain, cand in self.singular_chains(t):
            if variant == "t":
                yield chain, None, cand
            else:
                for y in _bits(cand):
                    yield chain, y, cand & self.nonorth(y)


def _check_singular(form: QuadraticForm, alpha: Subspace) -> None:
    if alpha.n != form.n:
        raise SwitchingError("alpha and the form live in different spaces")
    if not all(form.contains(p) for p in alpha.points()):
        raise SwitchingError("alpha is not contained in the quadric")


def _check_tangent(form: QuadraticForm, alpha: Subspace, sub: Subspace, name: str) -> None:
    if sub.n != form.n or sub.projective_dim != alpha.projective_dim + 1:
        raise SwitchingError(f"{name} has the wrong dimension")
    if not alpha.is_subspace_of(sub):
        raise SwitchingError(f"{name} does not contain alpha")
    on_q = [p for p in sub.points() if form.contains(p)]
    if sorted(on_q) != alpha.points():
        raise SwitchingError(f"{name} meets the quadric beyond alpha")


def _extend(alpha: Subspace, x: int) -> Subspace:
    """The space <alpha, x>."""
    return span(alpha.n, [*alpha.basis, x])


def _flag(
    n: int, chain: list[int], y: Optional[int], x: int
) -> tuple[Subspace, Subspace, Optional[Subspace]]:
    """The flag (alpha, Pi, Pi' or None) that point x of a flag group picks."""
    alpha = Subspace(n, tuple(reversed(chain)))
    if y is None:
        return alpha, _extend(alpha, x), None
    return alpha, _extend(alpha, y), _extend(alpha, x)


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
    chains = _PointMasks(form).singular_chains(t)
    return (Subspace(form.n, tuple(reversed(chain))) for chain, _ in chains)


def _nth(items: Iterator, index: int, message: str):
    """The index-th item; SwitchingError for a negative index, and
    SearchExhausted(message) past the end."""
    if index < 0:
        raise SwitchingError(f"the index must be >= 0, got {index}")
    item = next(islice(items, index, None), None)
    if item is None:
        raise SearchExhausted(message)
    return item


def find_singular_subspace(form: QuadraticForm, t: int, index: int = 0) -> Subspace:
    """The index-th (lex order) t-space contained in the quadric."""
    return _nth(
        iter_singular_subspaces(form, t),
        index,
        f"no singular {t}-space #{index} in the {form.kind} quadric of PG({form.n},2)",
    )


def iter_tangent_spaces(form: QuadraticForm, alpha: Subspace) -> Iterator[Subspace]:
    """(t+1)-spaces through alpha meeting the quadric in exactly alpha, lex order.

    They are the spaces <alpha, y> for the pivot-free points y of alpha-perp
    off the quadric, one per coset y + alpha, in the order of y.
    """
    _check_singular(form, alpha)
    return (_extend(alpha, y) for y in _bits(_PointMasks(form).candidates(alpha)))


def find_tangent_space(form: QuadraticForm, alpha: Subspace, index: int = 0) -> Subspace:
    """The index-th (t+1)-space meeting the quadric in exactly alpha."""
    return _nth(
        iter_tangent_spaces(form, alpha),
        index,
        f"no tangent space #{index} through the given {alpha.projective_dim}-space",
    )


def iter_second_tangent_spaces(
    form: QuadraticForm, alpha: Subspace, pi: Subspace
) -> Iterator[Subspace]:
    """Partners Pi' of Pi: span(Pi, Pi') still meets the quadric in exactly alpha.

    With Pi = <alpha, y>, they are the spaces <alpha, x> for the pivot-free
    points x of alpha-perp off the quadric with B(x, y) = 1, in the order of x.
    """
    _check_singular(form, alpha)
    _check_tangent(form, alpha, pi, "pi")
    y = next(p for p in pi.points() if not alpha.contains(p))
    masks = _PointMasks(form)
    return (_extend(alpha, x) for x in _bits(masks.candidates(alpha) & masks.nonorth(y)))


def find_second_tangent_space(
    form: QuadraticForm, alpha: Subspace, pi: Subspace, index: int = 0
) -> Subspace:
    """The index-th valid partner Pi', or a not-found error if none exists."""
    return _nth(
        iter_second_tangent_spaces(form, alpha, pi),
        index,
        f"no second tangent space (pi2) #{index}: the span condition has no solution here",
    )


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
        _check_singular(form, self.alpha)
        _check_tangent(form, self.alpha, self.pi, "pi")
        if self.pi2 is not None:
            _check_tangent(form, self.alpha, self.pi2, "pi2")
            if self.pi2 == self.pi:
                raise SwitchingError("pi2 must differ from pi")
            joint = span(form.n, list(self.pi.basis) + list(self.pi2.basis))
            if joint.projective_dim != t + 2:
                raise SwitchingError("span(pi, pi2) has the wrong dimension")
            on_q = [p for p in joint.points() if form.contains(p)]
            if sorted(on_q) != self.alpha.points():
                raise SwitchingError("span(pi, pi2) meets the quadric beyond alpha")

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
    for chain, y, points in _PointMasks(form).flag_groups(t, variant):
        for x in _bits(points):
            yield _flag(form.n, chain, y, x)


def make_config(form: QuadraticForm, t: int, variant: str, choice: int = 0) -> SwitchConfig:
    """The choice-th switching flag, after checking the existence bounds.

    The walk counts the flags under each singular space (one popcount per
    alpha, or per Pi for variant tt) and skips them whole; subspaces are
    made only for the chosen flag.
    """
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
    left = choice
    for chain, y, points in _PointMasks(form).flag_groups(t, variant):
        count = points.bit_count()
        if left < count:
            x = next(islice(_bits(points), left, None))
            return SwitchConfig(form, t, *_flag(form.n, chain, y, x))
        left -= count
    raise SearchExhausted(f"fewer than {choice + 1} flags exist for t={t}, variant {variant}")


# --- switching sets and the switch ---------------------------------------------


def _s_points(config: SwitchConfig) -> int:
    """The point mask of S: Pi, or Pi u Pi', without alpha."""
    pts = config.pi.point_mask()
    if config.pi2 is not None:
        pts |= config.pi2.point_mask()
    return pts & ~config.alpha.point_mask()


def _vertex_set(form: QuadraticForm, points: int) -> frozenset[int]:
    """The vertices of the canonical quadric graph among a mask's points."""
    # copied from a set, the frozenset's table fits its length: half of what
    # growing it bit by bit leaves (64 KiB for T at n = 11)
    return frozenset(set(_bits(PointMasks(form).vertices(points))))


def build_S(config: SwitchConfig) -> frozenset[int]:
    """The switching set as vertex indices of the canonical quadric graph."""
    return _vertex_set(config.form, _s_points(config))


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
    out = ~perp(form, config.alpha).point_mask()
    if config.pi2 is not None:
        sym = perp(form, config.pi).point_mask() ^ perp(form, config.pi2).point_mask()
        out |= sym & ~_s_points(config)
    return _vertex_set(form, out)


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
