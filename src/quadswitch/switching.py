"""Switching sets for the quadric graph and the Godsil-McKay switch itself.

The two constructions, for a singular space alpha of projective dimension
t: S = Pi \\ alpha for a (t+1)-space Pi meeting the quadric in exactly
alpha, and S = (Pi u Pi') \\ alpha for two such spaces whose span still
meets the quadric in exactly alpha.  The vertices with half of S as
neighbours admit a closed form through the polarity (the T-sets), which is
checked against brute-force counting; expected_switch gives |S|, its
induced degree and |T|.

S, its none/half/all classes and T are vertex masks, ints with bit i for
vertex i like the graph's rows, so v^S and v^T are S and T themselves and
the switch XORs S into the rows of T and T into the rows of S.

make_config is the one way to a flag: the k-th flag of one walk, as a
checked SwitchConfig.  It refuses a form with no quadric graph and a t
outside legal_t_range before the walk starts.  The walk is deterministic:
candidates are scanned in increasing point order, so the "first" flag and
the k-th are reproducible.

The walk works on the form's point masks (see gf2geom).  It rests on two
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
A SwitchConfig checks its flag on point masks too: each of Pi, Pi' and
span(Pi, Pi') has the right dimension, holds alpha, and meets the quadric
(the form's zero mask) in alpha's points and no others.

verify_switch checks a switch with srg.verify_srg_orbit from gamma's rows,
S, its half-class H (proved by build_switch) and the flag's symmetries, and
makes Switch.graph, gamma's rows XOR v_H on S and v_S on H, only where
verify_srg_near decides.  For y on Pi off alpha (y' on Pi'), S is y + alpha
(or that and y' + alpha), and for a vertex w with B(w,a) = 0 the Siegel map
rho_{a,w} = sigma_w sigma_{w+a} acts on a point x of alpha-perp as
x -> x + B(x,w) a.  So with w in alpha-perp and B(w,y) = 1 it translates S
by a, and the reflection in u = y + y' swaps its two cosets; alpha's basis
points then carry S's first vertex over all of S.  When alpha-perp has no
such w (hyperbolic, t = (n-3)/2, where alpha-perp/alpha is a hyperbolic
line whose one nonsingular point is y + alpha), w is taken off alpha-perp
for each point a of alpha, and the maps of points beyond the basis close
the orbit.  switch_orbits offers those maps, the reflections in the
vertices and the Siegel maps of alpha's basis points for every vertex w
with B(w,a) = 0 to srg.symmetry_orbits, for the vertex orbits of
distinguish's cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator, Optional

from . import srg
from .gf2geom import HYPERBOLIC, QuadraticForm, QuadswitchError, Subspace, set_bits, span
from .srg import GammaCertificate, Graph, SrgParams, expected_params, symmetry_orbits, verify_srg_orbit


class SwitchingError(QuadswitchError, ValueError):
    """Invalid switching configuration or precondition."""


class SearchExhausted(SwitchingError):
    """A deterministic search ran out of candidates."""


class NotSwitchingSet(SwitchingError):
    """The none/half/all partition fails; carries a witness vertex."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# --- the flag walk: (alpha, Pi, Pi') ---------------------------------------------


# lazy, unlike gf2geom.set_bits: make_config stops at the choice-th bit
def _bits(mask: int) -> Iterator[int]:
    """The set bit positions of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _off_perp(form: QuadraticForm, space: Subspace) -> int:
    """The points off space-perp: those with B(x, b) = 1 for some basis vector b."""
    out = 0
    for b in space.basis:
        out |= form.nonorth(b)
    return out


def _singular_chains(form: QuadraticForm, t: int) -> Iterator[tuple[list[int], int]]:
    """(chain, candidates) for each singular t-space in lexicographic order:
    its basis as an increasing chain, and the pivot-free points of its perp
    off the quadric.

    A subspace lies in the quadric iff its basis points are singular and
    pairwise orthogonal under the polarization, so the walk extends
    increasing chains of such points, backtracking when stuck.  A chain is
    extended by q only when q is the least point of its coset q + <chain>,
    i.e. q holds none of the chain's top bits.  The chains are then exactly
    the reduced echelon bases in increasing order, so each space is reached
    once, through its lexicographically first chain.
    """
    zeros, halves, off = form.zero_mask, form.halves, form.off

    def extend(chain: list[int], perp: int, free: int):
        above = -(2 << chain[-1]) if chain else -2  # the points past the last one
        for q in _bits(zeros & perp & free & above):
            q_perp, q_free = perp & ~form.nonorth(q), free & halves[q.bit_length() - 1]
            if len(chain) == t:
                yield chain + [q], off & q_perp & q_free
            else:
                yield from extend(chain + [q], q_perp, q_free)

    return extend([], form.ones, form.ones)


def _flag_groups(
    form: QuadraticForm, t: int, variant: str
) -> Iterator[tuple[list[int], Optional[int], int]]:
    """(chain, y, points) in flag order: the Pi points under each singular
    space (y None), or for tt the Pi' points of each Pi = <alpha, y>."""
    for chain, cand in _singular_chains(form, t):
        if variant == "t":
            yield chain, None, cand
        else:
            for y in _bits(cand):
                yield chain, y, cand & form.nonorth(y)


# --- configurations ------------------------------------------------------------


@dataclass(frozen=True)
class SwitchConfig:
    """A switching flag (alpha, Pi[, Pi']) for one quadric, checked on
    construction; its t is alpha's projective dimension."""

    form: QuadraticForm
    alpha: Subspace
    pi: Subspace
    pi2: Optional[Subspace] = None

    def __post_init__(self) -> None:
        form, alpha = self.form, self.alpha
        n, t = form.n, alpha.projective_dim
        if t not in legal_t_range(n, form.kind, self.variant):
            raise SwitchingError(f"t={t} outside the legal range of variant {self.variant} for n={n}")
        if alpha.n != n:
            raise SwitchingError("alpha and the form live in different spaces")
        alpha_mask = alpha.point_mask()
        if alpha_mask & form.off:
            raise SwitchingError("alpha is not contained in the quadric")
        _check_over(form, alpha_mask, self.pi, t + 1, "pi")
        if self.pi2 is not None:
            _check_over(form, alpha_mask, self.pi2, t + 1, "pi2")
            if self.pi2 == self.pi:
                raise SwitchingError("pi2 must differ from pi")
            joint = span(n, self.pi.basis + self.pi2.basis)
            _check_over(form, alpha_mask, joint, t + 2, "span(pi, pi2)")

    @property
    def variant(self) -> str:
        return "t" if self.pi2 is None else "tt"


def _check_over(form: QuadraticForm, alpha_mask: int, sub: Subspace, dim: int, name: str) -> None:
    """sub is a projective dim-space over alpha (point mask alpha_mask) that
    meets the quadric in alpha's points and no others, or SwitchingError."""
    if sub.n != form.n or sub.projective_dim != dim:
        raise SwitchingError(f"{name} has the wrong dimension")
    mask = sub.point_mask()
    if alpha_mask & ~mask:
        raise SwitchingError(f"{name} does not contain alpha")
    if mask & form.zero_mask != alpha_mask:
        raise SwitchingError(f"{name} meets the quadric beyond alpha")


def legal_t_range(n: int, kind: str, variant: str) -> range:
    """The t values for which a flag (alpha, Pi[, Pi']) is guaranteed to exist."""
    expected_params(n, kind)  # GeometryError where (n, kind) has no quadric graph
    if variant == "t":
        return range(1, (n - 3) // 2 + 1)
    if variant == "tt":
        top = (n - 5) // 2 if kind == HYPERBOLIC else (n - 3) // 2
        return range(1, top + 1)
    raise SwitchingError(f"unknown variant {variant!r}")


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
    for chain, y, points in _flag_groups(form, t, variant):
        count = points.bit_count()
        if left < count:
            x = next(islice(_bits(points), left, None))
            alpha = Subspace(form.n, tuple(reversed(chain)))
            # Pi = <alpha, x>, or Pi = <alpha, y> and Pi' = <alpha, x>
            tangents = (x,) if y is None else (y, x)
            return SwitchConfig(form, alpha, *(span(form.n, [*alpha.basis, p]) for p in tangents))
        left -= count
    raise SearchExhausted(f"fewer than {choice + 1} flags exist for t={t}, variant {variant}")


# --- switching sets and the switch ---------------------------------------------


def _s_points(config: SwitchConfig) -> int:
    """The point mask of S: Pi, or Pi u Pi', without alpha."""
    pts = config.pi.point_mask()
    if config.pi2 is not None:
        pts |= config.pi2.point_mask()
    return pts & ~config.alpha.point_mask()


def build_S(config: SwitchConfig) -> int:
    """The switching set as a vertex mask of the canonical quadric graph."""
    return config.form.vertices(_s_points(config))


@dataclass(frozen=True)
class SwitchCertificate:
    """Witness, in vertex masks, that S satisfies the switching conditions on a graph."""

    s_vertices: int
    none_class: int
    half_class: int
    all_class: int
    induced_degree: int


def validate_switching_set(g: Graph, s: int) -> SwitchCertificate:
    """Check the none/half/all partition and induced regularity of the vertex mask s, or raise."""
    if not s:
        raise SwitchingError("switching set is empty")
    if s >> g.v:  # a bit at or past v; a negative s has bits everywhere
        raise SwitchingError("switching set contains a non-vertex")
    size = s.bit_count()
    if size % 2:
        raise SwitchingError("switching set must have even size")

    by_degree: dict[int, int] = {}
    for i in _bits(s):
        by_degree.setdefault((g.rows[i] & s).bit_count(), i)
    if len(by_degree) != 1:
        degs = sorted(by_degree)
        raise NotSwitchingSet(
            f"subgraph induced on S is not regular (degrees {degs})",
            witness=(by_degree[degs[0]], by_degree[degs[1]]),
        )
    induced = next(iter(by_degree))

    half = size // 2
    classes = dict.fromkeys((0, half, size), 0)  # neighbours in S -> vertex mask
    for i in range(g.v):
        if (s >> i) & 1:
            continue
        c = (g.rows[i] & s).bit_count()
        if c not in classes:
            raise NotSwitchingSet(
                f"vertex {i} has {c} neighbours in S, not 0, {half} or {size}",
                witness=(i, c),
            )
        classes[c] |= 1 << i
    return SwitchCertificate(s, classes[0], classes[half], classes[size], induced)


def _complement_edges(g: Graph, cert: SwitchCertificate) -> Graph:
    """Complement the edges between S and its half-class; everything else stays."""
    s, half = cert.s_vertices, cert.half_class
    rows = list(g.rows)
    for i in set_bits(half):
        rows[i] ^= s
    for i in set_bits(s):
        rows[i] ^= half
    return Graph(g.labels, tuple(rows))


def gm_switch(g: Graph, s: int) -> Graph:
    """Validate the vertex mask s on g, then complement the edges between S and its half-class."""
    return _complement_edges(g, validate_switching_set(g, s))


def T_formula(config: SwitchConfig) -> int:
    """The closed-form half-class as a vertex mask: vertices off alpha-perp,
    plus, for the two-space construction, the non-quadric part of
    (Pi-perp symdiff Pi'-perp) outside S."""
    form = config.form
    out = _off_perp(form, config.alpha)
    if config.pi2 is not None:
        sym = _off_perp(form, config.pi) ^ _off_perp(form, config.pi2)
        out |= sym & ~_s_points(config)
    return form.vertices(out)


def expected_switch(n: int, kind: str, t: int, variant: str) -> tuple[int, int, int]:
    """Closed-form (|S|, degree induced on S, |T|) of a switch: (2^(t+1), 0,
    2^n - 2^(n-t-1)), or for the two-space construction (2^(t+2), 2^(t+1),
    v - 2^(n-t-2) - 2^(t+2)), where v = 2^n +- 2^((n-1)/2) is the quadric
    graph's order.  SwitchingError for a t outside legal_t_range."""
    if t not in legal_t_range(n, kind, variant):
        raise SwitchingError(f"t={t} outside the legal range of variant {variant} for n={n}")
    if variant == "t":
        return 1 << (t + 1), 0, (1 << n) - (1 << (n - t - 1))
    return 1 << (t + 2), 1 << (t + 1), expected_params(n, kind).v - (1 << (n - t - 2)) - (1 << (t + 2))


@dataclass(frozen=True)
class Switch:
    """One Godsil-McKay switch of the canonical quadric graph: the flag, the
    certificate that S is a switching set, the graph base it was checked on
    and the closed-form T-set.  The switched graph is not held: each read of
    graph makes it from base and the certificate.  Make a Switch with
    build_switch, which checks S once and alone sets proved: verify_switch
    checks the classes of a Switch made any other way, replace() too."""

    config: SwitchConfig
    certificate: SwitchCertificate
    base: Graph
    t_set: int
    proved: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def s(self) -> int:
        return self.certificate.s_vertices

    @property
    def graph(self) -> Graph:
        """The switched graph, made anew on each read."""
        return _complement_edges(self.base, self.certificate)


def build_switch(gamma: Graph, config: SwitchConfig) -> Switch:
    """The switch of gamma, the canonical graph of config.form, at the flag's
    switching set; its graph is made on demand.

    Raises SwitchingError if gamma's vertices are not config.form's points,
    since S is read in that form's vertex order, and NotSwitchingSet (with a
    witness) if S fails the none/half/all partition on gamma; T_formula is
    reported, not asserted, against the certificate's half-class.
    """
    if gamma.labels is not config.form.labels and gamma.labels != config.form.labels:
        raise SwitchingError("the graph's vertices are not the points of the flag's form")
    sw = Switch(config, validate_switching_set(gamma, build_S(config)), gamma, T_formula(config))
    object.__setattr__(sw, "proved", True)  # certificate holds on gamma, just checked
    return sw


def _flag_words(config: SwitchConfig) -> Iterator[tuple[int, ...]]:
    """The maps of the module docstring that keep the flag's S, as words in
    reflection points for srg.verify_srg_orbit: for the two-space
    construction the reflection in u = y + y', then rho_{a,w} as the word
    (w + a, w) for each point a of alpha, basis first.  y, y' are the least
    points of Pi and Pi' off alpha, and w is u, or else the least vertex of
    alpha-perp with B(w,y) = 1, or where there is none the least vertex with
    B(w,a) = 0 and B(w,y) = 1."""
    form, alpha = config.form, config.alpha
    off_alpha = ~alpha.point_mask()
    y = next(_bits(config.pi.point_mask() & off_alpha))
    if config.pi2 is not None:
        u = y ^ next(_bits(config.pi2.point_mask() & off_alpha))
        yield (u,)
        inside = 1 << u
    else:
        inside = form.off & form.nonorth(y) & ~_off_perp(form, alpha)
    for a in chain(alpha.basis, (p for p in alpha.points() if p not in alpha.basis)):
        for w in islice(_bits(inside or form.off & form.nonorth(y) & ~form.nonorth(a)), 1):
            yield w ^ a, w


def switch_orbits(sw: Switch, certificate: GammaCertificate) -> tuple[int, ...] | None:
    """srg.symmetry_orbits for S and its none, half and all classes, from the
    flag's maps, then the reflections in the vertices, lightest first, then
    the Siegel words (w + a, w) for a in alpha's basis and each vertex w with
    B(w,a) = 0: the vertex orbits of automorphisms of sw.base, the graph
    certify_gamma returned with certificate, that keep S and its half-class,
    and so of sw.graph; None if a chosen reflection fails its check."""
    form, alpha, cert = certificate.form, sw.config.alpha, sw.certificate
    vertices = sorted(form.labels, key=int.bit_count)
    siegel = ((w ^ a, w) for a in alpha.basis for w in vertices if not form.nonorth(a) >> w & 1)
    words = chain(_flag_words(sw.config), ((r,) for r in vertices), siegel)
    blocks = cert.s_vertices, cert.none_class, cert.half_class, cert.all_class
    return symmetry_orbits(certificate, blocks, words)


def verify_switch(sw: Switch, certificate: GammaCertificate, graph: Graph | None = None) -> SrgParams:
    """verify_srg_near(sw.graph, certificate.graph, certificate.params,
    sw.s): decided with no switched graph by srg.verify_srg_orbit from the
    flag's symmetries once S's classes hold on sw.base (proved by
    build_switch, or here by validate_switching_set again), else on graph,
    sw.graph if the caller has made it already."""
    try:
        proved = sw.proved or validate_switching_set(sw.base, sw.s) == sw.certificate
    except SwitchingError:
        proved = False
    if proved:  # verify_srg_orbit's precondition: H is S's half-class on sw.base
        params = verify_srg_orbit(sw.base, certificate, sw.s, sw.certificate.half_class, _flag_words(sw.config))
        if params is not None:
            return params
    return srg.verify_srg_near(sw.graph if graph is None else graph, certificate.graph, certificate.params, sw.s)
