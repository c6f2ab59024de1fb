"""Shared builders, cached so the acceptance suite reuses heavy objects, and
the oracles the tests check the library against.

The oracles work from definitions, a point or a vertex at a time: Q from its
coefficient rows, B as the polarization of Q, a line by how many of its
points Q vanishes on.  They live here, not in the package, whose modules hold
what the pipeline, the CLI, the README's library example and the benchmark
tracer use.
"""

import functools

import networkx as nx
import pytest

from quadswitch import srg
from quadswitch.codes import CodeError, code_from_graph, min_weight_codewords
from quadswitch.distinguish import signature
from quadswitch.gf2geom import ELLIPTIC, HYPERBOLIC, GeometryError, canonical_form
from quadswitch.srg import Graph, build_gamma
from quadswitch.switching import build_switch, legal_t_range, make_config

_FORMS = {}
_GAMMAS = {}
_SWITCHED = {}


@pytest.fixture(autouse=True)
def fresh_certified_gamma():
    """Each test builds and certifies its own base graphs: a cache hit would
    skip the checks a test patches, and a patched certificate must not leak
    into the next test."""
    srg.certified_gamma.cache_clear()


def form(n, kind):
    key = (n, kind)
    if key not in _FORMS:
        _FORMS[key] = canonical_form(n, kind)
    return _FORMS[key]


def gamma(n, kind):
    key = (n, kind)
    if key not in _GAMMAS:
        _GAMMAS[key] = build_gamma(form(n, kind))
    return _GAMMAS[key]


def switch_case(n, kind, t, variant):
    """The Switch record (config, certificate, graph, T) of one legal request."""
    key = (n, kind, t, variant)
    if key not in _SWITCHED:
        _SWITCHED[key] = build_switch(gamma(n, kind), make_config(form(n, kind), t, variant))
    return _SWITCHED[key]


def graph_signature(g):
    """The code signature of a graph, its code and minimum words computed here."""
    code = code_from_graph(g)
    return signature(g, code, min_weight_codewords(code))


def legal_cases(ns=(5, 7)):
    for n in ns:
        for kind in (ELLIPTIC, HYPERBOLIC):
            for variant in ("t", "tt"):
                for t in legal_t_range(n, kind, variant):
                    yield n, kind, t, variant


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.v))
    for i in range(g.v):
        for j in g.neighbors(i):
            if j > i:
                out.add_edge(i, j)
    return out


def random_graph(rng, v, p):
    """A graph on labels 1..v with each edge present with probability p."""
    rows = [0] * v
    for i in range(v):
        for j in range(i + 1, v):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(tuple(range(1, v + 1)), tuple(rows))


# --- geometry oracles -------------------------------------------------------------

EXTERNAL = "external"
TANGENT = "tangent"
SECANT = "secant"
CONTAINED = "contained"


@functools.cache  # the tests ask for the same few forms' points again and again
def poly_eval(rows, x):
    """Oracle: evaluate sum a_ij x_i x_j by expanding coordinates directly."""
    total = 0
    n1 = len(rows)
    xs = [(x >> i) & 1 for i in range(n1)]
    for i in range(n1):
        for j in range(i, n1):
            if (rows[i] >> j) & 1:
                total += xs[i] * xs[j]
    return total % 2


def bilinear(form, x, y):
    """Oracle: the polarization B(x,y) = Q(x+y) + Q(x) + Q(y) over GF(2), with
    Q from the coefficient rows, not from the form's masks."""
    rows = form.rows
    return poly_eval(rows, x ^ y) ^ poly_eval(rows, x) ^ poly_eval(rows, y)


def classify_line(form, x, y):
    """Oracle: the class of the line {x, y, x+y} by how many of its points Q
    vanishes on: 0/1/2/3."""
    if x == y:
        raise GeometryError("a line needs two distinct points")
    hits = sum(1 for p in (x, y, x ^ y) if not poly_eval(form.rows, p))
    return (EXTERNAL, TANGENT, SECANT, CONTAINED)[hits]


def all_lines(n):
    """Every projective line of PG(n,2) as a sorted triple."""
    top = 1 << (n + 1)
    for a in range(1, top):
        for b in range(a + 1, top):
            c = a ^ b
            if c > b:
                yield (a, b, c)


def is_subspace_of(sub, other):
    """Oracle: every point of sub is a point of other."""
    return set(sub.points()) <= set(other.points())


# --- graph oracles ----------------------------------------------------------------


def check_well_formed(g):
    """Raise ValueError unless g has strictly increasing labels and loopless,
    symmetric rows with no bit at or past v."""
    v = g.v
    if list(g.labels) != sorted(set(g.labels)):
        raise ValueError("labels must be strictly increasing")
    for i, r in enumerate(g.rows):
        if r >> v:
            raise ValueError(f"row {i} has bits beyond the vertex count")
        if (r >> i) & 1:
            raise ValueError(f"vertex {i} has a loop")
        for j in range(v):
            if ((r >> j) & 1) != ((g.rows[j] >> i) & 1):
                raise ValueError(f"adjacency not symmetric at ({i},{j})")


def index_of(g, point):
    """The vertex of a point label; ValueError if it labels none."""
    return g.labels.index(point)


def characteristic_vector(g, points):
    """Vertex mask of the vertices labelled by the given points; CodeError for
    a point that labels no vertex."""
    vec = 0
    for p in points:
        try:
            vec |= 1 << index_of(g, p)
        except ValueError as exc:
            raise CodeError(f"point {p} is not a vertex of the graph") from exc
    return vec


def relabel(g, perm):
    """Image of the graph under vertex permutation i -> perm[i] (labels kept)."""
    v = g.v
    if sorted(perm) != list(range(v)):
        raise ValueError("not a permutation of the vertex set")
    rows = [0] * v
    for i in range(v):
        r = g.rows[i]
        ni = perm[i]
        for j in range(v):
            if (r >> j) & 1:
                rows[ni] |= 1 << perm[j]
    return Graph(g.labels, tuple(rows))
