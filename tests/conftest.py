"""Shared builders, cached so the acceptance suite reuses heavy objects."""

from quadswitch.codes import code_from_graph, min_weight_codewords
from quadswitch.distinguish import signature
from quadswitch.gf2geom import ELLIPTIC, HYPERBOLIC, canonical_form
from quadswitch.srg import build_gamma
from quadswitch.switching import build_switch, legal_t_range, make_config

_FORMS = {}
_GAMMAS = {}
_SWITCHED = {}


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
