"""Outside-in tracer: wraps the public entry points of each quadswitch module.

Only layer entry points are wrapped, never hot helpers such as
gf2geom.bilinear, so the traced program does the same work in the same
order.  A wrapper is rebound in every quadswitch module that holds the
original by name (cli and distinguish import several of them), and in the
defining module itself, so calls through module globals are traced too.
Spans stay in memory and are written out after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

ENTRY_POINTS = {
    "gf2geom": ("canonical_form", "perp"),
    "srg": ("build_gamma", "verify_srg"),
    "switching": ("make_config", "build_S", "validate_switching_set", "gm_switch", "T_formula"),
    "codes": ("code_from_graph", "weight_distribution", "min_weight_codewords", "contains", "from_vectors"),
    "distinguish": ("classify_family", "build_family", "signature", "are_isomorphic"),
    "graph6": ("encode", "write_files"),
}


def _pairs_checked(a):
    return a["g"].v * (a["g"].v - 1) // 2


def _flags_walked(a):
    return a["choice"] + 1


def _codewords_walked(a):
    return 1 << a["code"].dim


def _bytes_written(a):
    return os.path.getsize(a["path"]) + os.path.getsize(a["path"] + ".labels")


# Work counters ("computed"): span -> (counter, amount from the call's arguments),
# added after the call returns.
COUNTERS = {
    "srg.verify_srg": ("srg.pairs_checked", _pairs_checked),
    "switching.make_config": ("switching.flags_walked", _flags_walked),
    "codes.weight_distribution": ("codes.codewords_walked", _codewords_walked),
    "codes.min_weight_codewords": ("codes.codewords_walked", _codewords_walked),
    "graph6.write_files": ("graph6.bytes_written", _bytes_written),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, request]
        self.stack: list[int] = []
        self.request = 0  # index of the request being served; spans carry it
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        counter, amount = COUNTERS.get(name, (None, None))
        signature = inspect.signature(fn) if counter else None
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counters[counter] = counters.get(counter, 0) + amount(bound.arguments)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point and rebind it wherever quadswitch holds it."""
        package = [m for n, m in list(sys.modules.items()) if n == "quadswitch" or n.startswith("quadswitch.")]
        for module_name, names in ENTRY_POINTS.items():
            module = sys.modules.get("quadswitch." + module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                wrapper = self.wrap(f"{module_name}.{name}", original)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def summary(self, run_s: float) -> dict:
        """Per entry point self time and call count, counters, and cli.self_s."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            self_s[name] = self_s.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                top += dur
            else:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - dur
        return {
            "self_s": self_s,
            "calls": calls,
            "counters": dict(self.counters),
            "cli_self_s": run_s - top,
            "missing": self.missing,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, request in self.spans:
                span = {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                fh.write(json.dumps(span))
                fh.write("\n")
