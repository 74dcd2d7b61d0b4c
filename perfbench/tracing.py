"""Per-layer tracing of orderlab from outside the package.

``install`` replaces each public function named in ``TARGETS`` by a wrapper
that records a span (name, start, end, parent) and per-name counters.  The
wrapper is bound under every name that refers to the original in any
``orderlab.*`` module namespace, and methods are replaced on their class, so
callers inside the package reach it too.  A target the package no longer
has is skipped with a note; its metrics are then absent.

A span's self time is its duration minus the time covered by its child
spans.  Counters are kept for every span; the span records themselves are
kept in memory up to ``SPAN_CAP`` (the hot primitives make millions of
calls) and written out by ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _items_salient(args, kwargs, out):
    return args[2] + 1  # coefficients m = 0..m_max


def _items_probes(args, kwargs, out):
    return args[0]  # probes scanned


def _truthy(args, kwargs, out):
    return 1 if out else 0


def _plain_int(args, kwargs, out):
    return 1 if isinstance(out, int) else 0


# (layer, module, attribute path, extra counter, extra counter's name)
TARGETS = [
    ("kernels", "_kernels", "salient_violations", _items_salient, "items"),
    ("kernels", "_kernels", "salient_violations_bigint", _items_salient, "items"),
    ("kernels", "_kernels", "probe_sweep", _items_probes, "items"),
    ("seqspace", "seqspace", "eta", None, None),
    ("seqspace", "seqspace", "phi", None, None),
    ("posets", "posets", "make_poset", None, None),
    ("posets", "posets", "Poset.__init__", None, None),
    ("posets", "posets", "Poset.leq", None, None),
    ("posets", "posets", "Poset.lt", None, None),
    ("posets", "posets", "linear_extension", None, None),
    ("posets", "posets", "enumerate_poset_isotypes", None, None),
    ("posets", "posets", "longest_chain", None, None),
    ("forcing", "forcing", "extends", _truthy, "true"),
    ("forcing", "forcing", "extend_into_D", None, None),
    ("forcing", "forcing", "extend_into_E", None, None),
    ("forcing", "forcing", "amalgamate", None, None),
    ("forcing", "forcing", "projection", None, None),
    ("forcing", "forcing", "generic_build", None, None),
    ("forcing", "forcing", "verify_generic_embedding", None, None),
    ("forcing", "forcing", "pipeline_embed", None, None),
    ("universal", "universal", "witness", _plain_int, "int"),
    ("universal", "universal", "rel", None, None),
    ("universal", "universal", "SparseNat.__init__", None, None),
    ("universal", "universal", "embed_structure", None, None),
    ("universal", "universal", "verify_embedding", None, None),
    ("depletion", "depletion", "depletion_order", None, None),
    ("depletion", "depletion", "depletion_rel", None, None),
    ("depletion", "depletion", "find_walk", None, None),
    ("depletion", "depletion", "frontier_sweep", None, None),
    ("depletion", "depletion", "star_condition", None, None),
    ("depletion", "depletion", "maximal_star_set", None, None),
    ("fol", "fol", "parse_formula", None, None),
    ("fol", "fol", "eval_qf", None, None),
    ("fol", "fol", "eval_pair", None, None),
    ("fol", "fol", "pair_sorts", None, None),
    ("redprod", "redprod", "FilterFamily.__init__", None, None),
    ("redprod", "redprod", "reduced_product", None, None),
    ("redprod", "redprod", "atomic_los_check", None, None),
    ("redprod", "redprod", "longest_op_chain", None, None),
    ("tiepoint", "tiepoint", "tie_decompose", None, None),
    ("tiepoint", "tiepoint", "bulk_probe_check", None, None),
    ("tiepoint", "tiepoint", "true_tie_check", None, None),
    ("tiepoint", "tiepoint", "canonical_antichain", None, None),
    ("tiepoint", "tiepoint", "expansion_axiom_check", None, None),
    ("cli", "cli", "main", None, None),
]

SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, total_s, self_s, extra]
        self.extra_names = {}  # span name -> name of its extra counter
        self.notes = []
        self.spans = []  # (id, name, start, end, parent id) up to SPAN_CAP
        self.dropped = 0
        self._stack = []  # per open span: [child time, id]
        self._next_id = 0

    def wrap(self, name, fn, extra=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                parent = -1
                if stack:
                    stack[-1][0] += dt
                    parent = stack[-1][1]
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, t0, t1, parent))
                else:
                    self.dropped += 1
            if extra is not None:
                stat[3] += extra(args, kwargs, out)
            return out

        return traced

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "notes": self.notes, "dropped_spans": self.dropped,
                       "stats": self.stats, "extra_names": self.extra_names,
                       "spans": self.spans}, fh)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "orderlab" or name.startswith("orderlab."))]


def _rebind(original, replacement):
    """Point every orderlab namespace binding of original at replacement."""
    for mod in _package_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(tracer):
    """Wrap every target that exists, and every check_* suite as
    checks.<suite>."""
    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
    for layer, modname, path, extra, extra_name in TARGETS:
        name = f"{layer}.{path}"
        owner = mods.get(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tracer.notes.append(f"{name}: not found in orderlab.{modname}; metrics absent")
            continue
        wrapped = tracer.wrap(name, original, extra)
        if extra_name:
            tracer.extra_names[name] = extra_name
        if outer:
            setattr(owner, attr, wrapped)  # a method: replace it on its class
        else:
            _rebind(original, wrapped)
    for fn_name, original in list(vars(mods["checks"]).items()):
        if fn_name.startswith("check_"):
            _rebind(original, tracer.wrap("checks." + fn_name[len("check_"):], original))
