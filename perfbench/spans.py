"""Spans and counters around calls into nonassoc's public functions.

Nothing inside the library is instrumented.  The tracer rebinds each traced
function in every ``nonassoc`` module (or class) that holds it, because
modules import functions by name: ``operators`` imports
``nullspace_sparse_q``, ``varieties`` and ``poisson`` import
``check_identity``, and so on.  ``uninstall`` puts the originals back, so
untimed and untraced passes run the library exactly as shipped.

A span is (name, start ns, end ns, parent span, two integer notes).  Spans
are kept in flat arrays while a segment runs; ``collect`` turns them into
per-name call counts, total times and self times (total minus the time of
direct children) and clears the arrays.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (span name, module, attribute): each call becomes one span.
SPAN_POINTS = [
    ("structure.apply_sparse", "nonassoc.structure", "StructureTensor.apply_sparse"),
    ("structure.load", "nonassoc.structure", "load_algebra"),
    ("structure.change_basis", "nonassoc.structure", "change_basis"),
    ("catalog.get", "nonassoc.catalog", "catalog_get"),
    ("identities.check", "nonassoc.identities", "check_identity"),
    ("identities.eval", "nonassoc.identities", "eval_identity_sparse"),
    ("identities.parse", "nonassoc.identities", "parse_identity"),
    ("identities.polarize", "nonassoc.identities", "polarize"),
    ("varieties.check", "nonassoc.varieties", "check_variety"),
    ("kantor.conservativity", "nonassoc.kantor", "conservativity_test"),
    ("kantor.square", "nonassoc.kantor", "kantor_square"),
    ("poisson.check", "nonassoc.poisson", "check_poisson_family"),
    ("incidence.sweep", "nonassoc.incidence", "exhaustive_sigma_equiv"),
    ("operators.derivation_space", "nonassoc.operators", "derivation_space"),
    ("operators.centroid", "nonassoc.operators", "centroid"),
    ("operators.commuting_map_space", "nonassoc.operators", "commuting_map_space"),
    ("operators.generalized_derivation_space", "nonassoc.operators", "generalized_derivation_space"),
    ("operators.local_derivation_generic_space", "nonassoc.operators", "local_derivation_generic_space"),
    ("linalg.nullspace_sparse_q", "nonassoc.linalg", "nullspace_sparse_q"),
    ("linalg.nullspace", "nonassoc.linalg", "nullspace"),
    ("deform.cocycle_space", "nonassoc.deform", "cocycle_space"),
    ("cli.run", "nonassoc.cli", "run"),
    ("cli.build_parser", "nonassoc.cli", "build_parser"),
]

# (counter name, module, attribute): calls are counted, no span is recorded
# (there are millions of them per pass).
COUNT_POINTS = [
    ("scalars.qq_new", "nonassoc.scalars", "RationalDomain.one"),
    ("scalars.qq_new", "nonassoc.scalars", "RationalDomain.zero"),
    ("scalars.qq_new", "nonassoc.scalars", "RationalDomain.coerce"),
]


def _note_nullspace(args, kwargs, result):
    rows = args[0] if args else kwargs["sparse_rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return len(rows), ncols


def _note_check(args, kwargs, result):
    return (0 if result[0] else 1), 0


NOTES = {
    "linalg.nullspace_sparse_q": _note_nullspace,
    "identities.check": _note_check,
}


def _resolve(module, attr):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _holders(original):
    """Every (namespace object, attribute) in nonassoc bound to ``original``."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "nonassoc" or modname.startswith("nonassoc.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                out.append((mod, key))
            elif isinstance(val, type) and val.__module__ == modname:
                for ckey, cval in list(vars(val).items()):
                    if cval is original:
                        out.append((val, ckey))
    return out


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.names = sorted({p[0] for p in SPAN_POINTS})
        self.counter_names = sorted({p[0] for p in COUNT_POINTS})
        self._sid = {n: i for i, n in enumerate(self.names)}
        self.counts = [0] * len(self.counter_names)
        self._stack = []
        self._cols = {k: array("q") for k in ("name", "start", "end", "parent", "a", "b")}
        self._bindings = []   # (holder, attribute, original, wrapper)

    def _span_wrapper(self, sid, fn, note):
        stack = self._stack
        c = self._cols
        c_name, c_start, c_end, c_parent, c_a, c_b = (
            c["name"], c["start"], c["end"], c["parent"], c["a"], c["b"])
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(c_name)
            c_name.append(sid)
            c_parent.append(stack[-1] if stack else -1)
            c_start.append(0)
            c_end.append(0)
            c_a.append(0)
            c_b.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                c_end[idx] = clock()
                c_start[idx] = t0
                stack.pop()
            if note is not None:
                c_a[idx], c_b[idx] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _count_wrapper(self, cid, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[cid] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._bindings:
            return
        cids = {n: i for i, n in enumerate(self.counter_names)}
        plan = [(name, module, attr, True) for name, module, attr in SPAN_POINTS]
        plan += [(name, module, attr, False) for name, module, attr in COUNT_POINTS]
        for name, module, attr, is_span in plan:
            owner, key = _resolve(module, attr)
            original = vars(owner)[key]
            if is_span:
                wrapper = self._span_wrapper(self._sid[name], original, NOTES.get(name))
            else:
                wrapper = self._count_wrapper(cids[name], original)
            for holder, hkey in _holders(original):
                self._bindings.append((holder, hkey, original, wrapper))
        for holder, hkey, _, wrapper in self._bindings:
            setattr(holder, hkey, wrapper)

    def uninstall(self):
        for holder, hkey, original, _ in reversed(self._bindings):
            setattr(holder, hkey, original)
        self._bindings = []

    def collect(self):
        """Aggregate and clear the spans and counts recorded so far."""
        if self._stack:
            raise RuntimeError("collect() called inside an open span")
        c = self._cols
        # copies, so that the arrays can be cleared below
        name, start, end, parent, a, b = (
            np.frombuffer(c[k], dtype=np.int64).copy() if len(c[k]) else np.zeros(0, np.int64)
            for k in ("name", "start", "end", "parent", "a", "b"))
        n = len(name)
        dur = (end - start).astype(np.float64) / 1e9
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selft = np.bincount(name, weights=self_time, minlength=k)
        sid = self._sid
        stats = {nm: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(selft[i])}
                 for nm, i in sid.items()}
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        # nullspace_sparse_q: system sizes and nested dense fallbacks
        sq = name == sid["linalg.nullspace_sparse_q"]
        dense = (name == sid["linalg.nullspace"]) & (parent_name == sid["linalg.nullspace_sparse_q"])
        raw = {
            "nullspace_rows": int(a[sq].sum()),
            "nullspace_cols": int(b[sq].sum()),
            "dense_calls": int(dense.sum()),
            "dense_s": float(dur[dense].sum()),
            "sparse_with_fallback": int(np.unique(parent[dense]).size),
        }
        # tuples scanned by checks that ended in a witness
        refuted = (name == sid["identities.check"]) & (a == 1)
        evals = name == sid["identities.eval"]
        in_refuted = evals & has_parent & refuted[np.maximum(parent, 0)]
        raw["refuted_checks"] = int(refuted.sum())
        raw["refuted_tuples"] = int(in_refuted.sum())
        raw["counters"] = dict(zip(self.counter_names, self.counts))
        for arr in c.values():
            del arr[:]
        for i in range(len(self.counts)):
            self.counts[i] = 0
        return {"spans": stats, "raw": raw}


def merge(first, second):
    """Sum two ``collect`` results (set-up plus one pass)."""
    spans = {nm: {k: first["spans"][nm][k] + second["spans"][nm][k] for k in v}
             for nm, v in first["spans"].items()}
    raw = {}
    for key, val in first["raw"].items():
        if key == "counters":
            raw[key] = {c: val[c] + second["raw"][key][c] for c in val}
        else:
            raw[key] = val + second["raw"][key]
    return {"spans": spans, "raw": raw}


def layer_metrics(stats):
    """Per-layer metrics (name -> (value, unit)) from one merged result."""
    sp, raw = stats["spans"], stats["raw"]

    def s(nm):
        return sp[nm]["s"]

    apply_calls = sp["structure.apply_sparse"]["calls"]
    tuples = sp["identities.eval"]["calls"]
    sparse_calls = sp["linalg.nullspace_sparse_q"]["calls"]
    return {
        "scalars.qq_new": (raw["counters"]["scalars.qq_new"], "count"),
        "structure.apply_sparse.calls": (apply_calls, "count"),
        "structure.apply_sparse.s": (s("structure.apply_sparse"), "s"),
        "structure.apply_sparse.us_per_call": (
            1e6 * s("structure.apply_sparse") / apply_calls if apply_calls else 0.0, "us"),
        "structure.load.s": (s("structure.load"), "s"),
        "structure.change_basis.s": (s("structure.change_basis"), "s"),
        "catalog.get.calls": (sp["catalog.get"]["calls"], "count"),
        "catalog.get.s": (s("catalog.get"), "s"),
        "identities.tuples": (tuples, "count"),
        "identities.tuples_per_s": (
            tuples / s("identities.check") if s("identities.check") else 0.0, "1/s"),
        "identities.check.s": (s("identities.check"), "s"),
        "identities.tuples_to_witness": (
            raw["refuted_tuples"] / raw["refuted_checks"] if raw["refuted_checks"] else 0.0,
            "tuples"),
        "identities.parse.s": (s("identities.parse"), "s"),
        "identities.polarize.s": (s("identities.polarize"), "s"),
        "varieties.check.self_s": (sp["varieties.check"]["self_s"], "s"),
        "kantor.conservativity.s": (s("kantor.conservativity"), "s"),
        "kantor.square.s": (s("kantor.square"), "s"),
        "poisson.check.s": (s("poisson.check"), "s"),
        "incidence.sweep.s": (s("incidence.sweep"), "s"),
        "operators.derivation_space.s": (s("operators.derivation_space"), "s"),
        "operators.generalized_derivation_space.s": (
            s("operators.generalized_derivation_space"), "s"),
        "operators.local_derivation_generic_space.s": (
            s("operators.local_derivation_generic_space"), "s"),
        "operators.build_self_s": (
            sum(v["self_s"] for nm, v in sp.items() if nm.startswith("operators.")), "s"),
        "linalg.nullspace_sparse_q.calls": (sparse_calls, "count"),
        "linalg.nullspace_sparse_q.s": (s("linalg.nullspace_sparse_q"), "s"),
        "linalg.nullspace_sparse_q.rows": (raw["nullspace_rows"], "count"),
        "linalg.nullspace_sparse_q.cols": (raw["nullspace_cols"], "count"),
        "linalg.dense_nullspace.calls": (raw["dense_calls"], "count"),
        "linalg.dense_nullspace.s": (raw["dense_s"], "s"),
        "linalg.modp_ok_frac": (
            1.0 - raw["sparse_with_fallback"] / sparse_calls if sparse_calls else 1.0, "frac"),
        "deform.cocycle_space.s": (s("deform.cocycle_space"), "s"),
        "cli.run.s": (s("cli.run"), "s"),
        "cli.build_parser.s": (s("cli.build_parser"), "s"),
        "cli.self_s": (sp["cli.run"]["self_s"], "s"),
    }
