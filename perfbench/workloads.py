"""The four workloads: job lists built from a seed, each job with its oracle.

A job is one library or CLI call.  ``run`` is the timed call; ``check``
judges its result afterwards, outside the timed region, and returns None or
a message saying what is wrong.  Every call goes through a module attribute
(``operators.derivation_space``, not a name imported here), so that the
tracer's wrappers see it.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

from nonassoc import (catalog, cli, deform, identities, incidence, kantor,
                      linalg, operators, poisson, structure, varieties)
from nonassoc.scalars import QQ

HERE = os.path.dirname(os.path.abspath(__file__))
TRANSCRIPT = os.path.join(HERE, "cli_transcript.json")


class Job:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _holds(rep):
    return None if rep["holds"] is True else f"verdict {rep['holds']!r}, published True"


def _get(name, params=None):
    return catalog.catalog_get(name, params or {})


# ---------------------------------------------------------------------------
# identity-verify: true verdicts, so every tuple of every identity is scanned
# ---------------------------------------------------------------------------

# Containment web of acceptance criterion 10 restricted to its true verdicts.
# Premises are textbook facts (sl2, heis3 and abelian algebras are Lie; matrix,
# triangular and quaternion algebras are associative; the octonions are
# alternative); the rest follow from Lie < Malcev < binary-Lie,
# associative < alternative, A associative => A^- Lie, A alternative => A^+
# Jordan, A assosymmetric => A^+ almost-Jordan.  The "terminal" verdicts are
# the criterion-10 cross-check against the conservativity route.
WEB = [
    (("abelian", {"n": 3}), "", ["lie", "malcev", "binary-lie", "symmetric-leibniz",
                                 "cd-anticommutative", "associative", "assosymmetric",
                                 "alternative", "weakly-associative", "jordan",
                                 "almost-jordan", "terminal"]),
    (("abelian", {"n": 3}), "-", ["lie"]),
    (("abelian", {"n": 3}), "+", ["jordan", "almost-jordan"]),
    (("NF", {"n": 3}), "", ["assosymmetric", "terminal"]),
    (("NF", {"n": 3}), "+", ["almost-jordan"]),
    (("sl2", {}), "", ["lie", "malcev", "binary-lie", "symmetric-leibniz",
                       "cd-anticommutative", "terminal"]),
    (("heis3", {}), "", ["lie", "malcev", "binary-lie", "symmetric-leibniz",
                         "cd-anticommutative", "associative", "assosymmetric",
                         "alternative", "weakly-associative", "terminal"]),
    (("heis3", {}), "-", ["lie"]),
    (("heis3", {}), "+", ["jordan", "almost-jordan"]),
    (("matrix", {"n": 2}), "", ["associative", "assosymmetric", "alternative",
                                "weakly-associative"]),
    (("matrix", {"n": 2}), "-", ["lie"]),
    (("matrix", {"n": 2}), "+", ["jordan", "almost-jordan"]),
    (("uppertri", {"n": 2}), "", ["associative", "assosymmetric", "alternative",
                                  "weakly-associative"]),
    (("uppertri", {"n": 2}), "-", ["lie"]),
    (("uppertri", {"n": 2}), "+", ["jordan", "almost-jordan"]),
    (("uppertri", {"n": 3}), "", ["associative", "assosymmetric", "alternative",
                                  "weakly-associative"]),
    (("uppertri", {"n": 3}), "-", ["lie"]),
    (("quaternions", {}), "", ["associative", "assosymmetric", "alternative",
                               "weakly-associative"]),
    (("quaternions", {}), "-", ["lie"]),
    (("quaternions", {}), "+", ["jordan", "almost-jordan"]),
    (("octonions", {}), "", ["alternative"]),
    (("zinbiel-free1", {"n": 3}), "", ["terminal"]),
    (("filiform1p", {"n": 4}), "", ["terminal"]),
]

POISSON_TRUE = [("tp4", ["poisson", "generic", "transposed", "poisson-structure"]),
                ("gp2", ["transposed", "generalized"])]


def identity_verify(seed, work_dir):
    jobs = []

    def variety(label, A, name):
        jobs.append(Job(f"{label} {name}",
                        lambda: varieties.check_variety(A, name), _holds))

    m3 = _get("matrix", {"n": 3})
    variety("M3^+", varieties.plus_algebra(m3), "jordan")
    variety("O^-", varieties.minus_algebra(_get("octonions")), "malcev")

    # criterion 4: Kantor squares of the octonions are flexible for every
    # basis u, and alternative for u = 1
    o_mul = _get("octonions").op("mul")

    def square(u, name):
        def run():
            sq = structure.Algebra("sq", 8, {"mul": kantor.kantor_square(o_mul, u)}, QQ)
            return varieties.check_variety(sq, name)
        jobs.append(Job(f"O Kantor square u={u} {name}", run, _holds))

    for u in range(8):
        square(u, "flexible")
    square(0, "alternative")

    for (name, params), functor, names in WEB:
        A = _get(name, params)
        if functor == "-":
            A = varieties.minus_algebra(A)
        elif functor == "+":
            A = varieties.plus_algebra(A)
        for v in names:
            variety(f"{name}{params or ''}{functor}", A, v)

    for name, kinds in POISSON_TRUE:
        P = _get(name)
        for kind in kinds:
            jobs.append(Job(f"{name} {kind}",
                            lambda P=P, kind=kind: poisson.check_poisson_family(P, kind),
                            _holds))

    # criterion 7: the sigma/Poisson biconditional over GF(3), all 87 posets
    # on at most 5 points, plus the crown (81 assignments, all Poisson)
    def agree(r):
        return None if r["agree"] else f"counterexample {r['counterexample']}"

    posets = incidence.all_posets_up_to(5)
    if len(posets) != 87:
        raise RuntimeError(f"expected 87 posets on at most 5 points, got {len(posets)}")
    for i, P in enumerate(posets):
        jobs.append(Job(f"GF(3) sweep poset {i}",
                        lambda P=P: incidence.exhaustive_sigma_equiv(P, 3), agree))

    def crown_ok(r):
        if agree(r):
            return agree(r)
        if not r["poisson_count"] == r["total"] == 81:
            return f"crown counts {r['poisson_count']}/{r['total']}, published 81/81"
        return None

    crown = incidence.crown_poset()
    jobs.append(Job("GF(3) sweep crown",
                    lambda: incidence.exhaustive_sigma_equiv(crown, 3), crown_ok))
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# operator-spaces: catalog algebras in their canonical bases
# ---------------------------------------------------------------------------

COMPUTE = {
    "der": lambda A: operators.derivation_space(A),
    "centroid": lambda A: operators.centroid(A),
    "commuting": lambda A: operators.commuting_map_space(A),
    "gender": lambda A: operators.generalized_derivation_space(A, "full"),
    "locder": lambda A: operators.local_derivation_generic_space(A),
    "cocycles": lambda A: deform.cocycle_space(A, "lie", 1),
    "tps": lambda A: poisson.transposed_compatible_space(A, op="mul"),
}

# Spaces checked by dimension alone: (computation, algebra, params, dim, source).
# The matrix algebras, M7 and M8 carry most of the time; the small ones keep
# the job count high enough for a tail percentile with ten samples beyond it.
SPACES = [
    ("der", "matrix", {"n": 3}, 8, "published (inner, n^2 - 1)"),
    ("der", "matrix", {"n": 4}, 15, "published (inner, n^2 - 1)"),
    ("der", "matrix", {"n": 5}, 24, "published (inner, n^2 - 1)"),
    ("der", "matrix", {"n": 6}, 35, "published (inner, n^2 - 1)"),
    ("centroid", "matrix", {"n": 5}, 1, "published (central simple)"),
    ("commuting", "matrix", {"n": 5}, 26, "published (x -> cx + f(x)1)"),
    ("der", "M7", {}, 14, "published (G2)"),
    ("der", "M8", {}, 21, "published"),
    ("locder", "M7", {}, 21, "recorded at the seed commit"),
    ("locder", "M8", {}, 28, "published (antisymmetric maps)"),
    ("der", "sl2", {}, 3, "published (simple, so inner)"),
    ("der", "quaternions", {}, 3, "published (so(3))"),
    ("der", "octonions", {}, 14, "published (G2)"),
    ("der", "abelian", {"n": 3}, 9, "published (gl(3))"),
    ("der", "matrix", {"n": 2}, 3, "published (inner)"),
    ("der", "heis3", {}, 6, "published"),
    ("der", "ternaryJordan", {"n": 3}, 3, "published (so(3), criterion 3)"),
    ("der", "ternaryJordan", {"n": 4}, 6, "published (so(4), criterion 3)"),
    ("der", "D2", {}, 6, "recorded at the seed commit"),
    ("der", "D3", {}, 21, "recorded at the seed commit"),
    ("centroid", "sl2", {}, 1, "published (central simple)"),
    ("centroid", "quaternions", {}, 1, "published (central simple)"),
    ("centroid", "octonions", {}, 1, "published (central simple)"),
    ("centroid", "matrix", {"n": 2}, 1, "published (central simple)"),
    ("centroid", "D2", {}, 1, "recorded at the seed commit"),
    ("centroid", "D3", {}, 1, "recorded at the seed commit"),
    ("centroid", "ternaryJordan", {"n": 3}, 1, "recorded at the seed commit"),
    ("centroid", "ternaryJordan", {"n": 4}, 1, "recorded at the seed commit"),
    ("commuting", "quaternions", {}, 5, "published (x -> cx + f(x)1)"),
    ("commuting", "octonions", {}, 9, "published (x -> cx + f(x)1)"),
    ("commuting", "matrix", {"n": 2}, 5, "published (x -> cx + f(x)1)"),
]


def _dim_is(want, source):
    def check(space):
        got = space.dim
        return None if got == want else f"dim {got}, {source} {want}"
    return check


def operator_spaces(seed, work_dir):
    jobs = []
    for kind, name, params, dim, source in SPACES:
        A = _get(name, params)
        jobs.append(Job(f"{kind} {name}{params or ''}",
                        lambda kind=kind, A=A: COMPUTE[kind](A), _dim_is(dim, source)))
    U3 = kantor.build_U(3)
    jobs.append(Job("der U(3)", lambda: operators.derivation_space(U3),
                    _dim_is(6, "recorded at the seed commit")))

    # criterion 9: no nontrivial ternary/4-ary derivations of M7/M8, and the
    # designated D(4) projection has dimension 15
    def no_quotient(space):
        meta = space.meta
        if meta["quotient_dim"] != 0 or not meta["trivial_contained"]:
            return f"quotient_dim {meta['quotient_dim']}, published 0"
        return None

    def d4_ok(space):
        meta = space.meta
        if meta["derived_dim"] != 15 or meta["derived_projection_dims"][0] != 15:
            return (f"derived dim {meta['derived_dim']} / projection "
                    f"{meta['derived_projection_dims'][0]}, published 15 / 15")
        return None

    for name, params, check in [("M7", {}, no_quotient), ("M8", {}, no_quotient),
                                ("D", {"dim": 4}, d4_ok)]:
        A = _get(name, params)
        jobs.append(Job(f"gender {name}{params or ''}", lambda A=A: COMPUTE["gender"](A), check))

    def h2_is(want):
        def check(res):
            got = (res["Z2_dim"], res["B2_dim"], res["H2_dim"])
            return None if got == want else f"(Z2, B2, H2) = {got}, published {want}"
        return check

    for name, params, want in [("abelian", {"n": 2}, (1, 0, 1)), ("abelian", {"n": 3}, (3, 0, 3)),
                               ("heis3", {}, (3, 1, 2)), ("sl2", {}, (3, 3, 0))]:
        A = _get(name, params)
        jobs.append(Job(f"cocycles {name}{params or ''}", lambda A=A: COMPUTE["cocycles"](A),
                        h2_is(want)))

    # criterion 6: no transposed Poisson structure on sl2 (certified empty)
    def tps_is(want, certified):
        def check(res):
            if res["dim"] != want or (certified and not res["certified_empty"]):
                return f"dim {res['dim']}, expected {want}"
            return None
        return check

    for name, want, certified in [("sl2", 0, True), ("heis3", 9, False)]:
        A = _get(name)
        jobs.append(Job(f"tps {name}", lambda A=A: COMPUTE["tps"](A), tps_is(want, certified)))
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# rebased-spaces: the same computations after a seeded change of basis
# ---------------------------------------------------------------------------

# (computation, catalog algebra, params, draws).  Sized so that the dense
# fallback runs on nearly every draw and each job's cost varies little between
# draws: the set-up draws the bases from the seed, and medians over seeds must
# stay within the benchmark's bounds.
REBASED = [
    ("der", "NF", {"n": 5}, 3), ("der", "filiform1p", {"n": 5}, 3), ("der", "R", {"seq": (1,)}, 3),
    ("der", "NF", {"n": 4}, 3), ("der", "zinbiel-free1", {"n": 4}, 3), ("der", "D2", {}, 3),
    ("der", "matrix", {"n": 2}, 3), ("der", "quaternions", {}, 3),
    ("gender", "matrix", {"n": 2}, 1), ("gender", "NF", {"n": 4}, 1),
    ("locder", "NF", {"n": 4}, 2), ("centroid", "quaternions", {}, 4),
    ("commuting", "filiform1p", {"n": 5}, 2), ("cocycles", "sl2", {}, 4), ("tps", "heis3", {}, 2),
]
REBASE_ENTRY = 9   # basis-change entries are drawn from [-9, 9]


def _shape(kind, res):
    if kind == "cocycles":
        return (res["Z2_dim"], res["B2_dim"], res["H2_dim"])
    if kind == "tps":
        return res["dim"]
    return res.dim


def _column(mat, k):
    return {r: row[k] for r, row in enumerate(mat) if row[k]}


def _image(t, args_vecs):
    """Multilinear product of sparse vectors from the raw table (oracle only)."""
    out = {}
    for combo in itertools.product(*(v.items() for v in args_vecs)):
        row = t.table.get(tuple(i for i, _ in combo))
        if not row:
            continue
        coef = Fraction(1)
        for _, c in combo:
            coef *= c
        for k, c in row.items():
            out[k] = out.get(k, 0) + coef * c
    return {k: c for k, c in out.items() if c}


def _direct_check(kind, A, space):
    """Check every basis map of ``space`` against its defining law on A."""
    t = A.op()
    n = A.dim
    unit = [{i: Fraction(1)} for i in range(n)]
    for m, mat in enumerate(space.matrices()):
        phi = [_column(mat, k) for k in range(n)]

        def apply(v):
            out = {}
            for k, c in v.items():
                for r, x in phi[k].items():
                    out[r] = out.get(r, 0) + c * x
            return {r: c for r, c in out.items() if c}

        def sub(a, b):
            out = dict(a)
            for k, c in b.items():
                out[k] = out.get(k, 0) - c
            return {k: c for k, c in out.items() if c}

        if kind == "commuting":
            # [phi(x), y] + [phi(y), x] = 0 on basis pairs
            for i in range(n):
                for j in range(n):
                    a = sub(_image(t, [phi[i], unit[j]]), _image(t, [unit[j], phi[i]]))
                    b = sub(_image(t, [phi[j], unit[i]]), _image(t, [unit[i], phi[j]]))
                    if sub(a, {k: -c for k, c in b.items()}):
                        return f"basis map {m} is not commuting at ({i}, {j})"
            continue
        for args in itertools.product(range(n), repeat=t.arity):
            lhs = apply(_image(t, [unit[i] for i in args]))
            if kind == "der":
                rhs = {}
                for s in range(t.arity):
                    vecs = [unit[i] for i in args]
                    vecs[s] = phi[args[s]]
                    for k, c in _image(t, vecs).items():
                        rhs[k] = rhs.get(k, 0) + c
                if sub(lhs, rhs):
                    return f"basis map {m} is not a derivation at {args}"
            else:
                for s in range(t.arity):
                    vecs = [unit[i] for i in args]
                    vecs[s] = phi[args[s]]
                    if sub(lhs, _image(t, vecs)):
                        return f"basis map {m} is not in the centroid at {args}"
    return None


def random_basis(n, rng):
    while True:
        P = [[Fraction(rng.randint(-REBASE_ENTRY, REBASE_ENTRY)) for _ in range(n)]
             for _ in range(n)]
        if linalg.is_invertible(P):
            return P


def rebased_spaces(seed, work_dir):
    rng = random.Random(seed)
    canonical = {}   # (kind, name, params) -> canonical shape, filled by checks
    jobs = []
    for kind, name, params, draws in REBASED:
        A = _get(name, params)
        key = (kind, name, json.dumps(params, sort_keys=True))
        for d in range(draws):
            B = structure.change_basis(A, random_basis(A.dim, rng))
            seen = {}

            def check(res, kind=kind, A=A, B=B, key=key, seen=seen):
                if key not in canonical:
                    canonical[key] = _shape(kind, COMPUTE[kind](A))
                got = _shape(kind, res)
                if got != canonical[key]:
                    return f"{got} after the change of basis, {canonical[key]} before"
                if kind not in ("der", "centroid", "commuting"):
                    return None
                basis = tuple(map(tuple, res.subspace.basis))
                if basis not in seen:   # every pass returns the same space
                    seen[basis] = _direct_check(kind, B, res)
                return seen[basis]

            jobs.append(Job(f"{kind} {name}{params or ''} draw {d}",
                            lambda kind=kind, B=B: COMPUTE[kind](B), check))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli-refute: short in-process CLI requests
# ---------------------------------------------------------------------------

POOL_SEED = 1
POOL_VERDICT = 240     # variety check / identity eval requests in the pool
PICK_VERDICT = 200     # of which one pass runs this many
PICK_SPACE = 4         # and this many der space / ext cocycles requests

CLI_SOURCES = [("sl2", {}), ("heis3", {}), ("NF", {"n": 3}), ("NF", {"n": 4}),
               ("filiform1p", {"n": 4}), ("matrix", {"n": 2}), ("uppertri", {"n": 2}),
               ("quaternions", {}), ("zinbiel-free1", {"n": 3}), ("abelian", {"n": 3}),
               ("tp4", {})]
CLI_VARIETIES = ["lie", "associative", "commutative", "alternative", "leibniz", "jordan",
                 "malcev", "flexible", "zinbiel", "novikov", "left-symmetric",
                 "bicommutative", "antiassociative", "right-commutative", "mock-lie",
                 "assosymmetric", "weakly-associative", "binary-lie", "symmetric-leibniz",
                 "right-alternative", "noncommutative-jordan", "commutative-associative",
                 "dual-mock-lie", "almost-jordan"]
CLI_IDENTITIES = ["(x*y)*z - x*(y*z)", "x*y - y*x", "x*y + y*x", "(x,y,z) - (y,x,z)",
                  "(x,y,z) + (x,z,y)", "(x*y)*z - (x*z)*y - x*(y*z)", "(x*x)*y - x*(x*y)",
                  "x*(y*z) - y*(x*z)", "(x*y)*x - x*(y*x)", "(x*y)*z + (y*z)*x + (z*x)*y",
                  "x*x", "(x*y)*z - (x*z)*y", "x*(x*y) - (x*x)*y + y*(x*x) - (y*x)*x"]
COEFFS = ["1", "-1", "2", "-2", "1/2", "-1/2", "3"]
SPACE_REQUESTS = [
    (("sl2", {}), ["der", "space", "{file}"]),
    (("heis3", {}), ["der", "space", "{file}"]),
    (("NF", {"n": 3}), ["der", "space", "{file}"]),
    (("matrix", {"n": 2}), ["der", "space", "{file}"]),
    (("uppertri", {"n": 2}), ["der", "space", "{file}"]),
    (("quaternions", {}), ["der", "space", "{file}", "--delta", "1/2"]),
    (("sl2", {}), ["ext", "cocycles", "--algebra", "{file}", "--variety", "lie"]),
    (("heis3", {}), ["ext", "cocycles", "--algebra", "{file}", "--variety", "lie"]),
    (("abelian", {"n": 2}), ["ext", "cocycles", "--algebra", "{file}", "--variety", "lie"]),
    (("abelian", {"n": 2}), ["ext", "cocycles", "--algebra", "{file}",
                             "--variety", "commutative-associative"]),
    (("NF", {"n": 2}), ["ext", "cocycles", "--algebra", "{file}", "--variety", "leibniz"]),
    (("NF", {"n": 3}), ["ext", "cocycles", "--algebra", "{file}", "--variety", "leibniz"]),
]
MISSING = ["variety", "check", "{work}/missing.json", "--variety", "lie"]


def _perturbed(doc, rng, tag):
    doc = json.loads(json.dumps(doc))
    doc["name"] = f"{doc['name']}~{tag}"
    dim = doc["dim"]
    table = doc["ops"][0]["table"]
    args = [rng.randrange(dim), rng.randrange(dim)]
    k = rng.randrange(dim)
    delta = Fraction(rng.choice(COEFFS))
    entry = next((e for e in table if e["args"] == args), None)
    if entry is None:
        entry = {"args": args, "out": []}
        table.append(entry)
    out = {j: Fraction(c) for j, c in entry["out"]}
    out[k] = out.get(k, 0) + delta
    entry["out"] = [[j, str(c)] for j, c in sorted(out.items()) if c]
    doc["ops"][0]["table"] = sorted((e for e in table if e["out"]), key=lambda e: e["args"])
    return doc


def _random_algebra(rng, tag):
    while True:
        dim = rng.choice([2, 3])
        table = []
        for i in range(dim):
            for j in range(dim):
                if rng.random() < 0.4:
                    ks = sorted(rng.sample(range(dim), rng.choice([1, 2])))
                    table.append({"args": [i, j],
                                  "out": [[k, rng.choice(COEFFS)] for k in ks]})
        if table:
            return {"name": f"rnd{tag}", "field": "Q", "dim": dim,
                    "ops": [{"name": "mul", "arity": 2, "table": table}]}


def cli_pool():
    """Every request the workload can draw: (kind, argv, file document)."""
    rng = random.Random(POOL_SEED)
    docs = {}

    def doc_of(name, params):
        key = (name, json.dumps(params, sort_keys=True))
        if key not in docs:
            docs[key] = structure.algebra_to_json(_get(name, params))
        return docs[key]

    pool = []
    for i in range(POOL_VERDICT):
        if rng.random() < 0.7:
            name, params = rng.choice(CLI_SOURCES)
            doc = _perturbed(doc_of(name, params), rng, i)
        else:
            doc = _random_algebra(rng, i)
        if rng.random() < 0.5:
            argv = ["variety", "check", "{file}", "--variety", rng.choice(CLI_VARIETIES)]
        else:
            argv = ["identity", "eval", "{file}", "--identity", rng.choice(CLI_IDENTITIES)]
        pool.append(("verdict", argv + ["--json"], doc))
    for (name, params), argv in SPACE_REQUESTS:
        pool.append(("space", argv + ["--json"], doc_of(name, params)))
    pool.append(("usage", MISSING + ["--json"], None))
    return pool


def _doc_text(doc):
    return json.dumps(doc, sort_keys=True) + "\n"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _materialize(pool, work_dir):
    """Write the pool's files; return each request's concrete argv."""
    os.makedirs(work_dir, exist_ok=True)
    argvs = []
    for idx, (_, argv, doc) in enumerate(pool):
        path = os.path.join(work_dir, f"{idx}.json")
        if doc is not None:
            with open(path, "w") as fh:
                fh.write(_doc_text(doc))
        argvs.append([a.replace("{file}", path).replace("{work}", work_dir) for a in argv])
    return argvs


def record_transcript(work_dir):
    """Run every pool request once and store exit codes and stdout hashes."""
    pool = cli_pool()
    argvs = _materialize(pool, work_dir)
    entries = []
    for (kind, argv, doc), concrete in zip(pool, argvs):
        code, out = run_cli(concrete)
        entries.append({"kind": kind, "argv": argv,
                        "file_sha256": _sha(_doc_text(doc)) if doc is not None else None,
                        "exit": code, "stdout_sha256": _sha(out)})
    with open(TRANSCRIPT, "w") as fh:
        json.dump({"pool_seed": POOL_SEED, "requests": entries}, fh, indent=1)
        fh.write("\n")
    return entries


def _symbolic_verdict(argv, path):
    A = structure.load_algebra(path)
    if argv[0] == "variety":
        name = argv[argv.index("--variety") + 1]
        opmap = {"*": A.op_names()[0]}
        return all(identities.symbolic_check(A, ident, opmap)
                   for ident in varieties.variety_identities(name))
    text = argv[argv.index("--identity") + 1]
    return identities.symbolic_check(A, identities.parse_identity(text))


def cli_refute(seed, work_dir):
    with open(TRANSCRIPT) as fh:
        recorded = json.load(fh)["requests"]
    pool = cli_pool()
    if len(recorded) != len(pool):
        raise RuntimeError("cli transcript does not match the request pool")
    argvs = _materialize(pool, work_dir)
    rng = random.Random(seed)
    by_kind = {}
    for idx, (kind, _, _) in enumerate(pool):
        by_kind.setdefault(kind, []).append(idx)
    picked = (rng.sample(by_kind["verdict"], PICK_VERDICT)
              + rng.sample(by_kind["space"], PICK_SPACE) + by_kind["usage"])
    rng.shuffle(picked)
    jobs = []
    for idx in picked:
        kind, argv, doc = pool[idx]
        rec = recorded[idx]
        concrete = argvs[idx]
        symbolic = {}

        def check(res, kind=kind, argv=argv, doc=doc, rec=rec, concrete=concrete,
                  symbolic=symbolic):
            code, out = res
            if rec["argv"] != argv or (
                    doc is not None and rec["file_sha256"] != _sha(_doc_text(doc))):
                return "request differs from the recorded transcript"
            if code != rec["exit"] or _sha(out) != rec["stdout_sha256"]:
                return f"exit {code} / stdout differ from the seed-commit transcript"
            if kind == "usage":
                return None if code == 2 and out == "" else f"exit {code}, contract says 2"
            if kind == "space":
                return None if code == 0 else f"exit {code}, contract says 0"
            holds = json.loads(out)["holds"]
            if code != (0 if holds else 1):
                return f"exit {code} for verdict {holds}"
            if "v" not in symbolic:
                symbolic["v"] = _symbolic_verdict(argv, concrete[2])
            if holds != symbolic["v"]:
                return f"verdict {holds}, symbolic_check says {symbolic['v']}"
            return None

        jobs.append(Job(f"cli {' '.join(argv[:2])} #{idx}",
                        lambda concrete=concrete: run_cli(concrete), check))
    return jobs


WORKLOADS = {
    "identity-verify": identity_verify,
    "cli-refute": cli_refute,
    "operator-spaces": operator_spaces,
    "rebased-spaces": rebased_spaces,
}
