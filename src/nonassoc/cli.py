"""The ``workbench`` command-line front end.

Exit codes: 0 = success (and verdict true where one exists), 1 = verdict
false, 2 = usage or input errors.  ``--json`` emits one machine-readable
report object with schema "1"; identical invocations produce byte-identical
output (all sampling seeds are fixed and echoed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .catalog import CATALOG_NAMES, catalog_get
from .deform import (Cocycle, central_extension, certificate_from_json,
                     cocycle_space, degeneration_obstruction,
                     degeneration_verify)
from .identities import ParseError, check_identity, default_opmap, parse_identity
from .incidence import (HigherDerivationSeq, Poset, SigmaMap,
                        exhaustive_sigma_equiv, hd_compose,
                        higher_derivation_check, incidence_algebra,
                        poisson_sigma_equiv_test)
from .kantor import conservativity_test, kantor_product, u2_e_basis
from .linalg import Subspace
from .operators import (OperatorSpace, derivation_space,
                        generalized_derivation_space,
                        leibniz_derivation_space, local_derivation_generic_space,
                        local_derivation_test)
from .poisson import (CustomaryIdentity, check_poisson_family,
                      customary_check, transposed_compatible_space)
from .scalars import DomainError, QQ
from .structure import (Algebra, StructureTensor, algebra_to_json,
                        load_algebra, save_algebra)
from .varieties import check_variety, list_varieties


class UsageError(Exception):
    pass


def _jsonify(x):
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Subspace):
        return {"dim": x.dim, "basis": _jsonify(x.basis)}
    if isinstance(x, OperatorSpace):
        return {"tag": x.tag, "dim": x.dim, "basis": _jsonify(x.matrices()),
                "meta": _jsonify(x.meta)}
    if isinstance(x, StructureTensor):
        return _jsonify({"arity": x.arity,
                         "table": [{"args": list(a), "out": sorted(
                             [k, x.dom.to_str(c)] for k, c in row.items())}
                                   for a, row in sorted(x.table.items())]})
    if isinstance(x, Algebra):
        return algebra_to_json(x)
    if hasattr(x, "v") and hasattr(x, "p"):
        return str(x.v)
    return str(x)


def _input_error(path, e):
    """The UsageError (exit 2) for a failure to read ``path`` or to accept
    its document."""
    if isinstance(e, FileNotFoundError):
        return UsageError(f"no such file: {path}")
    if isinstance(e, OSError):
        return UsageError(f"cannot read {path}: {e.strerror or e}")
    if isinstance(e, json.JSONDecodeError):
        return UsageError(f"malformed JSON in {path}: line {e.lineno} col {e.colno}")
    if isinstance(e, DomainError):
        return UsageError(f"{path}: {e}")
    # not UTF-8, an integer too long to convert, nesting too deep
    return UsageError(f"unreadable JSON in {path}: {e}")


_INPUT_ERRORS = (OSError, ValueError, RecursionError)


def _load(path):
    try:
        return load_algebra(path)
    except _INPUT_ERRORS as e:
        raise _input_error(path, e)


def _read(path, parse, *args):
    """parse(document, *args) on the JSON document in ``path``; the reader
    that owns the format checks it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return parse(doc, *args)
    except _INPUT_ERRORS as e:
        raise _input_error(path, e)


def _matrix(doc, n):
    if not (isinstance(doc, list) and len(doc) == n
            and all(isinstance(row, list) and len(row) == n for row in doc)):
        raise DomainError(f"expected a {n} x {n} matrix")
    return [[QQ.parse(x) for x in row] for row in doc]


def _matrices(doc, n):
    """A JSON list of n x n rational matrices: the one input format that no
    library reader owns."""
    if not isinstance(doc, list):
        raise DomainError(f"expected a list of {n} x {n} matrices")
    return [_matrix(m, n) for m in doc]


def _emit(args, report, human_lines):
    report = {"schema": "1", **report}
    if args.json:
        print(json.dumps(_jsonify(report), sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _emit_algebra(args, A):
    """Save A on --out; print its JSON with --json or when there is no --out."""
    if args.out:
        save_algebra(A, args.out)
    if args.json or not args.out:
        print(json.dumps(algebra_to_json(A), sort_keys=True))


def _parse_params(pairs):
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"--param expects key=value, got {item!r}")
        k, _, v = item.partition("=")
        try:
            if k == "seq":
                params[k] = tuple(int(x) for x in v.split(","))
            elif k == "form":
                params[k] = json.loads(v)
            else:
                try:
                    params[k] = int(v)
                except ValueError:
                    params[k] = Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--param {k}: bad value {v!r}")
    return params


def _verdict_exit(ok):
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_catalog(args):
    if args.action == "list":
        _emit(args, {"command": "catalog list", "names": CATALOG_NAMES,
                     "varieties": list_varieties()},
              ["catalog: " + ", ".join(CATALOG_NAMES),
               "varieties: " + ", ".join(list_varieties())])
        return 0
    _emit_algebra(args, catalog_get(args.name, _parse_params(args.param)))
    return 0


def cmd_variety(args):
    A = _load(args.algebra)
    rep = check_variety(A, args.variety, op=args.op)
    _emit(args, {"command": "variety check", "algebra": A.name,
                 "variety": args.variety, **rep},
          [f"{A.name} in variety {args.variety}: {rep['holds']}"]
          + [f"  precondition problem: {p}" for p in rep["preconditions"]])
    return _verdict_exit(rep["holds"])


def cmd_identity(args):
    A = _load(args.algebra)
    ident = parse_identity(args.identity)
    opmap = None
    if args.op:
        A.op(args.op)   # refused when the file has no such operation, used by the law or not
        opmap = {**default_opmap(A, ident.used_symbols()), "*": args.op}
    ok, wit = check_identity(A, ident, opmap=opmap)
    # the witness line is serialized only when the text is printed
    lines = [] if args.json else (
        [f"identity holds on {A.name}: {ok}"]
        + ([f"  witness: {json.dumps(_jsonify(wit))}"] if wit else []))
    _emit(args, {"command": "identity eval", "algebra": A.name,
                 "identity": args.identity, "holds": ok, "witness": wit}, lines)
    return _verdict_exit(ok)


def cmd_der(args):
    A = _load(args.algebra)
    op = args.op or A.op_names()[0]
    if args.der_action == "space":
        if args.local_generic:
            if args.delta is not None:
                raise UsageError("--delta does not apply to --local-generic")
            space = local_derivation_generic_space(A, op=op)
        else:
            delta = QQ.parse("1" if args.delta is None else args.delta)
            space = derivation_space(A, delta=delta, op=op)
        _emit(args, {"command": "der space", "algebra": A.name,
                     "dim": space.dim, "tag": space.tag, "space": space},
              [f"{space.tag} of {A.name}: dim {space.dim}"])
        return 0
    if args.der_action == "local":
        phi = _read(args.phi, _matrix, A.dim)
        res = local_derivation_test(A, phi, op=op)
        _emit(args, {"command": "der local", "algebra": A.name, **res},
              [f"local derivation verdict: {res['verdict']}"])
        return _verdict_exit(res["verdict"] == "GenericYes")
    if args.der_action == "leibniz":
        space = leibniz_derivation_space(A, args.k, args.arrangement, op=op)
        _emit(args, {"command": "der leibniz", "algebra": A.name,
                     "dim": space.dim, "invertible_exists":
                     space.meta["invertible_exists"], "space": space},
              [f"{space.tag} of {A.name}: dim {space.dim}, "
               f"invertible element exists: {space.meta['invertible_exists']}"])
        return 0
    if args.der_action == "generalized":
        space = generalized_derivation_space(A, mode=args.mode, op=op)
        _emit(args, {"command": "der generalized", "algebra": A.name,
                     "dim": space.dim, **space.meta},
              [f"{space.tag} of {A.name}: dim {space.dim}, "
               f"quotient by trivial: {space.meta['quotient_dim']}, "
               f"projections: {space.meta['projection_dims']}"])
        return 0
    raise UsageError("unknown der action")


def cmd_kantor(args):
    if args.kantor_action == "u2":
        A = u2_e_basis()
        doc = algebra_to_json(A)
        if args.out:
            save_algebra(A, args.out)
        print(json.dumps(doc, sort_keys=True) if args.json else
              f"U(2) in the e-basis: dim {A.dim} (u = v{A.meta_u_index + 1})")
        return 0
    A = _load(args.a)
    ta = A.op(args.op_a) if args.op_a else A.op()
    if args.kantor_action == "square":
        tb = ta
        B = A
    else:
        B = _load(args.b) if args.b else A
        tb = B.op(args.op_b) if args.op_b else B.op()
    _emit_algebra(args, Algebra(f"kantor({A.name},{B.name})", A.dim,
                                {"mul": kantor_product(ta, tb, args.u)}, A.dom))
    return 0


def cmd_conservative(args):
    A = _load(args.algebra)
    rep = conservativity_test(A, op=args.op)
    _emit(args, {"command": "conservative", "algebra": A.name,
                 "feasible": rep.feasible, "terminal": rep.terminal,
                 "homogeneous_value_space_dim": rep.homogeneous.dim,
                 "associated_product": rep.particular,
                 # the quasi-units differ by the kernel of K, the value space
                 "quasi_unit_space_dim": 0 if rep.quasi_unit is None else rep.homogeneous.dim,
                 "jacobi_element_space": rep.homogeneous},
          [f"{A.name}: conservative = {rep.feasible}, terminal = {rep.terminal}"])
    return _verdict_exit(rep.feasible)


def cmd_poisson(args):
    if args.poisson_action == "check":
        P = _load(args.algebra)
        rep = check_poisson_family(P, args.kind)
        _emit(args, {"command": "poisson check", "algebra": P.name, **rep},
              [f"{P.name} {args.kind}: {rep['holds']}"])
        return _verdict_exit(rep["holds"])
    if args.poisson_action == "tps-space":
        L = _load(args.algebra)
        res = transposed_compatible_space(L, op=args.op)
        _emit(args, {"command": "poisson tps-space", "algebra": L.name,
                     "dim": res["dim"], "certified_empty": res["certified_empty"],
                     "obstruction_count": len(res["obstructions"]),
                     "obstructions": [str(p) for p in res["obstructions"]],
                     "basis": res["basis"]},
              [f"compatible commutative products on {L.name}: dim {res['dim']}, "
               f"{len(res['obstructions'])} associativity obstructions"])
        return 0
    if args.poisson_action == "customary":
        P = _load(args.algebra)
        g = _read(args.g, CustomaryIdentity.from_json)
        ok, wit = customary_check(P, g)
        _emit(args, {"command": "poisson customary", "algebra": P.name,
                     "holds": ok, "witness": wit},
              [f"customary identity holds on {P.name}: {ok}"])
        return _verdict_exit(ok)
    raise UsageError("unknown poisson action")


def cmd_incidence(args):
    if args.incidence_action == "build":
        _emit_algebra(args, incidence_algebra(_read(args.poset, Poset.from_json)))
        return 0
    if args.incidence_action == "poisson-equiv":
        P = _read(args.poset, Poset.from_json)
        if args.exhaustive_gf is not None:
            rep = exhaustive_sigma_equiv(P, args.exhaustive_gf)
            _emit(args, {"command": "incidence poisson-equiv", **rep},
                  [f"exhaustive over GF({args.exhaustive_gf}): "
                   f"{rep['total']} sigmas, agree = {rep['agree']}"])
            return _verdict_exit(rep["agree"])
        if args.sigma is None:
            raise UsageError("poisson-equiv needs --sigma or --exhaustive-gf")
        sigma = _read(args.sigma, lambda doc: SigmaMap.from_json(P, doc))
        rep = poisson_sigma_equiv_test(P, sigma)
        _emit(args, {"command": "incidence poisson-equiv",
                     "chain_constant": rep["chain_constant"],
                     "poisson": rep["poisson"], "agree": rep["agree"]},
              [f"chain-constant: {rep['chain_constant']}, "
               f"poisson: {rep['poisson']}, agree: {rep['agree']}"])
        return _verdict_exit(rep["agree"])
    if args.incidence_action == "hd-check":
        A = _load(args.algebra)
        seq = HigherDerivationSeq(A, _read(args.sequence, _matrices, A.dim))
        ok, wit = higher_derivation_check(A, seq)
        _emit(args, {"command": "incidence hd-check", "holds": ok,
                     "witness": wit},
              [f"higher derivation of order {seq.order}: {ok}"])
        return _verdict_exit(ok)
    if args.incidence_action == "hd-compose":
        A = _load(args.algebra)
        s1 = HigherDerivationSeq(A, _read(args.d1, _matrices, A.dim))
        s2 = HigherDerivationSeq(A, _read(args.d2, _matrices, A.dim))
        out = hd_compose(s1, s2)
        doc = [_jsonify(m) for m in out.mats]
        print(json.dumps({"schema": "1", "command": "incidence hd-compose",
                          "mats": doc}, sort_keys=True))
        return 0
    raise UsageError("unknown incidence action")


def cmd_degen(args):
    A = _load(getattr(args, "from"))
    B = _load(args.to)
    if args.degen_action == "verify":
        cert = _read(args.cert, certificate_from_json)
        rep = degeneration_verify(A, B, cert)
        _emit(args, {"command": "degen verify", "from": A.name, "to": B.name,
                     "limit_exists": rep["limit_exists"],
                     "equals_B": rep["equals_B"]},
              [f"{A.name} -> {B.name}: limit exists = {rep['limit_exists']}, "
               f"equals target = {rep['equals_B']}"])
        return _verdict_exit(rep["limit_exists"] and rep["equals_B"])
    if args.degen_action == "obstruct":
        violations = degeneration_obstruction(A, B)
        _emit(args, {"command": "degen obstruct", "from": A.name,
                     "to": B.name, "violations": violations},
              [f"{len(violations)} violated necessary conditions"]
              + [f"  {v}" for v in violations])
        return _verdict_exit(not violations)
    raise UsageError("unknown degen action")


def cmd_ext(args):
    A = _load(args.algebra)
    if args.ext_action == "cocycles":
        res = cocycle_space(A, args.variety, s=args.s)
        _emit(args, {"command": "ext cocycles", "algebra": A.name,
                     "variety": args.variety, "s": args.s,
                     "Z2_dim": res["Z2_dim"], "B2_dim": res["B2_dim"],
                     "H2_dim": res["H2_dim"], "Z2": res["Z2"], "B2": res["B2"]},
              [f"Z2 = {res['Z2_dim']}, B2 = {res['B2_dim']}, "
               f"H2 = {res['H2_dim']}"])
        return 0
    if args.ext_action == "build":
        theta = Cocycle(_read(args.theta, _matrices, A.dim))
        ext, rep = central_extension(A, theta)
        doc = {"schema": "1", "command": "ext build",
               "algebra": algebra_to_json(ext), "report": _jsonify(rep)}
        if args.out:
            save_algebra(ext, args.out)
        print(json.dumps(doc, sort_keys=True) if args.json
              else f"extension {ext.name}: dim {ext.dim}; "
                   f"annihilator component trivial: "
                   f"{rep['annihilator_component_trivial']}")
        return 0
    raise UsageError("unknown ext action")


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves no state
    in it, and building the subcommand tree dominates a short request."""
    p = argparse.ArgumentParser(
        prog="workbench",
        description="Exact-arithmetic workbench for non-associative algebras")
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON report")
    # accept --json after the subcommand as well (it reads better in shells)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    def leaf(parent, name, **kw):
        return parent.add_parser(name, parents=[common], **kw)

    c = sub.add_parser("catalog", help="built-in algebra catalog")
    cs = c.add_subparsers(dest="action", required=True)
    leaf(cs, "list")
    g = leaf(cs, "get")
    g.add_argument("name")
    g.add_argument("-p", "--param", action="append",
                   help="key=value (repeatable); seq=2,1 for R")
    g.add_argument("--out")

    v = sub.add_parser("variety", help="variety membership")
    vs = v.add_subparsers(dest="action", required=True)
    vc = leaf(vs, "check")
    vc.add_argument("algebra")
    vc.add_argument("--variety", required=True)
    vc.add_argument("--op")

    i = sub.add_parser("identity", help="evaluate a DSL identity")
    isub = i.add_subparsers(dest="action", required=True)
    ie = leaf(isub, "eval")
    ie.add_argument("algebra")
    ie.add_argument("--identity", required=True)
    ie.add_argument("--op")

    d = sub.add_parser("der", help="derivation-type operator spaces")
    ds = d.add_subparsers(dest="der_action", required=True)
    dsp = leaf(ds, "space")
    dsp.add_argument("algebra")
    dsp.add_argument("--delta", help="the scale delta of delta-derivations (default 1)")
    dsp.add_argument("--op")
    dsp.add_argument("--local-generic", action="store_true")
    dl = leaf(ds, "local")
    dl.add_argument("algebra")
    dl.add_argument("--phi", required=True, help="JSON matrix file")
    dl.add_argument("--op")
    dlb = leaf(ds, "leibniz")
    dlb.add_argument("algebra")
    dlb.add_argument("--k", type=int, required=True)
    dlb.add_argument("--arrangement", default="all",
                     choices=["left", "right", "all"])
    dlb.add_argument("--op")
    dg = leaf(ds, "generalized")
    dg.add_argument("algebra")
    dg.add_argument("--mode", default="full", choices=["full", "quasi"])
    dg.add_argument("--op")

    k = sub.add_parser("kantor", help="Kantor products and U(n)")
    ks = k.add_subparsers(dest="kantor_action", required=True)
    kp = leaf(ks, "product")
    kp.add_argument("--a", required=True)
    kp.add_argument("--b")
    kp.add_argument("--u", type=int, default=0)
    kp.add_argument("--op-a")
    kp.add_argument("--op-b")
    kp.add_argument("--out")
    kq = leaf(ks, "square")
    kq.add_argument("--a", required=True)
    kq.add_argument("--u", type=int, default=0)
    kq.add_argument("--op-a")
    kq.add_argument("--out")
    ku = leaf(ks, "u2")
    ku.add_argument("--out")

    co = sub.add_parser("conservative", parents=[common],
                         help="conservativity / terminality")
    co.add_argument("algebra")
    co.add_argument("--op")

    po = sub.add_parser("poisson", help="Poisson-type structures")
    pos = po.add_subparsers(dest="poisson_action", required=True)
    pc = leaf(pos, "check")
    pc.add_argument("algebra")
    pc.add_argument("--kind", required=True,
                    choices=["poisson", "generic", "transposed",
                             "generalized", "poisson-structure"])
    pt = leaf(pos, "tps-space")
    pt.add_argument("algebra")
    pt.add_argument("--op")
    pcu = leaf(pos, "customary")
    pcu.add_argument("algebra")
    pcu.add_argument("--g", required=True, help="customary identity JSON")

    inc = sub.add_parser("incidence", help="posets and incidence algebras")
    incs = inc.add_subparsers(dest="incidence_action", required=True)
    ib = leaf(incs, "build")
    ib.add_argument("--poset", required=True)
    ib.add_argument("--out")
    ip = leaf(incs, "poisson-equiv")
    ip.add_argument("--poset", required=True)
    ip.add_argument("--sigma")
    ip.add_argument("--exhaustive-gf", type=int)
    ihc = leaf(incs, "hd-check")
    ihc.add_argument("--algebra", required=True)
    ihc.add_argument("--sequence", required=True, help="JSON list of matrices")
    ihk = leaf(incs, "hd-compose")
    ihk.add_argument("--algebra", required=True)
    ihk.add_argument("--d1", required=True)
    ihk.add_argument("--d2", required=True)

    de = sub.add_parser("degen", help="degeneration certificates")
    des = de.add_subparsers(dest="degen_action", required=True)
    dv = leaf(des, "verify")
    dv.add_argument("--from", required=True)
    dv.add_argument("--to", required=True)
    dv.add_argument("--cert", required=True)
    do = leaf(des, "obstruct")
    do.add_argument("--from", required=True)
    do.add_argument("--to", required=True)

    ex = sub.add_parser("ext", help="central extensions")
    exs = ex.add_subparsers(dest="ext_action", required=True)
    ec = leaf(exs, "cocycles")
    ec.add_argument("--algebra", required=True)
    ec.add_argument("--variety", required=True)
    ec.add_argument("--s", type=int, default=1)
    eb = leaf(exs, "build")
    eb.add_argument("--algebra", required=True)
    eb.add_argument("--theta", required=True)
    eb.add_argument("--out")
    return p


_HANDLERS = {
    "catalog": cmd_catalog,
    "variety": cmd_variety,
    "identity": cmd_identity,
    "der": cmd_der,
    "kantor": cmd_kantor,
    "conservative": cmd_conservative,
    "poisson": cmd_poisson,
    "incidence": cmd_incidence,
    "degen": cmd_degen,
    "ext": cmd_ext,
}


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, DomainError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
