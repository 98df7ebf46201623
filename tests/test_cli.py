import contextlib
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonassoc import kantor
from nonassoc.catalog import CATALOG_NAMES, catalog_get
from nonassoc.cli import run
from nonassoc.deform import certificate_from_json
from nonassoc.incidence import Poset, SigmaMap, crown_poset
from nonassoc.poisson import CustomaryIdentity
from nonassoc.scalars import DomainError
from nonassoc.structure import algebra_from_json, algebra_to_json, save_algebra


def _write(tmp_path, name, params=None):
    A = catalog_get(name, params or {})
    path = tmp_path / f"{name}.json"
    save_algebra(A, path)
    return str(path)


def test_variety_check_exit_codes(tmp_path, capsys):
    sl2 = _write(tmp_path, "sl2")
    assert run(["variety", "check", sl2, "--variety", "malcev"]) == 0
    capsys.readouterr()
    assert run(["variety", "check", sl2, "--variety", "commutative"]) == 1
    capsys.readouterr()
    assert run(["variety", "check", sl2, "--variety", "nope"]) == 2
    capsys.readouterr()


def test_usage_errors(tmp_path, capsys):
    assert run(["variety", "check", str(tmp_path / "missing.json"),
                "--variety", "lie"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["variety", "check", str(bad), "--variety", "lie"])
    out = capsys.readouterr()
    assert code == 2
    assert "line" in out.err
    # JSON that the decoder refuses without a position: too deep, too long an int
    for text in ("[" * 100_000 + "]" * 100_000, '{"dim": ' + "9" * 5000 + "}"):
        bad.write_text(text)
        assert run(["variety", "check", str(bad), "--variety", "lie"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_invalid_algebra_structure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"name": "x", "field": "Q", "dim": 2,
         "ops": [{"name": "mul", "arity": 2,
                  "table": [{"args": [0, 9], "out": [[0, "1"]]}]}]}))
    assert run(["variety", "check", str(bad), "--variety", "lie"]) == 2
    capsys.readouterr()
    bad.write_text(json.dumps(
        {"name": "x", "field": "GF(4)", "dim": 1, "ops": []}))
    assert run(["variety", "check", str(bad), "--variety", "lie"]) == 2
    capsys.readouterr()


_GOOD_DOC = {"name": "x", "field": "Q", "dim": 2,
             "ops": [{"name": "mul", "arity": 2,
                      "table": [{"args": [0, 1], "out": [[0, "1"]]}]}]}


def _bad_doc(**changes):
    doc = json.loads(json.dumps(_GOOD_DOC))
    entry = doc["ops"][0]["table"][0]
    for key, val in changes.items():
        if key in entry:
            entry[key] = val
        else:
            doc[key] = val
    return doc


_EYE3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
_HEIS3_GF7 = dict(algebra_to_json(catalog_get("heis3")), field="GF(7)")


@pytest.mark.parametrize("doc, argv", [
    (_bad_doc(out=[[0, "abc"]]), ["variety", "check", "{file}", "--variety", "lie"]),
    (_bad_doc(out=[[0, "1/0"]]), ["variety", "check", "{file}", "--variety", "lie"]),
    ([_GOOD_DOC], ["variety", "check", "{file}", "--variety", "lie"]),
    (dict(_GOOD_DOC, dim=-1, ops=[{"name": "mul", "arity": 2, "table": []}]),
     ["der", "space", "{file}"]),
    (_bad_doc(args="01"), ["variety", "check", "{file}", "--variety", "lie"]),
    (_bad_doc(unit=5), ["variety", "check", "{file}", "--variety", "lie"]),
    (None, ["catalog", "get", "NF", "-p", "n=abc"]),
    (_GOOD_DOC, ["identity", "eval", "{file}", "--identity", "(x*y"]),
    # the other JSON loaders; {sl2}, {tp4} and {poset} are valid inputs
    ([_EYE3, [["a", "0", "0"]] * 3],
     ["incidence", "hd-check", "--algebra", "{sl2}", "--sequence", "{file}"]),
    ([_EYE3, [["0", "0"], ["0", "0", "0"], ["0", "0", "0"]]],
     ["incidence", "hd-check", "--algebra", "{sl2}", "--sequence", "{file}"]),
    ({"m": 2}, ["poisson", "customary", "{tp4}", "--g", "{file}"]),
    ([["1"], ["0", "1"], ["0", "0", "1"]], ["der", "local", "{sl2}", "--phi", "{file}"]),
    ([[["0", "1", "0"], ["1"], ["0", "0", "0"]]],
     ["ext", "build", "--algebra", "{sl2}", "--theta", "{file}"]),
    ({"elements": [["1"], "2"]}, ["incidence", "build", "--poset", "{file}"]),
    ({"1<2": "1/0"},
     ["incidence", "poisson-equiv", "--poset", "{poset}", "--sigma", "{file}"]),
    ([["t", "0"], [{}, "t"]],
     ["degen", "verify", "--from", "{sl2}", "--to", "{sl2}", "--cert", "{file}"]),
    # an order under a key other than "covers" is not read as an antichain
    ({"elements": ["a", "b", "c"], "relations": [["a", "b"], ["b", "c"]]},
     ["incidence", "build", "--poset", "{file}"]),
    # an unknown key at each level of each keyed format is an input error
    (dict(_GOOD_DOC, unitt=0), ["variety", "check", "{file}", "--variety", "lie"]),
    (dict(_GOOD_DOC, ops=[dict(_GOOD_DOC["ops"][0], arityy=2)]),
     ["variety", "check", "{file}", "--variety", "lie"]),
    (_bad_doc(outt=[]), ["variety", "check", "{file}", "--variety", "lie"]),
    ({"m": 2, "terms": [], "mm": 3}, ["poisson", "customary", "{tp4}", "--g", "{file}"]),
    # a repeated op name, args tuple or output index would drop a value
    (dict(_GOOD_DOC, ops=_GOOD_DOC["ops"] * 2), ["variety", "check", "{file}", "--variety", "lie"]),
    (dict(_GOOD_DOC, ops=[dict(_GOOD_DOC["ops"][0], table=_GOOD_DOC["ops"][0]["table"] * 2)]),
     ["variety", "check", "{file}", "--variety", "lie"]),
    (_bad_doc(out=[[0, "1"], [0, "2"]]), ["variety", "check", "{file}", "--variety", "lie"]),
    # a misspelt "pairs" is not read as a term without pairs (the zero identity)
    ({"m": 2, "terms": [{"c": "1", "pair": [[1, 2]]}]},
     ["poisson", "customary", "{tp4}", "--g", "{file}"]),
    ({"1<2": "1", "garbage": "2"},
     ["incidence", "poisson-equiv", "--poset", "{poset}", "--sigma", "{file}"]),
    ({"1<2": "1", "a<z": "2"},
     ["incidence", "poisson-equiv", "--poset", "{poset}", "--sigma", "{file}"]),
    ([["t", "0"], ["0", "1/0"]],
     ["degen", "verify", "--from", "{sl2}", "--to", "{sl2}", "--cert", "{file}"]),
    # a directory, a file that is not UTF-8 text
    (None, ["variety", "check", "{dir}", "--variety", "lie"]),
    (None, ["incidence", "build", "--poset", "{dir}"]),
    (b'{"name": "\xe9"}', ["variety", "check", "{file}", "--variety", "lie"]),
    (b'{"elements": ["\xe9"]}', ["incidence", "build", "--poset", "{file}"]),
    # an explicit op or parameter name must exist
    (None, ["poisson", "tps-space", "{sl2}", "--op", "nosuch"]),
    (None, ["catalog", "get", "NF", "-p", "n=3", "-p", "nn=4"]),
    (None, ["catalog", "get", "sl2", "-p", "n=5"]),
    # routes that answer over Q only: the certified generic rank of the
    # invertibility test, the associativity obstructions over Q[c]
    (_HEIS3_GF7, ["der", "leibniz", "{file}", "--k", "2"]),
    (_HEIS3_GF7, ["poisson", "tps-space", "{file}"]),
    # a Kantor product of a Q and a GF(7) multiplication, in both orders
    (_HEIS3_GF7, ["kantor", "product", "--a", "{sl2}", "--b", "{file}"]),
    (_HEIS3_GF7, ["kantor", "product", "--a", "{file}", "--b", "{sl2}"]),
    # a JSON boolean is no scalar, in every reader of scalars: read as 1, the
    # first algebra is commutative
    (dict(_GOOD_DOC, dim=1, ops=[{"name": "mul", "arity": 2,
                                  "table": [{"args": [0, 0], "out": [[0, True]]}]}]),
     ["variety", "check", "{file}", "--variety", "commutative"]),
    (_bad_doc(out=[[0, False]]), ["variety", "check", "{file}", "--variety", "lie"]),
    (dict(_GOOD_DOC, form=[[True, "0"], ["0", "1"]]),
     ["variety", "check", "{file}", "--variety", "lie"]),
    ({"1<2": True}, ["incidence", "poisson-equiv", "--poset", "{poset}", "--sigma", "{file}"]),
    ([[True, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
     ["der", "local", "{sl2}", "--phi", "{file}"]),
    ([[["0", True, "0"], ["-1", "0", "0"], ["0", "0", "0"]]],
     ["ext", "build", "--algebra", "{sl2}", "--theta", "{file}"]),
    ([_EYE3, [["0", "0", "0"], ["0", False, "0"], ["0", "0", "0"]]],
     ["incidence", "hd-check", "--algebra", "{sl2}", "--sequence", "{file}"]),
    ([["t", "0", "0"], ["0", True, "0"], ["0", "0", "t"]],
     ["degen", "verify", "--from", "{sl2}", "--to", "{sl2}", "--cert", "{file}"]),
    ({"m": 2, "terms": [{"c": True, "pairs": [[1, 2]]}]},
     ["poisson", "customary", "{tp4}", "--g", "{file}"]),
    (None, ["catalog", "get", "ternaryJordan", "-p", "n=2", "-p", "form=[[true,0],[0,1]]"]),
    # a scale that is no rational number, an absent operation bound to *
    (None, ["der", "space", "{sl2}", "--delta", "abc"]),
    (None, ["der", "space", "{sl2}", "--delta", "1/0"]),
    (None, ["identity", "eval", "{sl2}", "--identity", "x*y", "--op", "nosuch"]),
    # an extension by fewer than one dimension
    (None, ["ext", "cocycles", "--algebra", "{sl2}", "--variety", "lie", "--s", "0"]),
    (None, ["ext", "cocycles", "--algebra", "{sl2}", "--variety", "lie", "--s", "-2"]),
    # a scale that the local-derivation space does not take
    (None, ["der", "space", "{sl2}", "--delta", "1/2", "--local-generic"]),
])
def test_bad_input_exits_2_without_traceback(tmp_path, doc, argv):
    path = tmp_path / "in.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"elements": ["1", "2"], "covers": [["1", "2"]]}))
    files = {"{file}": str(path), "{poset}": str(poset), "{dir}": str(tmp_path),
             "{sl2}": _write(tmp_path, "sl2"), "{tp4}": _write(tmp_path, "tp4")}
    argv = [files.get(a, a) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "nonassoc.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def _heisenberg_with_map(diagonal, arity=1):
    """The file of e0 e1 = e2 = -e1 e0 with an operation D of the given
    arity: D = diag(diagonal) when unary, else D(e0, .., e0) = e0."""
    table = ([{"args": [i], "out": [[i, str(c)]]} for i, c in enumerate(diagonal) if c]
             if arity == 1 else [{"args": [0] * arity, "out": [[0, "1"]]}])
    return {"name": "heisD", "field": "Q", "dim": 3, "ops": [
        {"name": "mul", "arity": 2, "table": [{"args": [0, 1], "out": [[2, "1"]]},
                                              {"args": [1, 0], "out": [[2, "-1"]]}]},
        {"name": "D", "arity": arity, "table": table}]}


_DERIVATION_LAW = "D(x*y) - D(x)*y - x*D(y)"


@pytest.mark.parametrize("diagonal, code", [((1, 0, 1), 0), ((2, 0, 1), 1)])
def test_identity_eval_binds_a_unary_operation_of_the_file(tmp_path, diagonal, code):
    """A law's unary symbol D binds to the file's operation named D:
    diag(1, 0, 1) is a derivation of the Heisenberg product, and with
    D(e0) = 2 e0 the law fails, with a witness."""
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(_heisenberg_with_map(diagonal)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = run(["identity", "eval", str(path), "--identity", _DERIVATION_LAW, "--json"])
    report = json.loads(out.getvalue())
    assert got == code and report["holds"] is (code == 0)
    assert (report["witness"] is None) is (code == 0)


@pytest.mark.parametrize("law, arity", [("E(x*y) - E(x)*y - x*E(y)", 1),
                                        (_DERIVATION_LAW, 2),
                                        ("D(x, y) - D(y, x)", 1)])
def test_identity_eval_refuses_an_unbound_symbol(tmp_path, law, arity):
    """A symbol naming no operation of the file, or one of another arity,
    is still refused with exit 2 and no traceback."""
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(_heisenberg_with_map((1, 0, 1), arity)))
    code, err = _run_contained(["identity", "eval", str(path), "--identity", law])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_identity_eval_op_binds_star_on_top_of_the_defaults(tmp_path):
    """``--op mul`` binds * and keeps the default binding of []: on tp4 the
    --json report of [x,y]*z with it equals the one without it, and an --op
    naming no operation is still refused with exit 2, also by a law
    without *."""
    tp4 = _write(tmp_path, "tp4")
    argv = ["identity", "eval", tp4, "--identity", "[x,y]*z", "--json"]
    outs = []
    for extra in ([], ["--op", "mul"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            outs.append((run(argv + extra), out.getvalue()))
    assert outs[0] == outs[1] and outs[0][0] in (0, 1)
    for law in ("[x,y]*z", "[x,y]"):
        code, err = _run_contained(["identity", "eval", tp4, "--identity", law, "--op", "nosuch"])
        assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("k, codes", [(61, (0, 1)), (89, (2,))])
def test_large_prime_fields(tmp_path, k, codes):
    """An algebra over GF(2^61 - 1) gets its answer within seconds; over
    GF(2^89 - 1), beyond the proven range of the primality test, the input
    is refused with exit 2."""
    doc = algebra_to_json(catalog_get("sl2", {}))
    doc["field"] = f"GF({2 ** k - 1})"
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "nonassoc.cli", "variety", "check", str(path),
                           "--variety", "lie"], capture_output=True, text=True, timeout=30)
    assert proc.returncode in codes, proc.stderr
    assert "Traceback" not in proc.stderr


def test_identity_with_copy_named_variables(tmp_path, capsys):
    """The copies of x made by polarization do not take the name of the
    identity's own x1: (x*x)*(x1*x1) holds on the Lie algebra sl2 (x*x = 0)
    instead of ending in a traceback."""
    sl2 = _write(tmp_path, "sl2")
    assert run(["identity", "eval", sl2, "--identity", "(x*x)*(x1*x1)"]) == 0
    assert capsys.readouterr().err == ""


def test_huge_ratfunc_power_in_a_certificate_exits_2_at_once(tmp_path):
    """A certificate entry t^99999999 is refused by the degree bound on Q(t)
    powers, so ``degen verify`` answers exit 2 at once instead of
    multiplying 99999999 times."""
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps([["t^99999999", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    sl2 = _write(tmp_path, "sl2")
    argv = ["degen", "verify", "--from", sl2, "--to", sl2, "--cert", str(cert)]
    proc = subprocess.run([sys.executable, "-m", "nonassoc.cli"] + argv,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "exceeds degree" in proc.stderr
    assert "Traceback" not in proc.stderr
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == 2
    assert time.perf_counter() - start < 1


def test_sum_of_negative_powers_in_a_certificate_answers_in_time(tmp_path):
    """A 21-character entry whose reduction runs Euclid on two degree-100
    polynomials: with monic remainders ``degen verify`` answers in about a
    second (about a minute when the remainders' coefficients grew)."""
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps([["(t+1)^-100+(t+2)^-100"]]))
    ab1 = _write(tmp_path, "abelian", {"n": 1})
    argv = ["degen", "verify", "--from", ab1, "--to", ab1, "--cert", str(cert)]
    proc = subprocess.run([sys.executable, "-m", "nonassoc.cli"] + argv,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""


def _refuted_gf7_doc(name, op, entry, value, params=None):
    """The GF(7) file of a catalog algebra with the first output coordinate
    of one table entry set to value."""
    doc = algebra_to_json(catalog_get(name, params))
    doc["field"] = "GF(7)"
    doc["ops"][op]["table"][entry]["out"][0][1] = value
    return doc


def _gf7_pair_doc(seed, dim):
    """A unital GF(7) product e_i e_j = e_{i+j} with a seeded antisymmetric
    bracket: its generalized Poisson axioms fail at a basis tuple."""
    rng = random.Random(seed)
    mul = [{"args": [i, j], "out": [[i + j, "1"]]}
           for i in range(dim) for j in range(dim) if i + j < dim]
    bracket = []
    for i, j in itertools.combinations(range(dim), 2):
        out = {k: v for k in range(dim) if rng.random() < 0.5 and (v := rng.randint(-3, 3))}
        if out:
            bracket.append({"args": [i, j], "out": [[k, str(v)] for k, v in out.items()]})
            bracket.append({"args": [j, i], "out": [[k, str(-v)] for k, v in out.items()]})
    return {"name": f"pair{seed}", "field": "GF(7)", "dim": dim, "unit": 0,
            "ops": [{"name": "mul", "arity": 2, "table": mul},
                    {"name": "bracket", "arity": 2, "table": bracket}]}


_GF7_DOCS = {
    "sl2": lambda: _refuted_gf7_doc("sl2", 0, 0, "3"),
    "m2": lambda: _refuted_gf7_doc("matrix", 0, 2, "5", {"n": 2}),
    "octonions": lambda: _refuted_gf7_doc("octonions", 0, 5, "2"),
    "pair0": lambda: _gf7_pair_doc(0, 3),
    "pair1": lambda: _gf7_pair_doc(1, 4),
}

# sha256 of the stdout of each command on the refuted GF(7) files above,
# recorded while check_identity still took its witness defect from
# eval_identity_sparse; every command exits 1 with a defect
_GF7_WITNESS_SHA256 = {
    ("identity", "eval", "sl2", "--identity", "x*(y*z) + y*(z*x) + z*(x*y)"):
        "b40b47bf25c5d6ea9b293a4b887c47c70e893dd6b7a48dd33871a0b672256e4d",
    ("variety", "check", "sl2", "--variety", "malcev"):
        "b22432b307b346f9fd43ac2e76724ab6a350fe370bcd025c123bebec3bf3c570",
    ("identity", "eval", "m2", "--identity", "((x*x)*y)*x - (x*x)*(y*x)"):
        "0cefe53bb52f01583030f8dd2632c2987290f02a0320cec2f52141b30ad1d9e3",
    ("variety", "check", "m2", "--variety", "alternative"):
        "851b1e0be3b2e4bf9b0824df7197581e99b261b021c0409c92a3be50ee3d9e5f",
    ("variety", "check", "octonions", "--variety", "alternative"):
        "5c355182931e4d8a8fbba08131968430e891325359cbd3ac4dda0f61cae0fa3c",
    ("poisson", "check", "pair0", "--kind", "generalized"):
        "4b6e722cb632dcf435436c90c84f4f84740d912d67deb695765043f9010a26bb",
    ("poisson", "check", "pair1", "--kind", "generalized"):
        "e06d5878a79b5146c838bd4c181e1af66574c7d17a116fa5d502d0c660b8de47",
}


@pytest.mark.parametrize("argv", sorted(_GF7_WITNESS_SHA256), ids=" ".join)
def test_gf7_witness_json_is_unchanged(argv, tmp_path, capsys):
    path = tmp_path / f"{argv[2]}.json"
    path.write_text(json.dumps(_GF7_DOCS[argv[2]]()))
    assert run([*argv[:2], str(path), *argv[3:], "--json"]) == 1
    out = capsys.readouterr().out
    assert '"defect"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == _GF7_WITNESS_SHA256[argv]


def test_json_flag_after_subcommand(tmp_path, capsys):
    sl2 = _write(tmp_path, "sl2")
    assert run(["der", "space", sl2, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "1"


def test_consecutive_runs_share_no_state(tmp_path, capsys):
    """The parser is built once per process; no request may see another's
    flags or -p values, in either order, and a usage error leaves nothing
    behind."""
    sl2 = _write(tmp_path, "sl2")
    requests = [
        ["variety", "check", sl2, "--variety", "lie", "--json"],
        ["variety", "check", sl2, "--variety", "lie"],
        ["catalog", "get", "matrix", "-p", "n=2", "-p", "n=3"],
        ["catalog", "get", "matrix"],
        ["frobnicate"],
        ["identity", "eval", sl2, "--identity", "x*y - y*x"],
        ["catalog", "get", "NF", "-p", "n=2", "--json"],
        ["variety", "check", str(tmp_path / "missing.json"), "--variety", "lie"],
        ["variety", "check", sl2, "--variety", "commutative"],
    ]

    def once(argv):
        code = run(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    forward = [once(argv) for argv in requests]
    backward = [once(argv) for argv in reversed(requests)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [0, 0, 0, 2, 2, 1, 0, 2, 1]
    assert json.loads(forward[0][1])["holds"] is True
    assert forward[1][1].startswith("sl2 in variety lie: True")
    assert json.loads(forward[2][1])["dim"] == 9     # the last -p wins
    assert forward[3][1] == "" and forward[3][2].startswith("error:")
    assert json.loads(forward[6][1])["dim"] == 2


def test_catalog_get_pipe(tmp_path, capsys):
    assert run(["catalog", "get", "NF", "-p", "n=3"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert run(["catalog", "get", "R", "-p", "seq=2,1"]) == 0
    capsys.readouterr()


def test_der_space_json_report(tmp_path, capsys):
    m8 = _write(tmp_path, "M8")
    assert run(["--json", "der", "space", m8, "--local-generic"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["dim"] == 28


def test_json_determinism(tmp_path, capsys):
    sl2 = _write(tmp_path, "sl2")
    assert run(["--json", "der", "space", sl2]) == 0
    first = capsys.readouterr().out
    assert run(["--json", "der", "space", sl2]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_degen_cli(tmp_path, capsys):
    nf2 = _write(tmp_path, "NF", {"n": 2})
    zero = tmp_path / "zero2.json"
    save_algebra(catalog_get("abelian", {"n": 2}), zero)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps([["t", "0"], ["0", "t^3"]]))
    assert run(["degen", "verify", "--from", nf2, "--to", str(zero),
                "--cert", str(cert)]) == 0
    capsys.readouterr()
    assert run(["degen", "obstruct", "--from", nf2, "--to", str(zero)]) == 0
    capsys.readouterr()
    # reversed direction is obstructed
    assert run(["degen", "obstruct", "--from", str(zero), "--to", nf2]) == 1
    capsys.readouterr()


def test_poisson_cli(tmp_path, capsys):
    tp4 = _write(tmp_path, "tp4")
    assert run(["poisson", "check", tp4, "--kind", "poisson"]) == 0
    capsys.readouterr()
    sl2 = _write(tmp_path, "sl2")
    assert run(["--json", "poisson", "tps-space", sl2, "--op", "mul"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 0 and doc["certified_empty"]


def test_incidence_cli(tmp_path, capsys):
    poset = tmp_path / "p.json"
    poset.write_text(json.dumps(
        {"elements": ["1", "2", "3", "4"],
         "covers": [["1", "3"], ["1", "4"], ["2", "3"], ["2", "4"]]}))
    sigma = tmp_path / "s.json"
    sigma.write_text(json.dumps({"1<3": "1", "1<4": "2", "2<3": "3",
                                 "2<4": "5/2"}))
    assert run(["incidence", "poisson-equiv", "--poset", str(poset),
                "--sigma", str(sigma)]) == 0
    capsys.readouterr()
    assert run(["--json", "incidence", "poisson-equiv", "--poset", str(poset),
                "--exhaustive-gf", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agree"] and doc["total"] == 81
    assert run(["incidence", "build", "--poset", str(poset)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 8
    # neither --sigma nor --exhaustive-gf, and a zero modulus: usage errors
    assert run(["incidence", "poisson-equiv", "--poset", str(poset)]) == 2
    out = capsys.readouterr()
    assert "--sigma or --exhaustive-gf" in out.err and "Traceback" not in out.err
    assert run(["incidence", "poisson-equiv", "--poset", str(poset),
                "--exhaustive-gf", "0"]) == 2
    out = capsys.readouterr()
    assert "0 is not prime" in out.err and "Traceback" not in out.err


def test_ext_cli(tmp_path, capsys):
    ab2 = _write(tmp_path, "abelian", {"n": 2})
    assert run(["--json", "ext", "cocycles", "--algebra", ab2,
                "--variety", "lie", "--s", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["Z2_dim"], doc["B2_dim"], doc["H2_dim"]) == (1, 0, 1)
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps([[["0", "1"], ["-1", "0"]]]))
    out_path = tmp_path / "ext.json"
    assert run(["ext", "build", "--algebra", ab2, "--theta", str(theta),
                "--out", str(out_path)]) == 0
    capsys.readouterr()
    from nonassoc.structure import load_algebra
    ext = load_algebra(out_path)
    assert ext.dim == 3


def test_kantor_cli(tmp_path, capsys):
    o = _write(tmp_path, "octonions")
    assert run(["kantor", "square", "--a", o, "--u", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 8
    assert run(["kantor", "u2"]) == 0
    capsys.readouterr()
    assert run(["conservative", _write(tmp_path, "sl2")]) == 0
    capsys.readouterr()


def test_identity_cli(tmp_path, capsys):
    nf3 = _write(tmp_path, "NF", {"n": 3})
    assert run(["identity", "eval", nf3, "--identity",
                "(x*y)*z - (x*z)*y - x*(y*z)"]) == 0
    capsys.readouterr()
    assert run(["identity", "eval", nf3, "--identity", "x*y - y*x"]) == 1
    witness = capsys.readouterr().out.splitlines()[1]
    assert witness.startswith("  witness: ")
    assert json.loads(witness[len("  witness: "):])["tuple"]


def test_hd_cli(tmp_path, capsys):
    ut2 = _write(tmp_path, "uppertri", {"n": 2})
    eye = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    zero = [["0"] * 3 for _ in range(3)]
    # d = (id, ad(e12), 0) is a higher derivation of T_2 since ad(e12)^2 = 0
    from nonassoc.operators import multiplication_operator
    from nonassoc.catalog import catalog_get as _cg
    from fractions import Fraction as F
    A = _cg("uppertri", {"n": 2})
    r = [F(0), F(1), F(0)]
    L, R = (multiplication_operator(A, (r,), slot=s) for s in (1, 0))
    admat = [[str(L[i][j] - R[i][j])
              for j in range(3)] for i in range(3)]
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps([eye, admat, zero]))
    assert run(["incidence", "hd-check", "--algebra", ut2,
                "--sequence", str(seq_path)]) == 0
    capsys.readouterr()
    bad_path = tmp_path / "bad_seq.json"
    bad_path.write_text(json.dumps(
        [eye, [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], zero]))
    assert run(["incidence", "hd-check", "--algebra", ut2,
                "--sequence", str(bad_path)]) == 1
    capsys.readouterr()
    assert run(["incidence", "hd-compose", "--algebra", ut2,
                "--d1", str(seq_path), "--d2", str(seq_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["mats"]) == 3


def test_der_local_cli(tmp_path, capsys):
    m8 = _write(tmp_path, "M8")
    phi = tmp_path / "phi.json"
    M = [["0"] * 8 for _ in range(8)]
    M[0][1] = "1"
    M[1][0] = "-1"
    phi.write_text(json.dumps(M))
    assert run(["der", "local", m8, "--phi", str(phi)]) == 0
    capsys.readouterr()
    M[1][0] = "1"  # symmetric: refuted
    phi.write_text(json.dumps(M))
    assert run(["der", "local", m8, "--phi", str(phi)]) == 1
    capsys.readouterr()


def test_poisson_customary_cli(tmp_path, capsys):
    tp4 = _write(tmp_path, "tp4")
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"m": 2, "terms": [
        {"c": "1", "pairs": [[1, 2]], "D": []},
        {"c": "1", "pairs": [[2, 1]], "D": []}]}))
    assert run(["poisson", "customary", tp4, "--g", str(g)]) == 0
    capsys.readouterr()
    g.write_text(json.dumps({"m": 2, "terms": [
        {"c": "1", "pairs": [[1, 2]], "D": []}]}))
    assert run(["poisson", "customary", tp4, "--g", str(g)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["conservative", "{file}"], ["--json", "conservative", "{file}"],
                                  ["variety", "check", "{file}", "--variety", "terminal"]])
def test_terminal_product_is_refused_in_characteristic_3(tmp_path, capsys, argv):
    """Over GF(3) the terminal test's product 2/3 xy + 1/3 yx is undefined:
    the request exits 2, names that product and characteristic 3 on
    stderr, and prints nothing on stdout."""
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(dict(algebra_to_json(catalog_get("sl2")), field="GF(3)")))
    assert run([a.format(file=path) for a in argv]) == 2
    assert capsys.readouterr() == ("", "error: the terminal test's product 2/3 xy + 1/3 yx is "
                                       "undefined in characteristic 3\n")


@pytest.mark.parametrize("name,params,variety,code,out", [
    ("heis3", {}, "malcev", 0, "heis3 in variety malcev: True\n"),
    ("D", {"dim": 4}, "3-lie", 0, "D(4) in variety 3-lie: True\n"),
    ("heis3", {}, "jordan", 2, "")])
def test_gf3_polarizes_below_the_largest_degree_of_one_variable(tmp_path, capsys, name, params,
                                                               variety, code, out):
    """Over GF(3) Malcev (total degree 4) and 3-Lie (total degree 3) answer,
    as each of their variables has degree at most 2; Jordan, with a variable
    of degree 3, is refused."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps(dict(algebra_to_json(catalog_get(name, params)), field="GF(3)")))
    assert run(["variety", "check", str(path), "--variety", variety]) == code
    got = capsys.readouterr()
    assert got.out == out
    assert got.err == ("" if code == 0 else "error: polarization needs characteristic 0 or > 3, "
                                             "got 3\n")


@pytest.mark.parametrize("name,params", [("quaternions", {}), ("sl2", {}), ("NF", {"n": 3}),
                                         ("abelian", {"n": 2}), ("U2e", {})])
def test_conservative_builds_k_once_and_takes_one_kernel(tmp_path, capsys, monkeypatch, name,
                                                          params):
    """``conservative`` builds Kantor's K once and takes at most one kernel
    per request, and reports the quasi-unit space that ``quasi_unit_space``
    computes on its own: the value space when a quasi-unit exists, else 0."""
    path = _write(tmp_path, name, params)
    calls = {"_k_rows": 0, "kernel": 0}

    def counted(f):
        def wrapper(*args, **kwargs):
            calls[f.__name__] += 1
            return f(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(kantor, "_k_rows", counted(kantor._k_rows))
    monkeypatch.setattr(kantor, "kernel", counted(kantor.kernel))
    assert run(["--json", "conservative", path]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    assert calls == {"_k_rows": 1, "kernel": 1}
    monkeypatch.undo()
    assert doc["quasi_unit_space_dim"] == kantor.quasi_unit_space(catalog_get(name, params))[0].dim


def test_kantor_u_out_of_range_exits_2(tmp_path, capsys):
    """--u must be a basis index of the algebra: 7 and -1 on a
    2-dimensional algebra are input errors, not an empty table."""
    ab = _write(tmp_path, "abelian", {"n": 2})
    for action, extra in (("square", []), ("product", ["--b", ab])):
        for u in ("7", "2", "-1"):
            assert run(["kantor", action, "--a", ab, "--u", u] + extra) == 2
            out = capsys.readouterr()
            assert out.out == "" and "Traceback" not in out.err
        assert run(["kantor", action, "--a", ab, "--u", "1"] + extra) == 0
        capsys.readouterr()


def test_kantor_product_with_op_flags(tmp_path, capsys):
    tp4 = _write(tmp_path, "tp4")
    assert run(["kantor", "product", "--a", tp4, "--b", tp4, "--u", "0",
                "--op-a", "bracket", "--op-b", "mul"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ops"][0]["table"] == []  # [[bracket, mul]] is zero on tp4


def test_catalog_round_trips_through_cli(tmp_path, capsys):
    """catalog get NAME | variety check passes the defining variety."""
    cases = [("sl2", {}, "lie"), ("NF", {"n": 3}, "leibniz"),
             ("octonions", {}, "alternative"),
             ("zinbiel-free1", {"n": 3}, "zinbiel"),
             ("tp4", {}, None)]
    for name, params, variety in cases:
        path = _write(tmp_path, name, params)
        if variety:
            assert run(["variety", "check", path, "--variety", variety]) == 0
        else:
            assert run(["poisson", "check", path, "--kind", "poisson"]) == 0
        capsys.readouterr()


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "nonassoc.cli", "catalog",
                           "list"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "octonions" in proc.stdout


def test_import_does_not_load_numpy():
    """The library never imports numpy, not even for the GF(p) sigma sweep."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nonassoc.cli\n"
         "from nonassoc.incidence import chain_poset, exhaustive_sigma_equiv\n"
         "assert exhaustive_sigma_equiv(chain_poset(3), 3)['agree']\n"
         "sys.exit('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# input-contract fuzz: any input file, DSL string or -p value gives exit
# 0, 1 or 2 and no exception.  Sizes are bounded (dims come from small
# integers, at most five variable occurrences in an identity, -p numbers in
# [-2, 4]) because the contract is about input errors, not resource limits.
# ---------------------------------------------------------------------------

_SCALARS = (st.none() | st.booleans() | st.integers(-2, 4)
            | st.sampled_from(["1", "-1/2", "1/0", "abc", "", "0", "2"]))
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(
                       ["name", "field", "dim", "ops", "arity", "table", "args",
                        "out", "unit", "u", "form", "x", "elements", "covers",
                        "1<2", "m", "terms", "c", "pairs", "D"]), inner, max_size=4)),
    max_leaves=10)
_BASE_DOCS = [("sl2", {}), ("NF", {"n": 2}), ("tp4", {}), ("abelian", {"n": 1})]


def _mutated(data, doc):
    """doc with one to three random subtrees replaced, deleted or added, or
    with one to three scalar leaves replaced by scalars."""
    doc = json.loads(json.dumps(doc))
    leaves_only = data.draw(st.booleans())
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        while (isinstance(node, (list, dict)) and node
               and (leaves_only or data.draw(st.booleans()))):
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            parent, key = node, data.draw(st.sampled_from(keys))
            node = node[key]
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if leaves_only:
            if parent is not None:
                parent[key] = data.draw(_SCALARS)
        elif parent is None:
            doc = data.draw(_JSON_VALUES)
        elif action == "delete":
            del parent[key]
        elif action == "add" and isinstance(parent, list):
            parent.append(data.draw(_JSON_VALUES))
        else:
            parent[key] = data.draw(_JSON_VALUES)
    return doc


def _run_contained(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


_DSL = (st.text(alphabet="xyz*+-,()[]=D2/ ", max_size=16)
        | st.lists(st.sampled_from(["x", "y", "z", "*", "+", "-", "(", ")", "[", "]",
                                    ",", "=", "D(", "2", "1/2", "1/0", " ", "x*y",
                                    "(x*y)", "(x,y,z)", "[x,y]"]),
                   max_size=10).map("".join)).filter(
    lambda s: sum(s.count(v) for v in "xyz") <= 5)
_FILE_COMMANDS = [
    ["variety", "check", "{file}", "--variety", "lie"],
    ["variety", "check", "{file}", "--variety", "jordan"],
    ["variety", "check", "{file}", "--variety", "nope"],
    ["der", "space", "{file}"],
    ["poisson", "check", "{file}", "--kind", "poisson"],
    ["identity", "eval", "{file}", "--identity", "(x*y)*z - x*(y*z)"],
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_contract_fuzz_algebra_files(tmp_path_factory, data):
    name, params = data.draw(st.sampled_from(_BASE_DOCS))
    doc = _mutated(data, algebra_to_json(catalog_get(name, params)))
    path = tmp_path_factory.mktemp("fuzz") / "a.json"
    text = json.dumps(doc)
    if data.draw(st.booleans()):
        text = text[:data.draw(st.integers(0, len(text)))]   # truncated JSON
    path.write_text(text)
    argv = [str(path) if a == "{file}" else a
            for a in data.draw(st.sampled_from(_FILE_COMMANDS))]
    code, err = _run_contained(argv + data.draw(st.sampled_from([[], ["--json"]])))
    assert code in (0, 1, 2)
    assert code != 2 or err.startswith("error: ") or err.startswith("usage: ")


_EYE2 = [["1", "0"], ["0", "1"]]
_CROWN = {"elements": ["1", "2", "3", "4"],
          "covers": [["1", "3"], ["1", "4"], ["2", "3"], ["2", "4"]]}
_CROWN_SIGMA = {"1<3": "1", "1<4": "2", "2<3": "3", "2<4": "5/2"}
_CUSTOMARY = {"m": 3, "terms": [{"c": "1", "pairs": [[1, 2]], "D": [3]},
                                {"c": "-1/2", "pairs": [[2, 1]]}, {"D": [1]}]}
_CERTIFICATE = [["t", "0"], ["0", "t^3"]]
_SEQUENCE = [_EYE2, [["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
_THETA = [[["0", "1"], ["-1", "0"]]]
# (base document, commands reading it); {ab2}, {nf2}, {tp4} and {crown} are
# valid inputs
_OTHER_DOCUMENTS = [
    (_CROWN, [["incidence", "build", "--poset", "{file}"],
              ["incidence", "poisson-equiv", "--poset", "{file}", "--exhaustive-gf", "3"]]),
    (_CROWN_SIGMA, [["incidence", "poisson-equiv", "--poset", "{crown}", "--sigma", "{file}"]]),
    (_CUSTOMARY, [["poisson", "customary", "{tp4}", "--g", "{file}"]]),
    (_CERTIFICATE, [["degen", "verify", "--from", "{nf2}", "--to", "{ab2}", "--cert", "{file}"]]),
    (_SEQUENCE, [["incidence", "hd-check", "--algebra", "{ab2}", "--sequence", "{file}"],
                 ["incidence", "hd-compose", "--algebra", "{ab2}", "--d1", "{file}",
                  "--d2", "{file}"]]),
    (_THETA, [["ext", "build", "--algebra", "{ab2}", "--theta", "{file}"]]),
    (_EYE2, [["der", "local", "{nf2}", "--phi", "{file}"]]),
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_contract_fuzz_other_documents(tmp_path_factory, data):
    """The poset, sigma, customary-identity, certificate and matrix-list
    files under the same contract as the algebra files."""
    base, commands = data.draw(st.sampled_from(_OTHER_DOCUMENTS))
    tmp = tmp_path_factory.mktemp("fuzz")
    files = {"{file}": tmp / "in.json", "{crown}": tmp / "crown.json"}
    files["{crown}"].write_text(json.dumps(_CROWN))
    for key, name, params in (("{ab2}", "abelian", {"n": 2}), ("{nf2}", "NF", {"n": 2}),
                              ("{tp4}", "tp4", {})):
        files[key] = tmp / f"{name}.json"
        save_algebra(catalog_get(name, params), files[key])
    text = json.dumps(_mutated(data, base))
    if data.draw(st.booleans()):
        text = text[:data.draw(st.integers(0, len(text)))]   # truncated JSON
    files["{file}"].write_text(text)
    argv = [str(files.get(a, a)) for a in data.draw(st.sampled_from(commands))]
    code, err = _run_contained(argv + data.draw(st.sampled_from([[], ["--json"]])))
    assert code in (0, 1, 2)
    assert code != 2 or err.startswith("error: ") or err.startswith("usage: ")


_READERS = [
    (algebra_to_json(catalog_get("NF", {"n": 2})), algebra_from_json),
    (_CROWN, Poset.from_json),
    (_CROWN_SIGMA, lambda doc: SigmaMap.from_json(crown_poset(), doc)),
    (_CUSTOMARY, CustomaryIdentity.from_json),
    (_CERTIFICATE, certificate_from_json),
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_readers_raise_only_domain_error(data):
    """Each library reader accepts a document or raises DomainError: never
    KeyError, TypeError, AttributeError or IndexError."""
    base, read = data.draw(st.sampled_from(_READERS))
    doc = _mutated(data, base)
    try:
        read(doc)
    except DomainError:
        pass


@settings(max_examples=200, deadline=None)
@example("21/0", "NF")
@example("D(x) - 1/0 x", "NF")
@given(_DSL, st.sampled_from(["sl2", "tp4", "NF"]))
def test_cli_contract_fuzz_identity_dsl(tmp_path_factory, text, name):
    path = tmp_path_factory.mktemp("fuzz") / "a.json"
    save_algebra(catalog_get(name, {"n": 2} if name == "NF" else {}), path)
    code, err = _run_contained(["identity", "eval", str(path), "--identity", text])
    assert code in (0, 1, 2)
    assert code != 2 or err.startswith("error: ") or err.startswith("usage: ")


_PARAM_VALUES = (st.integers(-2, 4).map(str)
                 | st.sampled_from(["", "1/2", "3/0", "2,1", "1,-1", "0,0,0", "a",
                                    "[[1,0],[0,1]]", "[[1]]", "[]", "{}", "null",
                                    "[[1,0],[0,a]]", "2.5", "-"]))


@settings(max_examples=200, deadline=None)
@example("ternaryJordan", [("form", "3", "="), ("n", "4", "=")])
@example("ternaryJordan", [("n", "2", "="), ("form", "[[1]]", "=")])
@example("ternaryJordan", [("n", "1", "="), ("form", '[["a"]]', "=")])
@example("ternaryJordan", [("n", "1", "="), ("form", '[["1/0"]]', "=")])
@example("ternaryJordan", [("n", "1", "="), ("form", "[[null]]", "=")])
@given(st.sampled_from(CATALOG_NAMES + ["nope"]),
       st.lists(st.tuples(st.sampled_from(["n", "seq", "form", "theta", "alpha",
                                           "arity", "dim", "k", ""]),
                          _PARAM_VALUES, st.sampled_from(["=", ":", "=="])),
                max_size=3))
def test_cli_contract_fuzz_params(name, params):
    argv = ["catalog", "get", name]
    for key, value, sep in params:
        argv += ["-p", f"{key}{sep}{value}"]
    code, err = _run_contained(argv)
    assert code in (0, 2)
    assert code == 0 or err.startswith("error: ") or err.startswith("usage: ")


def test_oversized_polarization_exits_2_at_once(tmp_path, capsys):
    """Degree 10 in one variable would need 10! term copies: the identity is
    refused before polarization starts; degree 7 still answers."""
    sl2 = _write(tmp_path, "sl2")
    start = time.perf_counter()
    assert run(["identity", "eval", sl2, "--identity", "x*x*x*x*x*x*x*x*x*x"]) == 2
    assert time.perf_counter() - start < 1
    assert "5040" in capsys.readouterr().err
    abelian = _write(tmp_path, "abelian", {"n": 2})
    assert run(["identity", "eval", abelian, "--identity", "x*x*x*x*x*x*x"]) == 0
