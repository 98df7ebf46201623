"""Structure tensors and algebras presented by structure constants.

An algebra is a finite-dimensional vector space with one or more named
multilinear operations, each stored as a sparse table mapping basis index
tuples to coefficient vectors.  All values are immutable after construction
and every function here is pure.
"""

from __future__ import annotations

import json

from .identities import Identity, add_products, law_table
from .linalg import inverse
from .scalars import QQ, DomainError, domain_from_name


class StructureTensor:
    """Sparse arity-m multiplication table on an n-dimensional space."""

    def __init__(self, dim, arity, table, dom=QQ):
        self.dim = dim
        self.arity = arity
        self.dom = dom
        tab = {}
        for args, out in table.items():
            args = tuple(args)
            if len(args) != arity:
                raise DomainError(f"argument tuple {args} has wrong length")
            if any(not (0 <= i < dim) for i in args):
                raise DomainError(f"basis index out of range in {args}")
            if isinstance(out, dict):
                items = out.items()
            else:
                items = out
            cleaned = {}
            for k, c in items:
                c = dom.coerce(c)
                if not (0 <= k < dim):
                    raise DomainError(f"output index {k} out of range")
                if not dom.is_zero(c):
                    cleaned[k] = c
            if cleaned:
                tab[args] = cleaned
        self.table = tab
        # the identity scan's forms of the table, one per scan domain, filled
        # and read by ``identities`` alone: the table is never written again
        self.scan_forms = {}

    def basis_product(self, args):
        """Sparse product of basis vectors, as {index: coeff}."""
        return self.table.get(tuple(args), {})

    def apply_sparse(self, svecs):
        """Evaluate on sparse vectors ({index: coeff} each); sparse result
        holding no zero entries."""
        dom = self.dom
        one = dom.one()
        out = {}
        add_products(self.table, svecs, out, one, one)
        return {k: c for k, c in out.items() if not dom.is_zero(c)}

    def apply(self, vectors):
        """Evaluate on dense vectors; dense result of length dim."""
        svecs = [{i: c for i, c in enumerate(v) if not self.dom.is_zero(c)}
                 for v in vectors]
        sparse = self.apply_sparse(svecs)
        out = [self.dom.zero()] * self.dim
        for k, c in sparse.items():
            out[k] = c
        return out

    def is_zero(self):
        return not self.table

    def scale(self, c):
        c = self.dom.coerce(c)
        return StructureTensor(
            self.dim, self.arity,
            {args: {k: c * v for k, v in row.items()}
             for args, row in self.table.items()}, self.dom)

    def add(self, other):
        if (other.dim, other.arity) != (self.dim, self.arity):
            raise DomainError("tensor shape mismatch")
        table = {args: dict(row) for args, row in self.table.items()}
        dom = self.dom
        for args, row in other.table.items():
            dst = table.setdefault(args, {})
            for k, c in row.items():
                s = dst.get(k, dom.zero()) + c
                if dom.is_zero(s):
                    dst.pop(k, None)
                else:
                    dst[k] = s
        return StructureTensor(self.dim, self.arity, table, dom)

    def __eq__(self, other):
        if not isinstance(other, StructureTensor):
            return NotImplemented
        if (self.dim, self.arity) != (other.dim, other.arity):
            return False
        keys = set(self.table) | set(other.table)
        dom = self.dom
        for args in keys:
            a = self.table.get(args, {})
            b = other.table.get(args, {})
            for k in set(a) | set(b):
                if not dom.is_zero(a.get(k, dom.zero()) - b.get(k, dom.zero())):
                    return False
        return True

    def __hash__(self):
        return hash((self.dim, self.arity, len(self.table)))

    def map_domain(self, dom, convert):
        return StructureTensor(
            self.dim, self.arity,
            {args: {k: convert(c) for k, c in row.items()}
             for args, row in self.table.items()}, dom)

    def __repr__(self):
        return f"StructureTensor(dim={self.dim}, arity={self.arity}, entries={len(self.table)})"


class Algebra:
    """A named algebra: shared dimension, ordered named operations.

    Optional extras: a designated unit basis index, a designated vector u
    (basis index), and a bilinear form used by form-defined products.
    """

    def __init__(self, name, dim, ops, dom=QQ, unit=None, u=None, form=None):
        self.name = name
        self.dim = dim
        self.dom = dom
        self.ops = dict(ops)
        for t in self.ops.values():
            if t.dim != dim:
                raise DomainError("operation dimension mismatch")
        self.unit = unit
        self.u = u
        self.form = form

    def map_domain(self, dom, convert):
        """This algebra over dom, each structure constant converted by
        ``convert``; the unit and u are kept, the form is not."""
        return Algebra(self.name, self.dim,
                       {name: t.map_domain(dom, convert) for name, t in self.ops.items()},
                       dom, unit=self.unit, u=self.u)

    def op(self, name=None):
        if name is None:
            return next(iter(self.ops.values()))
        if name not in self.ops:
            raise DomainError(f"algebra {self.name!r} has no operation {name!r}")
        return self.ops[name]

    def op_names(self):
        return list(self.ops)

    def basis_vector(self, i):
        v = [self.dom.zero()] * self.dim
        v[i] = self.dom.one()
        return v

    def __repr__(self):
        ops = ", ".join(f"{k}/{t.arity}" for k, t in self.ops.items())
        return f"Algebra({self.name!r}, dim={self.dim}, ops=[{ops}])"


def multiplication_operator(A, fixed, op=None, slot=0):
    """Matrix of a -> t(x_1, ..., a, ..., x_m), a in argument ``slot``.

    The fixed arguments fill the other slots in order; each is a basis
    index or a vector.  slot 0 gives right multiplication a -> a x for a
    binary t, slot 1 left multiplication a -> x a.
    """
    t = A.op(op)
    dom = A.dom
    n = A.dim
    fixed_vecs = []
    for f in fixed:
        if isinstance(f, int):
            v = {f: dom.one()}
        else:
            v = {i: dom.coerce(c) for i, c in enumerate(f)
                 if not dom.is_zero(dom.coerce(c))}
        fixed_vecs.append(v)
    M = [[dom.zero()] * n for _ in range(n)]
    for a in range(n):
        args = fixed_vecs[:slot] + [{a: dom.one()}] + fixed_vecs[slot:]
        for k, c in t.apply_sparse(args).items():
            M[k][a] = c
    return M


def linear_map(M, dom):
    """The n x n matrix M as an arity-1 StructureTensor over dom, each entry
    coerced into dom: the row of the argument (j,) is column j of M, so the
    tensor maps v to M v.  This is how a law binds a linear map, such as
    D(a) = {a,1} or Kantor's L = A(u, .): as an operation."""
    n = len(M)
    return StructureTensor(n, 1, {(j,): {i: M[i][j] for i in range(n)} for j in range(n)}, dom)


def change_basis(A, P):
    """Group action (P * mu)(x1,...,xm) = P mu(P^-1 x1, ..., P^-1 xm).

    P is given over A's scalar domain and must be invertible.  Each new
    table is the law table (``identities.law_table``) of
    P(mu(Q x0, ..., Q x_{m-1})) with Q = P^-1.
    """
    dom = A.dom
    P = [[dom.coerce(x) for x in row] for row in P]
    if len(P) != A.dim or any(len(r) != A.dim for r in P):
        raise DomainError("basis-change matrix has wrong shape")
    maps = {"P": linear_map(P, dom), "Q": linear_map(inverse(P, dom), dom)}
    new_ops = {}
    for name, t in A.ops.items():
        # zero-padded names sort in slot order
        xs = tuple(("Q", (("v", f"x{i:0{len(str(t.arity - 1))}d}"),)) for i in range(t.arity))
        law = Identity([(1, ("P", (("mu", xs),)))], {"mu": t.arity, "P": 1, "Q": 1})
        ops = {"mu": t, **maps}
        new_ops[name] = StructureTensor(A.dim, t.arity, law_table(
            Algebra(A.name, A.dim, ops, dom), law, dict(zip(ops, ops))), dom)
    unit = _transported_index(A, P, A.unit)
    u = _transported_index(A, P, A.u)
    return Algebra(A.name, A.dim, new_ops, dom, unit=unit, u=u, form=None)


def _transported_index(A, P, idx):
    # designated elements move by x -> Px; keep only if still a basis vector
    if idx is None:
        return None
    dom = A.dom
    img = [row[idx] for row in P]
    hits = [i for i, c in enumerate(img) if not dom.is_zero(c)]
    if len(hits) == 1 and img[hits[0]] == dom.one():
        return hits[0]
    return None


# ---------------------------------------------------------------------------
# JSON wire format (bit-exact contract shared by every module and the CLI)
# ---------------------------------------------------------------------------

def algebra_to_json(A):
    ops = []
    for name, t in A.ops.items():
        entries = []
        for args in sorted(t.table):
            out = [[k, A.dom.to_str(c)] for k, c in sorted(t.table[args].items())]
            entries.append({"args": list(args), "out": out})
        ops.append({"name": name, "arity": t.arity, "table": entries})
    doc = {"name": A.name, "field": A.dom.name, "dim": A.dim, "ops": ops}
    if A.unit is not None:
        doc["unit"] = A.unit
    if A.u is not None:
        doc["u"] = A.u
    if A.form is not None:
        doc["form"] = [[A.dom.to_str(c) for c in row] for row in A.form]
    return doc


def need(ok, what):
    """Raise DomainError(what) unless ok: the check of every JSON reader."""
    if not ok:
        raise DomainError(what)


def is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def check_keys(doc, required, optional, where):
    """``doc`` is a JSON object holding every key of ``required`` and no key
    outside ``required`` and ``optional``; ``where`` names it in errors."""
    if not isinstance(doc, dict):
        raise DomainError(f"{where} must be a JSON object")
    for key in doc:
        if key not in required and key not in optional:
            raise DomainError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in doc:
            raise DomainError(f"{where}: missing key {key!r}")


def algebra_from_json(doc):
    """Inverse of algebra_to_json; a malformed document raises DomainError
    naming the offending key or position."""
    check_keys(doc, ("name", "field", "dim", "ops"), ("unit", "u", "form"), "algebra")
    need(isinstance(doc["name"], str), "name must be a string")
    need(isinstance(doc["field"], str), "field must be a string")
    dom = domain_from_name(doc["field"])
    dim = doc["dim"]
    need(is_int(dim) and dim >= 1, "dim must be a positive integer")

    def index(x):
        return is_int(x) and 0 <= x < dim

    need(isinstance(doc["ops"], list) and doc["ops"], "ops must be a nonempty list")
    ops = {}
    for a, op in enumerate(doc["ops"]):
        where = f"ops[{a}]"
        check_keys(op, ("name", "arity", "table"), (), where)
        name, arity = op["name"], op["arity"]
        need(isinstance(name, str) and name not in ops,
             f"{where}: name must be a string naming no earlier op")
        need(is_int(arity) and arity >= 1, f"{where}: arity must be a positive integer")
        need(isinstance(op["table"], list), f"{where}: table must be a list")
        table = {}
        for b, entry in enumerate(op["table"]):
            # this loop runs per table entry of every file read, so each
            # message is formatted only when its check fails
            if not (isinstance(entry, dict) and entry.keys() == {"args", "out"}):
                check_keys(entry, ("args", "out"), (), f"{where}.table[{b}]")  # raises
            args, out = entry["args"], entry["out"]
            if not (isinstance(args, list) and len(args) == arity
                    and all(map(index, args)) and tuple(args) not in table):
                raise DomainError(f"{where}.table[{b}]: args must be {arity} basis "
                                  f"indices not listed before")
            if not (isinstance(out, list) and all(
                    isinstance(kc, list) and len(kc) == 2 and index(kc[0]) for kc in out)):
                raise DomainError(f"{where}.table[{b}]: out must be [[k, c], ...] "
                                  f"with basis indices k")
            row = {k: dom.parse(c) for k, c in out}
            if len(row) < len(out):
                raise DomainError(f"{where}.table[{b}]: out lists a basis index twice")
            table[tuple(args)] = row
        ops[name] = StructureTensor(dim, arity, table, dom)
    for key in ("unit", "u"):
        need(doc.get(key) is None or index(doc[key]), f"{key} must be a basis index")
    form = doc.get("form")
    if form is not None:
        need(isinstance(form, list) and len(form) == dim
             and all(isinstance(r, list) and len(r) == dim for r in form),
             "form must be a dim x dim matrix")
        form = [[dom.parse(c) for c in row] for row in form]
    return Algebra(doc["name"], dim, ops, dom,
                   unit=doc.get("unit"), u=doc.get("u"), form=form)


def save_algebra(A, path):
    with open(path, "w") as fh:
        json.dump(algebra_to_json(A), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_algebra(path):
    with open(path, encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))

