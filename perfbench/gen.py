"""Seeded inputs for the two workloads, and the results they must produce.

Everything here is computed apart from flutes: the declarations are
rendered as text, and the expected class extensions, analytic outcomes and
neighbourhoods come from this module's own model of the data (plain Python
sets and dicts over the generated links).  Results read back from a store
are turned into the same plain form by `plain` before they are compared.

Plain terms:
    ("str", s) | ("num", x) | ("atom", name) | ("alias", name)
    | ("rec", frozenset({(label, plain), ...}))
where a label is a field name, or ("pos", i) for a positional argument.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field

THRESHOLD = 5000.0      # fi_large keeps links through transactions above this

SPECS = {
    # file-backed store: wide persons with sparse links imported in large
    # batches, then a short run of small inserts
    "bulk_disk": dict(
        disk=True, persons=1800, fillers=12, batches=9, late_batches=1,
        txns=900, hubs=2, hub_share=0.05, self_share=0.03,
        updates=150, update_hub=False, txns_per_update=1, forward_every=0,
        queries=2000, query_batch=200, reopens=1),
    # in-memory store: narrow persons linked densely through hubs, a small
    # base import, then a long stream of small inserts with forward links
    "stream_mem": dict(
        disk=False, persons=396, fillers=0, batches=6, late_batches=0,
        txns=360, hubs=4, hub_share=0.4, self_share=0.03,
        updates=240, update_hub=True, txns_per_update=2, forward_every=4,
        queries=4000, query_batch=200, reopens=0),
}

# -- class definitions (storage-form type s-expressions) ---------------------


def _pair(head, a, b):
    return (f"(record (({head} (record (((pos 0) {a}) ((pos 1) {b}))))))")


def _pair_ty(head):
    return (f"(recordty (({head} (recordty (((pos 0) (tyalias person)) "
            f"((pos 1) (tyalias person)))))))")


def _link_ty(head):
    return (f"(recordty (({head} (recordty (((pos 0) (tyalias person)) "
            f"((pos 1) (tyalias trans)))))))")


_LINKS = ("(pred eq " + _pair("orig-of", "(var p)", "(var t)") + " (var s)) "
          "(pred eq " + _pair("recv-of", "(var q)", "(var t)") + " (var r))")


def _related(head, matrix):
    """Pairs (p, q) joined through a transaction t under the matrix."""
    return ("(subsetty " + _pair(head, "(var p)", "(var q)") + " " + _pair_ty(head)
            + " (exists t (tyalias trans) (exists s (tyalias orig_of) "
            "(exists r (tyalias recv_of) " + matrix + "))))")


def _neighbourhood(hub):
    return ("(subsetty (var x) (tyalias person) (exists f (tyalias fi_related) "
            "(or (pred eq " + _pair("fi-related", "(var x)", f"(alias {hub})")
            + " (var f)) (pred eq " + _pair("fi-related", f"(alias {hub})", "(var x)")
            + " (var f)))))")


CLASSES = {
    "person": "(recordty ((dob (strty)) (name (strty))))",
    "trans": "(recordty ((amount (numty)) (type (enumty (check cc)))))",
    "orig_of": _link_ty("orig-of"),
    "recv_of": _link_ty("recv-of"),
    "fi_related": _related("fi-related", "(and " + _LINKS + ")"),
    "m_target": _neighbourhood("p0"),
    "fi_2hop": ("(subsetty " + _pair("fi-2hop", "(var p)", "(var r)") + " "
                + _pair_ty("fi-2hop") + " (exists a (tyalias fi_related) "
                "(exists b (tyalias fi_related) (and (pred eq "
                + _pair("fi-related", "(var p)", "(var q)") + " (var a)) (pred eq "
                + _pair("fi-related", "(var q)", "(var r)") + " (var b))))))"),
    "fi_large": _related("fi-large", "(and (and " + _LINKS + ") (pred gt "
                         f"(select (var t) amount) (num {THRESHOLD})))"),
    # defined on the populated store, one timed defclass each
    "late": "(recordty ((cohort (enumty (late))) (dob (strty)) (name (strty))))",
    "flow": "(recordty ((dst (tyalias person)) (src (tyalias person)) (w (numty))))",
    "fi_rev": ("(subsetty " + _pair("fi-rev", "(var q)", "(var p)") + " "
               + _pair_ty("fi-rev") + " (exists a (tyalias fi_related) (pred eq "
               + _pair("fi-related", "(var p)", "(var q)") + " (var a))))"),
    "m_p1": _neighbourhood("p1"),
    # filled only by the proximity analytic: its proposition admits nothing
    "near": "(subsetty (var x) (tyalias person) (false))",
}
SETUP_CLASSES = ["person", "trans", "orig_of", "recv_of", "fi_related",
                 "m_target", "fi_2hop", "fi_large"]
LATE_CLASSES = ["late", "flow", "fi_rev", "m_p1"]


def setup_lines() -> list[str]:
    """Session commands that make a fresh session ready for a workload."""
    return (["same_as dob birth_date"]
            + [f"defclass {n} {CLASSES[n]}" for n in SETUP_CLASSES])


# -- plain terms ---------------------------------------------------------------

def rec(**fields):
    return ("rec", frozenset(fields.items()))


def pair(head, p, q):
    return ("rec", frozenset({(head, ("rec", frozenset({
        (("pos", 0), ("alias", p)), (("pos", 1), ("alias", q))})))}))


def plain(t):
    """A flutes term in plain form (reads only the term's public fields)."""
    kind = type(t).__name__
    if kind == "Str":
        return ("str", t.value)
    if kind == "Num":
        return ("num", t.value)
    if kind == "Atom":
        return ("atom", t.concept.name)
    if kind == "TermAlias":
        return ("alias", t.name)
    if kind == "Record":
        return ("rec", frozenset(
            (("pos", c.position) if c.position is not None else c.name, plain(v))
            for c, v in t.fields))
    return (kind, repr(t))


# -- the generated data ----------------------------------------------------------

@dataclass
class Person:
    name: str
    label: str
    dob: str
    birth_date: bool
    late: bool
    fillers: list

    def decl(self) -> str:
        fields = [f'"name"="{self.label}"',
                  f'"{"birth_date" if self.birth_date else "dob"}"="{self.dob}"']
        if self.late:
            fields.append('"cohort"=late()')
        fields.extend(f'"{k}"="{v}"' for k, v in self.fillers)
        return f"{self.name} := {{{', '.join(fields)}}};"

    def as_person(self):
        return rec(dob=("str", self.dob), name=("str", self.label))

    def as_late(self):
        return rec(cohort=("atom", "late"), dob=("str", self.dob),
                   name=("str", self.label))


@dataclass
class Txn:
    name: str
    amount: float
    kind: str
    orig: str
    recv: str
    og: str
    rc: str

    def decls(self) -> list[tuple[str, str]]:
        """(declared name, declaration) for the transaction and its links."""
        return [(self.name, f'{self.name} := {{"amount"={self.amount:.2f}, '
                            f'"type"={self.kind}()}};'),
                (self.og, f"{self.og} := orig-of({self.orig}, {self.name});"),
                (self.rc, f"{self.rc} := recv-of({self.recv}, {self.name});")]

    def as_trans(self):
        return rec(amount=("num", self.amount), type=("atom", self.kind))


@dataclass
class Op:
    """One timed operation with the outcome it must have."""
    kind: str              # load classify update defclass analytic query reopen
    lines: list = field(default_factory=list)     # timed session commands
    prep: list = field(default_factory=list)      # untimed commands before them
    decls: int = 0         # declarations it inserts or classifies
    expect: dict = field(default_factory=dict)


class _Model:
    """Expected store contents, advanced one find-members at a time."""

    def __init__(self):
        self.persons: dict[str, Person] = {}
        self.txns: dict[str, Txn] = {}
        self.links: dict[str, tuple[str, str, str]] = {}   # og/rc -> (kind, p, t)
        self.declared: list[str] = []
        self.typed: set[str] = set()
        self.classes: list[str] = []
        self.all: dict[str, set] = defaultdict(set)   # extension once defined
        self.ext: dict[str, set] = {}
        self.related: set[tuple[str, str]] = set()
        self.succ = defaultdict(set)
        self.pred = defaultdict(set)
        self.hops: set[tuple[str, str]] = set()

    def declare_person(self, p: Person):
        self.persons[p.name] = p
        self.declared.append(p.name)

    def declare_txn(self, t: Txn):
        self.txns[t.name] = t
        self.links[t.og] = ("orig", t.orig, t.name)
        self.links[t.rc] = ("recv", t.recv, t.name)
        self.declared.extend([t.name, t.og, t.rc])

    def refs(self, name):
        link = self.links.get(name)
        return () if link is None else (link[1], link[2])

    def define(self, name):
        self.classes.append(name)

    def find_members(self) -> dict:
        """Advance to the state after find-members; returns its expectation:
        terms promoted, and per class the new members and the member count."""
        # persons and transactions carry no references, so every declared one
        # is typed; a link is typed once both of its ends are declared
        ready = [n for n in self.declared if n not in self.typed
                 and all(r in self.persons or r in self.txns for r in self.refs(n))]
        self.typed.update(ready)
        for n in ready:
            if n in self.persons:
                p = self.persons[n]
                self.all["person"].add(p.as_person())
                if p.late:
                    self.all["late"].add(p.as_late())
            elif n in self.txns:
                self.all["trans"].add(self.txns[n].as_trans())
            else:
                kind, p, t = self.links[n]
                self.all[f"{kind}_of"].add(pair(f"{kind}-of", p, t))
                txn = self.txns[t]
                if {txn.og, txn.rc} <= self.typed:
                    self._relate(txn)
        before = self.ext
        self.ext = {c: set(self.all[c]) for c in self.classes}
        delta = {c: self.ext[c] - before.get(c, set()) for c in self.classes}
        return {"promoted": len(ready), "delta": delta,
                "sizes": {c: len(self.ext[c]) for c in self.classes}}

    def _relate(self, t: Txn):
        a, b = t.orig, t.recv
        if t.amount > THRESHOLD:
            self.all["fi_large"].add(pair("fi-large", a, b))
        if (a, b) in self.related:
            return
        self.related.add((a, b))
        self.succ[a].add(b)
        self.pred[b].add(a)
        self.all["fi_related"].add(pair("fi-related", a, b))
        self.all["fi_rev"].add(pair("fi-rev", b, a))
        for hub, cls in (("p0", "m_target"), ("p1", "m_p1")):
            if hub in (a, b):
                self.all[cls].add(("alias", b if a == hub else a))
        for hop in ({(a, r) for r in self.succ[b]}
                    | {(p, b) for p in self.pred[a]}):
            self.all["fi_2hop"].add(pair("fi-2hop", *hop))

    def graph(self, extra=()):
        """Undirected containment adjacency: declared links, one node per
        derived-class member, and the given (node, refs) pairs."""
        adj = defaultdict(set)

        def edge(a, b):
            adj[a].add(b)
            adj[b].add(a)

        for name in self.declared:
            adj[name]
            for r in self.refs(name):
                edge(name, r)
        for cls in ("fi_related", "m_target", "fi_2hop", "fi_large", "fi_rev", "m_p1"):
            for term in self.ext.get(cls, ()):
                node = (cls, term)
                adj[node]
                for r in _aliases(term):
                    edge(node, r)
        for node, refs in extra:
            adj[node]
            for r in refs:
                edge(node, r)
        return adj


def _aliases(term):
    if term[0] == "alias":
        return {term[1]}
    if term[0] == "rec":
        return set().union(*(_aliases(v) for _, v in term[1]))
    return set()


def walk(adj, start, k):
    """Nodes within k undirected steps of start (start included)."""
    seen = {start}
    frontier = [start]
    for _ in range(k):
        nxt = [m for n in frontier for m in adj[n] if m not in seen]
        seen.update(nxt)
        frontier = list(dict.fromkeys(nxt))
    return seen


# -- generation --------------------------------------------------------------------

class _Gen:
    def __init__(self, spec, seed):
        self.spec = spec
        self.rng = random.Random(seed)
        self.amounts: set[float] = set()
        self.np = 0
        self.nt = 0
        self.hubs = [f"p{i}" for i in range(spec["hubs"])]

    def person(self, late):
        rng = self.rng
        name = f"p{self.np}"
        self.np += 1
        dob = (f"{1900 + rng.randrange(100):04d}-{rng.randrange(1, 13):02d}-"
               f"{rng.randrange(1, 29):02d}")
        birth_date = rng.random() < 0.2
        fillers = [(f"x{j}", f"v{rng.randrange(10**9)}")
                   for j in range(self.spec["fillers"])]
        return Person(name, f"Person {name[1:]}", dob, birth_date, late, fillers)

    def partner(self, pool, a, hub_share):
        """The other end of a transaction from a: a itself with the self
        share, else a hub with hub_share, else a random person."""
        rng = self.rng
        if rng.random() < self.spec["self_share"]:
            return a
        if rng.random() < hub_share:
            return rng.choice(self.hubs)
        return rng.choice(pool)

    def txn(self, a, b):
        """A transaction between a and b, in random direction, with an
        amount no other transaction has."""
        rng = self.rng
        while True:
            amount = rng.randrange(100, 1_000_000) / 100
            if amount not in self.amounts:
                self.amounts.add(amount)
                break
        if rng.random() < 0.5:
            a, b = b, a
        i = self.nt
        self.nt += 1
        return Txn(f"t{i}", amount, rng.choice(["check", "cc"]), a, b,
                   f"og{i}", f"rc{i}")


def build(spec: dict, seed: int) -> list[Op]:
    """One round of operations of a workload spec, for this seed."""
    g = _Gen(spec, seed)
    rng = g.rng
    model = _Model()
    for name in SETUP_CLASSES:
        model.define(name)
    ops: list[Op] = []

    # base import in batches, each followed by find-members; links only name
    # persons declared by then
    nb = spec["batches"]
    pool: list[str] = []
    for b in range(nb):
        people = [g.person(b >= nb - spec["late_batches"])
                  for _ in range(spec["persons"] // nb)]
        pool.extend(p.name for p in people)
        txns = []
        for _ in range(spec["txns"] // nb):
            a = rng.choice(pool)
            txns.append(g.txn(a, g.partner(pool, a, spec["hub_share"])))
        text = []
        for p in people:
            model.declare_person(p)
            text.append(p.decl())
        for t in txns:
            model.declare_txn(t)
            text.extend(d for _, d in t.decls())
        ops.append(Op("load", decls=len(text),
                      expect={"text": "\n".join(text) + "\n"}))
        ops.append(Op("classify", ["find-members"], decls=len(text),
                      expect=model.find_members()))

    # small inserts, each with one new late person: its first transaction
    # goes to the next hub in turn (with update_hub) or to a random person,
    # any further ones to random persons; every forward_every-th insert also
    # links a person that only arrives two inserts later
    hubs = g.hubs
    pending: dict[int, list[Person]] = defaultdict(list)
    for u in range(spec["updates"]):
        new = g.person(True)
        arriving = pending.pop(u, []) + [new]
        text = []
        for p in arriving:
            model.declare_person(p)
            text.append(p.decl())
        pool.extend(p.name for p in arriving)
        first = (hubs[u % len(hubs)] if spec["update_hub"]
                 else g.partner(pool, new.name, 0.0))
        txns = [g.txn(new.name, first)]
        txns += [g.txn(new.name, g.partner(pool, new.name, 0.0))
                 for _ in range(spec["txns_per_update"] - 1)]
        every = spec["forward_every"]
        if every and u % every == 1 and u + 2 < spec["updates"]:
            future = g.person(True)
            pending[u + 2].append(future)
            txns.append(g.txn(future.name, g.partner(pool, future.name, 0.0)))
        for t in txns:
            model.declare_txn(t)
            text.extend(d for _, d in t.decls())
        ops.append(Op("update", ["insert " + " ".join(text), "find-members"],
                      decls=len(text), expect=model.find_members()))

    # classes defined on the populated store
    for name in LATE_CLASSES:
        model.define(name)
        ops.append(Op("defclass", [f"defclass {name} {CLASSES[name]}",
                                   "find-members"],
                      expect=model.find_members()))

    # the proximity filter over late persons, then the rewrite analytic
    adj = model.graph()
    targets = {("m_target", t) for t in model.ext["m_target"]}
    late = [p for p in model.persons.values() if p.late]
    accepted = {p.name for p in late if walk(adj, p.name, 2) & targets}
    near = {p.as_person() for p in late if p.name in accepted}
    ops.append(Op("analytic", ["run-analytic near_p0"],
                  prep=["defclass near " + CLASSES["near"],
                        "def-analytic near_p0 late near nearest 2 m_target"],
                  expect={"processed": len(late), "out": "near", "members": near,
                          "rejected": {p.name for p in late} - accepted}))
    flows = {rec(src=("alias", a), dst=("alias", b), w=("num", 1.0))
             for a, b in model.related if a != b}
    ops.append(Op("analytic", ["run-analytic rewrite"],
                  expect={"processed": len(model.related), "out": "flow",
                          "members": flows,
                          "rejected": {pair("fi-related", a, b)
                                       for a, b in model.related if a == b}}))

    # neighbourhood queries from non-hub persons
    extra = ([(("near", t), ()) for t in near]
             + [(("flow", t), _aliases(t)) for t in flows])
    adj = model.graph(extra)
    persons = set(model.persons)
    starts = [s for s in pool if s not in g.hubs]
    starts = [rng.choice(starts) for _ in range(spec["queries"])]
    qb = spec["query_batch"]
    for i in range(0, len(starts), qb):
        ops.append(Op("query", expect={"queries": [
            (s, walk(adj, s, 2) & persons) for s in starts[i:i + qb]]}))

    ops.extend(Op("reopen") for _ in range(spec["reopens"]))
    return ops
