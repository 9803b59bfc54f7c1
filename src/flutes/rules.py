"""Grammar rules with functional right-hand sides.

An analytic rewrites each member of its input class through a host
function; a lambda rule is the analytic whose function evaluates a term body
(field selections, record building), compiled once per rule by the one term
evaluator, `clause.evaluator`.  The result must be subsumed by the
output class's type, is coerced to it, and only then stored, so no rule can
corrupt a class collection.  Failures are reported per member and never
abort a run.
"""

from __future__ import annotations

from hashlib import sha1
from typing import TYPE_CHECKING, Callable

from .clause import evaluate, evaluator
from .errors import (CoercionDomainError, EvalError, RuleFailure, StoreError,
                     TermError)
from .sexp import render_sexp
from .typecheck import apply_coercion, infer_static_type, prove_subtype
from . import terms as T

if TYPE_CHECKING:          # the store imports the classifier, which imports this
    from .store import Store


def coerce_term(store: Store, proof, t: T.Term) -> T.Term | None:
    """t coerced along a proof of its type; a field selection in t is
    coerced as the value it selects, and None when that fails."""
    try:
        return apply_coercion(proof, t)
    except CoercionDomainError:
        try:
            return apply_coercion(proof, evaluate(t, store))
        except (CoercionDomainError, EvalError):
            return None


def check_and_coerce(store: Store, result: T.Term, out_ty: T.Type,
                     who: str) -> T.Term:
    if not isinstance(result, T.Term):
        raise RuleFailure(f"{who}: result is not a term: {result!r}")
    ty = infer_static_type(result, store.tax, store.type_of)
    if ty is None:
        raise RuleFailure(f"{who}: result has no static type")
    proof = prove_subtype(ty, out_ty, store.tax)
    if proof is None:
        raise RuleFailure(f"{who}: result type is not subsumed by the output type")
    coerced = coerce_term(store, proof, result)   # as the static scan does
    if coerced is None:
        raise RuleFailure(f"{who}: result cannot be coerced")
    return coerced


# ---------------------------------------------------------------------------
# analytics


class Analytic(T.Value):
    name: str
    input_class: str
    output_class: str
    fn: Callable[[T.Term], T.Term]


def mk_analytic(store: Store, name: str, input_class: str, output_class: str,
                fn: Callable[[T.Term], T.Term],
                registry: dict[str, Analytic] | None = None) -> Analytic:
    if not name:
        raise StoreError("analytic name must be nonempty")
    store.kb_class(input_class)
    store.kb_class(output_class)
    analytic = Analytic(name, input_class, output_class, fn)
    if registry is not None:
        if name in registry:
            raise StoreError(f"analytic {name!r} already registered")
        registry[name] = analytic
    return analytic


def lambda_rule(store: Store, name: str, param: str, input_class: str,
                output_class: str, body: T.Term,
                registry: dict[str, Analytic] | None = None) -> Analytic:
    """The lambda abstraction `param -> body` as an analytic: its function
    evaluates the body, compiled once here, with the member as `param`."""
    extra = T.free_vars(body) - {param}
    if extra:
        raise TermError(f"rule {name!r} body has unbound variables {sorted(extra)}")
    run = evaluator(body)

    def rewrite(member: T.Term) -> T.Term:
        return run({param: member}, store)

    return mk_analytic(store, name, input_class, output_class, rewrite,
                       registry)


class RuleReport:
    __slots__ = ("name", "processed", "inserted", "failures")

    def __init__(self, name: str):
        self.name = name
        self.processed = 0
        self.inserted = 0
        self.failures: list[tuple[str, str]] = []   # (member, message)

    def lines(self) -> list[str]:
        out = [f"analytic\t{self.name}",
               f"processed\t{self.processed}",
               f"inserted\t{self.inserted}",
               f"failures\t{len(self.failures)}"]
        for mname, msg in self.failures:
            out.append(f"failure.{mname}\t{msg}")
        return out


def member_name(class_name: str, text: str) -> str:
    """The name of the class's member whose storage form is `text`: the
    class name, `#` and the first 12 hex digits of the text's SHA-1."""
    return f"{class_name}#{sha1(text.encode('utf-8')).hexdigest()[:12]}"


def run_analytic(store: Store, analytic: Analytic) -> RuleReport:
    """Apply the analytic to every input member; results that type-check
    against the output class are coerced and stored, everything else is a
    reported per-member failure."""
    out_ty = store.kb_class(analytic.output_class).ty
    report = RuleReport(analytic.name)
    for mname, term in list(store.kb_class(analytic.input_class).members):
        report.processed += 1
        try:
            try:
                result = analytic.fn(term)
            except Exception as exc:
                raise RuleFailure(
                    f"analytic {analytic.name!r} raised: {exc}") from exc
            coerced = check_and_coerce(store, result, out_ty,
                                       f"analytic {analytic.name!r}")
        except RuleFailure as exc:
            report.failures.append((mname, str(exc)))
            continue
        # a coercion's output is in label order; its storage form names the
        # member and is its record's, so it is rendered once
        text = render_sexp(coerced)
        if store._add_member(analytic.output_class,
                             member_name(analytic.output_class, text),
                             coerced, text):
            report.inserted += 1
    store.commit()
    return report
