"""Reference interpreters for the compiled forms the program runs.

`substitute` walks a node and replaces its free variables, and
`eval_term` walks a term and does its field selections: the direct
readings of what `terms.substituter` and `clause.evaluator` compile.  The
tests compare the compiled forms against them.
"""

from flutes import terms as T
from flutes.clause import select
from flutes.errors import EvalError, TermError


def substitute(s, node):
    """node with each free variable that s binds replaced by its value;
    a quantifier is refused, as `terms.substituter` refuses it."""
    cls = type(node)
    if cls is T.Var:
        return s.get(node.name, node)
    if cls is T.Exists:
        raise TermError(f"cannot substitute under the quantifier on {node.var!r}")
    return T.map_parts(node, lambda x: substitute(s, x))


def eval_term(t, store):
    """t with every field selection done, through the store's aliases; a
    variable is unbound."""
    if type(t) is T.FieldSelection:
        return select(eval_term(t.base, store), t.label, store)
    if type(t) is T.Var:
        raise EvalError(f"unbound variable {t.name!r}")
    return T.map_parts(t, lambda x: eval_term(x, store))
