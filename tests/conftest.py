"""Shared fixtures: the two worked classifiers, the transcribed decision
circuit, and a tiny independent truth-table evaluator used to cross-check the
package's own oracle."""

from __future__ import annotations

from itertools import product

import pytest

from qlit.core import Universe
from qlit.io import parse_classifier_bundle
from qlit.xai import Classifier

LOAN_BUNDLE = """\
var 1 d
var 2 g
var 3 h
var 4 i
section delta
p cnf 4 3
3 4 0
-1 2 0
-1 4 0
section negdelta
p cnf 4 3
1 -4 0
1 -3 0
-2 -4 0
"""

ADMISSION_BUNDLE = """\
var 1 e
var 2 f
var 3 g
var 4 r
var 5 w
protected r
section delta
p cnf 5 5
1 3 0
1 4 0
1 5 0
2 4 0
-2 3 5 0
section negdelta
p cnf 5 4
-1 2 -4 0
-1 -2 -3 0
-1 -2 -5 0
-3 -4 -5 0
"""


def unit_clause_bundle(n: int) -> str:
    """A bundle whose positive side is the ``n`` unit clauses ``v1 .. vn``:
    the population of all ``n`` positive literals has exactly one sufficient
    reason, the whole population."""
    names = "".join(f"var {i} v{i}\n" for i in range(1, n + 1))
    units = "".join(f"{i} 0\n" for i in range(1, n + 1))
    return f"{names}section delta\np cnf {n} {n}\n{units}"


# the loan classifier as a decision circuit: a root decision on d whose low
# branch decides h (with a constant-true leaf) and whose high branch is i & g
LOAN_DECISION_NNF = """\
c var 1 d
c var 2 g
c var 3 h
c var 4 i
nnf 14 14 4
L -1
L 3
A 0
A 2 1 2
L -3
L 4
A 2 4 5
O 3 2 3 6
A 2 0 7
L 2
A 2 5 9
L 1
A 2 10 11
O 1 2 8 12
"""


def tt_models(formula) -> set[int]:
    """World indexes satisfying the formula, by direct structural recursion.

    Written against the node shapes only, independently of both
    ``core.evaluate`` and the bitmask oracle.
    """
    u = formula.universe
    out = set()
    for values in product([False, True], repeat=len(u)):
        def check(node) -> bool:
            kind = node.kind
            if kind == "true":
                return True
            if kind == "false":
                return False
            if kind == "lit":
                lit = node.literal
                return values[lit.variable.index] == lit.positive
            if kind == "not":
                return not check(node.key[1])
            if kind == "and":
                return all(check(c) for c in node.key[1])
            return any(check(c) for c in node.key[1])

        if check(formula):
            out.add(sum(1 << i for i, v in enumerate(values) if v))
    return out


@pytest.fixture(scope="session")
def loan() -> Classifier:
    bundle = parse_classifier_bundle(LOAN_BUNDLE)
    return Classifier(bundle.positive, bundle.negative)


@pytest.fixture(scope="session")
def admission() -> Classifier:
    bundle = parse_classifier_bundle(ADMISSION_BUNDLE)
    return Classifier(bundle.positive, bundle.negative, protected=bundle.protected)


@pytest.fixture()
def xyz() -> Universe:
    return Universe(["x", "y", "z"])
