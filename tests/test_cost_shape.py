"""The shape of the cost: handling N operations costs O(N) engine ticks in
every handling family, unrolling a `let fix` costs the same ticks per step
at every depth, and the front end does the same work per token and per node
at every length of a chain.

Ticks are counted by wrapping `subst._Engine.tick`, one frame per tick, so
the counts are deterministic.  A linear cost roughly doubles when N
doubles; a quadratic term would push the ratio towards 4.  The front end is
counted the same way, by wrapping the parser's methods and `typecheck.infer`.
"""

import ast
import inspect
from pathlib import Path

import pytest

from ecmtt import evaluator
from ecmtt import parser as P
from ecmtt import subst
from ecmtt import syntax as S
from ecmtt import typecheck
from ecmtt.corpus import PRELUDE
from ecmtt.evaluator import Value, evaluate
from ecmtt.parser import parse_source
from ecmtt.pretty import type_text

# Measured ratios per doubling from N = 20: 1.86-1.95 for the three state
# families (233 / 433 / 833 ticks plain, 333 / 633 / 1,233 staged,
# 716 / 1,356 / 2,636 re-performed).  The bound leaves a margin of 0.25 over
# the largest, and stays far below the 4 of a quadratic cost.
MAX_DOUBLING = 2.2
# Measured ticks per step for factorial: 4.424 / 4.412 / 4.406 at
# N = 32 / 64 / 128, a drift of 0.4 %.
MAX_PER_STEP_DRIFT = 0.05


def chain(n: int) -> str:
    pairs = "".join(f"y{i} <- get(); w{i} <- set(y{i} + 1); " for i in range(n))
    return f"{pairs}ret y{n - 1}"


def plain(n: int) -> str:
    return f"let box u = box St. ({chain(n)}) in x <- handle u with handlerSt init 0; ret x"


def staged(n: int) -> str:
    # Counting up from 14, the state never reaches the explosive 13.
    return (
        f"let box u = box St. ({chain(n)})"
        " in x <- handle u [handlerExplosiveSt init 14 as y. ret (fst y)] with handlerExn init (); ret x"
    )


def reperformed(n: int) -> str:
    return (
        f"let box v = (let box u = box St. ({chain(n)})"
        " in box StExn. (x <- handle u with idSt init (); ret x))"
        " in r <- handle v with handlerStExn init 0; ret r"
    )


def factorial(n: int) -> str:
    return (
        "let fix f(n:int):[{}]int = if n = 0 then ret 1 else ret (n * eval_f (f (n - 1)))"
        f" in eval_f (f {n})"
    )


@pytest.fixture
def cost(monkeypatch):
    """A function from a main term, under the corpus prelude, to the engine
    ticks and the steps its evaluation takes."""
    ticks = 0
    tick = subst._Engine.tick

    def counting(self):
        nonlocal ticks
        ticks += 1
        tick(self)

    monkeypatch.setattr(subst._Engine, "tick", counting)

    def measure(main: str) -> tuple[int, int]:
        nonlocal ticks
        term = parse_source(PRELUDE + main).main
        ticks = 0
        outcome = evaluate(term)
        assert isinstance(outcome.final, Value), outcome.final
        return ticks, outcome.step_count

    return measure


@pytest.mark.parametrize("family", [plain, staged, reperformed], ids=lambda f: f.__name__)
def test_handling_a_chain_costs_ticks_linear_in_its_length(cost, family):
    ticks = [cost(family(n))[0] for n in (20, 40, 80)]
    for smaller, larger in zip(ticks, ticks[1:]):
        assert larger <= MAX_DOUBLING * smaller, ticks


# The prelude's theories and handlers, without its term definitions, whose
# substitution would take the free names of the whole program as it is parsed.
HANDLERS = PRELUDE[: PRELUDE.index("def incr_n")]


@pytest.mark.parametrize("family", [plain, staged], ids=lambda f: f.__name__)
def test_a_tail_resumptive_handler_takes_no_free_names_of_the_chain(family):
    # Measured before the direct clauses stopped asking for the free names of
    # the rest: 39 / 79 / 159 of the 40 / 80 / 160 binds carried them.
    for n in (20, 40, 80):
        term = parse_source(HANDLERS + family(n)).main
        binds, t = [], term.bound.body
        while type(t) is S.Bind:
            binds.append(t)
            t = t.rest
        assert len(binds) == 2 * n
        assert isinstance(evaluate(term).final, Value)
        assert sum(hasattr(b, "_fv") for b in binds) == 0, n


def test_recursion_costs_the_same_ticks_per_step_at_every_depth(cost):
    per_step = {}
    for n in (32, 64, 128):
        ticks, steps = cost(factorial(n))
        per_step[n] = ticks / steps
    assert abs(per_step[128] - per_step[32]) <= MAX_PER_STEP_DRIFT * per_step[32], per_step


# ---------------------------------------------------------------------------
# The front end on chains shaped as the benchmark's `check_large` programs

# Measured at 100 / 200 / 400 pairs: parser method calls per token 1.836 /
# 1.818 / 1.809, and `infer` calls per node 0.510 / 0.505 / 0.503, each a
# drift of 1.4 % as the fixed part of the program is shared out over more
# pairs.  Work per pair that grew with N would make the ratio at 400 pairs
# about 4 times that at 100; the bound leaves a margin of 3.6 points over
# the drift.
MAX_FRONT_END_DRIFT = 0.05


def check_large_shaped(n: int) -> str:
    # As the benchmark builds them: the boxed chain inside a function literal
    # under a `let box`, handled after it.
    return f"let box u = (fn n:int. box St. ({chain(n)})) 3 in x <- handle u with handlerSt init 0; ret x"


def node_count(term: S.Term) -> int:
    count, todo = 0, [term]
    while todo:
        t = todo.pop()
        count += 1
        for _, name, many in S.SCHEMA[type(t)].kids:
            child = getattr(t, name)
            todo.extend(child if many else (child,))
    return count


def counting(monkeypatch, owner, name: str) -> list[int]:
    """Wrap `owner.name` to count its calls in the one cell returned."""
    calls = [0]
    inner = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def assert_flat(ratios: dict[int, float]) -> None:
    assert abs(ratios[400] - ratios[100]) <= MAX_FRONT_END_DRIFT * ratios[100], ratios


def test_the_parser_makes_the_same_calls_per_token_at_every_length(monkeypatch):
    table = parse_source(PRELUDE).table
    methods = [name for name, f in vars(P._Parser).items() if callable(f) and not name.startswith("__")]
    cells = [counting(monkeypatch, P._Parser, name) for name in methods]
    ratios = {}
    for n in (100, 200, 400):
        text = check_large_shaped(n)
        for cell in cells:
            cell[0] = 0
        assert parse_source(text, table).main is not None
        ratios[n] = sum(cell[0] for cell in cells) / len(P.tokenize(text))
    assert_flat(ratios)


def test_infer_makes_the_same_calls_per_node_at_every_length(monkeypatch):
    table = parse_source(PRELUDE).table
    calls = counting(monkeypatch, typecheck, "infer")
    ratios = {}
    for n in (100, 200, 400):
        term = parse_source(check_large_shaped(n), table).main
        calls[0] = 0
        assert type_text(typecheck.infer_term(term)) == "int * int"
        ratios[n] = calls[0] / node_count(term)
    assert_flat(ratios)


def capturing_class_patterns(tree: ast.AST) -> list[int]:
    """The lines of the class patterns under `tree` that hold sub-patterns,
    such as `case S.Var(name)`."""
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.MatchClass) and (n.patterns or n.kwd_patterns)]


def test_the_guard_finds_a_capturing_class_pattern():
    tree = ast.parse("match t:\n    case S.Var():\n        pass\n    case S.Pair(left, S.IntLit()):\n        pass\n")
    assert capturing_class_patterns(tree) == [4]


@pytest.mark.parametrize(
    "module, function",
    [(typecheck, None), (evaluator, "_contract"), (subst, "is_pure_value")],
    ids=["typecheck", "evaluator._contract", "subst.is_pure_value"],
)
def test_the_rule_on_every_node_or_step_is_chosen_without_capturing_class_patterns(module, function):
    # A class pattern with sub-patterns costs a few hundred ns for each
    # capture on a record, and a failed one about twice a test of the exact
    # class, so these paths choose their rule by `type(t)` and read fields
    # by attribute.  The benchmark is too noisy to notice the slow form
    # coming back; this test is not.
    tree = ast.parse(inspect.getsource(module))
    if function is not None:
        (tree,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    assert capturing_class_patterns(tree) == []


def span_keyword_calls(tree: ast.AST) -> list[int]:
    """The lines of the calls under `tree` that pass `span=`.  A record
    class may be called through a local name, as the parser's holes call
    theirs, so every such call counts."""
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and any(k.arg == "span" for k in n.keywords)]


def test_the_guard_finds_a_span_keyword():
    tree = ast.parse("S.Var('x', s)\nS.Var._make(('x', s))\nbuild(*fields, span=s)\n")
    assert span_keyword_calls(tree) == [3]


@pytest.mark.parametrize("module", [P, subst, evaluator], ids=lambda m: m.__name__)
def test_nodes_are_built_without_a_span_keyword(module):
    # A keyword makes the call build a dict before the record's `__new__`
    # runs, about 520 ns a node where `_make` takes 200 ns; the parser
    # builds one node per form and the walks one per rebuilt node.
    assert span_keyword_calls(ast.parse(inspect.getsource(module))) == []


def fuel_assignments(tree: ast.AST, where: str = "") -> list[tuple[str, int]]:
    """Each assignment under `tree` to an attribute named `fuel`, as the
    dotted name of the class and function it is in, and its line."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found += fuel_assignments(node, f"{where}.{node.name}" if where else node.name)
            continue
        if isinstance(node, ast.Attribute) and node.attr == "fuel" and not isinstance(node.ctx, ast.Load):
            found.append((where, node.lineno))
        found += fuel_assignments(node, where)
    return found


def test_the_guard_finds_a_fuel_assignment():
    tree = ast.parse(
        "class _Engine:\n"
        "    def tick(self):\n"
        "        self.fuel -= 1\n"
        "    def sub(self, t):\n"
        "        left = self.fuel\n"
        "        self.fuel, n = left - 1, 0\n"
    )
    assert fuel_assignments(tree) == [("_Engine.tick", 3), ("_Engine.sub", 6)]


def test_fuel_is_spent_only_through_the_tick():
    # The tick counts above, and those of `test_sub.py` and
    # `test_tail_handling.py`, wrap `_Engine.tick`; a walk that spent its
    # fuel inline would not be counted (factorial read 0.44 ticks per step
    # in place of about 4.4).
    for path in sorted(Path(subst.__file__).parent.glob("*.py")):
        found = fuel_assignments(ast.parse(path.read_text()))
        assert {where for where, _ in found} <= {"_Engine.__init__", "_Engine.tick"}, (path.name, found)
