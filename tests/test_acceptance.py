"""Release gate: the seven guarantees this package makes, one test each.

Every test prints a single PASS line when its guarantee holds, so a verbose
run reads as a checklist.  The guarantees:

1. The worked pipelines evaluate to their expected results, exactly.
2. Thirteen reference typing judgments synthesize exactly the stated types,
   and the one ill-typed program among them is rejected for the right reason.
3. At least 1,000 generated well-typed programs step to completion with the
   type preserved at every step and no internal stuck states (60 s budget).
4. At least 500 generated premise pairs per substitution operation retype at
   the stated result types (60 s budget).
5. Eta-expansion preserves every boxed type in the corpus; closed empty-theory
   programs are observationally unchanged by it; the identity handler checks
   at every corpus theory.
6. The trace of the state-increment pipeline shows the expected reduction:
   the initial redex, the collapsed result, and a final line identical to the
   run command's output.
7. Parsing a pretty-printed term is the identity up to alpha-renaming, over
   the whole corpus and 1,000 generated terms.
"""

import io
import random
import time

from ecmtt import syntax as S
from ecmtt.cli import main as cli_main
from ecmtt.corpus import CASES, PRELUDE, EvaluatesTo
from ecmtt.evaluator import Stuck, Value, evaluate
from ecmtt.parser import ParseError, parse_source, parse_term
from ecmtt.pretty import pretty, type_text
from ecmtt.record import Record
from ecmtt.subst import (
    eta_expand,
    eval_meta,
    handle_seq,
    handle_with,
    id_handler,
    modal_subst,
    subst_cont,
    subst_monadic,
)
from ecmtt.syntax import (
    EMPTY_MODAL,
    EMPTY_THEORY,
    alpha_equal,
    free_vars,
    type_equal,
)
from ecmtt.typecheck import (
    HandlerSig,
    TypeCheckError,
    _merge,
    check_handler,
    infer_comp,
    infer_expr,
    infer_hseq,
    infer_stmt,
    infer_term,
)

from generators import (
    NameSupply,
    gen_comp,
    gen_data_type,
    gen_handler,
    gen_program,
    gen_roundtrip_term,
    gen_theory,
)

TABLE = parse_source(PRELUDE).table
ST = TABLE.theories["St"]
EXN = TABLE.theories["Exn"]
STEXN = TABLE.theories["StExn"]
HANDLER_ST = TABLE.handlers["handlerSt"]
HANDLER_EXN = TABLE.handlers["handlerExn"]
HANDLER_EXPLOSIVE = TABLE.handlers["handlerExplosiveSt"]

INT = S.INT
PROD_II = S.ProdT(S.INT, S.INT)


def _retypes_at(term: S.Term, expected: S.Type, ambient: S.EffectContext) -> bool:
    """The term synthesizes `expected`, allowing an aborting branch to have
    collapsed part of the type to bottom."""
    if isinstance(S.last_part(term), S.Expr):
        got = infer_expr(EMPTY_MODAL, term)
    else:
        got = infer_comp(EMPTY_MODAL, ambient, term)
    merged = _merge(got, expected)
    return merged is not None and type_equal(merged, expected)


# -- 1. expected pipeline results


GOLDEN = (
    ("state-increment-pipeline", "ret (0, 1)"),
    ("constant-return-keeps-state", "ret (42, 5)"),
    ("op-resumed-three-times", "ret (3, 17)"),
    ("stop-discards-continuation", "ret (42, 9)"),
    ("continuation-call-counting", "ret (2, 1)"),
    ("nondet-collects-both-branches", "ret [4, 5]"),
    ("abort-handler-normal-path", "ret 0"),
    ("abort-handler-caught", "ret 42"),
    ("staged-inner-abort-caught", "ret 42"),
    ("factorial-via-unboxing", "6"),
)


def test_criterion_1_golden_pipelines():
    by_name = {case.name: case for case in CASES}
    for name, expected in GOLDEN:
        case = by_name[name]
        assert isinstance(case.expectation, EvaluatesTo)
        assert case.expectation.text == expected, name
        main = parse_source(case.source).main
        assert main is not None, name
        infer_term(main)
        outcome = evaluate(main)
        assert isinstance(outcome.final, Value), (name, outcome.final)
        assert pretty(outcome.final.term) == expected, name
    print(f"criterion 1 (golden pipelines, {len(GOLDEN)} programs): PASS")


# -- 2. reference typing judgments


def _judgment_3_is_rejected() -> bool:
    try:
        infer_term(parse_term("box St. ret (box {}. get())", TABLE))
    except TypeCheckError as exc:
        return exc.kind == "op-not-in-context"
    return False


def test_criterion_2_typing_judgments():
    checks: list[bool] = []

    # (1) performing a declared operation inside its box
    checks.append(
        type_equal(infer_term(parse_term("box St. get()", TABLE)), S.BoxT(ST, INT))
    )
    # (2) a function producing stateful boxed code
    checks.append(
        type_equal(
            infer_term(
                parse_term(
                    "fn n:int. box St. (x <- get(); y <- set(x + n); ret x)", TABLE
                )
            ),
            S.ArrowT(INT, S.BoxT(ST, INT)),
        )
    )
    # (3) an operation escaping into an empty inner box is rejected
    checks.append(_judgment_3_is_rejected())
    # (4) the state handler's full signature
    checks.append(
        check_handler(EMPTY_MODAL, EMPTY_THEORY, HANDLER_ST, INT, INT)
        == HandlerSig(INT, ST, INT, PROD_II)
    )
    # (5) the exception handler's signature
    checks.append(
        check_handler(EMPTY_MODAL, EMPTY_THEORY, HANDLER_EXN, INT, S.UNIT)
        == HandlerSig(INT, EXN, S.UNIT, INT)
    )
    # (6) a reperforming handler needs its ambient operations
    checks.append(
        check_handler(EMPTY_MODAL, EXN, HANDLER_EXPLOSIVE, INT, INT)
        == HandlerSig(INT, ST, INT, PROD_II)
    )
    # (7) a one-clause handling sequence
    theta = S.HSeq(
        (S.HClause(HANDLER_EXPLOSIVE, S.IntLit(12), "x", S.Ret(S.Proj1(S.Var("x")))),)
    )
    checks.append(type_equal(infer_hseq(EMPTY_MODAL, EXN, theta, INT, ST), INT))
    # (8) handling a box variable through the sequence and a main handler
    delta = EMPTY_MODAL.with_modal("u", INT, ST)
    stmt = S.Handle("u", theta, HANDLER_EXN, S.UnitLit())
    checks.append(type_equal(infer_stmt(delta, EMPTY_THEORY, stmt), INT))
    # (9) the identity handler checks under any wider ambient
    for ambient in (ST, STEXN):
        for a_ty in (INT, S.BOOL):
            checks.append(
                check_handler(EMPTY_MODAL, ambient, id_handler(ST), a_ty, S.UNIT)
                == HandlerSig(a_ty, ST, S.UNIT, a_ty)
            )
    # (10) reboxing into a wider theory
    checks.append(
        type_equal(
            infer_term(
                parse_term(
                    "fn e:[St]int. let box u = e in box StExn. "
                    "(x <- handle u with idSt init (); ret x)",
                    TABLE,
                )
            ),
            S.ArrowT(S.BoxT(ST, INT), S.BoxT(STEXN, INT)),
        )
    )
    # (11) boxing a pure value
    checks.append(
        type_equal(
            infer_term(parse_term("fn x:int. box St. ret x", TABLE)),
            S.ArrowT(INT, S.BoxT(ST, INT)),
        )
    )
    # (12) applying boxed code to boxed code
    checks.append(
        type_equal(
            infer_term(
                parse_term(
                    "fn f:[St](int -> bool). fn x:[St]int. "
                    "let box u = f in let box v = x in box St. "
                    "(a <- handle u with idSt init (); "
                    "b <- handle v with idSt init (); ret (a b))",
                    TABLE,
                )
            ),
            S.ArrowT(
                S.BoxT(ST, S.ArrowT(INT, S.BOOL)),
                S.ArrowT(S.BoxT(ST, INT), S.BoxT(ST, S.BOOL)),
            ),
        )
    )
    # (13) collapsing nested boxes at the same theory
    checks.append(
        type_equal(
            infer_term(
                parse_term(
                    "fn x:[St]([St]int). let box u = x in box St. "
                    "(a <- handle u with idSt init (); "
                    "let box v = a in (handle v with idSt init ()))",
                    TABLE,
                )
            ),
            S.ArrowT(S.BoxT(ST, S.BoxT(ST, INT)), S.BoxT(ST, INT)),
        )
    )

    assert all(checks), [i for i, ok in enumerate(checks, 1) if not ok]
    print(f"criterion 2 (typing judgments, {len(checks)} checks): PASS")


# -- 3. preservation and progress over generated programs


def test_criterion_3_preservation_and_progress():
    started = time.monotonic()
    rng = random.Random(31003)
    count = 1000
    for index in range(count):
        comp, declared = gen_program(rng)
        got = infer_comp(EMPTY_MODAL, EMPTY_THEORY, comp)
        assert type_equal(got, declared), index
        outcome = evaluate(comp, max_steps=50_000, record=True)
        # Progress: closed well-typed programs only finish or run out of
        # fuel; a stuck state would be a soundness hole.  Division by zero
        # is a declared runtime error, and the generator never divides.
        assert not isinstance(outcome.final, Stuck), (index, outcome.final)
        for stepped in outcome.steps:
            assert _retypes_at(stepped.term, got, EMPTY_THEORY), (
                index,
                pretty(stepped.term),
            )
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, elapsed
    print(f"criterion 3 (preservation, {count} programs, {elapsed:.1f}s): PASS")


# -- 4. substitution operations retype at their stated types


def _check_subst_monadic(rng: random.Random) -> None:
    sup = NameSupply()
    theory = gen_theory(rng, sup)
    a_ty = gen_data_type(rng, 1)
    c_ty = gen_data_type(rng, 1)
    producer = gen_comp(rng, sup, [], theory, a_ty, rng.randint(0, 3))
    x = sup.fresh("x")
    consumer = gen_comp(rng, sup, [(x, a_ty)], theory, c_ty, rng.randint(0, 3))
    assert type_equal(
        infer_comp(EMPTY_MODAL.with_value(x, a_ty), theory, consumer), c_ty
    )
    result = subst_monadic(producer, x, consumer)
    assert _retypes_at(result, c_ty, theory), pretty(result)


def _pure_expr(rng: random.Random, sup: NameSupply, ty: S.Type) -> S.Expr:
    from generators import gen_expr

    return gen_expr(rng, sup, [], ty, rng.randint(0, 2))


def _check_subst_cont(rng: random.Random) -> None:
    sup = NameSupply()
    theory = gen_theory(rng, sup)
    a_ty = gen_data_type(rng, 1)
    s_ty = gen_data_type(rng, 1)
    b_ty = gen_data_type(rng, 1)
    c_ty = gen_data_type(rng, 1)
    with_k = S.EffectContext(theory.entries + (S.ContDecl("k", a_ty, s_ty, b_ty),))
    v = sup.fresh("v")
    call = S.Bind(
        S.ContCall("k", _pure_expr(rng, sup, a_ty), _pure_expr(rng, sup, s_ty)),
        v,
        gen_comp(rng, sup, [(v, b_ty)], theory, c_ty, rng.randint(0, 2)),
    )
    assert type_equal(infer_comp(EMPTY_MODAL, with_k, call), c_ty)
    x, y = sup.fresh("x"), sup.fresh("y")
    body = gen_comp(rng, sup, [(x, a_ty), (y, s_ty)], theory, b_ty, rng.randint(0, 2))
    result = subst_cont(call, "k", x, y, body)
    assert isinstance(S.last_part(result), S.Comp)
    assert _retypes_at(result, c_ty, theory), pretty(result)


def _check_handle_with(rng: random.Random) -> None:
    sup = NameSupply()
    theory = gen_theory(rng, sup)
    in_ty = gen_data_type(rng, 1)
    gh = gen_handler(rng, sup, theory, in_ty)
    sig = check_handler(EMPTY_MODAL, EMPTY_THEORY, gh.handler, in_ty, gh.state_type)
    assert type_equal(sig.out_type, gh.out_type)
    comp = gen_comp(rng, sup, [], theory, in_ty, rng.randint(0, 3))
    result = handle_with(comp, gh.handler, gh.init)
    assert _retypes_at(result, gh.out_type, EMPTY_THEORY), pretty(result)


def _check_handle_seq(rng: random.Random) -> None:
    sup = NameSupply()
    inner_theory = gen_theory(rng, sup)
    ambient = gen_theory(rng, sup)
    a_ty = gen_data_type(rng, 1)
    out_ty = gen_data_type(rng, 1)
    comp = gen_comp(rng, sup, [], inner_theory, a_ty, rng.randint(0, 3))
    gh = gen_handler(rng, sup, inner_theory, a_ty)
    var = sup.fresh("w")
    clause_body = gen_comp(rng, sup, [(var, gh.out_type)], ambient, out_ty, rng.randint(0, 2))
    theta = S.HSeq((S.HClause(gh.handler, gh.init, var, clause_body),))
    assert type_equal(
        infer_hseq(EMPTY_MODAL, ambient, theta, a_ty, inner_theory), out_ty
    )
    result = handle_seq(comp, theta)
    assert _retypes_at(result, out_ty, ambient), pretty(result)


def _check_modal_subst(rng: random.Random) -> None:
    sup = NameSupply()
    theory = gen_theory(rng, sup)
    a_ty = gen_data_type(rng, 1)
    out_ty = gen_data_type(rng, 1)
    code = gen_comp(rng, sup, [], theory, a_ty, rng.randint(0, 3))
    gh = gen_handler(rng, sup, theory, a_ty)
    x = sup.fresh("x")
    rest = gen_comp(rng, sup, [(x, gh.out_type)], EMPTY_THEORY, out_ty, rng.randint(0, 2))
    user = S.Bind(S.Handle("u", S.EMPTY_HSEQ, gh.handler, gh.init), x, rest)
    delta = EMPTY_MODAL.with_modal("u", a_ty, theory)
    assert type_equal(infer_comp(delta, EMPTY_THEORY, user), out_ty)
    result = modal_subst(user, "u", code)
    assert isinstance(S.last_part(result), S.Comp)
    assert _retypes_at(result, out_ty, EMPTY_THEORY), pretty(result)


def _check_eval_meta(rng: random.Random) -> None:
    sup = NameSupply()
    ty = gen_data_type(rng, 1)
    comp = gen_comp(rng, sup, [], EMPTY_THEORY, ty, rng.randint(0, 3))
    assert type_equal(infer_comp(EMPTY_MODAL, EMPTY_THEORY, comp), ty)
    result = eval_meta(comp)
    assert isinstance(S.last_part(result), S.Expr)
    assert _retypes_at(result, ty, EMPTY_THEORY), pretty(result)


def test_criterion_4_substitution_principles():
    started = time.monotonic()
    per_operation = 500
    suites = (
        ("subst_monadic", _check_subst_monadic, random.Random(41001)),
        ("subst_cont", _check_subst_cont, random.Random(41002)),
        ("handle_with", _check_handle_with, random.Random(41003)),
        ("handle_seq", _check_handle_seq, random.Random(41004)),
        ("modal_subst", _check_modal_subst, random.Random(41005)),
        ("eval_meta", _check_eval_meta, random.Random(41006)),
    )
    for name, check, rng in suites:
        for index in range(per_operation):
            try:
                check(rng)
            except AssertionError:
                raise AssertionError(f"{name} pair {index}")
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, elapsed
    print(
        f"criterion 4 (substitution principles, {per_operation} pairs x "
        f"{len(suites)} operations, {elapsed:.1f}s): PASS"
    )


# -- 5. eta-expansion and the identity handler


def _boxes_in(term: S.Term) -> list[S.BoxTerm]:
    found: list[S.BoxTerm] = []

    def walk(node) -> None:
        if isinstance(node, S.BoxTerm):
            found.append(node)
        # A record is a tuple too, so records are told apart first.
        if isinstance(node, Record):
            for f in node.fields():
                walk(getattr(node, f))
        elif type(node) is tuple:
            for item in node:
                walk(item)

    walk(term)
    return found


def _is_closed(term: S.Term) -> bool:
    fv = free_vars(term)
    return not (fv.values or fv.modals or fv.conts)


def test_criterion_5_eta_and_identity():
    checked = 0
    observed = 0
    for case in CASES:
        try:
            source = parse_source(case.source)
        except ParseError:
            continue
        if source.main is None:
            continue
        for box in _boxes_in(source.main):
            if not _is_closed(box):
                continue
            try:
                ty = infer_expr(EMPTY_MODAL, box)
            except TypeCheckError:
                continue  # boxes inside deliberately ill-typed cases
            expanded = eta_expand(box, box.theory)
            assert type_equal(infer_expr(EMPTY_MODAL, expanded), ty), pretty(box)
            checked += 1
            if not box.theory.entries:
                probe = S.LetBox("w", box, S.EvalTerm(S.EMPTY_HSEQ, "w"))
                probe_eta = S.LetBox("w", expanded, S.EvalTerm(S.EMPTY_HSEQ, "w"))
                first = evaluate(probe)
                second = evaluate(probe_eta)
                assert isinstance(first.final, Value) and isinstance(
                    second.final, Value
                )
                assert pretty(first.final.term) == pretty(second.final.term)
                observed += 1
    assert checked >= 10, checked
    assert observed >= 1, observed
    for name, theory in TABLE.theories.items():
        sig = check_handler(EMPTY_MODAL, theory, id_handler(theory), INT, S.UNIT)
        assert sig == HandlerSig(INT, theory, S.UNIT, INT), name
    print(
        f"criterion 5 (eta over {checked} boxes, {observed} observations, "
        f"{len(TABLE.theories)} identity handlers): PASS"
    )


# -- 6. the expected reduction trace


def test_criterion_6_trace_fidelity(tmp_path):
    import pathlib

    sample = pathlib.Path(__file__).resolve().parent.parent / "samples" / "incr_pipeline.ecmtt"
    text = sample.read_text()

    run_out = io.StringIO()
    assert cli_main(["run", str(sample)], stdout=run_out, stderr=io.StringIO()) == 0
    trace_out = io.StringIO()
    assert cli_main(["trace", str(sample)], stdout=trace_out, stderr=io.StringIO()) == 0
    lines = trace_out.getvalue().strip().splitlines()

    # The first line is the initial redex: the boxed increment pipeline
    # about to be opened into its handler.
    expected_initial = parse_source(text).main
    assert expected_initial is not None
    assert alpha_equal(parse_term(lines[0]), expected_initial)

    # The reduction collapses to the final state pair; both expected
    # intermediate forms denote this term once pure steps are taken eagerly.
    collapsed = parse_term("ret (0, 1)")
    traced_terms = [parse_term(line.split("]--> ", 1)[1]) for line in lines[1:-1]]
    traced_terms.append(parse_term(lines[-1]))
    assert any(alpha_equal(t, collapsed) for t in traced_terms)

    # The last trace line is exactly what `run` prints.
    assert lines[-1] == run_out.getvalue().strip()

    outcome = evaluate(expected_initial, record=True)
    assert outcome.steps and outcome.steps[0].rule == "beta-letbox"
    assert isinstance(outcome.final, Value)
    assert pretty(outcome.final.term) == "ret (0, 1)"
    print("criterion 6 (trace fidelity on the increment pipeline): PASS")


# -- 7. parse after pretty is the identity


def test_criterion_7_roundtrip():
    corpus_count = 0
    for case in CASES:
        try:
            source = parse_source(case.source)
        except ParseError:
            continue
        if source.main is None:
            continue
        printed = pretty(source.main)
        assert alpha_equal(parse_term(printed), source.main), case.name
        corpus_count += 1
    assert corpus_count >= 30, corpus_count

    rng = random.Random(71007)
    generated = 1000
    for index in range(generated):
        term = gen_roundtrip_term(rng)
        assert alpha_equal(parse_term(pretty(term)), term), (index, pretty(term))
    print(
        f"criterion 7 (roundtrip, {corpus_count} corpus terms + "
        f"{generated} generated): PASS"
    )
