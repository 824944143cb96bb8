"""Grammar, executors, tree flattening, and metric definitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpn2f.formal_lang import (
    MAX_NESTING,
    ExecutionError,
    ParseError,
    ProgramEnv,
    RelationalTuple,
    check_straight_line,
    evaluate_metrics,
    exec_algolisp,
    exec_mathqa,
    flatten_program_tree,
    format_tuple_sequence,
    nearest_option,
    parse_tuple_sequence,
    rebuild_program_tree,
)


def T(rel, *args):
    return RelationalTuple(rel, tuple(args))


# ---------------------------------------------------------------------------
# parsing


def test_parse_three_tuples():
    out = parse_tuple_sequence("(add,n0,n2) (divide,n1,const100) (divide,#0,#1)")
    assert out == [T("add", "n0", "n2"), T("divide", "n1", "const100"),
                   T("divide", "#0", "#1")]


def test_parse_empty_text():
    assert parse_tuple_sequence("") == []


def test_parse_unclosed_tuple_position():
    with pytest.raises(ParseError) as err:
        parse_tuple_sequence("(add,n0")
    assert err.value.position == 7


def test_parse_space_separated_symbols():
    assert parse_tuple_sequence("( map a #0 )") == [T("map", "a", "#0")]


def test_parse_pads_unary_tuple():
    assert parse_tuple_sequence("(sqrt,n0)") == [T("sqrt", "n0", "PAD")]


def test_parse_three_argument_tuple():
    assert parse_tuple_sequence("( if,#0,1,#3 )") == [T("if", "#0", "1", "#3")]


@pytest.mark.parametrize("bad", ["()", "(a)", "(a,b,c,d,e)", ")", "(a,(b,c))"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_tuple_sequence(bad)


def test_format_round_trips_through_parser():
    text = "(add,n0,n2) (divide,n1,const100)"
    assert format_tuple_sequence(parse_tuple_sequence(text)) == text


_SYMBOLS = st.text("abn0123#-+<=.", min_size=1, max_size=5)


@given(st.lists(st.tuples(_SYMBOLS, st.lists(_SYMBOLS, min_size=1, max_size=3)),
                max_size=5),
       st.data())
@settings(max_examples=80)
def test_formatted_program_parses_back_whatever_separates_its_symbols(program, data):
    """Each comma that ``format_tuple_sequence`` prints may be any run of
    spaces and commas; the parser reads the same tuples back."""
    program = [T(rel, *args) for rel, args in program]
    text = "".join(data.draw(st.text(" ,", min_size=1, max_size=4)) if c == "," else c
                   for c in format_tuple_sequence(program))
    padded = [T(t.relation, *t.args, "PAD") if len(t.args) == 1 else t for t in program]
    assert parse_tuple_sequence(text) == padded


@pytest.mark.parametrize("text", ["(a,b),(c,d)", ", (a,b) ,(c,d),", "(a b)(c,d)"])
def test_commas_between_top_level_tuples_are_separators(text):
    assert parse_tuple_sequence(text) == [T("a", "b", "PAD"), T("c", "d", "PAD")]


@pytest.mark.parametrize("text, position", [
    ("(a,(b,c))", 3), ("(a,(b", 3), ("(a) (b,c", 0), ("(a,b))", 5),
    ("(a,b) x", 6), ("  ()", 2), ("(a,b) (a,b,c,d,e)", 6),
])
def test_parse_error_offsets(text, position):
    with pytest.raises(ParseError) as err:
        parse_tuple_sequence(text)
    assert err.value.position == position


# ---------------------------------------------------------------------------
# math executor


def test_exec_word_problem_from_intro():
    program = parse_tuple_sequence("(add,n0,n2) (divide,n1,const100) (divide,#0,#1)")
    env = ProgramEnv(numbers=[20.0, 60.0, 88.0])
    assert exec_mathqa(program, env) == 180.0
    assert env.results == [108.0, 0.6, 180.0]


def test_exec_growth_problem_trace():
    program = parse_tuple_sequence("(multiply,n0,n1) (divide,#0,const100) (add,n0,#1)")
    env = ProgramEnv(numbers=[3888.0, 20.0, 1.0])
    assert exec_mathqa(program, env) == pytest.approx(4665.6, abs=1e-9)
    assert env.results == pytest.approx([77760.0, 777.6, 4665.6])


def test_exec_normalized_const_spelling():
    program = parse_tuple_sequence("(divide,n0,const-100)")
    assert exec_mathqa(program, ProgramEnv(numbers=[50.0])) == 0.5


def test_exec_division_by_zero():
    with pytest.raises(ExecutionError) as err:
        exec_mathqa([T("divide", "n0", "n1")], ProgramEnv(numbers=[1.0, 0.0]))
    assert err.value.code == "div-zero"


def test_exec_sqrt_negative():
    with pytest.raises(ExecutionError) as err:
        exec_mathqa([T("sqrt", "n0", "PAD")], ProgramEnv(numbers=[-4.0]))
    assert err.value.code == "sqrt-negative"


def test_exec_unknown_operator():
    with pytest.raises(ExecutionError) as err:
        exec_mathqa([T("frobnicate", "n0", "n0")], ProgramEnv(numbers=[1.0]))
    assert err.value.code == "unknown-operator"


def test_exec_dangling_reference():
    with pytest.raises(ExecutionError) as err:
        exec_mathqa([T("add", "#0", "n0")], ProgramEnv(numbers=[1.0]))
    assert err.value.code == "dangling-ref"


def test_exec_unary_padding_and_ops():
    env = ProgramEnv(numbers=[9.0])
    program = parse_tuple_sequence("(sqrt,n0) (floor,#0) (power,#1,const2)")
    assert exec_mathqa(program, env) == 9.0


def test_exec_extensible_operator_table():
    program = [T("add3", "n0", "n1", "n2")]
    ops = {"add3": (3, lambda a, b, c: a + b + c)}
    assert exec_mathqa(program, ProgramEnv(numbers=[1.0, 2.0, 3.0]), operators=ops) == 6.0


def test_exec_determinism():
    program = parse_tuple_sequence("(divide,n0,n1) (multiply,#0,n2) (subtract,#1,n0)")
    runs = {exec_mathqa(program, ProgramEnv(numbers=[7.0, 3.0, 11.0])) for _ in range(5)}
    assert len(runs) == 1


# ---------------------------------------------------------------------------
# mini-Lisp executor


def test_lisp_partial1_decrement():
    program = parse_tuple_sequence("(partial1,b,--) (map,a,#0)")
    assert exec_algolisp(program, {"a": [5, 3], "b": 2}) == [3, 1]


def test_lisp_factorial_via_self():
    program = parse_tuple_sequence(
        "( <=,arg1,1 ) ( -,arg1,1 ) ( self,#1 ) ( *,#2,arg1 ) "
        "( if,#0,1,#3 ) ( lambda1,#4 ) ( invoke1,#5,a )")
    assert exec_algolisp(program, {"a": 4}) == 24
    assert exec_algolisp(program, {"a": 1}) == 1


def test_lisp_range_half_open():
    assert exec_algolisp(parse_tuple_sequence("(range,0,3)")) == [0, 1, 2]


def test_lisp_sort_len_deref():
    program = parse_tuple_sequence("(sort,a) (len,a) (/,#1,2) (deref,#0,#2)")
    assert exec_algolisp(program, {"a": [9, 1, 5]}) == 5  # median via floor division


def test_lisp_reduce_three_args():
    program = parse_tuple_sequence("(range,1,5) (reduce,#0,0,+)")
    assert exec_algolisp(program) == 10


def test_lisp_reduce_folds_left():
    program = parse_tuple_sequence("(reduce,a,100,-)")
    # ((100 - 1) - 2) - 3 = 94; a right fold would give 100 - (1 - (2 - 3)) = 98
    assert exec_algolisp(program, {"a": [1, 2, 3]}) == 94


def test_lisp_digits_most_significant_first():
    assert exec_algolisp(parse_tuple_sequence("(digits,a)"), {"a": 407}) == [4, 0, 7]


def test_lisp_partial_binds_first_operand():
    program = parse_tuple_sequence("(partial,b,-) (invoke1,#0,a)")
    assert exec_algolisp(program, {"a": 3, "b": 10}) == 7  # (- 10 3)


def test_lisp_lambda2_reduce_reverses_digits():
    program = parse_tuple_sequence(
        "( digits c ) ( reverse #0 ) ( * arg1 10 ) ( + #2 arg2 ) "
        "( lambda2 #3 ) ( reduce #1 0 #4 )")
    assert exec_algolisp(program, {"c": 123}) == 321


def test_lisp_if_is_lazy():
    # The untaken branch divides by zero; laziness must skip it.
    program = parse_tuple_sequence("(/,1,0) (if,a,2,#0)")
    assert exec_algolisp(program, {"a": True}) == 2


def test_lisp_self_outside_lambda():
    with pytest.raises(ExecutionError) as err:
        exec_algolisp(parse_tuple_sequence("(self,1)"))
    assert err.value.code == "free-variable"


def test_lisp_unknown_builtin():
    with pytest.raises(ExecutionError) as err:
        exec_algolisp(parse_tuple_sequence("(honk,1,2)"))
    assert err.value.code == "unknown-builtin"


def test_lisp_arity_misuse():
    with pytest.raises(ExecutionError) as err:
        exec_algolisp(parse_tuple_sequence("(len,a,b)"), {"a": [1], "b": [2]})
    assert err.value.code == "arity"


def test_lisp_runaway_recursion_is_reported():
    # f(x) = f(x + 1), invoked with 0: never terminates.
    program = parse_tuple_sequence(
        "( +,arg1,1 ) ( self,#0 ) ( lambda1,#1 ) ( invoke1,#2,0 )")
    with pytest.raises(ExecutionError) as err:
        exec_algolisp(program, max_depth=500)
    assert err.value.code == "recursion-limit"


def test_lisp_forward_reference_rejected_before_execution():
    with pytest.raises(ExecutionError) as err:
        exec_algolisp([T("+", "#1", "1"), T("+", "1", "1")])
    assert err.value.code == "dangling-ref"


@given(st.lists(st.sampled_from(["#0", "#1", "#5", "a", "1"]), min_size=2, max_size=2),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_straight_line_safety_fuzz(args, length):
    program = [T("+", "1", "1") for _ in range(length)] + [T("+", *args)]
    refs = [int(a[1:]) for a in args if a.startswith("#")]
    if any(r >= length for r in refs):
        with pytest.raises(ExecutionError):
            check_straight_line(program)
    else:
        check_straight_line(program)


# ---------------------------------------------------------------------------
# tree flattening


def test_flatten_matches_published_command_sequence():
    out = flatten_program_tree("(map a (partial1 b --))")
    assert out == [T("partial1", "b", "--"), T("map", "a", "#0")]


def test_flatten_single_atom_is_error():
    with pytest.raises(ParseError):
        flatten_program_tree("a")


@pytest.mark.parametrize("text, position", [
    ("(f (g) x)", 3), ("(f a (g b (h)))", 10), ("(f ((g a) b))", 3), ("(f a b c d)", 0),
    ("  x", 2), ("(f", 2), (")", 0), ("(f x) (g", 6), ("", 0),
])
def test_flatten_error_carries_the_offset_of_its_node(text, position):
    with pytest.raises(ParseError) as err:
        flatten_program_tree(text)
    assert err.value.position == position


def test_flatten_reads_commas_as_separators():
    assert flatten_program_tree("(map,a,(partial1, b, --))") == flatten_program_tree(
        "(map a (partial1 b --))")


def test_nesting_up_to_the_limit_parses_and_one_level_more_is_a_parse_error():
    deepest = "(f " * MAX_NESTING + "x" + ")" * MAX_NESTING
    program = flatten_program_tree(deepest)
    assert len(program) == MAX_NESTING and program[-1] == T("f", f"#{MAX_NESTING - 2}")
    for text in ["(f " * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
                 "(f " * 3000 + "x" + ")" * 3000, "(f " * 3000]:
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} levels") as err:
            flatten_program_tree(text)
        assert err.value.position == 3 * MAX_NESTING


def test_flatten_rebuild_round_trip_simple():
    text = "( map a ( partial1 b -- ) )"
    assert rebuild_program_tree(flatten_program_tree(text)) == text


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["a", "b", "c", "1", "2", "x"])
    arity = rng.integers(1, 4)
    head = rng.choice(["f", "g", "h", "map", "reduce"])
    return [head, *(_random_tree(rng, depth - 1) for _ in range(arity))]


def _render(node):
    if isinstance(node, str):
        return node
    return "( " + " ".join(_render(c) for c in node) + " )"


def test_flatten_rebuild_round_trip_random_trees():
    rng = np.random.default_rng(0)
    for _ in range(200):
        tree = _random_tree(rng, depth=4)
        if isinstance(tree, str):
            continue
        text = _render(tree)
        assert rebuild_program_tree(flatten_program_tree(text)) == text


# ---------------------------------------------------------------------------
# metrics


def test_nearest_option():
    assert nearest_option(181.0, [100.0, 180.0, 200.0]) == 1
    assert nearest_option(190.0, [180.0, 200.0]) == 0  # ties break to the earlier option


def test_metrics_all_perfect():
    gold = [parse_tuple_sequence("(add,n0,n1)"), parse_tuple_sequence("(sqrt,n0)")]
    report = evaluate_metrics(gold, gold)
    # No sample carries numbers or tests, so execution and the test-suite rates
    # have nothing to count.
    assert report.to_dict() == {"op_acc": 1.0, "exec_acc": None, "acc": None,
                                "p50_acc": None, "m_acc": 1.0, "n": 2, "n_exec": 0,
                                "n_tests": 0}


def test_metrics_without_tests_report_null_not_a_vacuous_pass():
    """A wrong program with no tests once scored acc and p50_acc 1.0."""
    report = evaluate_metrics([parse_tuple_sequence("(multiply,n0,n1)")],
                              [parse_tuple_sequence("(add,n0,n1)")],
                              envs=[[2.0, 3.0]], options=[[4.0, 5.0, 6.0]])
    assert report.to_dict() == {"op_acc": 0.0, "exec_acc": 0.0, "acc": None,
                                "p50_acc": None, "m_acc": 0.0, "n": 1, "n_exec": 1,
                                "n_tests": 0}
    empty = evaluate_metrics([parse_tuple_sequence("(multiply,n0,n1)")],
                             [parse_tuple_sequence("(add,n0,n1)")], test_suites=[[]])
    assert empty.acc is None and empty.p50_acc is None


def test_metrics_score_test_suites_over_the_samples_that_have_one():
    """Of three samples, two carry suites (one all-pass, one half-pass): acc 0.5
    and p50_acc 1.0 over those two, while op_acc counts all three."""
    gold = parse_tuple_sequence("(+,a,1)")
    half = parse_tuple_sequence("(+,a,2)")
    suite_full = [({"a": i}, i + 1) for i in range(4)]
    suite_half = [({"a": i}, i + 1) for i in range(2)] + [({"a": i}, i + 2) for i in range(2)]
    report = evaluate_metrics([gold, half, half], [gold, gold, gold],
                              test_suites=[suite_full, suite_half, None])
    assert (report.op_acc, report.acc, report.p50_acc, report.n, report.n_tests) == (
        1 / 3, 0.5, 1.0, 3, 2)


def test_exec_acc_without_numbers_is_null_not_exact_match_again():
    """A reordered program with no numbers once read exec_acc 0.0, op_acc again."""
    report = evaluate_metrics([parse_tuple_sequence("(add,n1,n0)")],
                              [parse_tuple_sequence("(add,n0,n1)")])
    assert (report.op_acc, report.exec_acc, report.n_exec) == (0.0, None, 0)
    assert evaluate_metrics([], []).exec_acc is None


def test_exec_acc_counts_only_the_samples_given_numbers():
    """Of three samples, two carry numbers: the reordered one executes to the
    same answer and the wrong one does not, so exec_acc is 1/2 over those two;
    the sample without numbers counts in op_acc only."""
    gold = parse_tuple_sequence("(add,n0,n1)")
    preds = [parse_tuple_sequence("(add,n1,n0)"), parse_tuple_sequence("(multiply,n0,n1)"),
             gold]
    report = evaluate_metrics(preds, [gold] * 3, envs=[[2.0, 3.0], [2.0, 3.0], None])
    assert (report.op_acc, report.exec_acc, report.n, report.n_exec) == (1 / 3, 0.5, 3, 2)


def test_metrics_semantic_vs_exact():
    """One exact match, one semantically-equal rewrite: M-Acc 0.5, exec 1.0."""
    golds = [parse_tuple_sequence("(add,n0,n1)"),
             parse_tuple_sequence("(add,n0,n1)")]
    preds = [parse_tuple_sequence("(add,n0,n1)"),
             parse_tuple_sequence("(add,n1,n0)")]
    report = evaluate_metrics(preds, golds, envs=[[2.0, 3.0], [2.0, 3.0]])
    assert report.m_acc == 0.5
    assert report.exec_acc == 1.0


def test_metrics_partial_test_suites():
    """5/10 passing counts for 50p-Acc but not Acc."""
    gold = parse_tuple_sequence("(+,a,1)")
    pred_half = parse_tuple_sequence("(+,a,2)")  # right on half the cases below
    suite = [({"a": i}, i + 1) for i in range(5)] + [({"a": i}, i + 2) for i in range(5)]
    report = evaluate_metrics([pred_half], [gold], test_suites=[suite])
    assert report.acc == 0.0
    assert report.p50_acc == 1.0


def test_metrics_monotonicity_acc_le_p50():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        preds, golds, suites = [], [], []
        for _ in range(n):
            target = int(rng.integers(0, 3))
            preds.append([T("+", "a", str(target))])
            golds.append([T("+", "a", "1")])
            suites.append([({"a": 0}, int(rng.integers(0, 3))) for _ in range(4)])
        rep = evaluate_metrics(preds, golds, test_suites=suites)
        assert rep.acc <= rep.p50_acc


def test_metrics_length_mismatch():
    with pytest.raises(ValueError):
        evaluate_metrics([[T("a", "b", "c")]], [])
