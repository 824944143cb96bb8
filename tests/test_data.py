"""Dataset loading, number linking, arity normalization, vocabularies."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpn2f.data import (
    DEFAULT_REWRITE_TABLE,
    DatasetError,
    PreprocessError,
    Sample,
    SchemaError,
    Vocabularies,
    build_vocabularies,
    is_count,
    is_finite_number,
    link_numbers,
    load_dataset,
    load_rewrite_table,
    pad_arguments,
    preprocess_program,
    preprocess_samples,
    rewrite_ternary_ops,
    save_dataset,
)
from tpn2f.formal_lang import (
    ExecutionError,
    ParseError,
    ProgramEnv,
    RelationalTuple,
    exec_algolisp,
    exec_mathqa,
    parse_tuple_sequence,
)


def T(rel, *args):
    return RelationalTuple(rel, tuple(args))


# ---------------------------------------------------------------------------
# loading


def test_load_intro_style_record(tmp_path):
    path = tmp_path / "d.jsonl"
    record = {"text": "20 is subtracted from 60 percent of a number , the result is 88 .",
              "program": "(add,n0,n2) (divide,n1,const100) (divide,#0,#1)"}
    path.write_text(json.dumps(record) + "\n")
    samples = load_dataset(path, "mathqa-style")
    assert len(samples) == 1
    s = samples[0]
    assert len(s.program) == 3
    assert s.numbers == [20.0, 60.0, 88.0]
    assert s.text[0] == "n0" and "n1" in s.text and "n2" in s.text
    assert exec_mathqa(s.program, ProgramEnv(numbers=s.numbers)) == 180.0


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_dataset(path) == []


def test_load_missing_program_names_field(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps({"text": "hello"}) + "\n")
    with pytest.raises(SchemaError, match="program"):
        load_dataset(path)


def test_load_bad_json_reports_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"text": "a", "program": "(f,x)"}\n{oops\n')
    with pytest.raises(DatasetError, match=":2"):
        load_dataset(path)


def test_load_algolisp_tree_and_tests(tmp_path):
    path = tmp_path / "d.jsonl"
    record = {"text": "decrement each element of a by b",
              "program_tree": "(map a (partial1 b --))",
              "tests": [{"input": {"a": [5, 3], "b": 2}, "output": [3, 1]}]}
    path.write_text(json.dumps(record) + "\n")
    s = load_dataset(path, "algolisp-style")[0]
    assert s.program == [T("partial1", "b", "--"), T("map", "a", "#0")]
    inputs, expected = s.tests[0]
    assert exec_algolisp(s.program, inputs) == expected


@pytest.mark.parametrize("fmt, field, program", [
    ("mathqa-style", "program", "(divide,n0,const-100)"),
    ("mathqa-style", "program", [["divide", "n0", "const-100"]]),
    ("algolisp-style", "program_tree", "(divide n0 const-100)"),
], ids=["tuple-text", "tuple-list", "tree"])
def test_const_dash_reads_as_const_in_every_program_syntax(tmp_path, fmt, field, program):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps({"text": "a 3", field: program}) + "\n")
    assert load_dataset(path, fmt)[0].program == [T("divide", "n0", "const100")]


@pytest.mark.parametrize("fields, field", [
    ({"numbers": "abc"}, "numbers"), ({"numbers": "123"}, "numbers"),
    ({"numbers": [1, True]}, "numbers"), ({"numbers": None}, "numbers"),
    ({"options": ["x"]}, "options"), ({"options": 5}, "options"),
    ({"options": 0}, "options"), ({"options": False}, "options"), ({"options": ""}, "options"),
    ({"text": 5}, "text"), ({"text": ["a", 1]}, "text"),
    ({"text": ""}, "text"), ({"text": "  "}, "text"), ({"text": []}, "text"),
    ({"program": [["add", "n0", "n1", "n2", "n3"]]}, "program"),
    ({"program": [["", "n0"]]}, "program"), ({"program": [[]]}, "program"),
    ({"tests": 5}, "tests"), ({"tests": [{"input": 3, "output": 1}]}, "tests"),
    ({"numbers": [3, float("nan")]}, "numbers"), ({"numbers": [float("inf")]}, "numbers"),
    ({"options": [float("nan"), 5, 6]}, "options"), ({"options": [4, -float("inf")]}, "options"),
    ({"program": [[None, "x"]]}, "program"), ({"program": [[True, False]]}, "program"),
    ({"program": [["add", "", "x"]]}, "program"), ({"program": [["add", "x", None]]}, "program"),
    ({"program": [[5, "x"]]}, "program"), ({"program": [["add", ["x"]]]}, "program"),
    ({"numbers": [10**400]}, "numbers"), ({"program": [["add", 10**400]]}, "program"),
], ids=["numbers-text", "numbers-digits", "numbers-bool", "numbers-null", "options-text",
        "options-number", "options-zero", "options-false", "options-empty-string",
        "text-number", "text-mixed", "text-empty", "text-blank", "text-empty-list",
        "program-5-items",
        "program-empty-relation", "program-empty-entry", "tests-number", "tests-input-number",
        "numbers-nan", "numbers-infinity", "options-nan", "options-minus-infinity",
        "program-null-relation", "program-bools", "program-empty-argument", "program-null-argument",
        "program-number-relation", "program-list-argument", "numbers-past-float-range",
        "program-argument-past-float-range"])
def test_load_bad_field_names_record_and_field(tmp_path, fields, field):
    """A non-finite number, which JSON's ``NaN`` and ``Infinity`` spell, is a bad field:
    a NaN option would compare false with every answer and so match option 0."""
    path = tmp_path / "d.jsonl"
    good = {"text": "a 3", "program": [["add", "n0", "n0"]]}
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **fields}) + "\n")
    with pytest.raises(SchemaError, match=f"record 2: field '{field}'"):
        load_dataset(path)


@pytest.mark.parametrize("value, finite, count", [
    (0, True, True), (7, True, True), (-2, True, False), (1.5, True, False), (-0.0, True, False),
    (True, False, False), (float("nan"), False, False), (float("inf"), False, False),
    (10**400, False, True), (-10**400, False, False), ("1", False, False), (None, False, False),
], ids=["zero", "int", "negative-int", "float", "negative-zero", "bool", "nan", "infinity",
        "int-past-float-range", "negative-int-past-float-range", "digits", "null"])
def test_one_definition_of_a_finite_number_and_of_a_count(value, finite, count):
    assert (is_finite_number(value), is_count(value)) == (finite, count)


def test_number_arguments_of_a_list_program_read_as_their_text(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps({"text": "a 3", "program": [["add", 0, 1.5], ["neg", "#0"]]}))
    assert load_dataset(path)[0].program == [T("add", "0", "1.5"), T("neg", "#0")]


def test_missing_null_or_empty_options_read_as_no_options(tmp_path):
    path = tmp_path / "d.jsonl"
    good = {"text": "a 3", "program": [["add", "n0", "n0"]]}
    path.write_text("".join(json.dumps(r) + "\n" for r in (
        good, {**good, "options": None}, {**good, "options": []}, {**good, "options": [2]})))
    assert [s.options for s in load_dataset(path)] == [None, None, None, [2.0]]


@pytest.mark.parametrize("fmt, record, position", [
    ("mathqa-style", {"program": "(add,n0"}, 7),
    ("algolisp-style", {"program_tree": "(f a) b"}, 6),
])
def test_load_unparsable_program_names_record_and_keeps_offset(tmp_path, fmt, record, position):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps({"text": "a 3", "program": "(add,n0,n0)"}) + "\n"
                    + json.dumps({"text": "a 3", **record}) + "\n")
    want = rf"^{re.escape(str(path))}: record 2: .* \(offset {position}\)$"
    with pytest.raises(ParseError, match=want) as err:
        load_dataset(path, fmt)
    assert err.value.position == position


def test_preprocess_error_names_the_sample():
    sample = Sample(id="q7", text=["a"], program=[T("fold", "n0", "n0", "n0")])
    with pytest.raises(PreprocessError, match="^sample q7: no rewrite rule"):
        preprocess_samples([sample])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)
_FIELD_VALUES = {
    "id": _JSON, "text": _JSON | st.lists(st.sampled_from(["a", "3", "n0"]), max_size=4),
    "program": _JSON | st.sampled_from(["(add,n0,n1)", "(if,a,b,c) (f,#0)", "(add n0"])
    | st.lists(st.lists(st.sampled_from(["add", "n0", "#0", "#3", "", 2]), max_size=5),
               max_size=3),
    "program_tree": _JSON | st.sampled_from(["(map a (partial1 b --))", "(f", "(f a b c d)"]),
    "numbers": _JSON | st.lists(st.integers() | st.floats(), max_size=3),
    "options": _JSON | st.lists(st.floats(), max_size=3),
    "tests": _JSON | st.lists(st.fixed_dictionaries({"input": _JSON, "output": _JSON}),
                              max_size=2),
}
_RECORD = st.fixed_dictionaries({}, optional=_FIELD_VALUES) | _JSON


@settings(max_examples=300, deadline=None)
@given(st.lists(_RECORD, min_size=1, max_size=3),
       st.sampled_from(["mathqa-style", "algolisp-style"]), st.booleans())
def test_any_json_records_load_or_raise_a_data_error(records, fmt, as_array):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        path.write_text(json.dumps(records) if as_array
                        else "".join(json.dumps(r) + "\n" for r in records))
        try:
            samples = load_dataset(path, fmt)
        except (DatasetError, PreprocessError, ParseError, ExecutionError):
            return
    for s in samples:
        assert all(isinstance(t, str) for t in s.text) and isinstance(s.id, str)
        assert all(type(x) is float and np.isfinite(x) for x in s.numbers + (s.options or []))
        assert all(isinstance(t, RelationalTuple) for t in s.program)


def test_load_json_array(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps([{"text": "x", "program": "(f,a)"}]))
    assert len(load_dataset(path)) == 1


def test_save_load_round_trip(tmp_path):
    samples = [Sample(id="s0", text=["n0", "plus", "n1"],
                      program=[T("add", "n0", "n1")], numbers=[1.0, 2.0],
                      options=[3.0, 4.0])]
    path = tmp_path / "out.jsonl"
    save_dataset(path, samples)
    loaded = load_dataset(path, "mathqa-style")
    assert loaded[0].program == samples[0].program
    assert loaded[0].numbers == samples[0].numbers
    assert loaded[0].options == samples[0].options


# ---------------------------------------------------------------------------
# number linking


def test_link_numbers_zero_indexed():
    numbers, text = link_numbers(
        "20 is subtracted from 60 percent of a number , the result is 88".split())
    assert numbers == [20.0, 60.0, 88.0]
    assert text[0] == "n0"
    assert [t for t in text if t.startswith("n") and t[1:].isdigit()] == ["n0", "n1", "n2"]


def test_link_numbers_no_numerals():
    numbers, text = link_numbers(["no", "digits", "here"])
    assert numbers == []
    assert text == ["no", "digits", "here"]


def test_link_numbers_miles_trailing_punctuation():
    numbers, text = link_numbers("3888 . population grows 20 % in 1 year".split())
    assert numbers == [3888.0, 20.0, 1.0]


# ---------------------------------------------------------------------------
# ternary rewriting


def test_rewrite_shifts_downstream_references():
    table = {"t": [["t1", "$1", "$2"], ["t2", "$prev", "$3"]]}
    program = [T("t", "a", "b", "c"), T("g", "#0", "d")]
    out = rewrite_ternary_ops(program, table)
    assert out == [T("t1", "a", "b"), T("t2", "#0", "c"), T("g", "#1", "d")]


def test_rewrite_no_ternary_is_identity():
    program = [T("f", "a", "b"), T("g", "#0", "c")]
    assert rewrite_ternary_ops(program, {}) == program


def test_rewrite_missing_rule_names_op():
    with pytest.raises(PreprocessError, match="mystery"):
        rewrite_ternary_ops([T("mystery", "a", "b", "c")], {})


def test_rewrite_preserves_if_semantics():
    """Dual-executor oracle: native ternary vs curried rewrite agree."""
    rng = np.random.default_rng(0)
    for _ in range(25):
        cond = bool(rng.integers(0, 2))
        x, y = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        native = [T("==", "a", "1"), T("if", "#0", str(x), str(y))]
        rewritten = rewrite_ternary_ops(native, DEFAULT_REWRITE_TABLE)
        bindings = {"a": 1 if cond else 0}
        assert exec_algolisp(native, dict(bindings)) == exec_algolisp(rewritten, dict(bindings))


def test_rewrite_preserves_reduce_semantics():
    native = parse_tuple_sequence("(range,1,5) (reduce,#0,0,+)")
    rewritten = rewrite_ternary_ops(native, DEFAULT_REWRITE_TABLE)
    assert all(len(t.args) == 2 for t in rewritten)
    assert exec_algolisp(native) == exec_algolisp(rewritten) == 10


def test_rewrite_preserves_lazy_branches():
    # The dead branch would recurse forever; rewritten form must stay lazy.
    factorial = parse_tuple_sequence(
        "( <=,arg1,1 ) ( -,arg1,1 ) ( self,#1 ) ( *,#2,arg1 ) "
        "( if,#0,1,#3 ) ( lambda1,#4 ) ( invoke1,#5,a )")
    rewritten = rewrite_ternary_ops(factorial, DEFAULT_REWRITE_TABLE)
    assert exec_algolisp(rewritten, {"a": 5}) == 120


def test_rewrite_custom_mathqa_ternary():
    """An arithmetic 3-arg op rewrites to chained binary ops with equal value."""
    native = [T("add3", "n0", "n1", "n2"), T("multiply", "#0", "n0")]
    table = {"add3": [["add", "$1", "$2"], ["add", "$prev", "$3"]]}
    rewritten = rewrite_ternary_ops(native, table)
    env_native = ProgramEnv(numbers=[2.0, 3.0, 4.0])
    env_rewritten = ProgramEnv(numbers=[2.0, 3.0, 4.0])
    ops = {"add3": (3, lambda a, b, c: a + b + c)}
    assert exec_mathqa(native, env_native, operators=ops) == \
        exec_mathqa(rewritten, env_rewritten) == 18.0


@pytest.mark.parametrize("rule", [
    [[], []], [["if1", "$1", 5], ["if2", "$prev", "$3"]], [["if1"], ["if2", "$prev", "$3"]],
    [["if1", "$1", "$2", "$3", "x"], ["if2", "$prev", "$3"]], [["", "$1", "$2"], ["if2", "$3"]],
    [["if1", "$1", "$2"], "if2"],
], ids=["empty", "number", "no-argument", "four-arguments", "empty-relation", "string"])
def test_rewrite_table_template_is_a_relation_and_one_to_three_arguments(tmp_path, rule):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"if": rule}))
    with pytest.raises(PreprocessError, match="'if'"):
        load_rewrite_table(path)


_TEMPLATE = st.lists(st.sampled_from(["f", "$1", "$2", "$3", "$prev", ""]) | _JSON, max_size=5)


@settings(max_examples=300, deadline=None)
@given(_JSON | st.dictionaries(st.sampled_from(["if", "t"]),
                               _JSON | st.lists(_TEMPLATE, max_size=3), max_size=2))
def test_any_json_rewrite_table_loads_or_raises_a_preprocess_error(table):
    """A loaded table then rewrites a program or raises ``PreprocessError``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rules.json"
        path.write_text(json.dumps(table))
        try:
            loaded = load_rewrite_table(path)
        except PreprocessError:
            return
    try:
        out = preprocess_program([T("if", "a", "b", "c"), T("t", "#0", "d", "e")], 2, loaded)
    except PreprocessError:
        return
    assert all(isinstance(t, RelationalTuple) and len(t.args) == 2 for t in out)


# ---------------------------------------------------------------------------
# padding


def test_pad_unary_tuple():
    assert pad_arguments([T("sqrt", "n0")]) == [T("sqrt", "n0", "PAD")]


def test_pad_binary_unchanged():
    assert pad_arguments([T("add", "n0", "n1")]) == [T("add", "n0", "n1")]


def test_pad_to_three_positions():
    assert pad_arguments([T("len", "a")], positions=3) == [T("len", "a", "PAD", "PAD")]


def test_pad_rejects_overlong():
    with pytest.raises(PreprocessError):
        pad_arguments([T("if", "a", "b", "c")], positions=2)


def test_preprocess_idempotent():
    program = [T("if", "a", "1", "2"), T("+", "#0", "1")]
    once = preprocess_program(program, positions=2)
    twice = preprocess_program(once, positions=2)
    assert once == twice
    assert all(len(t.args) == 2 for t in once)


def test_pad_never_creates_pad_relation():
    out = preprocess_program([T("sqrt", "n0")], positions=2)
    assert all(t.relation != "PAD" for t in out)


# ---------------------------------------------------------------------------
# vocabularies


def _intro_sample():
    return Sample(id="0", text="n0 is subtracted from n1 percent".split(),
                  program=parse_tuple_sequence(
                      "(add,n0,n2) (divide,n1,const100) (divide,#0,#1)"),
                  numbers=[20.0, 60.0, 88.0])


def test_vocab_relations_from_single_sample():
    vocab = build_vocabularies([_intro_sample()])
    assert set(vocab.relations) == {"PAD", "UNK", "GO", "EOS", "add", "divide"}
    assert vocab.relations.index("divide") < vocab.relations.index("add")  # freq order


def test_vocab_unseen_token_maps_to_unk():
    vocab = build_vocabularies([_intro_sample()])
    assert vocab.token_id("zebra") == vocab.token_id("UNK")


def test_vocab_deterministic():
    a = build_vocabularies([_intro_sample()])
    b = build_vocabularies([_intro_sample()])
    assert a.tokens == b.tokens and a.relations == b.relations and a.arguments == b.arguments


def test_vocab_disjoint_spaces():
    vocab = build_vocabularies([_intro_sample()])
    assert vocab.relation_id("add") != vocab.argument_id("n0") or True
    assert "add" in vocab.relations and "add" not in vocab.arguments


def test_vocab_empty_corpus():
    with pytest.raises(DatasetError):
        build_vocabularies([])


def test_vocab_round_trip_dict():
    vocab = build_vocabularies([_intro_sample()])
    again = Vocabularies.from_dict(vocab.to_dict())
    assert again.tokens == vocab.tokens


@pytest.mark.parametrize("program, symbol", [
    ("(EOS,n0) (add,GO,n1)", "EOS"), ("(add,n0,n1) (add,GO,n1)", "GO"),
    ("(add,n0,EOS)", "EOS"), ("(UNK,n0,n1)", "UNK"), ("(add,UNK,n1)", "UNK"),
    ("(GO,n0,n1)", "GO"), ("(PAD,n0,n1)", "PAD"),
])
def test_vocab_rejects_reserved_symbols_in_a_program(program, symbol):
    sample = Sample(id="s7", text=["a"], program=parse_tuple_sequence(program))
    with pytest.raises(DatasetError, match=f"sample s7: .*'{symbol}'"):
        build_vocabularies([_intro_sample(), sample])


def test_vocab_takes_pad_as_an_argument_and_unk_as_a_text_token():
    sample = Sample(id="s8", text=["UNK", "a"], program=parse_tuple_sequence("(neg,n0,PAD)"))
    vocab = build_vocabularies([sample])
    assert vocab.tokens == ["UNK", "a"]
    assert vocab.arguments == ["PAD", "UNK", "GO", "EOS", "n0"]
    assert vocab.relations == ["PAD", "UNK", "GO", "EOS", "neg"]
    assert Vocabularies.from_dict(vocab.to_dict()) == vocab


@pytest.mark.parametrize("key, value", [
    ("tokens", ["UNK", "a", "a"]), ("relations", ["PAD", "UNK", "GO", "EOS", "EOS", "add"]),
    ("arguments", ["PAD", "UNK", "GO", "EOS", "n0", "PAD"]),
])
def test_vocab_from_dict_rejects_a_repeated_symbol(key, value):
    d = {**build_vocabularies([_intro_sample()]).to_dict(), key: value}
    with pytest.raises(SchemaError, match=f"'{key}'.*distinct"):
        Vocabularies.from_dict(d)


def test_preprocess_samples_keeps_metadata():
    s = _intro_sample()
    out = preprocess_samples([s], positions=2)
    assert out[0].numbers == s.numbers
    assert out[0].id == s.id
    assert all(len(t.args) == 2 for t in out[0].program)
