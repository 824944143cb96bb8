"""Dataset ingestion, number linking, preprocessing, and vocabularies.

Input records are JSON-lines (or a JSON array) with fields
``{text, program | program_tree, numbers?, options?, tests?}``.  Text numerals
are linked left-to-right to zero-indexed slots (first number -> n0), ternary
relations are rewritten to chained binary tuples through a fresh #k, and
every tuple is padded with PAD up to the configured argument count.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from .formal_lang import (
    _REF_RE,
    PAD_SYMBOL,
    ParseError,
    RelationalTuple,
    flatten_program_tree,
    parse_tuple_sequence,
)

GO_SYMBOL = "GO"
EOS_SYMBOL = "EOS"
UNK_SYMBOL = "UNK"
SPECIAL_SYMBOLS = (PAD_SYMBOL, UNK_SYMBOL, GO_SYMBOL, EOS_SYMBOL)
FORMATS = ("mathqa-style", "algolisp-style")

_TOKEN_NUMBER_RE = re.compile(r"^(\d+(?:\.\d+)?)[.,?!%:;]*$")


class DatasetError(ValueError):
    """Unreadable or malformed dataset file."""


class SchemaError(DatasetError):
    """A record is missing a required field or has the wrong type."""


class PreprocessError(ValueError):
    """A program cannot be normalized (e.g. ternary op without a rewrite rule)."""


@dataclass
class Sample:
    id: str
    text: list[str]
    program: list[RelationalTuple]
    numbers: list[float] = field(default_factory=list)
    tests: list[tuple[dict, Any]] | None = None
    options: list[float] | None = None


def link_numbers(tokens: Sequence[str]) -> tuple[list[float], list[str]]:
    """Extract numerals left-to-right and replace them with n0, n1, ...

    Zero-indexed: the first number mentioned becomes n0.  Trailing punctuation
    on a numeral token is dropped.
    """
    numbers: list[float] = []
    out: list[str] = []
    for tok in tokens:
        m = _TOKEN_NUMBER_RE.match(tok)
        if m:
            out.append(f"n{len(numbers)}")
            numbers.append(float(m.group(1)))
        else:
            out.append(tok)
    return numbers, out


def normalize_consts(program: Iterable[RelationalTuple]) -> list[RelationalTuple]:
    """Read every ``const-N`` argument as ``constN``, a tokenization artifact."""
    return [RelationalTuple(t.relation, tuple(
        "const" + a[len("const-"):] if a.startswith("const-") else a for a in t.args))
        for t in program]


def read_json_lines(path, text: str) -> list[tuple[int, Any]]:
    """``(line number, value)`` for each non-blank line of JSON-lines ``text``
    read from ``path``; a line that is not JSON is an error naming ``path:line``."""
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            values.append((lineno, json.loads(line)))
        except ValueError as exc:   # not JSON, or an integer past 4,300 digits
            raise DatasetError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    return values


def is_finite_number(value) -> bool:
    """An int or a float, never a bool, that is finite as a float: an int beyond
    the float range is not."""
    with contextlib.suppress(OverflowError):
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    return False


def is_count(value) -> bool:
    """An int, never a bool, that is at least 0."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def relational_tuple(entry, what: str, numbers: bool = True) -> RelationalTuple:
    """The tuple a ``[relation, arg…]`` JSON list spells: a non-empty string
    relation, then 1-3 arguments, each a non-empty string or, when ``numbers``,
    a finite number read as its text.  Anything else is a ``SchemaError``
    that names ``what``."""
    rel, *args = entry if isinstance(entry, list) and 2 <= len(entry) <= 4 else [None]
    if not (isinstance(rel, str) and rel and all(
            (isinstance(a, str) and a) or (numbers and is_finite_number(a)) for a in args)):
        raise SchemaError(f"{what}: a tuple is a non-empty string relation and 1-3 arguments, "
                          f"each a non-empty string{' or a finite number' * numbers}, "
                          f"got {entry!r:.60}")
    return RelationalTuple(rel, tuple(str(a) for a in args))


def _parse_program(value) -> list[RelationalTuple]:
    if isinstance(value, str):
        return parse_tuple_sequence(value)
    if isinstance(value, list):
        return [relational_tuple(e, "field 'program'") for e in value]
    raise SchemaError(f"field 'program' must be a string or list, got {type(value).__name__}")


def _parse_tests(value) -> list[tuple[dict, Any]]:
    if not isinstance(value, list):
        raise SchemaError(f"field 'tests' must be a list, got {type(value).__name__}")
    tests = []
    for entry in value:
        if isinstance(entry, dict) and {"input", "output"} <= entry.keys():
            entry = [entry["input"], entry["output"]]
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], dict)):
            raise SchemaError(f"field 'tests' entries need an input object and an output, "
                              f"got {entry!r:.60}")
        tests.append((dict(entry[0]), entry[1]))
    return tests


def _numbers(value, name: str) -> list[float]:
    """A list of finite numbers: a NaN option would compare false with every answer."""
    if not (isinstance(value, list) and all(map(is_finite_number, value))):
        raise SchemaError(f"field {name!r} must be a list of finite numbers, got {value!r:.60}")
    return [float(x) for x in value]


def _sample_from_record(record: dict, index: int, fmt: str) -> Sample:
    if not isinstance(record, dict):
        raise SchemaError("not an object")
    if "text" not in record:
        raise SchemaError("missing field 'text'")
    tokens = record["text"]
    if isinstance(tokens, str):
        tokens = tokens.split()
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise SchemaError(f"field 'text' must be a string or a list of strings, "
                          f"got {record['text']!r:.60}")
    if not tokens:
        raise SchemaError("field 'text' holds no tokens")

    if "program" in record:
        program = _parse_program(record["program"])
    elif "program_tree" in record and fmt == "algolisp-style":
        if not isinstance(record["program_tree"], str):
            raise SchemaError("field 'program_tree' must be a string")
        program = flatten_program_tree(record["program_tree"])
    else:
        missing = "program_tree" if fmt == "algolisp-style" else "program"
        raise SchemaError(f"missing field '{missing}' (or 'program')")
    program = normalize_consts(program)

    if "numbers" in record:
        numbers = _numbers(record["numbers"], "numbers")
        text = tokens
    elif fmt == "mathqa-style":
        numbers, text = link_numbers(tokens)
    else:
        numbers, text = [], tokens

    return Sample(
        id=str(record.get("id", index)),
        text=text,
        program=program,
        numbers=numbers,
        tests=_parse_tests(record["tests"]) if record.get("tests") is not None else None,
        options=(_numbers(record["options"], "options") or None
                 if record.get("options") is not None else None),
    )


def load_dataset(path, fmt: str = "mathqa-style") -> list[Sample]:
    """Read JSON-lines (or one JSON array) of records into normalized Samples."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown dataset format {fmt!r}")
    path = Path(path)
    raw = path.read_text(encoding="utf-8")
    stripped = raw.lstrip()
    if not stripped:
        return []
    if stripped.startswith("["):
        try:
            arr = json.loads(raw)
        except ValueError as exc:   # not JSON, or an integer past 4,300 digits
            raise DatasetError(f"{path}: invalid JSON array: {exc}") from exc
        records = list(enumerate(arr))
    else:
        records = read_json_lines(path, raw)
    samples = []
    for index, record in records:
        try:
            samples.append(_sample_from_record(record, index, fmt))
        except SchemaError as exc:
            raise SchemaError(f"{path}: record {index}: {exc}") from exc
        except ParseError as exc:
            raise ParseError(f"{path}: record {index}: {exc.message}", exc.position) from exc
    return samples


def save_dataset(path, samples: Sequence[Sample]) -> None:
    """Write samples as JSON-lines loadable by ``load_dataset``."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            record: dict[str, Any] = {
                "id": s.id,
                "text": s.text,
                "program": [[t.relation, *t.args] for t in s.program],
                "numbers": s.numbers,
            }
            if s.options is not None:
                record["options"] = s.options
            if s.tests is not None:
                record["tests"] = [{"input": i, "output": o} for i, o in s.tests]
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# preprocessing transforms


# Default currying rewrites for three-argument relations when the model runs
# with two argument positions.  The curried pair keeps lazy-branch semantics.
DEFAULT_REWRITE_TABLE: dict[str, list[list[str]]] = {
    "if": [["if1", "$1", "$2"], ["if2", "$prev", "$3"]],
    "reduce": [["reduce1", "$1", "$2"], ["reduce2", "$prev", "$3"]],
}


def _instantiate(template: list[str], args: tuple[str, ...], prev_ref: str | None) -> RelationalTuple:
    def fill(slot: str) -> str:
        if slot == "$1":
            return args[0]
        if slot == "$2":
            return args[1]
        if slot == "$3":
            return args[2]
        if slot == "$prev":
            if prev_ref is None:
                raise PreprocessError("$prev used in the first template tuple")
            return prev_ref
        return slot

    return RelationalTuple(fill(template[0]), tuple(fill(s) for s in template[1:]))


def rewrite_ternary_ops(program: Sequence[RelationalTuple],
                        table: dict[str, list[list[str]]] | None = None) -> list[RelationalTuple]:
    """Expand each 3-argument tuple into two chained binary tuples.

    Downstream #-references are renumbered to the final tuple of each
    expansion.  A 3-argument relation absent from the table is an error.
    """
    if table is None:
        table = DEFAULT_REWRITE_TABLE
    out: list[RelationalTuple] = []
    result_index: dict[int, int] = {}

    def remap(symbol: str) -> str:
        m = _REF_RE.match(symbol)
        if not m:
            return symbol
        old = int(m.group(1))
        if old not in result_index:
            raise PreprocessError(f"forward or dangling reference {symbol}")
        return f"#{result_index[old]}"

    for step, tup in enumerate(program):
        args = tuple(remap(a) for a in tup.args)
        if len(args) == 3:
            if tup.relation not in table:
                raise PreprocessError(
                    f"no rewrite rule for 3-argument relation {tup.relation!r}")
            first, second = table[tup.relation]
            t1 = _instantiate(first, args, None)
            out.append(t1)
            t2 = _instantiate(second, args, f"#{len(out) - 1}")
            out.append(t2)
        else:
            out.append(RelationalTuple(tup.relation, args))
        result_index[step] = len(out) - 1
    return out


def pad_arguments(program: Sequence[RelationalTuple], positions: int = 2) -> list[RelationalTuple]:
    """Append PAD so every tuple carries exactly ``positions`` arguments."""
    out = []
    for tup in program:
        if len(tup.args) > positions:
            raise PreprocessError(
                f"{tup.relation} has {len(tup.args)} arguments; rewrite before padding")
        args = tup.args + (PAD_SYMBOL,) * (positions - len(tup.args))
        out.append(RelationalTuple(tup.relation, args))
    return out


def preprocess_program(program: Sequence[RelationalTuple], positions: int = 2,
                       rewrite_table: dict | None = None) -> list[RelationalTuple]:
    """Arity normalization: rewrite ternaries when positions == 2, then pad."""
    if positions == 2:
        program = rewrite_ternary_ops(program, rewrite_table)
    return pad_arguments(program, positions)


def preprocess_samples(samples: Sequence[Sample], positions: int = 2,
                       rewrite_table: dict | None = None) -> list[Sample]:
    """``preprocess_program`` on every sample; an error names the sample's id."""
    out = []
    for s in samples:
        try:
            program = preprocess_program(s.program, positions, rewrite_table)
        except PreprocessError as exc:
            raise PreprocessError(f"sample {s.id}: {exc}") from exc
        out.append(Sample(id=s.id, text=s.text, program=program, numbers=s.numbers,
                          tests=s.tests, options=s.options))
    return out


def load_rewrite_table(path) -> dict[str, list[list[str]]]:
    try:
        table = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:   # not JSON, or an integer past 4,300 digits
        raise PreprocessError(f"{path}: invalid JSON rewrite table: {exc}") from exc
    if not isinstance(table, dict):
        raise PreprocessError(f"{path}: a rewrite table must be a JSON object of rules")
    for op, templates in table.items():
        if not (isinstance(templates, list) and len(templates) == 2):
            raise PreprocessError(f"{path}: rewrite rule for {op!r} must be two template tuples")
        try:   # slot names and symbols, written as strings
            for t in templates:
                relational_tuple(t, f"rewrite rule for {op!r}", numbers=False)
        except SchemaError as exc:
            raise PreprocessError(f"{path}: {exc}") from exc
    return table


# ---------------------------------------------------------------------------
# vocabularies


@dataclass
class Vocabularies:
    """Disjoint id spaces for text tokens, relations, and arguments."""

    tokens: list[str]
    relations: list[str]
    arguments: list[str]

    def __post_init__(self):
        self._token_ids = {s: i for i, s in enumerate(self.tokens)}
        self._relation_ids = {s: i for i, s in enumerate(self.relations)}
        self._argument_ids = {s: i for i, s in enumerate(self.arguments)}

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @property
    def n_arguments(self) -> int:
        return len(self.arguments)

    def token_id(self, tok: str) -> int:
        return self._token_ids.get(tok, self._token_ids[UNK_SYMBOL])

    def relation_id(self, sym: str) -> int:
        return self._relation_ids.get(sym, self._relation_ids[UNK_SYMBOL])

    def argument_id(self, sym: str) -> int:
        return self._argument_ids.get(sym, self._argument_ids[UNK_SYMBOL])

    def encode_text(self, tokens: Sequence[str]) -> list[int]:
        return [self.token_id(t) for t in tokens]

    def to_dict(self) -> dict:
        return {"tokens": self.tokens, "relations": self.relations,
                "arguments": self.arguments}

    @classmethod
    def from_dict(cls, d: dict, error: type[Exception] = SchemaError) -> "Vocabularies":
        """The inverse of ``to_dict``; ``error`` unless ``d`` holds three lists of distinct
        strings, with UNK among the tokens and each special symbol among the others."""
        required = {"tokens": [UNK_SYMBOL], "relations": SPECIAL_SYMBOLS,
                    "arguments": SPECIAL_SYMBOLS}
        for key, symbols in required.items():
            value = d.get(key) if isinstance(d, dict) else None
            if not (isinstance(value, list) and all(isinstance(s, str) for s in value)
                    and set(symbols) <= set(value) and len(set(value)) == len(value)):
                raise error(f"vocabulary {key!r} must be a list of distinct strings holding "
                            f"{', '.join(symbols)}, got {value!r:.60}")
        return cls(**{key: list(d[key]) for key in required})


def _ordered_by_frequency(counts: dict[str, int]) -> list[str]:
    return sorted(counts, key=lambda s: (-counts[s], s))


def build_vocabularies(samples: Sequence[Sample]) -> Vocabularies:
    """Frequency-then-lexicographic vocabularies with the special symbols.

    GO/EOS/PAD/UNK are prepended to both the relation and argument spaces;
    EOS doubles as the decoder's stop relation.  A program using GO, EOS or UNK, or PAD
    as a relation, is a ``DatasetError``; a text token UNK takes the unknown-token id.
    """
    if not samples:
        raise DatasetError("cannot build vocabularies from an empty corpus")
    tok_counts: dict[str, int] = {}
    rel_counts: dict[str, int] = {}
    arg_counts: dict[str, int] = {}
    for s in samples:
        for t in s.text:
            if t != UNK_SYMBOL:
                tok_counts[t] = tok_counts.get(t, 0) + 1
        for tup in s.program:
            reserved = {tup.relation, *tup.args} & {GO_SYMBOL, EOS_SYMBOL, UNK_SYMBOL}
            if reserved or tup.relation == PAD_SYMBOL:
                raise DatasetError(f"sample {s.id}: program tuple {tup} uses the reserved "
                                   f"symbol {min(reserved or {PAD_SYMBOL})!r}")
            rel_counts[tup.relation] = rel_counts.get(tup.relation, 0) + 1
            for a in tup.args:
                if a != PAD_SYMBOL:
                    arg_counts[a] = arg_counts.get(a, 0) + 1
    return Vocabularies(
        tokens=[UNK_SYMBOL] + _ordered_by_frequency(tok_counts),
        relations=list(SPECIAL_SYMBOLS) + _ordered_by_frequency(rel_counts),
        arguments=list(SPECIAL_SYMBOLS) + _ordered_by_frequency(arg_counts),
    )
