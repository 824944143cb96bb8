"""Relational-tuple programs: grammar, executors, tree flattening, metrics.

A program is a straight-line sequence of tuples ``(relation, arg...)`` where
``#i`` names the result of step i and only backward references are legal.
Tuple text ``(add,n0,n1) (sqrt,#0)`` and program trees ``(map a (partial1 b
--))`` are both s-expressions and are read by one reader, in which whitespace
and commas separate symbols and a parse error carries its text offset.
Two executors are provided: an arithmetic one for math word problems
(``exec_mathqa``) and a mini-Lisp one with closures and recursion
(``exec_algolisp``).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator, Sequence

PAD_SYMBOL = "PAD"

_REF_RE = re.compile(r"^#(\d+)$")
_NUMBER_SLOT_RE = re.compile(r"^n(\d+)$")
_CONST_RE = re.compile(r"^const-?(\d+(?:\.\d+)?)$")
_NUMERAL_RE = re.compile(r"^-?\d+(?:\.\d+)?$")
# The deepest nesting of parentheses a text may have.  The reader and
# ``flatten_program_tree`` recurse once per level, so a deeper text is a
# ``ParseError`` rather than a ``RecursionError``.
MAX_NESTING = 100


class ParseError(ValueError):
    """Malformed tuple sequence or s-expression; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.message = message
        self.position = position


class ExecutionError(RuntimeError):
    """Program failed to execute; ``code`` distinguishes the failure kind."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RelationalTuple:
    """One program step: a relation applied to 1-3 argument symbols."""

    relation: str
    args: tuple[str, ...]

    def __post_init__(self):
        if not self.relation:
            raise ValueError("empty relation symbol")
        if not 1 <= len(self.args) <= 3:
            raise ValueError(f"tuples take 1-3 arguments, got {len(self.args)}")

    def real_args(self) -> tuple[str, ...]:
        return tuple(a for a in self.args if a != PAD_SYMBOL)

    def __str__(self) -> str:
        return "(" + ",".join((self.relation,) + self.args) + ")"


def format_tuple_sequence(program: Sequence[RelationalTuple]) -> str:
    return " ".join(str(t) for t in program)


def _read_sexprs(text: str, flat: bool = False,
                 single: bool = False) -> Iterator[tuple[int, Any]]:
    """Yield each top-level s-expression of ``text`` as an ``(offset, node)`` pair.

    A node is an atom (a string) or a list of ``(offset, node)`` pairs.
    Whitespace and commas separate symbols.  Each expression is read only
    when it is asked for, so a caller's check on one fails before the text
    after it is scanned.  ``flat`` makes a '(' inside a list an error, and
    ``single`` a second top-level expression, each at its offset; a '(' past
    ``MAX_NESTING`` levels is an error at its offset.
    """
    n = len(text)

    def skip(i: int) -> int:
        while i < n and (text[i].isspace() or text[i] == ","):
            i += 1
        return i

    def read(i: int, depth: int) -> tuple[Any, int]:
        if text[i] == ")":
            raise ParseError("unexpected ')'", i)
        if text[i] != "(":
            j = i
            while j < n and text[j] not in "()," and not text[j].isspace():
                j += 1
            return text[i:j], j
        if depth and flat:
            raise ParseError("nested '(' inside tuple", i)
        if depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", i)
        children = []
        i = skip(i + 1)
        while i < n and text[i] != ")":
            child, end = read(i, depth + 1)
            children.append((i, child))
            i = skip(end)
        if i >= n:
            raise ParseError("unclosed '('", i)
        return children, i + 1

    i = skip(0)
    while i < n:
        node, end = read(i, 0)
        yield i, node
        i = skip(end)
        if single and i < n:
            raise ParseError("trailing input after expression", i)


def parse_tuple_sequence(text: str) -> list[RelationalTuple]:
    """Parse ``(rel,a1,a2) (rel,a1) ...``; comma and space both separate symbols.

    One-argument tuples are padded to two with PAD.  Errors carry the text
    offset at which parsing failed.
    """
    tuples: list[RelationalTuple] = []
    for start, node in _read_sexprs(text, flat=True):
        if isinstance(node, str):
            raise ParseError(f"expected '(' but found {node[0]!r}", start)
        symbols = [atom for _, atom in node]
        if not symbols:
            raise ParseError("empty tuple", start)
        if len(symbols) == 1:
            raise ParseError(f"tuple {symbols[0]!r} has no arguments", start)
        if len(symbols) > 4:
            raise ParseError(f"tuple has {len(symbols) - 1} arguments (max 3)", start)
        args = symbols[1:]
        if len(args) == 1:
            args.append(PAD_SYMBOL)
        tuples.append(RelationalTuple(symbols[0], tuple(args)))
    return tuples


def check_straight_line(program: Sequence[RelationalTuple]) -> None:
    """Reject any #i that is not a strictly backward reference."""
    for step, tup in enumerate(program):
        for a in tup.args:
            m = _REF_RE.match(a)
            if m and int(m.group(1)) >= step:
                raise ExecutionError(
                    "dangling-ref",
                    f"step {step} references {a}, which is not an earlier result")


# ---------------------------------------------------------------------------
# program trees


def flatten_program_tree(text: str) -> list[RelationalTuple]:
    """Post-order flattening: each application becomes one tuple, children
    that are themselves applications become #i references.  A malformed
    application is an error at its own offset."""
    forms = list(_read_sexprs(text, single=True))
    if not forms:
        raise ParseError("unexpected end of input", len(text))
    start, tree = forms[0]
    if isinstance(tree, str):
        raise ParseError("program must contain at least one application", start)
    out: list[RelationalTuple] = []

    def walk(start: int, node) -> str:
        if isinstance(node, str):
            return node
        if not node or not isinstance(node[0][1], str):
            raise ParseError("application head must be an atom", start)
        head, children = node[0][1], node[1:]
        if not 1 <= len(children) <= 3:
            raise ParseError(
                f"application {head!r} has {len(children)} children (need 1-3)", start)
        args = tuple(walk(*c) for c in children)
        out.append(RelationalTuple(head, args))
        return f"#{len(out) - 1}"

    walk(start, tree)
    return out


def rebuild_program_tree(program: Sequence[RelationalTuple]) -> str:
    """Inverse of ``flatten_program_tree`` for programs produced by it."""
    if not program:
        raise ValueError("cannot rebuild from an empty program")
    check_straight_line(program)

    def expand(symbol: str) -> str:
        m = _REF_RE.match(symbol)
        if not m:
            return symbol
        tup = program[int(m.group(1))]
        return "( " + " ".join([tup.relation] + [expand(a) for a in tup.args]) + " )"

    return expand(f"#{len(program) - 1}")


# ---------------------------------------------------------------------------
# math-word-problem executor


DEFAULT_CONSTANTS = {
    "const100": 100.0,
    "const1000": 1000.0,
    "const3600": 3600.0,
    "const0.2778": 0.2778,
    "const1": 1.0,
    "const2": 2.0,
    "const3": 3.0,
    "const4": 4.0,
    "const10": 10.0,
    "const0.25": 0.25,
    "const0.33": 0.33,
    "const3.6": 3.6,
    "const60": 60.0,
    "constpi": math.pi,
}


@dataclass
class ProgramEnv:
    """Execution state: question numbers n_i, step results #_i, constants."""

    numbers: list[float]
    results: list[float] = field(default_factory=list)
    constants: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_CONSTANTS))


def _safe_divide(a: float, b: float) -> float:
    if b == 0.0:
        raise ExecutionError("div-zero", f"division of {a} by zero")
    return a / b


def _safe_sqrt(a: float) -> float:
    if a < 0.0:
        raise ExecutionError("sqrt-negative", f"square root of negative value {a}")
    return math.sqrt(a)


def _safe_power(a: float, b: float) -> float:
    try:
        return float(a ** b)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise ExecutionError("domain", f"power({a}, {b}) failed: {exc}") from exc


MATHQA_OPERATORS: dict[str, tuple[int, Callable[..., float]]] = {
    "add": (2, lambda a, b: a + b),
    "subtract": (2, lambda a, b: a - b),
    "multiply": (2, lambda a, b: a * b),
    "divide": (2, _safe_divide),
    "power": (2, _safe_power),
    "sqrt": (1, _safe_sqrt),
    "floor": (1, lambda a: float(math.floor(a))),
}


def _resolve_value(symbol: str, env: ProgramEnv) -> float:
    m = _REF_RE.match(symbol)
    if m:
        idx = int(m.group(1))
        if idx >= len(env.results):
            raise ExecutionError("dangling-ref", f"{symbol} has not been computed")
        return env.results[idx]
    m = _NUMBER_SLOT_RE.match(symbol)
    if m:
        idx = int(m.group(1))
        if idx >= len(env.numbers):
            raise ExecutionError(
                "number-ref", f"{symbol} but only {len(env.numbers)} numbers are bound")
        return env.numbers[idx]
    if symbol in env.constants:
        return env.constants[symbol]
    m = _CONST_RE.match(symbol)
    if m:
        return float(m.group(1))
    if _NUMERAL_RE.match(symbol):
        return float(symbol)
    raise ExecutionError("unknown-symbol", f"cannot resolve argument {symbol!r}")


def exec_mathqa(program: Sequence[RelationalTuple], env: ProgramEnv,
                operators: dict[str, tuple[int, Callable[..., float]]] | None = None) -> float:
    """Evaluate every tuple in order, binding #i; returns the last result."""
    if not program:
        raise ExecutionError("empty-program", "nothing to execute")
    table = dict(MATHQA_OPERATORS)
    if operators:
        table.update(operators)
    check_straight_line(program)
    for tup in program:
        if tup.relation not in table:
            raise ExecutionError("unknown-operator", f"operator {tup.relation!r}")
        arity, fn = table[tup.relation]
        args = tup.real_args()
        if len(args) != arity:
            raise ExecutionError(
                "arity", f"{tup.relation} takes {arity} arguments, got {len(args)}")
        env.results.append(float(fn(*(_resolve_value(a, env) for a in args))))
    return env.results[-1]


# ---------------------------------------------------------------------------
# mini-Lisp executor


@dataclass
class Builtin:
    name: str
    arity: int
    fn: Callable


@dataclass
class Closure:
    """A lambda over the step graph: body is a step reference or literal symbol."""

    arity: int
    body: str
    frame: "_Frame | None"


@dataclass
class PartialApp:
    """Unary closure fixing the first operand of a binary function."""

    bound: Any
    fn: Any


@dataclass
class _IfPartial:
    """Curried conditional: condition and then-branch captured unevaluated."""

    cond: tuple[str, "_Frame | None"]
    then: tuple[str, "_Frame | None"]


@dataclass
class _ReducePartial:
    items: list
    init: Any


@dataclass
class _Frame:
    args: tuple
    closure: Closure
    cache: dict[int, Any] = field(default_factory=dict)


def _num_op(name, fn):
    def wrapped(a, b):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            raise ExecutionError("type", f"{name} expects numbers, got {a!r}, {b!r}")
        return fn(a, b)
    return wrapped


def _lisp_divide(a, b):
    if b == 0:
        raise ExecutionError("div-zero", f"division of {a} by zero")
    # Integer operands use integer (floor) division, as index arithmetic relies on it.
    if isinstance(a, int) and isinstance(b, int):
        return a // b
    return a / b


def _lisp_range(a, b):
    if not float(a).is_integer() or not float(b).is_integer():
        raise ExecutionError("type", f"range expects integers, got {a!r}, {b!r}")
    return list(range(int(a), int(b)))


def _lisp_digits(n):
    if not isinstance(n, (int, float)) or not float(n).is_integer():
        raise ExecutionError("type", f"digits expects an integer, got {n!r}")
    return [int(c) for c in str(abs(int(n)))]


def _lisp_deref(items, i):
    if not isinstance(items, (list, str)):
        raise ExecutionError("type", f"deref expects a list, got {items!r}")
    if isinstance(i, float) and i.is_integer():
        i = int(i)
    if not isinstance(i, int):
        raise ExecutionError("type", f"deref index must be an integer, got {i!r}")
    if not 0 <= i < len(items):
        raise ExecutionError("index", f"deref index {i} out of range for length {len(items)}")
    return items[i]


def _lisp_len(x):
    if not isinstance(x, (list, str)):
        raise ExecutionError("type", f"len expects a list or string, got {x!r}")
    return len(x)


_LISP_BUILTINS: dict[str, Builtin] = {
    "+": Builtin("+", 2, _num_op("+", lambda a, b: a + b)),
    "-": Builtin("-", 2, _num_op("-", lambda a, b: a - b)),
    "*": Builtin("*", 2, _num_op("*", lambda a, b: a * b)),
    "/": Builtin("/", 2, _num_op("/", _lisp_divide)),
    # Flipped subtraction: (-- v) used under partial decrements by v.
    "--": Builtin("--", 2, _num_op("--", lambda a, b: b - a)),
    "<=": Builtin("<=", 2, _num_op("<=", lambda a, b: a <= b)),
    ">": Builtin(">", 2, _num_op(">", lambda a, b: a > b)),
    "<": Builtin("<", 2, _num_op("<", lambda a, b: a < b)),
    "==": Builtin("==", 2, lambda a, b: a == b),
    "range": Builtin("range", 2, _lisp_range),
    "sort": Builtin("sort", 1, lambda xs: sorted(xs)),
    "reverse": Builtin("reverse", 1, lambda xs: list(reversed(xs))),
    "len": Builtin("len", 1, _lisp_len),
    "deref": Builtin("deref", 2, _lisp_deref),
    "digits": Builtin("digits", 1, _lisp_digits),
    "floor": Builtin("floor", 1, lambda a: math.floor(a)),
    "sqrt": Builtin("sqrt", 1, _safe_sqrt),
    "min": Builtin("min", 2, _num_op("min", min)),
    "max": Builtin("max", 2, _num_op("max", max)),
}

class _LispRun:
    def __init__(self, program: Sequence[RelationalTuple], bindings: dict[str, Any],
                 max_depth: int):
        self.program = list(program)
        self.bindings = bindings
        self.max_depth = max_depth
        self.depth = 0
        self.top_cache: dict[int, Any] = {}

    # -- evaluation of steps and argument symbols ---------------------------

    def eval_step(self, index: int, frame: _Frame | None):
        cache = frame.cache if frame is not None else self.top_cache
        if index in cache:
            return cache[index]
        value = self._eval_tuple(self.program[index], frame)
        cache[index] = value
        return value

    def eval_arg(self, symbol: str, frame: _Frame | None):
        m = _REF_RE.match(symbol)
        if m:
            return self.eval_step(int(m.group(1)), frame)
        if symbol in ("arg1", "arg2"):
            if frame is None:
                raise ExecutionError("free-variable", f"{symbol} outside a lambda body")
            slot = 0 if symbol == "arg1" else 1
            if slot >= len(frame.args):
                raise ExecutionError("arity", f"{symbol} unbound in a unary lambda")
            return frame.args[slot]
        if symbol in self.bindings:
            return self.bindings[symbol]
        if symbol in _LISP_BUILTINS:
            return _LISP_BUILTINS[symbol]
        if _NUMERAL_RE.match(symbol):
            return int(symbol) if "." not in symbol else float(symbol)
        raise ExecutionError("unknown-symbol", f"cannot resolve argument {symbol!r}")

    def call(self, fn, args: list):
        self.depth += 1
        if self.depth > self.max_depth:
            raise ExecutionError(
                "recursion-limit", f"recursion exceeded depth {self.max_depth}")
        try:
            if isinstance(fn, Builtin):
                if len(args) != fn.arity:
                    raise ExecutionError(
                        "arity", f"{fn.name} takes {fn.arity} arguments, got {len(args)}")
                return fn.fn(*args)
            if isinstance(fn, PartialApp):
                return self.call(fn.fn, [fn.bound] + args)
            if isinstance(fn, Closure):
                if len(args) != fn.arity:
                    raise ExecutionError(
                        "arity", f"lambda takes {fn.arity} arguments, got {len(args)}")
                frame = _Frame(args=tuple(args), closure=fn)
                return self.eval_arg(fn.body, frame)
            raise ExecutionError("type", f"{fn!r} is not callable")
        finally:
            self.depth -= 1

    # -- per-relation evaluation --------------------------------------------

    def _eval_tuple(self, tup: RelationalTuple, frame: _Frame | None):
        rel = tup.relation
        args = tup.real_args()

        def need(n):
            if len(args) != n:
                raise ExecutionError("arity", f"{rel} takes {n} arguments, got {len(args)}")

        if rel == "if":
            need(3)
            cond = self.eval_arg(args[0], frame)
            return self.eval_arg(args[1] if cond else args[2], frame)
        if rel == "if1":
            need(2)
            return _IfPartial(cond=(args[0], frame), then=(args[1], frame))
        if rel == "if2":
            need(2)
            part = self.eval_arg(args[0], frame)
            if not isinstance(part, _IfPartial):
                raise ExecutionError("type", "if2 expects the result of if1")
            cond = self.eval_arg(*part.cond)
            return self.eval_arg(*part.then) if cond else self.eval_arg(args[1], frame)
        if rel in ("lambda1", "lambda2"):
            need(1)
            return Closure(arity=1 if rel == "lambda1" else 2, body=args[0], frame=frame)
        if rel in ("partial", "partial1"):
            need(2)
            bound = self.eval_arg(args[0], frame)
            fn = self.eval_arg(args[1], frame)
            return PartialApp(bound=bound, fn=fn)
        if rel == "self":
            if frame is None:
                raise ExecutionError("free-variable", "self outside a lambda body")
            vals = [self.eval_arg(a, frame) for a in args]
            return self.call(frame.closure, vals)
        if rel == "invoke1":
            need(2)
            fn = self.eval_arg(args[0], frame)
            return self.call(fn, [self.eval_arg(args[1], frame)])
        if rel == "map":
            need(2)
            items = self.eval_arg(args[0], frame)
            fn = self.eval_arg(args[1], frame)
            if not isinstance(items, list):
                raise ExecutionError("type", f"map expects a list, got {items!r}")
            return [self.call(fn, [x]) for x in items]
        if rel == "reduce":
            need(3)
            items = self.eval_arg(args[0], frame)
            acc = self.eval_arg(args[1], frame)
            fn = self.eval_arg(args[2], frame)
            return self._fold(items, acc, fn)
        if rel == "reduce1":
            need(2)
            return _ReducePartial(items=self.eval_arg(args[0], frame),
                                  init=self.eval_arg(args[1], frame))
        if rel == "reduce2":
            need(2)
            part = self.eval_arg(args[0], frame)
            if not isinstance(part, _ReducePartial):
                raise ExecutionError("type", "reduce2 expects the result of reduce1")
            return self._fold(part.items, part.init, self.eval_arg(args[1], frame))
        if rel in _LISP_BUILTINS:
            builtin = _LISP_BUILTINS[rel]
            need(builtin.arity)
            return self.call(builtin, [self.eval_arg(a, frame) for a in args])
        raise ExecutionError("unknown-builtin", f"builtin {rel!r}")

    def _fold(self, items, acc, fn):
        if not isinstance(items, list):
            raise ExecutionError("type", f"reduce expects a list, got {items!r}")
        for x in items:
            acc = self.call(fn, [acc, x])
        return acc


def exec_algolisp(program: Sequence[RelationalTuple], bindings: dict[str, Any] | None = None,
                  max_depth: int = 10000) -> Any:
    """Demand-driven evaluation of the step graph rooted at the last tuple.

    ``if`` branches and lambda bodies evaluate lazily, so recursive programs
    (via ``self``) terminate.  Recursion beyond ``max_depth`` closure calls is
    an execution error, as is blowing the Python stack.
    """
    if not program:
        raise ExecutionError("empty-program", "nothing to execute")
    check_straight_line(program)
    run = _LispRun(program, bindings or {}, max_depth)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 30000))
    try:
        return run.eval_step(len(program) - 1, None)
    except RecursionError:
        raise ExecutionError("recursion-limit", "interpreter stack exhausted") from None
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# metrics


def _values_match(a, b, rel_tol: float = 1e-6) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b if isinstance(a, bool) and isinstance(b, bool) else a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-9)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_values_match(x, y, rel_tol) for x, y in zip(a, b))
    return a == b


def nearest_option(value: float, options: Sequence[float]) -> int:
    """Index of the multiple-choice option closest to the executed value."""
    if not options:
        raise ValueError("no options to match against")
    return min(range(len(options)), key=lambda i: (abs(options[i] - value), i))


@dataclass
class MetricReport:
    """Rates over ``n`` samples: ``exec_acc`` is over the ``n_exec`` samples
    given numbers, ``acc`` and ``p50_acc`` over the ``n_tests`` samples with a
    non-empty test suite; a rate is None when no sample supports it."""

    op_acc: float
    exec_acc: float | None
    acc: float | None
    p50_acc: float | None
    m_acc: float
    n: int
    n_exec: int
    n_tests: int

    def to_dict(self) -> dict:
        return asdict(self)


def _exec_match(pred, gold, env_numbers, options) -> bool:
    if pred == gold:
        return True
    try:
        pred_val = exec_mathqa(list(pred), ProgramEnv(numbers=list(env_numbers)))
        gold_val = exec_mathqa(list(gold), ProgramEnv(numbers=list(env_numbers)))
    except ExecutionError:
        return False
    if options:
        return nearest_option(pred_val, options) == nearest_option(gold_val, options)
    return _values_match(pred_val, gold_val)


def _suite_pass_rate(pred, suite) -> float:
    passed = 0
    for inputs, expected in suite:
        try:
            if _values_match(exec_algolisp(list(pred), dict(inputs)), expected):
                passed += 1
        except ExecutionError:
            pass
    return passed / len(suite)


def evaluate_metrics(predictions: Sequence[Sequence[RelationalTuple]],
                     golds: Sequence[Sequence[RelationalTuple]],
                     test_suites: Sequence[Sequence[tuple]] | None = None,
                     envs: Sequence[Sequence[float] | None] | None = None,
                     options: Sequence[Sequence[float] | None] | None = None) -> MetricReport:
    """Exact-match, execution, and test-suite pass rates over aligned programs.

    - op_acc: exact tuple-sequence match rate; m_acc is AlgoLisp's name for it
    - exec_acc: executed-answer match (nearest option when options are given;
      identical programs short-circuit to a match), over the samples whose
      ``envs`` entry is not None; None when no sample has numbers
    - acc / p50_acc: all / at-least-half of the sample's I/O tests pass, over
      the samples with a non-empty suite; None when no sample has one
    """
    n = len(predictions)
    if len(golds) != n:
        raise ValueError(f"{n} predictions vs {len(golds)} golds")
    for name, extra in (("test_suites", test_suites), ("envs", envs), ("options", options)):
        if extra is not None and len(extra) != n:
            raise ValueError(f"{name} has length {len(extra)}, expected {n}")
    if n == 0:
        return MetricReport(0.0, None, None, None, 0.0, 0, 0, 0)

    exact = executed = exec_ok = suites = full = half = 0
    for i in range(n):
        pred = [t for t in predictions[i]]
        gold = [t for t in golds[i]]
        if pred == gold:
            exact += 1
        if envs and envs[i] is not None:
            executed += 1
            exec_ok += _exec_match(pred, gold, envs[i], options[i] if options else None)
        if test_suites and test_suites[i]:
            suites += 1
            rate = _suite_pass_rate(pred, test_suites[i])
            full += rate == 1.0
            half += rate >= 0.5
    return MetricReport(op_acc=exact / n, exec_acc=exec_ok / executed if executed else None,
                        acc=full / suites if suites else None,
                        p50_acc=half / suites if suites else None, m_acc=exact / n, n=n,
                        n_exec=executed, n_tests=suites)
