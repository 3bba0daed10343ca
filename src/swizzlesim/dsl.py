"""Integer expression DSL for workgroup-PID swizzles.

Grammar (loosest to tightest binding, all left-associative):

    expr   := bor
    bor    := band ('|' band)*
    band   := shift ('&' shift)*
    shift  := sum (('<<' | '>>') sum)*
    sum    := term (('+' | '-') term)*
    term   := atom (('*' | '//' | '%') atom)*
    atom   := INT | IDENT | '(' expr ')' | ('min' | 'max') '(' expr ',' expr ')'

Integers are decimal or ``0x`` hex. Identifiers come from a fixed
vocabulary; anything else is rejected at parse time. Expressions are pure:
evaluation is total over environments of nonnegative integers, with
division by zero and negative intermediates rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

import numpy as np

VOCABULARY = frozenset(
    ["pid", "pid_m", "pid_n", "num_xcds", "num_blocks", "num_blocks_m", "num_blocks_n"]
)


class ExprError(ValueError):
    """Base class for parse-time expression errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r} (at position {position})")
        self.name = name
        self.position = position


class EvalError(ValueError):
    """Base class for evaluation-time errors."""


class DivisionByZeroError(EvalError):
    pass


class UnboundIdentifierError(EvalError):
    pass


class NegativeValueError(EvalError):
    """The swizzle domain is nonnegative; any negative intermediate is a bug."""


class ValueOverflowError(EvalError):
    """A literal, bound value or intermediate is not below 2**62, the supported domain."""


# Desk-scale bound: keeps the scalar (bigint) and vectorized (int64)
# evaluators in exact agreement, with headroom below int64 wraparound.
VALUE_LIMIT = 1 << 62


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "SwizzleExpr"
    right: "SwizzleExpr"


@dataclass(frozen=True)
class MinMax:
    fn: str  # "min" or "max"
    left: "SwizzleExpr"
    right: "SwizzleExpr"


SwizzleExpr = Union[Lit, Ident, BinOp, MinMax]

EvalEnv = Mapping[str, int]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>0[xX][0-9a-fA-F]+|\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>//|<<|>>|[+\-*%&|(),]))"
)

_BINARY_LEVELS = (
    ("|",),
    ("&",),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "//", "%"),
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    position: int


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        pos = match.end()
        for kind in ("int", "ident", "op"):
            value = match.group(kind)
            if value is not None:
                yield _Token(kind, value, match.start(kind))
                break
    yield _Token("end", "", len(text))


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.current
        self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.current
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.position)
        self.advance()

    def parse(self) -> SwizzleExpr:
        expr = self.parse_level(0)
        tok = self.current
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.position)
        return expr

    def parse_level(self, level: int) -> SwizzleExpr:
        if level >= len(_BINARY_LEVELS):
            return self.parse_atom()
        ops = _BINARY_LEVELS[level]
        node = self.parse_level(level + 1)
        while self.current.kind == "op" and self.current.text in ops:
            op = self.advance().text
            right = self.parse_level(level + 1)
            node = BinOp(op, node, right)
        return node

    def parse_atom(self) -> SwizzleExpr:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return Lit(int(tok.text, 0))
        if tok.kind == "ident":
            self.advance()
            if tok.text in ("min", "max"):
                self.expect_op("(")
                left = self.parse_level(0)
                self.expect_op(",")
                right = self.parse_level(0)
                self.expect_op(")")
                return MinMax(tok.text, left, right)
            if tok.text not in VOCABULARY:
                raise UnknownIdentifierError(tok.text, tok.position)
            return Ident(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_level(0)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected an operand, found {tok.text or 'end of input'!r}", tok.position
        )


def parse_expr(text: str) -> SwizzleExpr:
    """Parse expression text into a tree. Raises ExprSyntaxError /
    UnknownIdentifierError with source positions."""
    return _Parser(text).parse()


def format_expr(expr: SwizzleExpr) -> str:
    """Deterministic text form; ``parse_expr(format_expr(t))`` equals ``t``."""
    if isinstance(expr, Lit):
        return str(expr.value)
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, MinMax):
        return f"{expr.fn}({format_expr(expr.left)}, {format_expr(expr.right)})"
    return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"


def _in_domain(value: int, what: str) -> int:
    if value < 0:
        raise NegativeValueError(f"{what} is negative: {value}")
    if value >= VALUE_LIMIT:
        raise ValueOverflowError(f"{what} is not below 2**62: {value}")
    return value


def eval_expr(expr: SwizzleExpr, env: EvalEnv) -> int:
    """Evaluate over nonnegative integers.

    Floor division and modulo follow Python semantics, which coincide with
    the usual definitions on nonnegative operands. Division by zero,
    unbound identifiers, negative values and values at or above
    ``VALUE_LIMIT`` (literals, bound values or intermediates) raise.
    """
    if isinstance(expr, Lit):
        return _in_domain(expr.value, "literal")
    if isinstance(expr, Ident):
        try:
            value = env[expr.name]
        except KeyError:
            raise UnboundIdentifierError(f"identifier {expr.name!r} is not bound") from None
        return _in_domain(value, expr.name)
    if isinstance(expr, MinMax):
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        return min(left, right) if expr.fn == "min" else max(left, right)
    left = eval_expr(expr.left, env)
    right = eval_expr(expr.right, env)
    op = expr.op
    if op in ("//", "%") and right == 0:
        raise DivisionByZeroError(f"divisor is zero in {format_expr(expr)}")
    if op == "<<" and right > 62:  # guard before allocating a huge bigint
        if left != 0:
            raise ValueOverflowError(f"shift amount exceeds 62 in {format_expr(expr)}")
        return 0
    result = _APPLY[op](left, right)
    if result < 0:
        raise NegativeValueError(f"negative intermediate {result} in {format_expr(expr)}")
    if result >= VALUE_LIMIT:
        raise ValueOverflowError(f"intermediate exceeds 2**62 in {format_expr(expr)}")
    return result


_APPLY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
}


def eval_expr_vec(expr: SwizzleExpr, env: Mapping[str, "np.ndarray | int"]) -> np.ndarray:
    """Vectorized evaluation over int64 arrays (scalars broadcast).

    Same semantics and error conditions as :func:`eval_expr`; used for whole
    grid enumeration, where a Python-level tree walk per pid would dominate.
    Bound values must fit int64; every value below ``VALUE_LIMIT`` is exact.
    """
    out = _eval_vec(expr, env)
    if np.ndim(out) == 0:
        out = np.asarray([int(out)], dtype=np.int64)
    return out


def _eval_vec(expr: SwizzleExpr, env: Mapping[str, "np.ndarray | int"]):
    if isinstance(expr, Lit):
        return np.int64(_in_domain(expr.value, "literal"))
    if isinstance(expr, Ident):
        try:
            value = env[expr.name]
        except KeyError:
            raise UnboundIdentifierError(f"identifier {expr.name!r} is not bound") from None
        arr = np.asarray(value, dtype=np.int64)
        if np.any(arr < 0):
            raise NegativeValueError(f"{expr.name} is bound to a negative value")
        if np.any(arr >= VALUE_LIMIT):
            raise ValueOverflowError(f"{expr.name} is bound to a value not below 2**62")
        return arr
    left = _eval_vec(expr.left, env)
    right = _eval_vec(expr.right, env)
    if isinstance(expr, MinMax):
        return np.minimum(left, right) if expr.fn == "min" else np.maximum(left, right)
    op = expr.op
    if op in ("//", "%") and np.any(right == 0):
        raise DivisionByZeroError(f"divisor is zero in {format_expr(expr)}")
    if op == "<<":
        if np.any((right > 62) & (left != 0)):
            raise ValueOverflowError(f"shift amount exceeds 62 in {format_expr(expr)}")
        right = np.minimum(right, np.int64(62))
    if op == ">>":
        # python semantics: huge shifts drain to zero instead of wrapping
        right = np.minimum(right, np.int64(63))
    result = _APPLY_VEC[op](left, right)
    # int64 wraparound detection for the two growth ops
    if op == "*" and np.any((right != 0) & (result // np.where(right == 0, 1, right) != left)):
        raise ValueOverflowError(f"intermediate exceeds 2**62 in {format_expr(expr)}")
    if op == "<<" and np.any(np.right_shift(result, right) != left):
        raise ValueOverflowError(f"intermediate exceeds 2**62 in {format_expr(expr)}")
    if np.any(result < 0):
        raise NegativeValueError(f"negative intermediate in {format_expr(expr)}")
    if np.any(result >= VALUE_LIMIT):
        raise ValueOverflowError(f"intermediate exceeds 2**62 in {format_expr(expr)}")
    return result


_APPLY_VEC = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "//": np.floor_divide,
    "%": np.mod,
    "<<": np.left_shift,
    ">>": np.right_shift,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
}
