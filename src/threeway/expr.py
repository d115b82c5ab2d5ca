"""Arithmetic expressions in the single time variable ``t``.

Grammar (conventional precedence; ``^`` binds tightest and is
right-associative, unary minus binds tighter than ``*`` and ``/``,
which bind tighter than ``+`` and ``-``):

    expr    := term  (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?
    atom    := NUMBER | "t" | "(" expr ")"

NUMBER is an unsigned decimal literal with an optional fractional part
and an optional exponent part; it must be finite as a float.
Whitespace is ignored everywhere.  There is no implicit
multiplication: "2t" is a syntax error, write "2*t".  Neither the
nesting of parentheses, unary minus, and ``^`` nor the height of the
parsed tree may exceed ``MAX_DEPTH``.

Parsing produces an immutable tree.  Evaluation is a pure function of
the tree and a finite ``t``; it fails loudly (naming the offending
subexpression) on division by zero, invalid powers such as ``0^-1``,
and any non-finite intermediate value.  Printing a tree and re-parsing
the printed form yields a tree that evaluates identically bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

__all__ = [
    "BinOp",
    "Const",
    "ExprEvalError",
    "ExprSyntaxError",
    "MAX_DEPTH",
    "Neg",
    "TimeExpr",
    "Var",
    "parse",
]


# Deep enough for any hand-written loss, shallow enough that the
# recursive parser, printer, and evaluator stay far inside Python's
# default recursion limit.
MAX_DEPTH = 100


class ExprSyntaxError(ValueError):
    """Raised when expression text cannot be parsed.

    ``offset`` is the zero-based position in the input where the
    problem was detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprEvalError(ArithmeticError):
    """Raised when a tree cannot be evaluated at a given ``t``.

    ``subexpression`` is the printed form of the smallest failing
    subtree.
    """

    def __init__(self, message: str, subexpression: str):
        super().__init__(message)
        self.subexpression = subexpression


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"constant must be finite, got {self.value!r}")


@dataclass(frozen=True)
class Var:
    """The time variable ``t``."""


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"

    def __post_init__(self) -> None:
        if self.op not in _BIN_PREC:
            raise ValueError(f"unknown operator {self.op!r}")


Node = Union[Const, Var, Neg, BinOp]

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _BIN_PREC[node.op]
    if isinstance(node, Neg):
        return _NEG_PREC
    if isinstance(node, Const) and node.value < 0:
        # prints with a leading minus, so treat like a negation
        return _NEG_PREC
    return _ATOM_PREC


def _const_str(value: float) -> str:
    if value.is_integer() and abs(value) <= 1e15:
        return str(int(value))
    return repr(value)


def _format(node: Node) -> str:
    if isinstance(node, Const):
        return _const_str(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Neg):
        inner = _format(node.operand)
        if _prec(node.operand) < _NEG_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    p = _BIN_PREC[node.op]
    left = _format(node.left)
    right = _format(node.right)
    if node.op == "^":
        # right-associative: parenthesize the left side on ties
        if _prec(node.left) <= p:
            left = f"({left})"
        if _prec(node.right) < p:
            right = f"({right})"
    else:
        # left-associative: parenthesize the right side on ties
        if _prec(node.left) < p:
            left = f"({left})"
        if _prec(node.right) <= p:
            right = f"({right})"
    return f"{left}{node.op}{right}"


def _eval(node: Node, t: float) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -_eval(node.operand, t)
    left = _eval(node.left, t)
    right = _eval(node.right, t)
    op = node.op
    if op == "+":
        out = left + right
    elif op == "-":
        out = left - right
    elif op == "*":
        out = left * right
    elif op == "/":
        if right == 0.0:
            text = _format(node)
            raise ExprEvalError(f"division by zero in '{text}' at t={t!r}", text)
        out = left / right
    else:
        try:
            out = math.pow(left, right)
        except (ValueError, OverflowError) as exc:
            text = _format(node)
            raise ExprEvalError(
                f"invalid power in '{text}' at t={t!r}: {exc}", text
            ) from None
    if not math.isfinite(out):
        text = _format(node)
        raise ExprEvalError(f"non-finite value from '{text}' at t={t!r}", text)
    return out


@dataclass(frozen=True)
class TimeExpr:
    """An immutable expression tree over the time variable ``t``."""

    root: Node

    def __call__(self, t: float) -> float:
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
        return _eval(self.root, t)

    def __str__(self) -> str:
        return _format(self.root)


_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        assert kind is not None
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _height(root: Node) -> int:
    """Levels in the tree, counted without recursion."""

    height = 0
    level = [root]
    while level:
        height += 1
        children: list[Node] = []
        for node in level:
            if isinstance(node, Neg):
                children.append(node.operand)
            elif isinstance(node, BinOp):
                children += (node.left, node.right)
        level = children
    return height


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        # every recursive descent passes through here
        kind, text, offset = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", offset)
        if kind == "op" and text == "-":
            self.advance()
            node: Node = Neg(self.factor())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", node, self.factor())
        return node

    def atom(self) -> Node:
        kind, text, offset = self.advance()
        if kind == "number":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text!r} is out of range", offset)
            return Const(value)
        if kind == "ident":
            if text == "t":
                return Var()
            raise ExprSyntaxError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            kind, text, offset = self.advance()
            if not (kind == "op" and text == ")"):
                raise ExprSyntaxError("expected ')'", offset)
            return node
        if kind == "end":
            raise ExprSyntaxError("unexpected end of expression", offset)
        raise ExprSyntaxError(f"unexpected token {text!r}", offset)


def parse(text: str) -> TimeExpr:
    """Parse expression text into a :class:`TimeExpr`.

    Raises :class:`ExprSyntaxError` (carrying the byte offset) on any
    malformed input, including trailing garbage and unknown
    identifiers.
    """

    if not isinstance(text, str):
        raise TypeError(f"expected str, got {type(text).__name__}")
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(tokens)
    node = parser.expr()
    kind, trailing, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected token {trailing!r}", offset)
    if _height(node) > MAX_DEPTH:
        raise ExprSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", 0)
    return TimeExpr(node)
