"""Tiny formula language for real functions of one variable t.

Grammar (whitespace insensitive; the unicode minus '−' and middle dot
'·' are accepted as aliases of '-' and '*'; a plain '.' is not an
operator):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | power
    power    := atom ('^' exponent)?
    atom     := NUMBER | 't' | '(' expr ')'
    exponent := rational | '(' rational ')'
    rational := ['-'] NUMBER ['/' NUMBER]

Division exists only inside exponents, as rational literals such as
``t^(1/2)``.  The operator drivers only ever integrate sums of powers of
t, so nothing more general is supported.
"""

from __future__ import annotations

import re
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ExpressionError

__all__ = ["parse_expression"]

_NUMBER_RE = re.compile(r"\d+\.?\d*|\.\d+")
_ALIASES = {"−": "-", "·": "*"}

_Token = Tuple[str, str, int]


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m is not None:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        if ch == "t":
            tokens.append(("t", ch, i))
            i += 1
            continue
        op = _ALIASES.get(ch, ch)
        if op in "+-*/^()":
            tokens.append((op, op, i))
            i += 1
            continue
        raise ExpressionError("unexpected character %r at position %d in %r"
                              % (ch, i, text))
    return tokens


def _binary(op: str, lhs: Callable, rhs: Callable) -> Callable:
    fn = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
    return lambda x: fn(lhs(x), rhs(x))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> Optional[str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def _take(self, kind: Optional[str] = None) -> _Token:
        if self.pos >= len(self.tokens):
            raise ExpressionError("unexpected end of expression %r"
                                  % self.text)
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            label = "a number" if kind == "num" else repr(kind)
            raise ExpressionError(
                "expected %s at position %d in %r, found %r"
                % (label, tok[2], self.text, tok[1]))
        self.pos += 1
        return tok

    def parse(self) -> Callable:
        node = self._expr()
        if self.pos != len(self.tokens):
            tok = self.tokens[self.pos]
            raise ExpressionError("trailing input %r at position %d in %r"
                                  % (tok[1], tok[2], self.text))
        return node

    def _expr(self) -> Callable:
        node = self._term()
        while self._peek() in ("+", "-"):
            op = self._take()[0]
            node = _binary(op, node, self._term())
        return node

    def _term(self) -> Callable:
        node = self._factor()
        while self._peek() == "*":
            self._take()
            node = _binary("*", node, self._factor())
        return node

    def _factor(self) -> Callable:
        if self._peek() == "-":
            self._take()
            inner = self._factor()
            return lambda x, f=inner: np.negative(f(x))
        return self._power()

    def _power(self) -> Callable:
        base = self._atom()
        if self._peek() == "^":
            self._take()
            r = self._exponent()
            return lambda x, b=base, e=r: np.power(b(x), e)
        return base

    def _atom(self) -> Callable:
        kind = self._peek()
        if kind == "num":
            val = float(self._take()[1])
            return lambda x, v=val: np.full(np.shape(x), v)
        if kind == "t":
            self._take()
            return lambda x: np.asarray(x, dtype=float)
        if kind == "(":
            self._take()
            node = self._expr()
            self._take(")")
            return node
        if kind is None:
            raise ExpressionError("unexpected end of expression %r"
                                  % self.text)
        tok = self.tokens[self.pos]
        raise ExpressionError(
            "expected a number, t, or '(' at position %d in %r, found %r"
            % (tok[2], self.text, tok[1]))

    def _exponent(self) -> float:
        if self._peek() == "(":
            self._take()
            val = self._rational()
            self._take(")")
            return val
        return self._rational()

    def _rational(self) -> float:
        sign = 1.0
        if self._peek() == "-":
            self._take()
            sign = -1.0
        num = float(self._take("num")[1])
        if self._peek() == "/":
            self._take()
            den = float(self._take("num")[1])
            if den == 0.0:
                raise ExpressionError("zero denominator in exponent of %r"
                                      % self.text)
            return sign * num / den
        return sign * num


def parse_expression(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a formula in t to a vectorized function on float arrays.

    The result carries the source on a ``text`` attribute.  Zero raised
    to a negative power yields inf and negative bases under fractional
    exponents yield nan rather than raising; totality on the interval
    actually integrated is the caller's contract.
    """
    if not isinstance(text, str):
        raise ExpressionError("expression must be a string, got %r"
                              % type(text).__name__)
    node = _Parser(text).parse()

    def evaluate(x, _node=node):
        arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _node(arr)
        return np.asarray(out, dtype=float)

    evaluate.text = text
    evaluate.__name__ = text
    return evaluate
