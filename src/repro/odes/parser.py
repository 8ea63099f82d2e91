"""Parser for textual equation systems.

The framework is meant to be handed equations the way scientists write
them, so the library accepts plain text such as::

    x' = -beta*x*y + alpha*z
    y' = beta*x*y - gamma*y
    z' = gamma*y - alpha*z

``parse_system`` turns this into an :class:`~repro.odes.system.EquationSystem`.
Named parameters (``beta`` above) are substituted with numeric values at
parse time; every symbol that is not a declared variable must have a
parameter binding.

Grammar (informal)::

    system   := line+
    line     := NAME ("'" | "dot") "=" expr
    expr     := ["+"|"-"] product (("+"|"-") product)*
    product  := factor ("*" factor)*
    factor   := NUMBER | NAME ["^" INT | "**" INT]

Only the polynomial forms of the paper are accepted; anything else
(division, nested parentheses, function calls) raises :class:`ParseError`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .system import EquationSystem
from .term import Term


class ParseError(ValueError):
    """Raised when equation text cannot be parsed."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*^=()'])"
    r")"
)


@dataclass
class _Token:
    kind: str
    value: str
    position: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ParseError(f"unexpected character at {pos}: {remainder[:10]!r}")
        pos = match.end()
        for kind in ("number", "name", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, match.start()))
                break
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream of one equation."""

    def __init__(self, tokens: Sequence[_Token], line: str):
        self.tokens = list(tokens)
        self.index = 0
        self.line = line

    def peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError(f"unexpected end of input in {self.line!r}")
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.next()
        if token.kind != "op" or token.value != op:
            raise ParseError(f"expected {op!r} in {self.line!r}, got {token.value!r}")

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)

    # expr := [sign] product ((+|-) product)*
    def parse_expr(self) -> List[Tuple[float, List[Tuple[str, int]]]]:
        terms = []
        sign = 1.0
        token = self.peek()
        if token and token.kind == "op" and token.value in "+-":
            self.next()
            sign = -1.0 if token.value == "-" else 1.0
        terms.append(self.parse_product(sign))
        while not self.at_end():
            token = self.next()
            if token.kind != "op" or token.value not in "+-":
                raise ParseError(
                    f"expected '+' or '-' in {self.line!r}, got {token.value!r}"
                )
            sign = -1.0 if token.value == "-" else 1.0
            terms.append(self.parse_product(sign))
        return terms

    # product := factor (* factor)*
    def parse_product(self, sign: float) -> Tuple[float, List[Tuple[str, int]]]:
        coefficient = sign
        factors: List[Tuple[str, int]] = []
        coefficient, factors = self._apply_factor(coefficient, factors)
        while True:
            token = self.peek()
            if token and token.kind == "op" and token.value == "*":
                self.next()
                coefficient, factors = self._apply_factor(coefficient, factors)
            elif token and token.kind in ("name", "number"):
                # Implicit multiplication, e.g. "3x" or "2 x y".
                coefficient, factors = self._apply_factor(coefficient, factors)
            else:
                break
        return coefficient, factors

    def _apply_factor(
        self, coefficient: float, factors: List[Tuple[str, int]]
    ) -> Tuple[float, List[Tuple[str, int]]]:
        token = self.next()
        if token.kind == "number":
            base: Tuple[str, float] = ("number", float(token.value))
        elif token.kind == "name":
            base = ("name", token.value)
        else:
            raise ParseError(
                f"expected a number or name in {self.line!r}, got {token.value!r}"
            )
        power = 1
        nxt = self.peek()
        if nxt and nxt.kind == "op" and nxt.value in ("^", "**"):
            self.next()
            exp_token = self.next()
            if exp_token.kind != "number" or not exp_token.value.isdigit():
                raise ParseError(f"exponent must be an integer in {self.line!r}")
            power = int(exp_token.value)
        if base[0] == "number":
            coefficient *= float(base[1]) ** power
        else:
            factors.append((str(base[1]), power))
        return coefficient, factors


def _parse_line(
    line: str, parameters: Mapping[str, float]
) -> Tuple[str, List[Tuple[float, Dict[str, int]]]]:
    tokens = _tokenize(line)
    if len(tokens) < 3:
        raise ParseError(f"incomplete equation: {line!r}")
    parser = _Parser(tokens, line)
    head = parser.next()
    if head.kind != "name":
        raise ParseError(f"equation must start with a variable name: {line!r}")
    variable = head.value
    # Accept "x'", "x dot" or bare "x" before '='.
    token = parser.peek()
    if token and token.kind == "op" and token.value == "'":
        parser.next()
    elif token and token.kind == "name" and token.value == "dot":
        parser.next()
    parser.expect_op("=")

    resolved: List[Tuple[float, Dict[str, int]]] = []
    try:
        for coefficient, factors in parser.parse_expr():
            exponents: Dict[str, int] = {}
            for name, power in factors:
                if name in parameters:
                    coefficient *= float(parameters[name]) ** power
                else:
                    exponents[name] = exponents.get(name, 0) + power
            if not math.isfinite(coefficient):
                raise OverflowError
            resolved.append((coefficient, exponents))
    except OverflowError:
        # ``2^99999`` overflows, ``1e400`` parses to inf: neither is a rate.
        raise ParseError(f"coefficient is not a finite number in {line!r}") from None
    return variable, resolved


def parse_system(
    text: str,
    parameters: Optional[Mapping[str, float]] = None,
    name: str = "parsed",
    variables: Optional[Sequence[str]] = None,
) -> EquationSystem:
    """Parse a multi-line equation system.

    Parameters
    ----------
    text:
        One equation per line; blank lines and ``#`` comments ignored.
    parameters:
        Numeric bindings for symbols that are rates, not variables.
    name:
        Label of the resulting system.
    variables:
        Optional explicit variable order.  By default, variables appear
        in the order their equations are written, and every symbol used
        on a right-hand side must have its own equation or a parameter
        binding.
    """
    parameters = dict(parameters or {})
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise ParseError("no equations found")

    parsed: List[Tuple[str, List[Tuple[float, Dict[str, int]]]]] = []
    seen_vars: List[str] = []
    for line in lines:
        variable, terms = _parse_line(line, parameters)
        if variable in seen_vars:
            raise ParseError(f"duplicate equation for {variable!r}")
        if variable in parameters:
            raise ParseError(f"{variable!r} is both a parameter and a variable")
        seen_vars.append(variable)
        parsed.append((variable, terms))

    order = list(variables) if variables is not None else seen_vars
    if set(order) != set(seen_vars):
        raise ParseError(
            f"variable order {order!r} does not match equations {seen_vars!r}"
        )

    # Any symbol on a right-hand side must be a declared variable.
    equations: Dict[str, List[Term]] = {}
    for variable, terms in parsed:
        term_objs = []
        for coefficient, exponents in terms:
            unknown = set(exponents) - set(order)
            if unknown:
                raise ParseError(
                    f"unbound symbols {sorted(unknown)} in equation for {variable!r}; "
                    f"bind them via parameters= or add their equations"
                )
            if abs(coefficient) > 0:
                term_objs.append(Term(coefficient, exponents))
        equations[variable] = term_objs

    return EquationSystem(order, equations, name=name).simplified()
