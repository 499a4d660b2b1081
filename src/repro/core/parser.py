"""Query-language parser.

The paper's front-end accepts "SQL-like aggregation queries" (Section 7).
We support two equivalent surface forms:

*  SQL-like::

       SELECT AVG(Mem-Util) WHERE ServiceX = true AND Apache = true
       COUNT(*) WHERE CPU-Util > 90
       TOP3(Load) WHERE (ServiceX = true) AND (Apache = true)

*  the paper's triple form::

       (Mem-Util, avg, ServiceX = true and Apache = true)

Predicates are boolean combinations (``and``/``or``/``not``, case
insensitive) of simple comparisons ``attribute op value`` with
``op ∈ {<, >, <=, >=, =, !=}``.  ``not`` is rewritten into the leaves at
parse time (the AST has no Not node), matching the paper's observation that
the operator set makes *not* implicit.  Attribute names may contain dashes
(``CPU-Util``), dots, and underscores.  Values are numbers, quoted strings,
booleans, or bare words (treated as strings).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional

from repro.core.aggregation import get_function
from repro.core.errors import ParseError
from repro.core.predicates import (
    And,
    Comparison,
    Or,
    Predicate,
    SimplePredicate,
    TruePredicate,
)
from repro.core.query import Query

__all__ = ["parse_predicate", "parse_query"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op><=|>=|!=|<>|==|<|>|=)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<star>\*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"select", "where", "and", "or", "not", "true", "false"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int

    @property
    def keyword(self) -> Optional[str]:
        lowered = self.text.lower()
        return lowered if self.kind == "ident" and lowered in _KEYWORDS else None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # token helpers --------------------------------------------------------

    def peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of query", len(self.text))
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.advance()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.text!r}", token.pos
            )
        return token

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token is not None and token.keyword == word:
            self.index += 1
            return True
        return False

    # grammar ---------------------------------------------------------------

    def parse_query(self) -> Query:
        if self._looks_like_triple():
            return self._parse_triple()
        self.accept_keyword("select")
        fn_token = self.expect("ident")
        if fn_token.keyword is not None:
            raise ParseError(
                f"expected aggregation function, found keyword {fn_token.text!r}",
                fn_token.pos,
            )
        function = get_function(fn_token.text)
        self.expect("lparen")
        attr = self._parse_attribute_name()
        self.expect("rparen")
        predicate: Predicate = TruePredicate()
        if self.accept_keyword("where"):
            predicate = self.parse_predicate()
        self._expect_end()
        return Query(attr=attr, function=function, predicate=predicate)

    def _looks_like_triple(self) -> bool:
        """Triple form starts '(' ident-or-star ',' -- disambiguates from a
        parenthesized WHERE-less SQL query, which cannot occur."""
        if len(self.tokens) < 3:
            return False
        return (
            self.tokens[0].kind == "lparen"
            and self.tokens[1].kind in ("ident", "star")
            and self.tokens[2].kind == "comma"
        )

    def _parse_triple(self) -> Query:
        self.expect("lparen")
        attr = self._parse_attribute_name()
        self.expect("comma")
        fn_token = self.expect("ident")
        function = get_function(fn_token.text)
        self.expect("comma")
        predicate = self.parse_predicate()
        self.expect("rparen")
        self._expect_end()
        return Query(attr=attr, function=function, predicate=predicate)

    def _parse_attribute_name(self) -> str:
        token = self.advance()
        if token.kind == "star":
            return "*"
        if token.kind != "ident":
            raise ParseError(
                f"expected attribute name, found {token.text!r}", token.pos
            )
        return token.text

    def _expect_end(self) -> None:
        token = self.peek()
        if token is not None:
            raise ParseError(
                f"unexpected trailing input {token.text!r}", token.pos
            )

    # predicate grammar ------------------------------------------------------

    def parse_predicate(self) -> Predicate:
        return self._parse_or()

    def _parse_or(self) -> Predicate:
        parts = [self._parse_and()]
        while self.accept_keyword("or"):
            parts.append(self._parse_and())
        return parts[0] if len(parts) == 1 else Or(*parts)

    def _parse_and(self) -> Predicate:
        parts = [self._parse_not()]
        while self.accept_keyword("and"):
            parts.append(self._parse_not())
        return parts[0] if len(parts) == 1 else And(*parts)

    def _parse_not(self) -> Predicate:
        if self.accept_keyword("not"):
            return self._parse_not().negate()
        return self._parse_primary()

    def _parse_primary(self) -> Predicate:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of predicate", len(self.text))
        if token.kind == "lparen":
            self.advance()
            inner = self.parse_predicate()
            self.expect("rparen")
            return inner
        return self._parse_simple()

    def _parse_simple(self) -> SimplePredicate:
        attr_token = self.advance()
        if attr_token.kind != "ident" or attr_token.keyword is not None:
            raise ParseError(
                f"expected attribute name, found {attr_token.text!r}",
                attr_token.pos,
            )
        op_token = self.expect("op")
        op = _parse_operator(op_token.text)
        value = self._parse_value()
        return SimplePredicate(attr_token.text, op, value)

    def _parse_value(self) -> Any:
        token = self.advance()
        if token.kind == "number":
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "string":
            return token.text[1:-1]
        if token.kind == "ident":
            lowered = token.text.lower()
            if lowered == "true":
                return True
            if lowered == "false":
                return False
            if lowered in _KEYWORDS:
                raise ParseError(
                    f"keyword {token.text!r} cannot be a value", token.pos
                )
            return token.text  # bare word: treated as a string constant
        raise ParseError(f"expected a value, found {token.text!r}", token.pos)


def _parse_operator(text: str) -> Comparison:
    if text in ("=", "=="):
        return Comparison.EQ
    if text in ("!=", "<>"):
        return Comparison.NE
    return Comparison(text)


@lru_cache(maxsize=4096)
def parse_query(text: str) -> Query:
    """Parse a full query in SQL-like or triple form.

    Memoized: :class:`Query` and its predicates are immutable, and real
    workloads submit the same handful of query texts over and over
    (repeat submissions also then share the predicates' canonical-form
    caches).  Failed parses raise and are not cached.
    """
    if not text.strip():
        raise ParseError("empty query")
    return _Parser(text).parse_query()


@lru_cache(maxsize=4096)
def parse_predicate(text: str) -> Predicate:
    """Parse a bare group predicate (no aggregation part).  Memoized like
    :func:`parse_query` (predicates are immutable)."""
    if not text.strip():
        raise ParseError("empty predicate")
    parser = _Parser(text)
    predicate = parser.parse_predicate()
    parser._expect_end()
    return predicate
