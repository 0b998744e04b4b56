"""Text DSL for matching functions.

Analysts in the paper's workflow express rules like::

    R1: jaro_winkler(modelno, modelno) >= 0.97 AND cosine_ws(title, title) >= 0.69
    R2: jaccard_ws(title, title) < 0.4 AND soft_tfidf_ws(title, title) >= 0.63

:func:`parse_function` turns such text into a
:class:`~repro.core.rules.MatchingFunction`.  Rules are separated by
``OR``, newlines, or ``;``; predicates within a rule by ``AND``; rule
names (``R1:``) are optional and auto-generated when omitted.  Feature
references are ``simname(attr_a, attr_b)`` where ``simname`` is looked up
in either a supplied feature resolver (so corpus-bound measures are
shared) or the global similarity registry.

:func:`format_function` is the inverse, producing text that re-parses to
an equal function — handy for session transcripts and golden tests.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import RuleParseError
from ..similarity.registry import make_similarity
from .rules import Feature, MatchingFunction, Predicate, Rule

_TOKEN_PATTERN = re.compile(
    r"""
    (?P<ws>[^\S\n]+)
  | (?P<newline>\n)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<op>>=|<=|==|>|<)
  | (?P<punct>[(),;:])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or"}


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int):
        self.kind = kind
        self.text = text
        self.position = position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Token({self.kind}, {self.text!r}@{self.position})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None:
            raise RuleParseError(
                f"unexpected character {text[position]!r}", text, position
            )
        kind = match.lastgroup
        if kind == "ws":
            position = match.end()
            continue
        value = match.group()
        if kind == "name" and value.lower() in _KEYWORDS:
            kind = value.lower()
        tokens.append(_Token(kind, value, position))
        position = match.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


#: A feature resolver maps (sim_name, attr_a, attr_b) -> Feature.
FeatureResolver = Callable[[str, str, str], Feature]


def registry_resolver() -> FeatureResolver:
    """Resolver constructing features from the global similarity registry.

    Instances are cached per sim name so that all predicates over the same
    feature share one Feature object (and thus one memo column).
    """
    cache: Dict[Tuple[str, str, str], Feature] = {}

    def resolve(sim_name: str, attr_a: str, attr_b: str) -> Feature:
        key = (sim_name, attr_a, attr_b)
        feature = cache.get(key)
        if feature is None:
            feature = Feature(make_similarity(sim_name), attr_a, attr_b)
            cache[key] = feature
        return feature

    return resolve


class _Parser:
    def __init__(self, text: str, resolver: FeatureResolver):
        self.text = text
        self.tokens = _tokenize(text)
        self.position = 0
        self.resolver = resolver
        self._auto_rule_counter = 0

    # -- token plumbing --------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.position]

    def _advance(self) -> _Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def _expect(self, kind: str, what: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise RuleParseError(
                f"expected {what}, found {token.text or 'end of input'!r}",
                self.text,
                token.position,
            )
        return self._advance()

    def _skip_newlines(self) -> None:
        while self._peek().kind == "newline":
            self._advance()

    # -- grammar ----------------------------------------------------------

    def parse_function(self) -> MatchingFunction:
        rules: List[Rule] = []
        self._skip_newlines()
        while self._peek().kind != "eof":
            rules.append(self.parse_rule())
            separator = self._peek()
            if separator.kind in ("or", "newline") or separator.text == ";":
                self._advance()
                self._skip_newlines()
            elif separator.kind != "eof":
                raise RuleParseError(
                    f"expected OR / newline / ';' between rules, found "
                    f"{separator.text!r}",
                    self.text,
                    separator.position,
                )
        if not rules:
            raise RuleParseError("no rules found", self.text, 0)
        return MatchingFunction(rules)

    def parse_rule(self) -> Rule:
        name = self._maybe_rule_name()
        predicates = [self.parse_predicate()]
        while self._peek().kind == "and":
            self._advance()
            self._skip_newlines()
            predicates.append(self.parse_predicate())
        if name is None:
            self._auto_rule_counter += 1
            name = f"rule{self._auto_rule_counter}"
        return Rule(name, predicates)

    def _maybe_rule_name(self) -> Optional[str]:
        # A rule name is NAME ':' — but NAME '(' starts a feature instead.
        token = self._peek()
        if token.kind == "name":
            following = self.tokens[self.position + 1]
            if following.text == ":":
                self._advance()
                self._advance()
                self._skip_newlines()
                return token.text
        return None

    def parse_predicate(self) -> Predicate:
        sim_token = self._expect("name", "a similarity function name")
        self._expect_punct("(")
        attr_a = self._expect("name", "an attribute name").text
        self._expect_punct(",")
        attr_b = self._expect("name", "an attribute name").text
        self._expect_punct(")")
        op_token = self._expect("op", "a comparison operator")
        number_token = self._expect("number", "a numeric threshold")
        feature = self.resolver(sim_token.text, attr_a, attr_b)
        return Predicate(feature, op_token.text, float(number_token.text))

    def _expect_punct(self, text: str) -> None:
        token = self._peek()
        if token.kind != "punct" or token.text != text:
            raise RuleParseError(
                f"expected {text!r}, found {token.text or 'end of input'!r}",
                self.text,
                token.position,
            )
        self._advance()


def parse_function(
    text: str, resolver: Optional[FeatureResolver] = None
) -> MatchingFunction:
    """Parse a matching function from DSL text.

    Pass a resolver (e.g. :meth:`FeatureSpace.resolver
    <repro.learning.feature_space.FeatureSpace.resolver>`) to reuse
    corpus-bound features; the default builds fresh ones from the global
    similarity registry.
    """
    return _Parser(text, resolver or registry_resolver()).parse_function()


def parse_rule(text: str, resolver: Optional[FeatureResolver] = None) -> Rule:
    """Parse a single rule (no OR allowed)."""
    parser = _Parser(text, resolver or registry_resolver())
    parser._skip_newlines()
    rule = parser.parse_rule()
    parser._skip_newlines()
    trailing = parser._peek()
    if trailing.kind != "eof":
        raise RuleParseError(
            f"unexpected trailing input {trailing.text!r} after rule",
            text,
            trailing.position,
        )
    return rule


def format_predicate(predicate: Predicate, precise: bool = False) -> str:
    """DSL text for one predicate.

    ``precise=True`` renders the threshold with ``repr`` (shortest exact
    float64 round-trip) instead of the human-friendly 6-significant-digit
    ``%g`` form.  Anything that re-parses formatted text and must reproduce
    labels bit-for-bit — a checkpoint's ``function.rules`` — needs the
    precise form: learned thresholds routinely carry more than 6 digits,
    and a predicate sitting exactly between the two renderings would
    flip.
    """
    feature = predicate.feature
    threshold = (
        repr(predicate.threshold) if precise else f"{predicate.threshold:g}"
    )
    return (
        f"{feature.sim.name}({feature.attr_a}, {feature.attr_b}) "
        f"{predicate.op} {threshold}"
    )


def format_rule(rule: Rule, precise: bool = False) -> str:
    """DSL text for one rule, including its name."""
    body = " AND ".join(
        format_predicate(predicate, precise) for predicate in rule.predicates
    )
    return f"{rule.name}: {body}"


def format_function(function: MatchingFunction, precise: bool = False) -> str:
    """DSL text for a whole matching function (one rule per line)."""
    return "\n".join(format_rule(rule, precise) for rule in function.rules)
