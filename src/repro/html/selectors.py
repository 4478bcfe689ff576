"""CSS selector engine.

Compiles and matches the selector grammar the paper's replay schedules and
style variants use — e.g. ``#main``, ``#content p``, ``.navbar > li`` —
plus what the cascade needs:

* simple selectors: ``*``, ``tag``, ``#id``, ``.class``,
  ``[attr]``, ``[attr=value]``, ``[attr~=value]``, ``[attr^=v]``,
  ``[attr$=v]``, ``[attr*=v]``;
* compound selectors (concatenated simple selectors);
* combinators: descendant (whitespace), child (``>``),
  adjacent sibling (``+``), general sibling (``~``);
* ``:first-child`` / ``:last-child`` / ``:nth-child(n)``;
* selector lists separated by commas;
* specificity per the CSS cascade (a, b, c triples).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

# Compiled selectors are immutable after construction, so compile results can
# be shared freely between stylesheets, replay schedules and query calls.
_COMPILE_CACHE_SIZE = 4096

from repro.errors import SelectorError
from repro.html.dom import Document, Element

_SIMPLE_RE = re.compile(
    r"""
    (?P<tag>\*|[a-zA-Z][a-zA-Z0-9-]*)
    | \#(?P<id>[\w-]+)
    | \.(?P<class>[\w-]+)
    | \[(?P<attr>[\w-]+)
        (?: (?P<op>[~^$*|]?=) (?P<quote>["']?) (?P<value>[^\]"']*) (?P=quote) )?
      \]
    | :(?P<pseudo>first-child|last-child)
    | :nth-child\((?P<nth>\d+)\)
    | :not\((?P<not>[^()]+)\)
    """,
    re.VERBOSE,
)


@dataclass
class SimplePart:
    """One simple-selector constraint inside a compound selector."""

    kind: str  # 'tag' | 'id' | 'class' | 'attr' | 'pseudo' | 'nth' | 'not'
    value: str = ""
    attr_op: str = ""
    attr_value: str = ""
    negated: Optional["Compound"] = None  # for :not(...)

    def matches(self, element: Element) -> bool:
        if self.kind == "tag":
            return self.value == "*" or element.tag == self.value
        if self.kind == "id":
            return element.id == self.value
        if self.kind == "class":
            return element.has_class(self.value)
        if self.kind == "attr":
            actual = element.get(self.value)
            if actual is None:
                return False
            if not self.attr_op:
                return True
            expected = self.attr_value
            if self.attr_op == "=":
                return actual == expected
            if self.attr_op == "~=":
                return expected in actual.split()
            if self.attr_op == "^=":
                return bool(expected) and actual.startswith(expected)
            if self.attr_op == "$=":
                return bool(expected) and actual.endswith(expected)
            if self.attr_op == "*=":
                return bool(expected) and expected in actual
            if self.attr_op == "|=":
                return actual == expected or actual.startswith(expected + "-")
            return False
        if self.kind == "pseudo":
            parent = element.parent
            if parent is None:
                return False
            siblings = parent.element_children
            if self.value == "first-child":
                return siblings and siblings[0] is element
            if self.value == "last-child":
                return siblings and siblings[-1] is element
            return False
        if self.kind == "nth":
            parent = element.parent
            if parent is None:
                return False
            siblings = parent.element_children
            index = int(self.value)
            return 1 <= index <= len(siblings) and siblings[index - 1] is element
        if self.kind == "not":
            assert self.negated is not None
            return not self.negated.matches(element)
        return False


@dataclass
class Compound:
    """A compound selector: all parts must match one element."""

    parts: List[SimplePart] = field(default_factory=list)

    def matches(self, element: Element) -> bool:
        return all(part.matches(element) for part in self.parts)


@dataclass
class Selector:
    """A full complex selector: compounds joined by combinators.

    ``combinators[i]`` joins ``compounds[i]`` to ``compounds[i+1]``; values
    are ``' '``, ``'>'``, ``'+'``, ``'~'``.
    """

    compounds: List[Compound]
    combinators: List[str]
    source: str = ""

    def specificity(self) -> Tuple[int, int, int]:
        """CSS specificity: (#ids, #classes+attrs+pseudos, #tags).

        Memoized: the cascade asks for specificity once per matched rule per
        element, but a selector's specificity never changes after compile.
        """
        cached = self.__dict__.get("_specificity")
        if cached is not None:
            return cached
        a = b = c = 0

        def count(parts):
            nonlocal a, b, c
            for part in parts:
                if part.kind == "id":
                    a += 1
                elif part.kind in ("class", "attr", "pseudo", "nth"):
                    b += 1
                elif part.kind == "tag" and part.value != "*":
                    c += 1
                elif part.kind == "not" and part.negated is not None:
                    # :not() itself counts nothing; its argument counts.
                    count(part.negated.parts)

        for compound in self.compounds:
            count(compound.parts)
        self.__dict__["_specificity"] = (a, b, c)
        return (a, b, c)

    def matches(self, element: Element) -> bool:
        """True when ``element`` matches the rightmost compound with all
        ancestor/sibling constraints satisfied."""
        return self._match_from(element, len(self.compounds) - 1)

    def _match_from(self, element: Element, index: int) -> bool:
        if not self.compounds[index].matches(element):
            return False
        if index == 0:
            return True
        combinator = self.combinators[index - 1]
        if combinator == " ":
            for ancestor in element.ancestors:
                if self._match_from(ancestor, index - 1):
                    return True
            return False
        if combinator == ">":
            parent = element.parent
            return parent is not None and self._match_from(parent, index - 1)
        if combinator in ("+", "~"):
            parent = element.parent
            if parent is None:
                return False
            siblings = parent.element_children
            position = siblings.index(element)
            if combinator == "+":
                return position > 0 and self._match_from(siblings[position - 1], index - 1)
            return any(
                self._match_from(siblings[i], index - 1) for i in range(position)
            )
        raise SelectorError(f"unknown combinator {combinator!r}")


def _parse_compound(text: str) -> Compound:
    parts: List[SimplePart] = []
    pos = 0
    while pos < len(text):
        match = _SIMPLE_RE.match(text, pos)
        if not match:
            raise SelectorError(f"cannot parse selector near {text[pos:]!r}")
        if match.group("tag"):
            parts.append(SimplePart("tag", match.group("tag").lower()))
        elif match.group("id"):
            parts.append(SimplePart("id", match.group("id")))
        elif match.group("class"):
            parts.append(SimplePart("class", match.group("class")))
        elif match.group("attr"):
            parts.append(
                SimplePart(
                    "attr",
                    match.group("attr").lower(),
                    attr_op=match.group("op") or "",
                    attr_value=match.group("value") or "",
                )
            )
        elif match.group("pseudo"):
            parts.append(SimplePart("pseudo", match.group("pseudo")))
        elif match.group("nth"):
            parts.append(SimplePart("nth", match.group("nth")))
        elif match.group("not"):
            inner = match.group("not").strip()
            parts.append(
                SimplePart("not", inner, negated=_parse_compound(inner))
            )
        pos = match.end()
    if not parts:
        raise SelectorError(f"empty compound selector in {text!r}")
    return Compound(parts)


@lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def compile_selector(text: str) -> Selector:
    """Compile one complex selector (no commas).

    Results are cached by source text: callers (the cascade, replay
    schedules, repeated ``query_selector_all`` calls) must treat the
    returned selector as immutable — all of :mod:`repro` does.
    """
    source = text.strip()
    if not source:
        raise SelectorError("empty selector")
    tokens = _split_selector(source)
    compounds: List[Compound] = []
    combinators: List[str] = []
    pending_combinator: Optional[str] = None
    for token in tokens:
        if token in (">", "+", "~"):
            if not compounds:
                raise SelectorError(f"selector {source!r} starts with a combinator")
            pending_combinator = token
            continue
        if compounds:
            combinators.append(pending_combinator or " ")
        pending_combinator = None
        compounds.append(_parse_compound(token))
    if pending_combinator is not None:
        raise SelectorError(f"selector {source!r} ends with a combinator")
    if not compounds:
        raise SelectorError(f"no compounds in selector {source!r}")
    return Selector(compounds, combinators, source)


def _split_selector(source: str) -> List[str]:
    """Split a complex selector into compounds and combinator tokens.

    A plain regex split would treat the ``~`` of ``[class~="x"]`` as a
    sibling combinator, so this walks the string and ignores combinator
    characters inside ``[...]`` and ``(...)``.
    """
    tokens: List[str] = []
    current: List[str] = []
    depth = 0
    index = 0
    while index < len(source):
        ch = source[index]
        if ch in "[(":
            depth += 1
            current.append(ch)
        elif ch in "])":
            depth = max(0, depth - 1)
            current.append(ch)
        elif depth == 0 and ch in ">+~":
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(ch)
        elif depth == 0 and ch.isspace():
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
        index += 1
    if current:
        tokens.append("".join(current))
    return tokens


@lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def _compile_selector_tuple(text: str) -> Tuple[Selector, ...]:
    selectors = tuple(
        compile_selector(part) for part in text.split(",") if part.strip()
    )
    if not selectors:
        raise SelectorError(f"empty selector list: {text!r}")
    return selectors


def compile_selector_list(text: str) -> List[Selector]:
    """Compile a comma-separated selector list.

    Backed by an LRU cache keyed on the source text — stylesheet parsing and
    replay-schedule execution compile the same handful of selector strings
    thousands of times per campaign. A fresh list is returned on each call so
    callers may extend it, but the selectors themselves are shared.
    """
    return list(_compile_selector_tuple(text))


def matches(element: Element, selector_text: str) -> bool:
    """True when ``element`` matches any selector in the list."""
    return any(s.matches(element) for s in compile_selector_list(selector_text))


def _scope_elements(scope):
    if isinstance(scope, Document):
        return scope.iter_elements()
    if isinstance(scope, Element):
        return scope.iter_elements()
    raise SelectorError(f"cannot query a {type(scope).__name__}")


def query_selector_all(scope, selector_text: str) -> List[Element]:
    """All elements under ``scope`` (Document or Element) matching the list,
    in document order."""
    selectors = compile_selector_list(selector_text)
    return [
        element
        for element in _scope_elements(scope)
        if any(s.matches(element) for s in selectors)
    ]

