"""Static AST feature extraction for anti-adblock detection (§5).

A feature is a ``context:text`` pair: *text* is a token drawn from the
script (identifier, literal, or keyword) and *context* is where it appears
— the AST node type that carries it, its parent node type, and the nearest
enclosing control structure (loop, if condition, try/catch, switch,
function). Three feature sets offer increasing generalisation:

- ``all``     — text from keywords, Web-API names, identifiers and literals;
- ``literal`` — text from literals only (no identifiers or keywords);
- ``keyword`` — text from native JavaScript keywords and JavaScript Web API
  names only (robust to identifier/literal randomisation, susceptible to
  polymorphism).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..jsast import nodes as N
from ..jsast.parser import ParseError, parse
from ..jsast.tokenizer import KEYWORDS, TokenizeError
from ..jsast.unpack import unpack_program

FEATURE_SETS = ("all", "literal", "keyword")

#: JavaScript Web API vocabulary. Identifiers on this list are *keyword*
#: text (they name platform objects/properties, not author-chosen names);
#: Table 2's ``Identifier:clientHeight`` feature is the canonical example.
WEB_API_KEYWORDS: FrozenSet[str] = frozenset(
    """window document navigator location screen history console
    createElement createTextNode createDocumentFragment getElementById
    getElementsByTagName getElementsByClassName querySelector
    querySelectorAll setAttribute getAttribute removeAttribute hasAttribute
    appendChild removeChild replaceChild insertBefore parentNode parentElement
    childNodes firstChild lastChild nextSibling previousSibling cloneNode
    innerHTML outerHTML textContent innerText
    offsetHeight offsetWidth offsetParent offsetLeft offsetTop
    clientHeight clientWidth clientLeft clientTop
    scrollHeight scrollWidth scrollTop scrollLeft
    getBoundingClientRect getComputedStyle currentStyle
    style display visibility opacity position zIndex className classList id
    body head documentElement cookie title referrer domain readyState
    addEventListener removeEventListener attachEvent detachEvent
    dispatchEvent onload onerror onclick onreadystatechange
    setTimeout setInterval clearTimeout clearInterval requestAnimationFrame
    XMLHttpRequest ActiveXObject fetch open send status responseText
    Image Audio Date Math JSON RegExp String Number Boolean Array Object
    Function eval parseInt parseFloat isNaN encodeURIComponent
    decodeURIComponent escape unescape
    getTime setTime toUTCString toGMTString getFullYear
    length push pop shift unshift splice slice concat join reverse sort
    indexOf lastIndexOf charAt charCodeAt fromCharCode substring substr
    split replace match search toLowerCase toUpperCase trim
    hasOwnProperty prototype constructor apply call bind arguments
    localStorage sessionStorage getItem setItem removeItem
    alert confirm prompt print focus blur close write writeln
    play pause load src async defer type value name checked
    undefined NaN Infinity""".split()
)

#: Control-structure contexts (the paper's "loop, try statement, catch
#: statement, if condition, switch condition, etc.").
_STRUCTURE_CONTEXT = {
    "ForStatement": "loop",
    "ForInStatement": "loop",
    "WhileStatement": "loop",
    "DoWhileStatement": "loop",
    "IfStatement": "if",
    "ConditionalExpression": "if",
    "TryStatement": "try",
    "CatchClause": "catch",
    "SwitchStatement": "switch",
    "FunctionDeclaration": "function",
    "FunctionExpression": "function",
}


_KEYWORD_TEXT = KEYWORDS | WEB_API_KEYWORDS


def _text_kind(node: N.Node) -> Tuple[str, str]:
    """Classify a node's text: returns ``(kind, text)`` or ``("", "")``.

    ``kind`` is ``keyword`` (JS keywords / Web API names), ``identifier``
    (author-chosen names) or ``literal``.
    """
    if isinstance(node, N.Identifier):
        name = node.name
        if name in _KEYWORD_TEXT:
            return "keyword", name
        return "identifier", name
    if isinstance(node, N.Literal):
        if node.regex is not None:
            return "literal", f"/{node.regex[0]}/"
        if node.value is None:
            return "keyword", "null"
        if isinstance(node.value, bool):
            return "keyword", "true" if node.value else "false"
        if isinstance(node.value, float):
            value = node.value
            return "literal", str(int(value)) if value.is_integer() else str(value)
        return "literal", str(node.value)
    if isinstance(node, N.ThisExpression):
        return "keyword", "this"
    return "", ""


_KIND_FILTER = {
    "all": ("keyword", "identifier", "literal"),
    "literal": ("literal",),
    "keyword": ("keyword",),
}

#: One text-bearing token occurrence: ``(kind, text, contexts)``. ``kind``
#: is ``keyword``/``identifier``/``literal``, ``text`` is truncated to 64
#: characters, and ``contexts`` are the node/parent/structure contexts the
#: token appears in. The event stream is feature-set-agnostic: every
#: feature set is a cheap kind-filter over it, so a script is parsed,
#: unpacked, and walked exactly once no matter how many sets are derived
#: (the contract the :mod:`~repro.core.featstore` engine caches on).
TokenEvent = Tuple[str, str, Tuple[str, ...]]


#: Per node class: (type string, field names in reverse order, whether it
#: carries text, the structure context it opens or None).
_WALK_PLANS: Dict[type, Tuple[str, Tuple[str, ...], bool, Optional[str]]] = {}


def _walk_plan(cls: type) -> Tuple[str, Tuple[str, ...], bool, Optional[str]]:
    node_type = cls.__name__
    plan = (
        node_type,
        tuple(reversed(N.field_names(cls))),
        issubclass(cls, (N.Identifier, N.Literal, N.ThisExpression)),
        _STRUCTURE_CONTEXT.get(node_type),
    )
    _WALK_PLANS[cls] = plan
    return plan


def token_events(program: N.Program) -> List[TokenEvent]:
    """One AST walk emitting every feature set's raw material.

    Each text node's contexts are its own type, its parent's type (absent
    at the root) and the nearest enclosing control structure above it
    (``toplevel`` if none). The walk is pre-order over the nodes that
    :meth:`~repro.jsast.nodes.Node.children` yields, and it carries the
    parent type and the structure context down its stack, so each node
    costs the same however deep it sits. Truncates each text token to 64
    characters so pathological literals (inline data blobs) do not mint
    unbounded vocabulary.
    """
    events: List[TokenEvent] = []
    append = events.append
    plans = _WALK_PLANS
    node_class = N.Node
    stack = [(program, None, "toplevel")]
    pop = stack.pop
    push = stack.append
    while stack:
        node, parent, structure = pop()
        plan = plans.get(node.__class__) or _walk_plan(node.__class__)
        node_type, names, has_text, inner = plan
        if has_text:
            kind, text = _text_kind(node)
            if parent is None:
                append((kind, text[:64], (node_type, structure)))
            else:
                append((kind, text[:64], (node_type, parent, structure)))
        if inner is None:
            inner = structure
        # Fields and list items are pushed last first, so they pop in order.
        for name in names:
            value = getattr(node, name)
            if isinstance(value, node_class):
                push((value, node_type, inner))
            elif isinstance(value, list):
                for item in reversed(value):
                    if isinstance(item, node_class):
                        push((item, node_type, inner))
    return events


def features_from_events(
    events: Iterable[TokenEvent], feature_set: str = "all"
) -> Set[str]:
    """Derive one feature set from a token event stream by kind-filtering."""
    if feature_set not in _KIND_FILTER:
        raise ValueError(f"unknown feature set {feature_set!r}; choose from {FEATURE_SETS}")
    allowed = _KIND_FILTER[feature_set]
    features: Set[str] = set()
    for kind, text, contexts in events:
        if kind not in allowed:
            continue
        for context in contexts:
            features.add(f"{context}:{text}")
    return features


def extract_features(program: N.Program, feature_set: str = "all") -> Set[str]:
    """The binary feature set of a parsed script."""
    return features_from_events(token_events(program), feature_set)


class FeatureExtractionError(ValueError):
    """Raised when a script cannot be parsed for feature extraction."""


def features_from_source(
    source: str, feature_set: str = "all", unpack: bool = True
) -> Set[str]:
    """Parse (and optionally unpack) JavaScript source, then extract.

    ``unpack=True`` reproduces the paper's V8-based handling of
    ``eval()``-packed scripts: features come from the unpacked body.
    """
    try:
        program = parse(source)
    except (ParseError, TokenizeError) as exc:
        raise FeatureExtractionError(str(exc)) from exc
    if unpack:
        program = unpack_program(program).program
    return extract_features(program, feature_set)


def features_for_corpus(
    sources: Iterable[str], feature_set: str = "all", unpack: bool = True
) -> List[Set[str]]:
    """Feature sets for many scripts; unparseable scripts yield empty sets.

    Delegates to the shared content-addressed feature store
    (:mod:`~repro.core.featstore`): each distinct script is parsed and
    unpacked at most once per ``unpack`` flag, extraction shards across
    ``REPRO_WORKERS`` processes, and per-script parse errors / unpack
    bailouts surface as ``features.*`` obs counters instead of silently
    becoming empty sets.
    """
    from .featstore import get_feature_store

    return get_feature_store().features_for_corpus(
        sources, feature_set=feature_set, unpack=unpack
    )
