"""Static unpacking of dynamically generated JavaScript.

The paper intercepts Chrome V8's ``script.parsed`` hook so that code passed
to ``eval()`` (or injected via ``<script>``/``<iframe>``) is analysed in its
*unpacked* form. We reproduce that behaviour statically: expressions passed
to ``eval``/``Function``/``setTimeout``/``document.write`` are constant-
folded where possible, parsed, and spliced into the surrounding program.
The common Dean Edwards ``p,a,c,k,e,d`` packer is evaluated directly.

The result is the same property the paper relies on: feature extraction
sees the real anti-adblocking logic, not the packer shell.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from . import nodes as N
from .parser import ParseError, parse
from .tokenizer import TokenizeError
from .walker import walk, walk_with_ancestors

#: Upper bound on unpacking passes; packers nest but never this deep.
MAX_UNPACK_ROUNDS = 8

#: Deepest recursion :func:`fold_constant_string` follows (method chains,
#: nested arrays and sequences) before it gives up on a payload; each level
#: costs at most three Python frames. ``+`` chains fold without recursing.
MAX_FOLD_DEPTH = 100

#: Longest string (or array of strings, in total) a fold or a packer
#: substitution may build: the serve daemon's 4 MiB frame cap. ``join``,
#: ``+`` and ``replace`` multiply a short script's size, so each result's
#: length is computed first, and a payload past the bound does not fold.
MAX_FOLD_CHARS = 4 * 1024 * 1024


@dataclass
class UnpackResult:
    """Outcome of :func:`unpack_program`."""

    program: N.Program
    rounds: int = 0
    unpacked_sources: List[str] = field(default_factory=list)
    #: dynamic payloads that folded to a constant string but did not parse
    #: as JavaScript (each distinct payload counted once) — the unpacker
    #: left them in place rather than splicing their statements in.
    failed_payloads: int = 0
    #: the round cap cut unpacking off while rounds were still changing
    #: the program (reaching a fixed point in exactly the cap is clean)
    hit_round_cap: bool = False

    @property
    def was_packed(self) -> bool:
        """Whether any dynamic code was unpacked."""
        return self.rounds > 0

    @property
    def bailed_out(self) -> bool:
        """Whether unpacking gave up on any payload or was cut off by the cap."""
        return self.failed_payloads > 0 or self.hit_round_cap


def fold_constant_string(node: N.Node) -> Optional[str]:
    """Statically evaluate ``node`` to a string, or return ``None``.

    Handles string/number literals, ``+`` concatenation chains,
    ``String.fromCharCode(...)`` with literal arguments, ``'...'.split('')``
    joins, array ``join`` over literal elements, and parenthesised/sequence
    wrappers. This covers the packer idioms observed in anti-adblock
    deployments. Never raises: a non-finite number, an invalid code point,
    nesting deeper than :data:`MAX_FOLD_DEPTH` or a result longer than
    :data:`MAX_FOLD_CHARS` does not fold.
    """
    return _fold(node, 0)


def _fold(node: N.Node, depth: int) -> Optional[str]:
    if depth > MAX_FOLD_DEPTH:
        return None
    depth += 1
    if isinstance(node, N.Literal) and node.regex is None:
        if isinstance(node.value, str):
            return node.value
        if isinstance(node.value, float):
            return _js_number_to_string(node.value)
        return None
    if isinstance(node, N.BinaryExpression) and node.operator == "+":
        # The parser builds ``a + b + c`` left-deep: walk down the left
        # spine instead of recursing, so a long chain cannot overflow.
        rights = []
        while isinstance(node, N.BinaryExpression) and node.operator == "+":
            rights.append(node.right)
            node = node.left
        parts = []
        size = 0
        for operand in [node, *reversed(rights)]:
            part = _fold(operand, depth)
            if part is None:
                return None
            size += len(part)
            if size > MAX_FOLD_CHARS:
                return None
            parts.append(part)
        return "".join(parts)
    if isinstance(node, N.SequenceExpression) and node.expressions:
        return _fold(node.expressions[-1], depth)
    if isinstance(node, N.CallExpression):
        return _fold_call(node, depth)
    return None


def _js_number_to_string(value: float) -> Optional[str]:
    if not math.isfinite(value):
        return None
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _fold_call(node: N.CallExpression, depth: int) -> Optional[str]:
    callee = node.callee
    if not isinstance(callee, N.MemberExpression) or callee.computed:
        return None
    if not isinstance(callee.property, N.Identifier):
        return None
    method = callee.property.name
    if method == "fromCharCode" and _is_member_path(callee.object, ("String",)):
        codes = []
        for arg in node.arguments:
            # chr() takes 0..0x10FFFF; anything else does not fold.
            if (
                isinstance(arg, N.Literal)
                and isinstance(arg.value, float)
                and -1 < arg.value < 0x110000
            ):
                codes.append(chr(int(arg.value)))
            else:
                return None
        return "".join(codes)
    if method == "join":
        elements = _fold_array_elements(callee.object, depth)
        if elements is None:
            return None
        separator = ","
        if node.arguments:
            folded = _fold(node.arguments[0], depth)
            if folded is None:
                return None
            separator = folded
        size = sum(map(len, elements)) + len(separator) * max(len(elements) - 1, 0)
        if size > MAX_FOLD_CHARS:
            return None
        return separator.join(elements)
    if method == "reverse":
        # ``'...'.split('').reverse().join('')`` idiom is handled by join()
        # above through _fold_array_elements; a bare reverse() call cannot
        # itself be a string.
        return None
    if method == "replace" and len(node.arguments) == 2:
        base = _fold(callee.object, depth)
        target = _fold(node.arguments[0], depth)
        replacement = _fold(node.arguments[1], depth)
        if base is None or target is None or replacement is None:
            return None
        size = len(base)
        if target in base:
            size += len(replacement) - len(target)
        if size > MAX_FOLD_CHARS:
            return None
        return base.replace(target, replacement, 1)
    return None


def _fold_array_elements(node: N.Node, depth: int) -> Optional[List[str]]:
    """Fold an expression into a list of strings, if statically possible."""
    if depth > MAX_FOLD_DEPTH:
        return None
    depth += 1
    if isinstance(node, N.ArrayExpression):
        elements: List[str] = []
        size = 0
        for element in node.elements:
            if element is None:
                elements.append("")
                continue
            folded = _fold(element, depth)
            if folded is None:
                return None
            size += len(folded)
            if size > MAX_FOLD_CHARS:
                return None
            elements.append(folded)
        return elements
    if isinstance(node, N.CallExpression):
        callee = node.callee
        if (
            isinstance(callee, N.MemberExpression)
            and isinstance(callee.property, N.Identifier)
            and not callee.computed
        ):
            if callee.property.name == "split" and len(node.arguments) == 1:
                base = _fold(callee.object, depth)
                separator = _fold(node.arguments[0], depth)
                if base is None or separator is None:
                    return None
                if separator == "":
                    return list(base)
                return base.split(separator)
            if callee.property.name == "reverse" and not node.arguments:
                inner = _fold_array_elements(callee.object, depth)
                if inner is None:
                    return None
                return list(reversed(inner))
    return None


def _is_member_path(node: N.Node, path: tuple) -> bool:
    """True when ``node`` spells the dotted identifier path ``path``."""
    parts: List[str] = []
    current = node
    while isinstance(current, N.MemberExpression) and not current.computed:
        if not isinstance(current.property, N.Identifier):
            return False
        parts.append(current.property.name)
        current = current.object
    if isinstance(current, N.Identifier):
        parts.append(current.name)
    else:
        return False
    return tuple(reversed(parts)) == path


_SCRIPT_TAG_RE = re.compile(
    r"<script[^>]*>(?P<body>.*?)</script\s*>", re.IGNORECASE | re.DOTALL
)


def _extract_inline_scripts(html_fragment: str) -> List[str]:
    """Pull inline ``<script>`` bodies out of a document.write payload."""
    return [m.group("body") for m in _SCRIPT_TAG_RE.finditer(html_fragment)]


def _dynamic_code_sources(call: N.CallExpression) -> List[str]:
    """Return the JS source strings a call would dynamically execute."""
    callee = call.callee
    # eval("...")
    if isinstance(callee, N.Identifier) and callee.name == "eval" and call.arguments:
        folded = fold_constant_string(call.arguments[0])
        return [folded] if folded is not None else []
    # window.eval("..."), this.eval is out of scope
    if (
        isinstance(callee, N.MemberExpression)
        and not callee.computed
        and isinstance(callee.property, N.Identifier)
        and callee.property.name == "eval"
        and isinstance(callee.object, N.Identifier)
        and callee.object.name in ("window", "self", "globalThis")
        and call.arguments
    ):
        folded = fold_constant_string(call.arguments[0])
        return [folded] if folded is not None else []
    # new Function("body")() is handled at the NewExpression level; the
    # direct Function("body")() form lands here.
    if isinstance(callee, N.Identifier) and callee.name == "Function" and call.arguments:
        folded = fold_constant_string(call.arguments[-1])
        return [folded] if folded is not None else []
    # setTimeout("code", delay) string form
    if (
        isinstance(callee, N.Identifier)
        and callee.name in ("setTimeout", "setInterval")
        and call.arguments
    ):
        folded = fold_constant_string(call.arguments[0])
        return [folded] if folded is not None else []
    # document.write("<script>...</script>")
    if (
        isinstance(callee, N.MemberExpression)
        and not callee.computed
        and isinstance(callee.property, N.Identifier)
        and callee.property.name in ("write", "writeln")
        and _is_member_path(callee.object, ("document",))
        and call.arguments
    ):
        folded = fold_constant_string(call.arguments[0])
        if folded is None:
            return []
        return _extract_inline_scripts(folded)
    return []


def _try_parse(source: str) -> Optional[N.Program]:
    try:
        return parse(source)
    except (ParseError, TokenizeError):
        return None


def _unpack_packed_packer(program: N.Program) -> Optional[Tuple[str, Optional[str]]]:
    """Evaluate the Dean Edwards ``eval(function(p,a,c,k,e,d){...})`` packer.

    Detects the canonical shape and runs the base-N word substitution in
    Python. Returns ``(payload, unpacked source)`` for the first packer in
    pre-order, with ``None`` for the source when its radix is not an
    integer from 2 to 62 or it would unpack to more than
    :data:`MAX_FOLD_CHARS`, or ``None`` when the program holds no packer.
    """
    for node in walk(program):
        if not isinstance(node, N.CallExpression):
            continue
        if not (isinstance(node.callee, N.Identifier) and node.callee.name == "eval"):
            continue
        if len(node.arguments) != 1:
            continue
        inner = node.arguments[0]
        if not isinstance(inner, N.CallExpression):
            continue
        if not isinstance(inner.callee, N.FunctionExpression):
            continue
        params = [p.name for p in inner.callee.params]
        if params[:4] != ["p", "a", "c", "k"]:
            continue
        if len(inner.arguments) < 4:
            continue
        payload = fold_constant_string(inner.arguments[0])
        radix_node = inner.arguments[1]
        count_node = inner.arguments[2]
        words = _fold_array_elements(inner.arguments[3], 0)
        if payload is None or words is None:
            continue
        if not isinstance(radix_node, N.Literal) or not isinstance(count_node, N.Literal):
            continue
        try:
            radix = int(radix_node.value)
        except (TypeError, ValueError, OverflowError):
            return payload, None
        if not 2 <= radix <= len(_BASE62):
            return payload, None
        return payload, _packed_substitute(payload, radix, words)
    return None


_BASE62 = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _encode_base(value: int, radix: int) -> str:
    if value == 0:
        return _BASE62[0]
    digits = []
    while value:
        digits.append(_BASE62[value % radix])
        value //= radix
    return "".join(reversed(digits))


_PACKED_TOKEN = re.compile(r"\b\w+\b")


def _packed_substitute(payload: str, radix: int, words: List[str]) -> Optional[str]:
    mapping = {}
    for index, word in enumerate(words):
        token = _encode_base(index, radix)
        mapping[token] = word if word else token
    size = len(payload)
    for token in _PACKED_TOKEN.findall(payload):
        size += len(mapping.get(token, token)) - len(token)
    if size > MAX_FOLD_CHARS:
        return None

    def replace(match: re.Match) -> str:
        """Regex callback substituting packed word tokens."""
        token = match.group(0)
        return mapping.get(token, token)

    return _PACKED_TOKEN.sub(replace, payload)


def _may_act(call: N.CallExpression) -> bool:
    """Whether an unpacking round could act on ``call``.

    The packer search acts only on ``eval(...)`` calls, and the splice walk
    only on calls whose payload :func:`_dynamic_code_sources` folds.
    """
    callee = call.callee
    if isinstance(callee, N.Identifier) and callee.name == "eval":
        return True
    return bool(_dynamic_code_sources(call))


def unpack_program(program: N.Program) -> UnpackResult:
    """Iteratively splice dynamically generated code into ``program``.

    Each round scans for ``eval``-like calls whose payload folds to a
    constant string, parses the payload, and replaces the call's statement
    with the parsed statements. Rounds repeat until fixpoint or
    :data:`MAX_UNPACK_ROUNDS`.

    A program straight from :func:`~repro.jsast.parser.parse` lists the
    calls a round could act on (``Program.dynamic_calls``). When none of
    them can act, the rounds' tree walks would change nothing, so they are
    skipped; any other program takes the full walk.
    """
    calls = program.dynamic_calls
    if calls is not None and not any(_may_act(call) for call in calls):
        return UnpackResult(program=program)
    rounds = 0
    sources: List[str] = []
    failed: Set[str] = set()
    while rounds < MAX_UNPACK_ROUNDS:
        changed = _unpack_one_round(program, sources, failed)
        if not changed:
            break
        rounds += 1
    hit_cap = False
    if rounds >= MAX_UNPACK_ROUNDS:
        # Hitting the cap is only a bailout when another round would
        # still change something; a program whose fixed point lands in
        # exactly MAX_UNPACK_ROUNDS rounds unpacked cleanly. The probe
        # stops short of changing the program, so it stays capped.
        hit_cap = _unpack_one_round(program, [], set(), probe=True)
    if rounds:
        # The spliced tree holds calls the parser never saw.
        program.dynamic_calls = None
    return UnpackResult(
        program=program,
        rounds=rounds,
        unpacked_sources=sources,
        failed_payloads=len(failed),
        hit_round_cap=hit_cap,
    )


def _unpack_one_round(
    program: N.Program, sources: List[str], failed: Set[str], probe: bool = False
) -> bool:
    """One unpacking round; whether it changed the program.

    With ``probe`` set, return True where the round would first change the
    program, and leave it untouched.
    """
    found = _unpack_packed_packer(program)
    if found is not None:
        payload, packed = found
        parsed = _try_parse(packed) if packed is not None else None
        if parsed is not None:
            if probe:
                return True
            sources.append(packed)
            _remove_packer_statements(program)
            program.body.extend(parsed.body)
            return True
        # An unparseable result, or a radix the packer cannot decode.
        failed.add(packed if packed is not None else payload)
    for node, ancestors in walk_with_ancestors(program):
        if not isinstance(node, N.CallExpression):
            continue
        payloads = _dynamic_code_sources(node)
        if not payloads:
            continue
        parsed_bodies: List[N.Node] = []
        for payload in payloads:
            parsed = _try_parse(payload)
            if parsed is None:
                failed.add(payload)
                parsed_bodies = []
                break
            sources.append(payload)
            parsed_bodies.extend(parsed.body)
        if not parsed_bodies:
            continue
        if probe or _splice_statements(node, ancestors, parsed_bodies, program):
            return True
    return False


def _remove_packer_statements(program: N.Program) -> None:
    """Drop top-level statements that are pure eval(packer) shells."""
    kept = []
    for statement in program.body:
        if isinstance(statement, N.ExpressionStatement):
            expression = statement.expression
            if (
                isinstance(expression, N.CallExpression)
                and isinstance(expression.callee, N.Identifier)
                and expression.callee.name == "eval"
                and len(expression.arguments) == 1
                and isinstance(expression.arguments[0], N.CallExpression)
                and isinstance(expression.arguments[0].callee, N.FunctionExpression)
            ):
                continue
        kept.append(statement)
    program.body[:] = kept


def _splice_statements(
    call: N.CallExpression,
    ancestors: tuple,
    replacement: List[N.Node],
    program: N.Program,
) -> bool:
    """Replace the statement containing ``call`` with ``replacement``.

    Only splices when the call is the whole expression of an
    ExpressionStatement that sits directly in a statement list; otherwise
    the replacement statements are appended to the program body so the
    unpacked code is still visible to analysis.
    """
    parent = ancestors[-1] if ancestors else None
    if isinstance(parent, N.ExpressionStatement) and parent.expression is call:
        grandparent = ancestors[-2] if len(ancestors) >= 2 else None
        container = None
        if isinstance(grandparent, (N.Program, N.BlockStatement)):
            container = grandparent.body
        elif isinstance(grandparent, N.SwitchCase):
            container = grandparent.consequent
        if container is not None:
            index = next((i for i, s in enumerate(container) if s is parent), None)
            if index is not None:
                container[index : index + 1] = replacement
                return True
        parent.expression = N.Literal(value=None, raw="null")
        program.body.extend(replacement)
        return True
    # The call result is used in an expression context — neutralise the
    # call site and append the unpacked statements for analysis.
    if parent is not None and parent.replace_child(call, N.Literal(value=None, raw="null")):
        program.body.extend(replacement)
        return True
    return False


def unpack_source(source: str) -> UnpackResult:
    """Parse ``source`` and unpack any dynamically generated code."""
    return unpack_program(parse(source))
