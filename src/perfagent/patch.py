"""Lexical C/C++ function location and replacement.

Finds top-level function definitions without a real parser. A scanner masks
out comments, string and character literals, and preprocessor directive
lines; brace and parenthesis depth over the remaining bytes then identifies
``name(args) { ... }`` definitions at file scope. The masks and the
definitions come from one cached scan per source text, so asking about an
unchanged source again costs a dictionary lookup.

Known limits, by design: K&R definitions, qualified member definitions
(``Foo::bar``), functions nested in ``extern "C"`` or class bodies, and
functions produced by macro expansion are not recognized. The benchmark
kernels in scope are plain C with at most light C++.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

__all__ = [
    "FunctionSpan",
    "PatchError",
    "FunctionNotFound",
    "AmbiguousFunction",
    "UnbalancedBraces",
    "UnbalancedReplacement",
    "list_functions",
    "locate_function",
    "extract_function",
    "replace_function",
]


class PatchError(Exception):
    """Base class for patching failures."""


class FunctionNotFound(PatchError):
    def __init__(self, name: str):
        super().__init__(f"no function definition named {name!r}")
        self.name = name


class AmbiguousFunction(PatchError):
    def __init__(self, name: str, count: int):
        super().__init__(f"{count} function definitions named {name!r}")
        self.name = name
        self.count = count


class UnbalancedBraces(PatchError):
    def __init__(self, name: str):
        super().__init__(f"unbalanced braces in definition of {name!r}")
        self.name = name


class UnbalancedReplacement(PatchError):
    def __init__(self, name: str):
        super().__init__(f"replacement text for {name!r} has unbalanced braces")
        self.name = name


@dataclass(frozen=True)
class FunctionSpan:
    """Byte range of one top-level function definition.

    Offsets index the UTF-8 encoding of the source text: ``byte_start`` is
    the first byte of the declaration prefix (storage class or return
    type), ``byte_end`` is one past the closing brace. ``signature_text``
    is the declaration up to the opening brace with whitespace collapsed.
    """

    name: str
    byte_start: int
    byte_end: int
    signature_text: str


_WS = frozenset(b" \t\r\n\v\f")
_IDENT_START = frozenset(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset(b"0123456789")
# Bytes allowed in the declaration prefix scanned backward from the name.
_PREFIX = _IDENT_CONT | _WS | frozenset(b"*&")
# Words that can precede "(" at file scope but never name a definition:
# control flow, plus reserved type and storage words (these absorb the
# "type (*name(args))(args)" declarator form, which stays unrecognized).
_NOT_NAMES = frozenset(
    {
        "if", "else", "for", "while", "do", "switch", "return", "sizeof",
        "goto", "int", "char", "short", "long", "float", "double", "void",
        "signed", "unsigned", "const", "volatile", "inline", "static",
        "extern", "register", "restrict", "auto", "typedef", "struct",
        "union", "enum", "_Bool", "_Complex", "bool",
    }
)


# Comments and string/char literals, in the order a left-to-right scan
# meets them. A literal stops at a raw newline instead of swallowing the
# rest of the file; a backslash escapes any byte (a newline included), and
# a lone trailing backslash belongs to the literal.
_INERT = re.compile(
    rb"//[^\n]*"
    rb"|/\*.*?(?:\*/|\Z)"
    rb'|"(?:[^"\\\n]|\\.?)*"?'
    rb"|'(?:[^'\\\n]|\\.?)*'?",
    re.DOTALL,
)
_DIRECTIVE_START = re.compile(rb"^[ \t]*#", re.MULTILINE)
_INACTIVE_RUN = re.compile(rb"\x00+")
# Blanks every byte but the newline.
_BLANK = bytes(0x0A if b == 0x0A else 0x20 for b in range(256))
_SCAN_CACHE_SIZE = 8


def _active_mask(data: bytes) -> bytearray:
    """Mark live code bytes; comments and string/char literals become 0."""
    mask = bytearray(b"\x01" * len(data))
    for m in _INERT.finditer(data):
        mask[m.start() : m.end()] = bytes(m.end() - m.start())
    return mask


def _mask_directives(data: bytes, mask: bytearray) -> None:
    """Zero out preprocessor directive lines, honoring continuations.

    Activity tests use a snapshot of the comment/literal mask so that a
    backslash already zeroed here still counts as a continuation, while
    one inside a comment does not. A newline inside a comment or escaped
    in a literal does not end the directive.
    """
    orig = bytes(mask)
    n = len(data)
    for m in _DIRECTIVE_START.finditer(data):
        j = m.end() - 1
        if not orig[j]:
            continue
        k = j
        while True:
            k = data.find(b"\n", k)
            if k < 0:
                k = n
                break
            if orig[k]:
                p = k - 1
                if data[p] == 0x0D:
                    p -= 1
                if not (data[p] == 0x5C and orig[p]):
                    break
            k += 1
        end = min(k + 1, n)
        mask[j:end] = bytes(end - j)


def _skip_inert(data: bytes, mask: bytes, i: int) -> int:
    """Advance past whitespace and masked bytes."""
    n = len(data)
    while i < n and (not mask[i] or data[i] in _WS):
        i += 1
    return i


def _match_delim(data: bytes, mask: bytes, i: int, op: int, cl: int) -> int:
    """Index of the delimiter closing the one at ``i``, or -1."""
    depth = 0
    n = len(data)
    while i < n:
        if mask[i]:
            if data[i] == op:
                depth += 1
            elif data[i] == cl:
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return -1


def _preceded_by_member_op(data: bytes, mask: bytes, i: int) -> bool:
    """True when the byte before ``i`` (skipping inert bytes) is . -> or ::"""
    j = i - 1
    while j >= 0 and (not mask[j] or data[j] in _WS):
        j -= 1
    if j < 0:
        return False
    if data[j] == 0x2E:  # .
        return True
    if j >= 1 and mask[j - 1]:
        pair = data[j - 1 : j + 1]
        if pair in (b"->", b"::"):
            return True
    return False


def _try_definition(data, mask, name_start, name_end, name):
    """Return (span, resume_index); span is None when this is not one."""
    n = len(data)
    if name in _NOT_NAMES:
        return None, name_end
    if _preceded_by_member_op(data, mask, name_start):
        return None, name_end

    k = _skip_inert(data, mask, name_end)
    if k >= n or data[k] != 0x28:  # (
        return None, name_end
    rparen = _match_delim(data, mask, k, 0x28, 0x29)
    if rparen < 0:
        return None, name_end

    # Trailing qualifiers between the parameter list and the body:
    # identifiers (const, noexcept, attribute macros) and paren groups.
    k = _skip_inert(data, mask, rparen + 1)
    while k < n:
        if data[k] in _IDENT_START:
            while k < n and mask[k] and data[k] in _IDENT_CONT:
                k += 1
            k = _skip_inert(data, mask, k)
            continue
        if data[k] == 0x28:
            close = _match_delim(data, mask, k, 0x28, 0x29)
            if close < 0:
                return None, name_end
            k = _skip_inert(data, mask, close + 1)
            continue
        break
    if k >= n or data[k] != 0x7B:  # {
        return None, name_end

    close = _match_delim(data, mask, k, 0x7B, 0x7D)
    if close < 0:
        raise UnbalancedBraces(name)
    byte_end = close + 1

    start = name_start - 1
    while start >= 0 and mask[start] and data[start] in _PREFIX:
        start -= 1
    start += 1
    while start < name_start and data[start] in _WS:
        start += 1

    sig = " ".join(data[start:k].decode("utf-8", "replace").split())
    return FunctionSpan(name, start, byte_end, sig), byte_end


@dataclass(frozen=True)
class _Scan:
    """What the scanner derives from one source text."""

    data: bytes  # UTF-8 encoding; every offset indexes it
    literal_mask: bytes  # 0 on comments and literals
    code_mask: bytes  # 0 on directive lines as well
    spans: tuple[FunctionSpan, ...]
    unbalanced: str | None  # name whose body never closes; spans is then empty


def _find_definitions(data: bytes, mask: bytes) -> list[FunctionSpan]:
    spans: list[FunctionSpan] = []
    n = len(data)
    brace_depth = 0
    paren_depth = 0
    i = 0
    while i < n:
        if not mask[i]:
            i += 1
            continue
        c = data[i]
        if c == 0x7B:
            brace_depth += 1
        elif c == 0x7D:
            brace_depth -= 1
        elif c == 0x28:
            paren_depth += 1
        elif c == 0x29:
            paren_depth -= 1
        elif brace_depth == 0 and paren_depth == 0 and c in _IDENT_START:
            j = i + 1
            while j < n and mask[j] and data[j] in _IDENT_CONT:
                j += 1
            name = data[i:j].decode("utf-8", "replace")
            span, resume = _try_definition(data, mask, i, j, name)
            if span is not None:
                spans.append(span)
            i = resume
            continue
        i += 1
    return spans


@functools.lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _scan(source: str) -> _Scan:
    data = source.encode("utf-8")
    mask = _active_mask(data)
    literal_mask = bytes(mask)
    _mask_directives(data, mask)
    code_mask = bytes(mask)
    try:
        return _Scan(data, literal_mask, code_mask, tuple(_find_definitions(data, code_mask)), None)
    except UnbalancedBraces as exc:
        return _Scan(data, literal_mask, code_mask, (), exc.name)


def active_text(source: str, keep_directives: bool = False) -> str:
    """Source with comments, literal contents, and directive lines blanked.

    Newlines survive so line-oriented scans still work; every other
    inactive byte becomes a space. Useful for token searches that must not
    match inside strings or comments. With keep_directives, preprocessor
    lines stay visible (e.g. to look for pragmas).
    """
    scan = _scan(source)
    data = scan.data
    out = bytearray(data)
    for m in _INACTIVE_RUN.finditer(scan.literal_mask if keep_directives else scan.code_mask):
        out[m.start() : m.end()] = data[m.start() : m.end()].translate(_BLANK)
    return out.decode("utf-8", "replace")


def list_functions(source: str) -> list[FunctionSpan]:
    """All top-level function definitions, in source order.

    Raises UnbalancedBraces when a definition's body never closes.
    """
    scan = _scan(source)
    if scan.unbalanced is not None:
        raise UnbalancedBraces(scan.unbalanced)
    return list(scan.spans)


def locate_function(source: str, name: str) -> FunctionSpan:
    """The unique definition of ``name``; NotFound/Ambiguous otherwise."""
    matches = [s for s in list_functions(source) if s.name == name]
    if not matches:
        raise FunctionNotFound(name)
    if len(matches) > 1:
        raise AmbiguousFunction(name, len(matches))
    return matches[0]


def extract_function(source: str, name: str) -> str:
    """Verbatim text of the definition, prefix through closing brace."""
    span = locate_function(source, name)
    return _scan(source).data[span.byte_start : span.byte_end].decode("utf-8")


def replace_function(source: str, name: str, new_text: str) -> str:
    """Splice ``new_text`` over the definition of ``name``.

    The replacement must contain at least one brace pair and balance to
    zero without going negative, counted outside comments and literals.
    """
    span = locate_function(source, name)
    rdata = new_text.encode("utf-8")
    rmask = _active_mask(rdata)
    _mask_directives(rdata, rmask)
    depth = 0
    pairs = 0
    for idx, b in enumerate(rdata):
        if not rmask[idx]:
            continue
        if b == 0x7B:
            depth += 1
            pairs += 1
        elif b == 0x7D:
            depth -= 1
            if depth < 0:
                raise UnbalancedReplacement(name)
    if depth != 0 or pairs == 0:
        raise UnbalancedReplacement(name)

    data = _scan(source).data
    out = data[: span.byte_start] + rdata + data[span.byte_end :]
    return out.decode("utf-8")
