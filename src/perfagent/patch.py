"""Lexical C/C++ function location and replacement.

Finds top-level function definitions without a real parser. Each source
text gets one cached scan, which holds two copies of the text's UTF-8
encoding with every inactive byte zeroed:

- ``literal``: comments and string and character literals zeroed;
- ``code``: preprocessor directive lines zeroed as well.

A compiled-regex split builds the first copy, and a search for each live
"#" that starts a line builds the second. Everything after works on
``code`` with compiled-regex searches and ``bytes.find``/``bytes.count``,
never byte by byte. A delimiter's match is the first closer at which every
opener counted since is closed. The file-scope walk jumps from one
delimiter or identifier to the next and skips each brace or parenthesis
group whole. Brace and parenthesis depth then identifies
``name(args) { ... }`` definitions at file scope.

Asking about an unchanged source again costs a dictionary lookup. So does
anything another module derives from the scan through ``_derived``.

Known limits, by design: K&R definitions, qualified member definitions
(``Foo::bar``), functions nested in ``extern "C"`` or class bodies, and
functions produced by macro expansion are not recognized. The benchmark
kernels in scope are plain C with at most light C++.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, TypeVar

_T = TypeVar("_T")

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
_SKIPPED = _WS | {0}  # whitespace and zeroed bytes
# Bytes allowed in the declaration prefix scanned backward from the name;
# a zeroed byte is none of them.
_PREFIX = frozenset(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789*&") | _WS
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
# a lone trailing backslash belongs to the literal. A block comment ends
# at its first "*/" or at the end of the text. The loops are unrolled so
# that runs of plain bytes match without trying an alternative per byte.
_INERT = re.compile(
    rb"(//[^\n]*"
    rb"|/\*[^*]*(?:\*+[^*/][^*]*)*(?:\*+/|\*+\Z|\Z)"
    rb'|"[^"\\\n]*(?:\\.?[^"\\\n]*)*"?'
    rb"|'[^'\\\n]*(?:\\.?[^'\\\n]*)*'?)",
    re.DOTALL,
)
# A directive of the literal-zeroed copy from its "#" through the newline
# that ends it. Newlines inside comments and literals are zeroed there, so
# only a live newline ends the line, and only a live backslash before it
# (a carriage return may sit between) continues it.
_DIRECTIVE_BODY = re.compile(rb"#(?:\\\r?\n|[^\n])*\n?")
_INACTIVE_RUN = re.compile(rb"\x00+")
_SKIP = re.compile(rb"[\x00 \t\r\n\v\f]*")  # a run of _SKIPPED bytes
_IDENT = re.compile(rb"[A-Za-z_][A-Za-z0-9_]*")
# What the top-level walk stops at: a delimiter or an identifier.
_TOP = re.compile(rb"[{}()]|[A-Za-z_][A-Za-z0-9_]*")
_DELIM = re.compile(rb"[{}()]")
# Blanks every byte but the newline.
_BLANK = bytes(0x0A if b == 0x0A else 0x20 for b in range(256))
_SCAN_CACHE_SIZE = 8


def _zero_inert(data: bytes) -> bytes:
    """``data`` with comments and literals zeroed."""
    parts = _INERT.split(data)  # code, comment or literal, code, ...
    parts[1::2] = map(bytes, map(len, parts[1::2]))
    return b"".join(parts)


def _zero_directives(literal: bytes) -> bytes:
    """``literal`` with directive lines zeroed from their "#" on.

    A live "#" starts a directive when only blanks precede it on its line.
    Lines are found from the live newlines alone: a newline zeroed inside
    a comment or literal is never followed by a live "#" on the next line.
    """
    parts = []
    done = pos = 0
    while (j := literal.find(b"#", pos)) >= 0:
        pos = j + 1
        if literal[literal.rfind(b"\n", 0, j) + 1 : j].strip(b" \t"):
            continue
        end = _DIRECTIVE_BODY.match(literal, j).end()
        parts += (literal[done:j], bytes(end - j))
        done = pos = end
    parts.append(literal[done:])
    return b"".join(parts)


def _match_delim(code: bytes, i: int, op: bytes, cl: bytes) -> int:
    """Index of the delimiter closing ``op`` at ``i``, or -1: the first
    closer at which the openers counted since ``i`` are all closed."""
    depth = 1
    k = i + 1
    while True:
        close = code.find(cl, k)
        if close < 0:
            return -1
        depth += code.count(op, k, close) - 1
        if depth == 0:
            return close
        k = close + 1


def _preceded_by_member_op(code: bytes, i: int) -> bool:
    """True when the byte before ``i`` (skipping inert bytes) is . -> or ::"""
    j = i - 1
    while j >= 0 and code[j] in _SKIPPED:
        j -= 1
    if j < 0:
        return False
    if code[j] == 0x2E:  # .
        return True
    return j >= 1 and code[j - 1 : j + 1] in (b"->", b"::")


def _try_definition(data: bytes, code: bytes, name_start: int, name_end: int, name: str):
    """Return (span, resume_index); span is None when this is not one."""
    n = len(code)
    if name in _NOT_NAMES:
        return None, name_end
    k = _SKIP.match(code, name_end).end()
    if k >= n or code[k] != 0x28:  # (
        return None, name_end
    if _preceded_by_member_op(code, name_start):
        return None, name_end
    rparen = _match_delim(code, k, b"(", b")")
    if rparen < 0:
        return None, name_end

    # Trailing qualifiers between the parameter list and the body:
    # identifiers (const, noexcept, attribute macros) and paren groups.
    k = _SKIP.match(code, rparen + 1).end()
    while k < n:
        word = _IDENT.match(code, k)
        if word is not None:
            k = _SKIP.match(code, word.end()).end()
            continue
        if code[k] == 0x28:
            close = _match_delim(code, k, b"(", b")")
            if close < 0:
                return None, name_end
            k = _SKIP.match(code, close + 1).end()
            continue
        break
    if k >= n or code[k] != 0x7B:  # {
        return None, name_end

    close = _match_delim(code, k, b"{", b"}")
    if close < 0:
        raise UnbalancedBraces(name)
    byte_end = close + 1

    start = name_start - 1
    while start >= 0 and code[start] in _PREFIX:
        start -= 1
    start += 1
    while start < name_start and code[start] in _WS:
        start += 1

    sig = " ".join(data[start:k].decode("utf-8", "replace").split())
    return FunctionSpan(name, start, byte_end, sig), byte_end


@dataclass(frozen=True)
class _Scan:
    """What the scanner derives from one source text.

    The zeroed copies index like ``data``; a NUL byte of the source reads
    0x01 in them, so 0 always means inactive.
    """

    data: bytes  # UTF-8 encoding; every offset indexes it
    literal: bytes  # comments and literals zeroed, their newlines too
    code: bytes  # directive lines zeroed as well
    spans: tuple[FunctionSpan, ...]
    unbalanced: str | None  # name whose body never closes; spans is then empty
    # What other modules compute from this source, by deriving function.
    derived: dict = field(default_factory=dict, compare=False, repr=False)


def _find_definitions(data: bytes, code: bytes) -> list[FunctionSpan]:
    """Walk ``code`` at file scope. Outside every brace and parenthesis
    the walk stops at each delimiter and identifier and skips a group
    whole, carrying over the depth of the other delimiter kind inside it;
    once a depth is off zero it steps from delimiter to delimiter."""
    spans: list[FunctionSpan] = []
    braces = parens = 0
    pos = 0
    while True:
        if braces or parens:
            m = _DELIM.search(code, pos)
            if m is None:
                break
            c = code[m.start()]
            if c == 0x7B:
                braces += 1
            elif c == 0x7D:
                braces -= 1
            elif c == 0x28:
                parens += 1
            else:
                parens -= 1
            pos = m.end()
            continue
        m = _TOP.search(code, pos)
        if m is None:
            break
        i = m.start()
        c = code[i]
        if c == 0x7B:
            close = _match_delim(code, i, b"{", b"}")
            if close < 0:
                break  # the brace depth never returns to zero
            parens = code.count(b"(", i, close) - code.count(b")", i, close)
            pos = close + 1
        elif c == 0x28:
            close = _match_delim(code, i, b"(", b")")
            if close < 0:
                break  # the parenthesis depth never returns to zero
            braces = code.count(b"{", i, close) - code.count(b"}", i, close)
            pos = close + 1
        elif c == 0x7D:
            braces = -1
            pos = i + 1
        elif c == 0x29:
            parens = -1
            pos = i + 1
        else:
            span, pos = _try_definition(data, code, i, m.end(), m.group().decode("ascii"))
            if span is not None:
                spans.append(span)
    return spans


@functools.lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _scan(source: str) -> _Scan:
    data = source.encode("utf-8")
    literal = _zero_inert(data.replace(b"\x00", b"\x01"))
    code = _zero_directives(literal)
    try:
        return _Scan(data, literal, code, tuple(_find_definitions(data, code)), None)
    except UnbalancedBraces as exc:
        return _Scan(data, literal, code, (), exc.name)


def _derived(source: str, derive: Callable[[_Scan], _T]) -> _T:
    """``derive(scan)`` for the cached scan of ``source``, computed once
    while that scan stays cached. The value is shared: keep it immutable."""
    scan = _scan(source)
    try:
        return scan.derived[derive]
    except KeyError:
        value = scan.derived[derive] = derive(scan)
        return value


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
    for m in _INACTIVE_RUN.finditer(scan.literal if keep_directives else scan.code):
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
    replacement = _scan(new_text)
    if not _braces_balance(replacement.code):
        raise UnbalancedReplacement(name)
    data = _scan(source).data
    out = data[: span.byte_start] + replacement.data + data[span.byte_end :]
    return out.decode("utf-8")


def _braces_balance(code: bytes) -> bool:
    """True when ``code`` has at least one brace pair and its brace depth
    returns to zero without going negative. Top-level groups are matched
    in turn; a closer before the next opener would go negative."""
    pos = 0
    pairs = False
    while True:
        opener = code.find(b"{", pos)
        closer = code.find(b"}", pos)
        if closer < 0:
            return pairs and opener < 0
        if opener < 0 or closer < opener:
            return False
        close = _match_delim(code, opener, b"{", b"}")
        if close < 0:
            return False
        pairs = True
        pos = close + 1
