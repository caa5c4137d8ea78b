"""Straightforward implementations the optimized code must agree with.

These are the byte-by-byte and list-building versions of the ``patch``
scanner (its masks, delimiter matching and file-scope walk), ``verify``'s
ExactBytes and NumericTokens comparisons and the print-token check, the
check-by-check cct-v1 import, and the sort-based top-k profile summary.
They are slow and obviously correct; the equivalence tests run them side
by side with the library.
The number predicate (``verify._numbers_match``) is shared, so the
comparison tests isolate tokenizing, pairing and reporting; so are the
profile data classes and the frame and metrics parsers, so the import
tests isolate traversal, check order and error paths.
"""

from __future__ import annotations

import json
import math
import re

from perfagent.manifest import ValidationPolicy
from perfagent.patch import _NOT_NAMES, FunctionSpan, UnbalancedBraces
from perfagent.profile import (
    _ENV_KEYS,
    _REL_TOL,
    DEFAULT_CHAR_BUDGET,
    SCHEMA_ID,
    TRUNCATION_MARKER,
    MetricInfo,
    MetricKind,
    NegativeMetric,
    ProfileNode,
    ProfileTree,
    SchemaViolation,
    UnknownMetric,
    _excl_incl_pairs,
    _parse_frame,
    _parse_metrics,
    _require,
    default_exclusive_metric,
    walk,
)
from perfagent.verify import Divergence, MatchReport, _clip, _numbers_match, _parse_number


def active_mask(data: bytes) -> bytearray:
    n = len(data)
    mask = bytearray(b"\x01" * n)
    i = 0
    while i < n:
        c = data[i]
        if c == 0x2F and i + 1 < n and data[i + 1] == 0x2F:  # //
            while i < n and data[i] != 0x0A:
                mask[i] = 0
                i += 1
            continue
        if c == 0x2F and i + 1 < n and data[i + 1] == 0x2A:  # /*
            mask[i] = 0
            mask[i + 1] = 0
            i += 2
            while i < n:
                mask[i] = 0
                if data[i] == 0x2A and i + 1 < n and data[i + 1] == 0x2F:
                    mask[i + 1] = 0
                    i += 2
                    break
                i += 1
            continue
        if c in (0x22, 0x27):  # " or '
            quote = c
            mask[i] = 0
            i += 1
            while i < n:
                if data[i] == 0x0A:
                    break
                mask[i] = 0
                if data[i] == 0x5C and i + 1 < n:
                    mask[i + 1] = 0
                    i += 2
                    continue
                if data[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        i += 1
    return mask


def mask_directives(data: bytes, mask: bytearray) -> None:
    orig = bytes(mask)
    n = len(data)
    i = 0
    while i < n:
        j = i
        while j < n and data[j] in (0x20, 0x09):
            j += 1
        if j < n and data[j] == 0x23 and orig[j]:
            k = j
            while k < n:
                mask[k] = 0
                if data[k] == 0x0A and orig[k]:
                    p = k - 1
                    if p >= 0 and data[p] == 0x0D:
                        p -= 1
                    if p >= j and data[p] == 0x5C and orig[p]:
                        k += 1
                        continue
                    break
                k += 1
            i = k + 1
            continue
        while i < n and data[i] != 0x0A:
            i += 1
        i += 1


def active_text(source: str, keep_directives: bool = False) -> str:
    data = source.encode("utf-8")
    mask = active_mask(data)
    if not keep_directives:
        mask_directives(data, mask)
    out = bytearray(data)
    for i in range(len(out)):
        if not mask[i] and out[i] != 0x0A:
            out[i] = 0x20
    return out.decode("utf-8", "replace")


_WS = frozenset(b" \t\r\n\v\f")
_IDENT_START = frozenset(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset(b"0123456789")
_PREFIX = _IDENT_CONT | _WS | frozenset(b"*&")


def skip_inert(data: bytes, mask: bytes, i: int) -> int:
    n = len(data)
    while i < n and (not mask[i] or data[i] in _WS):
        i += 1
    return i


def match_delim(data: bytes, mask: bytes, i: int, op: int, cl: int) -> int:
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


def preceded_by_member_op(data: bytes, mask: bytes, i: int) -> bool:
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


def try_definition(data, mask, name_start, name_end, name):
    n = len(data)
    if name in _NOT_NAMES:
        return None, name_end
    if preceded_by_member_op(data, mask, name_start):
        return None, name_end

    k = skip_inert(data, mask, name_end)
    if k >= n or data[k] != 0x28:  # (
        return None, name_end
    rparen = match_delim(data, mask, k, 0x28, 0x29)
    if rparen < 0:
        return None, name_end

    k = skip_inert(data, mask, rparen + 1)
    while k < n:
        if data[k] in _IDENT_START:
            while k < n and mask[k] and data[k] in _IDENT_CONT:
                k += 1
            k = skip_inert(data, mask, k)
            continue
        if data[k] == 0x28:
            close = match_delim(data, mask, k, 0x28, 0x29)
            if close < 0:
                return None, name_end
            k = skip_inert(data, mask, close + 1)
            continue
        break
    if k >= n or data[k] != 0x7B:  # {
        return None, name_end

    close = match_delim(data, mask, k, 0x7B, 0x7D)
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


def find_definitions(data: bytes, mask: bytes) -> list[FunctionSpan]:
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
            span, resume = try_definition(data, mask, i, j, name)
            if span is not None:
                spans.append(span)
            i = resume
            continue
        i += 1
    return spans


def list_functions(source: str) -> list[FunctionSpan]:
    data = source.encode("utf-8")
    mask = active_mask(data)
    mask_directives(data, mask)
    return find_definitions(data, mask)


def braces_balance(text: str) -> bool:
    data = text.encode("utf-8")
    mask = active_mask(data)
    mask_directives(data, mask)
    depth = 0
    pairs = 0
    for idx, b in enumerate(data):
        if not mask[idx]:
            continue
        if b == 0x7B:
            depth += 1
            pairs += 1
        elif b == 0x7D:
            depth -= 1
            if depth < 0:
                return False
    return depth == 0 and pairs > 0


def print_kinds(active: str, tokens: tuple[str, ...]) -> set[str]:
    return {t for t in tokens if re.search(rf"\b{re.escape(t)}\b", active)}


def filter_lines(data: bytes, patterns: tuple[str, ...]) -> list[bytes]:
    compiled = [re.compile(p) for p in patterns]
    kept = []
    for raw in data.splitlines(keepends=True):
        text = raw.rstrip(b"\r\n").decode("latin-1")
        if any(rx.search(text) for rx in compiled):
            continue
        kept.append(raw)
    return kept


def compare_exact(reference: bytes, candidate: bytes, policy: ValidationPolicy) -> MatchReport:
    ref_lines = filter_lines(reference, policy.ignore_patterns)
    cand_lines = filter_lines(candidate, policy.ignore_patterns)
    count = min(len(ref_lines), len(cand_lines))
    for i in range(count):
        if ref_lines[i] != cand_lines[i]:
            col = next(
                (
                    j
                    for j, (a, b) in enumerate(zip(ref_lines[i], cand_lines[i]))
                    if a != b
                ),
                min(len(ref_lines[i]), len(cand_lines[i])),
            )
            return MatchReport(
                False,
                Divergence(
                    line=i + 1,
                    index=col,
                    reference_excerpt=_clip(ref_lines[i].decode("latin-1").rstrip("\r\n")),
                    candidate_excerpt=_clip(cand_lines[i].decode("latin-1").rstrip("\r\n")),
                ),
                compared_tokens=i + 1,
            )
    if len(ref_lines) != len(cand_lines):
        longer = ref_lines if len(ref_lines) > count else cand_lines
        extra = longer[count].decode("latin-1").rstrip("\r\n")
        return MatchReport(
            False,
            Divergence(
                line=count + 1,
                index=0,
                reference_excerpt=_clip(extra) if len(ref_lines) > count else "<end of output>",
                candidate_excerpt=_clip(extra) if len(cand_lines) > count else "<end of output>",
            ),
            compared_tokens=count,
        )
    return MatchReport(True, None, compared_tokens=count)


def _tokens_with_positions(lines: list[bytes]) -> list[tuple[int, int, str]]:
    out = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.rstrip(b"\r\n").decode("latin-1")
        for idx, token in enumerate(text.split(), start=1):
            out.append((line_no, idx, token))
    return out


def compare_numeric(reference: bytes, candidate: bytes, policy: ValidationPolicy) -> MatchReport:
    ref_tokens = _tokens_with_positions(filter_lines(reference, policy.ignore_patterns))
    cand_tokens = _tokens_with_positions(filter_lines(candidate, policy.ignore_patterns))

    compared = 0
    for (r_line, r_idx, r_tok), (_, _, c_tok) in zip(ref_tokens, cand_tokens):
        compared += 1
        r_num = _parse_number(r_tok)
        c_num = _parse_number(c_tok)
        if r_num is not None and c_num is not None:
            if _numbers_match(r_num, c_num, policy):
                continue
        elif r_tok == c_tok:
            continue
        return MatchReport(
            False,
            Divergence(r_line, r_idx, _clip(r_tok), _clip(c_tok)),
            compared,
        )

    if len(ref_tokens) != len(cand_tokens):
        longer = ref_tokens if len(ref_tokens) > len(cand_tokens) else cand_tokens
        line_no, idx, token = longer[min(len(ref_tokens), len(cand_tokens))]
        ref_side = token if len(ref_tokens) > len(cand_tokens) else "<end of output>"
        cand_side = token if len(cand_tokens) > len(ref_tokens) else "<end of output>"
        return MatchReport(
            False,
            Divergence(line_no, idx, _clip(ref_side), _clip(cand_side)),
            compared,
        )
    return MatchReport(True, None, compared)


def _exclusive_sum(roots: tuple[ProfileNode, ...], metric_id: str) -> float:
    total = 0.0
    stack = list(roots)
    while stack:
        node = stack.pop()
        total += node.metrics.get(metric_id, 0.0)
        stack.extend(node.children)
    return total


def _parse_node(doc, path: str, catalog: dict, pairs: list) -> ProfileNode:
    _require(isinstance(doc, dict), path, "node must be an object")
    _require("frame" in doc, path, "missing frame")
    frame = _parse_frame(doc["frame"], path + ".frame")
    metrics = _parse_metrics(doc.get("metrics", {}), path + ".metrics", catalog)

    for excl_id, incl_id in pairs:
        if excl_id in metrics and incl_id in metrics:
            _require(
                metrics[excl_id] <= metrics[incl_id] * (1 + _REL_TOL) + 1e-12,
                f"{path}.metrics.{excl_id}",
                f"exclusive value {metrics[excl_id]} exceeds inclusive {metrics[incl_id]}",
            )

    children_doc = doc.get("children", [])
    _require(isinstance(children_doc, list), path + ".children", "children must be a list")
    children = tuple(
        _parse_node(child, f"{path}.children[{i}]", catalog, pairs)
        for i, child in enumerate(children_doc)
    )

    for i, child in enumerate(children):
        for metric_id, info in catalog.items():
            if info.kind is not MetricKind.INCLUSIVE:
                continue
            if metric_id in metrics and metric_id in child.metrics:
                _require(
                    child.metrics[metric_id] <= metrics[metric_id] * (1 + _REL_TOL) + 1e-12,
                    f"{path}.children[{i}].metrics.{metric_id}",
                    f"child inclusive {child.metrics[metric_id]} exceeds "
                    f"parent {metrics[metric_id]}",
                )

    return ProfileNode(frame=frame, metrics=metrics, children=children)


def import_profile(document: bytes | str) -> ProfileTree:
    if isinstance(document, bytes):
        document = document.decode("utf-8", "replace")
    try:
        doc = json.loads(document)
    except ValueError as exc:
        raise SchemaViolation("$", f"not valid JSON: {exc}") from None

    _require(isinstance(doc, dict), "$", "document must be an object")
    _require(doc.get("schema") == SCHEMA_ID, "schema",
             f"expected {SCHEMA_ID!r}, got {doc.get('schema')!r}")

    metrics_doc = doc.get("metrics")
    _require(isinstance(metrics_doc, list) and metrics_doc,
             "metrics", "non-empty list required")
    catalog: dict[str, MetricInfo] = {}
    for i, entry in enumerate(metrics_doc):
        path = f"metrics[{i}]"
        _require(isinstance(entry, dict), path, "metric entry must be an object")
        metric_id = entry.get("id")
        _require(isinstance(metric_id, str) and metric_id != "",
                 path + ".id", "non-empty string required")
        _require(metric_id not in catalog, path + ".id", f"duplicate metric id {metric_id!r}")
        kind_text = entry.get("kind")
        try:
            kind = MetricKind(kind_text)
        except ValueError:
            raise SchemaViolation(
                path + ".kind",
                f"expected one of {[k.value for k in MetricKind]}, got {kind_text!r}",
            ) from None
        unit = entry.get("unit", "")
        _require(isinstance(unit, str), path + ".unit", "string required")
        catalog[metric_id] = MetricInfo(unit=unit, kind=kind)

    pairs = _excl_incl_pairs(catalog)
    roots_doc = doc.get("roots")
    _require(isinstance(roots_doc, list), "roots", "list required")
    roots = tuple(
        _parse_node(node, f"roots[{i}]", catalog, pairs)
        for i, node in enumerate(roots_doc)
    )

    total_doc = doc.get("total", {})
    _require(isinstance(total_doc, dict), "total", "object required")
    total: dict[str, float] = {}
    for metric_id, value in total_doc.items():
        path = f"total.{metric_id}"
        _require(metric_id in catalog, path, "metric id not declared in catalog")
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 path, "numeric value required")
        value = float(value)
        _require(math.isfinite(value), path, "value must be finite")
        if value < 0:
            raise NegativeMetric(path, value)
        total[metric_id] = value

    for metric_id, info in catalog.items():
        if info.kind is MetricKind.EXCLUSIVE:
            computed = _exclusive_sum(roots, metric_id)
            if metric_id in total:
                stated = total[metric_id]
                ok = stated == computed or (
                    abs(stated - computed) <= _REL_TOL * max(abs(stated), abs(computed))
                )
                _require(ok, f"total.{metric_id}",
                         f"stated total {stated} != node sum {computed}")
            else:
                total[metric_id] = computed
        elif info.kind is MetricKind.INCLUSIVE and metric_id not in total:
            total[metric_id] = sum(r.metrics.get(metric_id, 0.0) for r in roots)

    return ProfileTree(roots=roots, metric_catalog=catalog, total=total)


def summarize_for_model(
    tree: ProfileTree,
    top_k: int,
    env: dict | None = None,
    metric_id: str | None = None,
    char_budget: int = DEFAULT_CHAR_BUDGET,
) -> str:
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if metric_id is None:
        metric_id = default_exclusive_metric(tree)
    info = tree.metric_catalog.get(metric_id)
    if info is None:
        raise UnknownMetric(f"metric {metric_id!r} not in catalog")

    ranked = []
    for order, (path, node) in enumerate(walk(tree)):
        value = node.metrics.get(metric_id)
        if value is not None:
            ranked.append((-value, order, path, node))
    ranked.sort()

    total = tree.total.get(metric_id, 0.0)
    unit = f", {info.unit}" if info.unit else ""
    lines = [f"Top {min(top_k, len(ranked))} frames by {metric_id}{unit}:"]
    for rank, (neg_value, _, path, node) in enumerate(ranked[:top_k], start=1):
        share = (-neg_value) / total if total > 0 else 0.0
        frame = node.frame
        location = f"{frame.file}:{frame.line}" if frame.file else "?"
        lines.append(f"  {rank}. {frame.fn} at {location} ({share * 100:.1f}%)")
    if env:
        parts = [f"{key}={env[key]}" for key in _ENV_KEYS if key in env and env[key] is not None]
        if parts:
            lines.append("Environment: " + ", ".join(parts))

    text = "\n".join(lines)
    if len(text) <= char_budget:
        return text
    kept: list[str] = []
    used = 0
    for line in lines:
        cost = len(line) + (1 if kept else 0)
        if used + cost + len(TRUNCATION_MARKER) + 1 > char_budget:
            break
        kept.append(line)
        used += cost
    if not kept:
        return TRUNCATION_MARKER
    return "\n".join(kept) + "\n" + TRUNCATION_MARKER
