"""Calling-context-tree profiles: import, hotspot extraction, diffs.

The JSON schema is deliberately profiler-neutral (versioned "cct-v1") so
converters from real profilers can be bolted on externally while tests run
on synthetic fixtures:

    {
      "schema": "cct-v1",
      "metrics": [{"id": "time_excl", "unit": "s", "kind": "Exclusive"}],
      "roots": [
        {"frame": {"fn": "main", "file": "main.c", "line": 3},
         "metrics": {"time_excl": 2.0},
         "children": [...]}
      ],
      "total": {"time_excl": 25.0}
    }

Metric ids ending in "_excl"/"_incl" with a shared stem are treated as an
exclusive/inclusive pair for per-node sanity checks. Totals for exclusive
metrics are summed over all nodes when the document omits them and
validated to 1e-9 relative when it does not. Trees are immutable after
import; every operation here is pure.

``import_profile`` reads each node once. Its checks run inline, and the
path of a node (``roots[0].children[2]``) is assembled from a chain of
indices only when a check fails, so a valid tree costs no error-path
strings. Errors name the first violation in document order, children
before the inclusive bounds their parent puts on them.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from enum import Enum

SCHEMA_ID = "cct-v1"
TRUNCATION_MARKER = "[truncated]"
DEFAULT_CHAR_BUDGET = 2000

_REL_TOL = 1e-9


class ProfileError(Exception):
    pass


class SchemaViolation(ProfileError):
    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class NegativeMetric(ProfileError):
    def __init__(self, path: str, value: float):
        super().__init__(f"{path}: negative metric value {value}")
        self.path = path
        self.value = value


class UnknownMetric(ProfileError):
    pass


class NodeNotFound(ProfileError):
    def __init__(self, which: str, path: tuple[str, ...]):
        super().__init__(f"{which} tree has no node at {' > '.join(path)}")
        self.which = which
        self.node_path = path


class MetricKind(Enum):
    INCLUSIVE = "Inclusive"
    EXCLUSIVE = "Exclusive"
    RATE = "Rate"


@dataclass(frozen=True)
class MetricInfo:
    unit: str
    kind: MetricKind


@dataclass(frozen=True)
class Frame:
    fn: str
    file: str
    line: int


@dataclass(frozen=True)
class ProfileNode:
    frame: Frame
    metrics: dict[str, float]
    children: tuple["ProfileNode", ...] = ()


@dataclass(frozen=True)
class ProfileTree:
    roots: tuple[ProfileNode, ...]
    metric_catalog: dict[str, MetricInfo]
    total: dict[str, float]


@dataclass(frozen=True)
class HotspotReport:
    path: tuple[Frame, ...]
    node: ProfileNode
    metric_id: str
    value: float
    share: float


@dataclass(frozen=True)
class DeltaEntry:
    before: float
    after: float
    relative_change: float | None


@dataclass(frozen=True)
class MetricDelta:
    path: tuple[str, ...]
    entries: dict[str, DeltaEntry] = field(default_factory=dict)


def _require(condition: bool, path: str, reason: str) -> None:
    if not condition:
        raise SchemaViolation(path, reason)


def _parse_frame(doc, path: str) -> Frame:
    _require(isinstance(doc, dict), path, "frame must be an object")
    fn = doc.get("fn")
    file = doc.get("file", "")
    line = doc.get("line", 0)
    _require(isinstance(fn, str) and fn != "", path + ".fn", "non-empty string required")
    _require(isinstance(file, str), path + ".file", "string required")
    _require(isinstance(line, int) and not isinstance(line, bool) and line >= 0,
             path + ".line", "non-negative integer required")
    return Frame(fn=fn, file=file, line=line)


def _parse_metrics(doc, path: str, catalog: dict[str, MetricInfo]) -> dict[str, float]:
    _require(isinstance(doc, dict), path, "metrics must be an object")
    out: dict[str, float] = {}
    for metric_id, value in doc.items():
        mpath = f"{path}.{metric_id}"
        _require(metric_id in catalog, mpath, "metric id not declared in catalog")
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 mpath, "numeric value required")
        value = float(value)
        _require(math.isfinite(value), mpath, "value must be finite")
        if value < 0:
            raise NegativeMetric(mpath, value)
        out[metric_id] = value
    return out


def _excl_incl_pairs(catalog: dict[str, MetricInfo]) -> list[tuple[str, str]]:
    pairs = []
    for metric_id, info in catalog.items():
        if info.kind is MetricKind.EXCLUSIVE and metric_id.endswith("_excl"):
            partner = metric_id[: -len("_excl")] + "_incl"
            if catalog.get(partner, MetricInfo("", MetricKind.RATE)).kind is MetricKind.INCLUSIVE:
                pairs.append((metric_id, partner))
    return pairs


def _node_path(link: tuple) -> str:
    """The ``roots[i].children[j]...`` path of a node's link chain."""
    indices = []
    while link is not None:
        link, index = link
        indices.append(index)
    path = f"roots[{indices.pop()}]"
    return path + "".join(f".children[{i}]" for i in reversed(indices))


_new = object.__new__
_INF = math.inf
_NO_CHILDREN: list = []  # read only


def _parse_node(
    doc,
    link: tuple,
    catalog: dict[str, MetricInfo],
    pairs: list[tuple[str, str]],
    inclusive: list[str],
    finished: list[dict[str, float]],
) -> ProfileNode:
    """One node and its subtree. ``link`` is ``(parent_link, index)``, with
    ``(None, i)`` for ``roots[i]``. Checks run inline in the order of the
    schema's rules; the path is built and the checking helpers called only
    once a check has failed, so every error carries the same class, path
    and message as a check-by-check parse would raise first. A node's
    metrics go on ``finished`` once its subtree is parsed, so the list
    ends in post-order."""
    if type(doc) is not dict or "frame" not in doc:
        path = _node_path(link)
        _require(isinstance(doc, dict), path, "node must be an object")
        raise SchemaViolation(path, "missing frame")

    frame_doc = doc["frame"]
    if type(frame_doc) is dict:
        fn = frame_doc.get("fn")
        file = frame_doc.get("file", "")
        line = frame_doc.get("line", 0)
    if (
        type(frame_doc) is dict
        and type(fn) is str and fn
        and type(file) is str
        and type(line) is int and line >= 0
    ):
        # A frozen dataclass's __init__ sets each field through
        # object.__setattr__; filling the new instance's dict directly
        # makes the same object for about half the cost. Reads then go
        # through that dict, a little slower; the import saves more.
        frame = _new(Frame)
        fields = frame.__dict__
        fields["fn"] = fn
        fields["file"] = file
        fields["line"] = line
    else:
        frame = _parse_frame(frame_doc, _node_path(link) + ".frame")

    # The document's own metrics object is kept when every value is
    # already a finite, non-negative float of the catalog.
    metrics = doc.get("metrics", {})
    if type(metrics) is dict:
        for metric_id, value in metrics.items():
            if type(value) is not float or not 0.0 <= value < _INF or metric_id not in catalog:
                metrics = _parse_metrics(metrics, _node_path(link) + ".metrics", catalog)
                break
    else:
        metrics = _parse_metrics(metrics, _node_path(link) + ".metrics", catalog)

    for excl_id, incl_id in pairs:
        if excl_id in metrics and incl_id in metrics:
            if not metrics[excl_id] <= metrics[incl_id] * (1 + _REL_TOL) + 1e-12:
                raise SchemaViolation(
                    f"{_node_path(link)}.metrics.{excl_id}",
                    f"exclusive value {metrics[excl_id]} exceeds inclusive {metrics[incl_id]}",
                )

    children_doc = doc.get("children", _NO_CHILDREN)
    if type(children_doc) is not list:
        raise SchemaViolation(_node_path(link) + ".children", "children must be a list")
    children = ()
    if children_doc:
        # Plain loops: a comprehension costs a function call per node.
        parsed = []
        for i, child in enumerate(children_doc):
            parsed.append(_parse_node(child, (link, i), catalog, pairs, inclusive, finished))
        children = tuple(parsed)
        limits = []
        for metric_id in inclusive:
            if metric_id in metrics:
                limits.append((metric_id, metrics[metric_id] * (1 + _REL_TOL) + 1e-12))
        for i, child in enumerate(children):
            for metric_id, limit in limits:
                if metric_id in child.metrics and not child.metrics[metric_id] <= limit:
                    raise SchemaViolation(
                        f"{_node_path((link, i))}.metrics.{metric_id}",
                        f"child inclusive {child.metrics[metric_id]} exceeds "
                        f"parent {metrics[metric_id]}",
                    )

    finished.append(metrics)
    node = _new(ProfileNode)
    fields = node.__dict__
    fields["frame"] = frame
    fields["metrics"] = metrics
    fields["children"] = children
    return node


def walk(tree: ProfileTree):
    """Yield (path_of_frames, node) in depth-first pre-order."""
    stack = [((root.frame,), root) for root in reversed(tree.roots)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for child in reversed(node.children):
            stack.append((path + (child.frame,), child))


def import_profile(document: bytes | str) -> ProfileTree:
    """Parse and validate a cct-v1 JSON document."""
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
    inclusive = [m for m, info in catalog.items() if info.kind is MetricKind.INCLUSIVE]
    roots_doc = doc.get("roots")
    _require(isinstance(roots_doc, list), "roots", "list required")
    finished: list[dict[str, float]] = []
    roots = tuple(
        _parse_node(node, (None, i), catalog, pairs, inclusive, finished)
        for i, node in enumerate(roots_doc)
    )

    total_doc = doc.get("total", {})
    _require(isinstance(total_doc, dict), "total", "object required")
    total = _parse_metrics(total_doc, "total", catalog)

    for metric_id, info in catalog.items():
        if info.kind is MetricKind.EXCLUSIVE:
            # Reverse post-order visits the nodes in the order of a stack
            # walk that pushes each node's children left to right, the
            # order the sum has always been taken in.
            computed = 0.0
            for metrics in reversed(finished):
                computed += metrics.get(metric_id, 0.0)
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


def _node_to_doc(node: ProfileNode) -> dict:
    return {
        "frame": {"fn": node.frame.fn, "file": node.frame.file, "line": node.frame.line},
        "metrics": {k: node.metrics[k] for k in sorted(node.metrics)},
        "children": [_node_to_doc(c) for c in node.children],
    }


def serialize_profile(tree: ProfileTree) -> bytes:
    """Deterministic cct-v1 rendering; import(serialize(t)) == t."""
    doc = {
        "schema": SCHEMA_ID,
        "metrics": [
            {"id": metric_id, "unit": info.unit, "kind": info.kind.value}
            for metric_id, info in sorted(tree.metric_catalog.items())
        ],
        "roots": [_node_to_doc(r) for r in tree.roots],
        "total": {k: tree.total[k] for k in sorted(tree.total)},
    }
    return json.dumps(doc, indent=2, sort_keys=False).encode("utf-8")


def default_exclusive_metric(tree: ProfileTree) -> str:
    """"time_excl" when declared, else the first exclusive metric."""
    if tree.metric_catalog.get("time_excl", MetricInfo("", MetricKind.RATE)).kind \
            is MetricKind.EXCLUSIVE:
        return "time_excl"
    for metric_id, info in tree.metric_catalog.items():
        if info.kind is MetricKind.EXCLUSIVE:
            return metric_id
    raise UnknownMetric("tree declares no exclusive metric")


def hotspot(tree: ProfileTree, metric_id: str) -> HotspotReport:
    """Node with the largest exclusive value; pre-order first wins ties."""
    info = tree.metric_catalog.get(metric_id)
    if info is None:
        raise UnknownMetric(f"metric {metric_id!r} not in catalog")
    if info.kind is not MetricKind.EXCLUSIVE:
        raise UnknownMetric(f"metric {metric_id!r} is {info.kind.value}, not Exclusive")

    best: tuple[tuple[Frame, ...], ProfileNode] | None = None
    best_value = -1.0
    for path, node in walk(tree):
        value = node.metrics.get(metric_id)
        if value is not None and value > best_value:
            best = (path, node)
            best_value = value
    if best is None:
        raise UnknownMetric(f"metric {metric_id!r} appears on no node")

    total = tree.total.get(metric_id, 0.0)
    if total <= 0:
        raise UnknownMetric(f"metric {metric_id!r} has no weight to share")
    path, node = best
    return HotspotReport(
        path=path, node=node, metric_id=metric_id,
        value=best_value, share=best_value / total,
    )


_ENV_KEYS = ("threads", "ranks", "iterations", "hardware")


def summarize_for_model(
    tree: ProfileTree,
    top_k: int,
    env: dict | None = None,
    metric_id: str | None = None,
    char_budget: int = DEFAULT_CHAR_BUDGET,
) -> str:
    """Deterministic hotspot digest sized for a prompt."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if metric_id is None:
        metric_id = default_exclusive_metric(tree)
    info = tree.metric_catalog.get(metric_id)
    if info is None:
        raise UnknownMetric(f"metric {metric_id!r} not in catalog")

    # Walk order breaks ties, so no two entries ever compare their nodes.
    ranked = []
    stack = list(reversed(tree.roots))
    while stack:
        node = stack.pop()
        value = node.metrics.get(metric_id)
        if value is not None:
            ranked.append((-value, len(ranked), node))
        stack.extend(reversed(node.children))

    total = tree.total.get(metric_id, 0.0)
    unit = f", {info.unit}" if info.unit else ""
    lines = [f"Top {min(top_k, len(ranked))} frames by {metric_id}{unit}:"]
    for rank, (neg_value, _, node) in enumerate(heapq.nsmallest(top_k, ranked), start=1):
        share = (-neg_value) / total if total > 0 else 0.0
        frame = node.frame
        location = f"{frame.file}:{frame.line}" if frame.file else "?"
        lines.append(f"  {rank}. {frame.fn} at {location} ({share * 100:.1f}%)")
    if env:
        parts = [f"{key}={env[key]}" for key in _ENV_KEYS if key in env and env[key] is not None]
        if parts:
            lines.append("Environment: " + ", ".join(parts))

    return fit_lines(lines, char_budget, TRUNCATION_MARKER)


def fit_lines(lines: list[str], budget: int, marker: str) -> str:
    """``lines`` joined by newlines when that fits ``budget`` characters,
    else the longest prefix that fits with ``marker`` on a line after it:
    the marker alone when not even one line fits, even if itself over
    budget."""
    text = "\n".join(lines)
    if len(text) <= budget:
        return text
    kept: list[str] = []
    used = 0
    for line in lines:
        cost = len(line) + (1 if kept else 0)
        if used + cost + len(marker) + 1 > budget:
            break
        kept.append(line)
        used += cost
    return "\n".join(kept + [marker])


def find_node(tree: ProfileTree, fn_path: tuple[str, ...] | list[str]) -> ProfileNode | None:
    """Resolve a function-name chain from a root; line numbers ignored."""
    fn_path = tuple(fn_path)
    if not fn_path:
        return None
    level = tree.roots
    node = None
    for name in fn_path:
        node = next((n for n in level if n.frame.fn == name), None)
        if node is None:
            return None
        level = node.children
    return node


def diff_metrics(
    before: ProfileTree, after: ProfileTree, fn_path: tuple[str, ...] | list[str]
) -> MetricDelta:
    """Per-metric before/after on one node, matched by function-name chain."""
    fn_path = tuple(fn_path)
    node_before = find_node(before, fn_path)
    if node_before is None:
        raise NodeNotFound("before", fn_path)
    node_after = find_node(after, fn_path)
    if node_after is None:
        raise NodeNotFound("after", fn_path)

    entries: dict[str, DeltaEntry] = {}
    for metric_id in sorted(set(node_before.metrics) & set(node_after.metrics)):
        b = node_before.metrics[metric_id]
        a = node_after.metrics[metric_id]
        entries[metric_id] = DeltaEntry(
            before=b, after=a,
            relative_change=(a - b) / b if b != 0 else None,
        )
    return MetricDelta(path=fn_path, entries=entries)
