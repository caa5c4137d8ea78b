"""Profile import, invariants, hotspot math, summaries, diffs."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfagent import profile as pr

import reference_impl


def doc_bytes(doc):
    return json.dumps(doc).encode()


def cg_fixture():
    """main 2.0s with conj_grad 22.0s and init 1.0s below it."""
    return {
        "schema": "cct-v1",
        "metrics": [{"id": "time_excl", "unit": "s", "kind": "Exclusive"}],
        "roots": [
            {
                "frame": {"fn": "main", "file": "cg.c", "line": 40},
                "metrics": {"time_excl": 2.0},
                "children": [
                    {
                        "frame": {"fn": "conj_grad", "file": "cg.c", "line": 152},
                        "metrics": {"time_excl": 22.0},
                        "children": [],
                    },
                    {
                        "frame": {"fn": "init", "file": "cg.c", "line": 12},
                        "metrics": {"time_excl": 1.0},
                        "children": [],
                    },
                ],
            }
        ],
    }


def xs_fixture():
    """Lookup kernel holding 28.3s of a 39.5s run."""
    return {
        "schema": "cct-v1",
        "metrics": [{"id": "time_excl", "unit": "s", "kind": "Exclusive"}],
        "roots": [
            {
                "frame": {"fn": "main", "file": "Main.c", "line": 30},
                "metrics": {"time_excl": 5.0},
                "children": [
                    {
                        "frame": {"fn": "calculate_macro_xs", "file": "XSutils.c", "line": 85},
                        "metrics": {"time_excl": 28.3},
                        "children": [],
                    },
                    {
                        "frame": {"fn": "grid_search", "file": "XSutils.c", "line": 20},
                        "metrics": {"time_excl": 6.2},
                        "children": [],
                    },
                ],
            }
        ],
        "total": {"time_excl": 39.5},
    }


def fixture_exclusive_sum(doc, metric_id="time_excl"):
    """Independent total: walk the raw dict, no importer involved."""
    acc = 0.0
    stack = list(doc["roots"])
    while stack:
        node = stack.pop()
        acc += node.get("metrics", {}).get(metric_id, 0.0)
        stack.extend(node.get("children", []))
    return acc


class TestImport:
    def test_single_node_total(self):
        doc = {
            "schema": "cct-v1",
            "metrics": [{"id": "time_excl", "unit": "s", "kind": "Exclusive"}],
            "roots": [{"frame": {"fn": "main", "file": "m.c", "line": 1},
                       "metrics": {"time_excl": 10.0}, "children": []}],
        }
        tree = pr.import_profile(doc_bytes(doc))
        assert tree.total["time_excl"] == 10.0
        assert len(tree.roots) == 1
        assert tree.roots[0].frame == pr.Frame("main", "m.c", 1)

    def test_three_node_total_matches_hand_sum(self):
        doc = cg_fixture()
        expected = fixture_exclusive_sum(doc)
        assert expected == 25.0
        tree = pr.import_profile(doc_bytes(doc))
        assert abs(tree.total["time_excl"] - expected) <= 1e-9 * expected

    def test_stated_total_validated_ok(self):
        tree = pr.import_profile(doc_bytes(xs_fixture()))
        assert tree.total["time_excl"] == 39.5

    def test_stated_total_mismatch_rejected(self):
        doc = cg_fixture()
        doc["total"] = {"time_excl": 26.0}
        with pytest.raises(pr.SchemaViolation) as err:
            pr.import_profile(doc_bytes(doc))
        assert err.value.path == "total.time_excl"

    def test_stated_total_within_tolerance_accepted(self):
        doc = cg_fixture()
        doc["total"] = {"time_excl": 25.0 * (1 + 1e-10)}
        pr.import_profile(doc_bytes(doc))

    def test_child_inclusive_exceeding_parent_rejected(self):
        doc = {
            "schema": "cct-v1",
            "metrics": [{"id": "time_incl", "unit": "s", "kind": "Inclusive"}],
            "roots": [{
                "frame": {"fn": "main", "file": "m.c", "line": 1},
                "metrics": {"time_incl": 5.0},
                "children": [{
                    "frame": {"fn": "work", "file": "m.c", "line": 9},
                    "metrics": {"time_incl": 6.0},
                    "children": [],
                }],
            }],
        }
        with pytest.raises(pr.SchemaViolation) as err:
            pr.import_profile(doc_bytes(doc))
        assert "children[0]" in err.value.path

    def test_exclusive_above_inclusive_rejected(self):
        doc = {
            "schema": "cct-v1",
            "metrics": [
                {"id": "time_excl", "unit": "s", "kind": "Exclusive"},
                {"id": "time_incl", "unit": "s", "kind": "Inclusive"},
            ],
            "roots": [{"frame": {"fn": "main", "file": "m.c", "line": 1},
                       "metrics": {"time_excl": 7.0, "time_incl": 5.0},
                       "children": []}],
        }
        with pytest.raises(pr.SchemaViolation):
            pr.import_profile(doc_bytes(doc))

    def test_exclusive_below_inclusive_accepted(self):
        doc = {
            "schema": "cct-v1",
            "metrics": [
                {"id": "time_excl", "unit": "s", "kind": "Exclusive"},
                {"id": "time_incl", "unit": "s", "kind": "Inclusive"},
            ],
            "roots": [{"frame": {"fn": "main", "file": "m.c", "line": 1},
                       "metrics": {"time_excl": 7.0, "time_incl": 9.0},
                       "children": []}],
        }
        tree = pr.import_profile(doc_bytes(doc))
        assert tree.total["time_excl"] == 7.0
        assert tree.total["time_incl"] == 9.0

    def test_negative_metric_rejected(self):
        doc = cg_fixture()
        doc["roots"][0]["metrics"]["time_excl"] = -1.0
        with pytest.raises(pr.NegativeMetric) as err:
            pr.import_profile(doc_bytes(doc))
        assert err.value.path == "roots[0].metrics.time_excl"

    def test_non_finite_metric_rejected(self):
        doc = cg_fixture()
        doc["roots"][0]["metrics"]["time_excl"] = float("nan")
        blob = json.dumps(doc, allow_nan=True).encode()
        with pytest.raises(pr.SchemaViolation):
            pr.import_profile(blob)

    def test_undeclared_metric_rejected_with_path(self):
        doc = cg_fixture()
        doc["roots"][0]["children"][0]["metrics"]["l1_miss"] = 3.0
        with pytest.raises(pr.SchemaViolation) as err:
            pr.import_profile(doc_bytes(doc))
        assert err.value.path == "roots[0].children[0].metrics.l1_miss"

    def test_wrong_schema_id_rejected(self):
        doc = cg_fixture()
        doc["schema"] = "cct-v2"
        with pytest.raises(pr.SchemaViolation) as err:
            pr.import_profile(doc_bytes(doc))
        assert err.value.path == "schema"

    def test_bad_kind_rejected(self):
        doc = cg_fixture()
        doc["metrics"][0]["kind"] = "Total"
        with pytest.raises(pr.SchemaViolation):
            pr.import_profile(doc_bytes(doc))

    def test_duplicate_metric_id_rejected(self):
        doc = cg_fixture()
        doc["metrics"].append({"id": "time_excl", "unit": "s", "kind": "Exclusive"})
        with pytest.raises(pr.SchemaViolation):
            pr.import_profile(doc_bytes(doc))

    def test_garbage_bytes_rejected(self):
        with pytest.raises(pr.SchemaViolation) as err:
            pr.import_profile(b"not json {")
        assert err.value.path == "$"

    def test_missing_frame_name_rejected(self):
        doc = cg_fixture()
        del doc["roots"][0]["frame"]["fn"]
        with pytest.raises(pr.SchemaViolation):
            pr.import_profile(doc_bytes(doc))

    def test_boolean_metric_value_rejected(self):
        doc = cg_fixture()
        doc["roots"][0]["metrics"]["time_excl"] = True
        with pytest.raises(pr.SchemaViolation):
            pr.import_profile(doc_bytes(doc))

    def test_rate_metric_gets_no_total(self):
        doc = cg_fixture()
        doc["metrics"].append({"id": "l1_miss_rate", "unit": "1", "kind": "Rate"})
        doc["roots"][0]["metrics"]["l1_miss_rate"] = 0.02
        tree = pr.import_profile(doc_bytes(doc))
        assert "l1_miss_rate" not in tree.total

    def test_str_input_accepted(self):
        tree = pr.import_profile(json.dumps(cg_fixture()))
        assert tree.total["time_excl"] == 25.0


class TestHotspot:
    def test_cg_hotspot_and_share(self):
        doc = cg_fixture()
        oracle_total = fixture_exclusive_sum(doc)
        tree = pr.import_profile(doc_bytes(doc))
        report = pr.hotspot(tree, "time_excl")
        assert report.node.frame.fn == "conj_grad"
        assert report.value == 22.0
        assert report.share == 22.0 / oracle_total
        assert f"{report.share * 100:.1f}%" == "88.0%"
        assert [f.fn for f in report.path] == ["main", "conj_grad"]

    def test_xs_share_within_published_band(self):
        tree = pr.import_profile(doc_bytes(xs_fixture()))
        report = pr.hotspot(tree, "time_excl")
        assert report.node.frame.fn == "calculate_macro_xs"
        assert 0.716 <= report.share <= 0.717
        assert abs(report.share - 28.3 / 39.5) < 1e-12

    def test_single_node_share_is_exactly_one(self):
        doc = {
            "schema": "cct-v1",
            "metrics": [{"id": "time_excl", "unit": "s", "kind": "Exclusive"}],
            "roots": [{"frame": {"fn": "only", "file": "o.c", "line": 1},
                       "metrics": {"time_excl": 0.37}, "children": []}],
        }
        report = pr.hotspot(pr.import_profile(doc_bytes(doc)), "time_excl")
        assert report.share == 1.0

    def test_tie_breaks_to_preorder_first(self):
        doc = {
            "schema": "cct-v1",
            "metrics": [{"id": "time_excl", "unit": "s", "kind": "Exclusive"}],
            "roots": [{
                "frame": {"fn": "root", "file": "r.c", "line": 1},
                "metrics": {"time_excl": 5.0},
                "children": [
                    {"frame": {"fn": "twin_a", "file": "r.c", "line": 5},
                     "metrics": {"time_excl": 5.0}, "children": []},
                    {"frame": {"fn": "twin_b", "file": "r.c", "line": 9},
                     "metrics": {"time_excl": 5.0}, "children": []},
                ],
            }],
        }
        report = pr.hotspot(pr.import_profile(doc_bytes(doc)), "time_excl")
        assert report.node.frame.fn == "root"

    def test_unknown_metric(self):
        tree = pr.import_profile(doc_bytes(cg_fixture()))
        with pytest.raises(pr.UnknownMetric):
            pr.hotspot(tree, "nope_excl")

    def test_inclusive_metric_rejected_for_hotspot(self):
        doc = cg_fixture()
        doc["metrics"].append({"id": "time_incl", "unit": "s", "kind": "Inclusive"})
        doc["roots"][0]["metrics"]["time_incl"] = 25.0
        tree = pr.import_profile(doc_bytes(doc))
        with pytest.raises(pr.UnknownMetric):
            pr.hotspot(tree, "time_incl")


class TestSummarize:
    def test_top_one_line(self):
        tree = pr.import_profile(doc_bytes(cg_fixture()))
        text = pr.summarize_for_model(tree, top_k=1)
        assert "conj_grad" in text
        assert "cg.c:152" in text
        assert "88.0%" in text
        assert "init" not in text

    def test_deterministic(self):
        tree_a = pr.import_profile(doc_bytes(cg_fixture()))
        tree_b = pr.import_profile(doc_bytes(cg_fixture()))
        env = {"threads": 8, "hardware": "1-socket test box"}
        assert (pr.summarize_for_model(tree_a, 3, env)
                == pr.summarize_for_model(tree_b, 3, env))

    def test_env_block_rendering_and_order(self):
        tree = pr.import_profile(doc_bytes(cg_fixture()))
        text = pr.summarize_for_model(
            tree, 1, {"hardware": "EPYC", "threads": 8, "iterations": 3}
        )
        assert "Environment: threads=8, iterations=3, hardware=EPYC" in text

    def test_empty_env_omitted(self):
        tree = pr.import_profile(doc_bytes(cg_fixture()))
        for env in (None, {}):
            assert "Environment" not in pr.summarize_for_model(tree, 1, env)

    def test_ranking_order(self):
        tree = pr.import_profile(doc_bytes(cg_fixture()))
        text = pr.summarize_for_model(tree, 3)
        assert text.index("conj_grad") < text.index("main")
        assert text.index("main") < text.index("init")

    def test_tiny_budget_marker_only(self):
        tree = pr.import_profile(doc_bytes(cg_fixture()))
        text = pr.summarize_for_model(tree, 3, char_budget=4)
        assert text == pr.TRUNCATION_MARKER

    def test_mid_budget_keeps_whole_lines(self):
        tree = pr.import_profile(doc_bytes(cg_fixture()))
        full = pr.summarize_for_model(tree, 3)
        budget = len(full) - 5
        text = pr.summarize_for_model(tree, 3, char_budget=budget)
        assert text.endswith(pr.TRUNCATION_MARKER)
        assert len(text) <= budget
        for line in text.splitlines()[:-1]:
            assert line in full

    def test_top_k_validated(self):
        tree = pr.import_profile(doc_bytes(cg_fixture()))
        with pytest.raises(ValueError):
            pr.summarize_for_model(tree, 0)


class TestDiff:
    def test_identical_trees_zero_change(self):
        before = pr.import_profile(doc_bytes(cg_fixture()))
        after = pr.import_profile(doc_bytes(cg_fixture()))
        delta = pr.diff_metrics(before, after, ("main", "conj_grad"))
        assert delta.entries["time_excl"].relative_change == 0.0

    def test_hotspot_runtime_drop(self):
        before = pr.import_profile(doc_bytes(xs_fixture()))
        doc = xs_fixture()
        doc["roots"][0]["children"][0]["metrics"]["time_excl"] = 20.2
        del doc["total"]
        after = pr.import_profile(doc_bytes(doc))
        delta = pr.diff_metrics(before, after, ("main", "calculate_macro_xs"))
        entry = delta.entries["time_excl"]
        assert entry.before == 28.3
        assert entry.after == 20.2
        assert abs(entry.relative_change - (20.2 - 28.3) / 28.3) < 1e-12
        assert abs(entry.relative_change + 0.286) < 5e-4

    def test_node_missing_in_after(self):
        before = pr.import_profile(doc_bytes(cg_fixture()))
        doc = cg_fixture()
        doc["roots"][0]["children"][0]["frame"]["fn"] = "conj_grad_v2"
        after = pr.import_profile(doc_bytes(doc))
        with pytest.raises(pr.NodeNotFound) as err:
            pr.diff_metrics(before, after, ("main", "conj_grad"))
        assert err.value.which == "after"

    def test_zero_before_has_no_relative_change(self):
        doc = cg_fixture()
        doc["roots"][0]["metrics"]["time_excl"] = 0.0
        before = pr.import_profile(doc_bytes(doc))
        after = pr.import_profile(doc_bytes(cg_fixture()))
        delta = pr.diff_metrics(before, after, ("main",))
        assert delta.entries["time_excl"].relative_change is None

    def test_matching_ignores_line_numbers(self):
        before = pr.import_profile(doc_bytes(cg_fixture()))
        doc = cg_fixture()
        doc["roots"][0]["children"][0]["frame"]["line"] = 999
        after = pr.import_profile(doc_bytes(doc))
        delta = pr.diff_metrics(before, after, ("main", "conj_grad"))
        assert delta.entries["time_excl"].before == 22.0


def random_tree_doc(seed):
    rng = random.Random(seed)
    counter = [0]

    def node(depth):
        counter[0] += 1
        excl = rng.randint(0, 400) / 4.0
        children = []
        if depth < 3:
            for _ in range(rng.randint(0, 3 - depth)):
                children.append(node(depth + 1))
        incl = excl + sum(c["metrics"]["time_incl"] for c in children)
        return {
            "frame": {"fn": f"fn_{counter[0]}", "file": "gen.c",
                      "line": rng.randint(1, 500)},
            "metrics": {"time_excl": excl, "time_incl": incl},
            "children": children,
        }

    roots = [node(0) for _ in range(rng.randint(1, 3))]
    return {
        "schema": "cct-v1",
        "metrics": [
            {"id": "time_excl", "unit": "s", "kind": "Exclusive"},
            {"id": "time_incl", "unit": "s", "kind": "Inclusive"},
        ],
        "roots": roots,
    }


class TestProperties:
    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_import_serialize_import_fixed_point(self, seed):
        tree = pr.import_profile(doc_bytes(random_tree_doc(seed)))
        again = pr.import_profile(pr.serialize_profile(tree))
        assert again == tree
        assert pr.serialize_profile(again) == pr.serialize_profile(tree)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_exclusive_total_matches_walk(self, seed):
        tree = pr.import_profile(doc_bytes(random_tree_doc(seed)))
        acc = sum(node.metrics.get("time_excl", 0.0) for _, node in pr.walk(tree))
        stated = tree.total["time_excl"]
        assert abs(stated - acc) <= 1e-9 * max(abs(stated), abs(acc), 1.0)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_hotspot_share_in_unit_interval(self, seed):
        tree = pr.import_profile(doc_bytes(random_tree_doc(seed)))
        if tree.total["time_excl"] <= 0:
            return
        report = pr.hotspot(tree, "time_excl")
        assert 0.0 < report.share <= 1.0
        node_count = sum(1 for _ in pr.walk(tree))
        if node_count == 1:
            assert report.share == 1.0
        values = [n.metrics["time_excl"] for _, n in pr.walk(tree)]
        assert report.value == max(values)


# Catalog entries the generated trees draw from: an exclusive/inclusive
# pair, an unpaired exclusive, an unpaired inclusive and a rate.
_CATALOG = (
    ("time_excl", "Exclusive"),
    ("time_incl", "Inclusive"),
    ("l1_excl", "Exclusive"),
    ("bytes_incl", "Inclusive"),
    ("miss_rate", "Rate"),
)
_VALUES = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def cct_docs(draw, full=False):
    """A valid cct-v1 document. Members with defaults are sometimes left
    out; inclusive values cover their exclusive partner and children.
    With ``full`` every node carries time_excl and time_incl."""
    entries = draw(st.permutations(_CATALOG))
    if not full:
        entries = entries[: draw(st.integers(1, len(entries)))]
    ids = [metric_id for metric_id, _ in entries]
    budget = [draw(st.integers(1, 12))]

    def node(depth):
        children = []
        while depth < 4 and budget[0] > 0 and draw(st.booleans()):
            budget[0] -= 1
            children.append(node(depth + 1))
        frame = {"fn": draw(st.text(min_size=1, max_size=6))}
        if draw(st.booleans()):
            frame["file"] = draw(st.text(max_size=6))
        if draw(st.booleans()):
            frame["line"] = draw(st.integers(0, 5000))
        metrics = {}
        for metric_id in draw(st.permutations(ids)):
            if full and metric_id in ("time_excl", "time_incl") or draw(st.booleans()):
                metrics[metric_id] = draw(_VALUES)
        for metric_id in ("time_incl", "bytes_incl"):
            if metric_id in metrics:
                covered = [c.get("metrics", {}).get(metric_id, 0) for c in children]
                if metric_id == "time_incl":
                    covered.append(metrics.get("time_excl", 0))
                metrics[metric_id] = sum(covered, metrics[metric_id])
        out = {"frame": frame}
        if metrics or draw(st.booleans()):
            out["metrics"] = metrics
        if children or draw(st.booleans()):
            out["children"] = children
        return out

    roots = [node(0) for _ in range(draw(st.integers(0, 3)))]
    return {
        "schema": "cct-v1",
        "metrics": [{"id": i, "unit": "s", "kind": k} for i, k in entries],
        "roots": roots,
    }


def _preorder(doc):
    """(node, parent) for every node of a document, roots first."""
    stack = [(n, None) for n in reversed(doc["roots"])]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        stack.extend((c, node) for c in reversed(node.get("children", [])))


def _outcome(importer, blob):
    try:
        return importer(blob)
    except pr.ProfileError as exc:
        return type(exc), exc.path, str(exc)


_MUTATIONS = (
    "bool_line", "negative_line", "empty_fn", "undeclared_metric", "negative_metric",
    "nan_metric", "inf_metric", "excl_above_incl", "child_above_parent", "children_not_list",
    "missing_frame", "node_not_object",
)


def _mutate(doc, kind, index):
    """Break one node of ``doc`` (pre-order ``index``) in place."""
    nodes = list(_preorder(doc))
    node, parent = nodes[index % len(nodes)]
    metrics = node.setdefault("metrics", {})
    if kind == "bool_line":
        node["frame"]["line"] = True
    elif kind == "negative_line":
        node["frame"]["line"] = -1
    elif kind == "empty_fn":
        node["frame"]["fn"] = ""
    elif kind == "undeclared_metric":
        metrics["undeclared"] = 1.0
    elif kind == "negative_metric":
        metrics["time_excl"] = -0.5
    elif kind == "nan_metric":
        metrics["time_incl"] = float("nan")
    elif kind == "inf_metric":
        metrics["l1_excl"] = float("inf")
    elif kind == "excl_above_incl":
        metrics["time_excl"] = metrics["time_incl"] * 2 + 1
    elif kind == "child_above_parent":
        if parent is None:
            node, parent = nodes[0][0].setdefault("children", []), nodes[0][0]
            node.append({"frame": {"fn": "extra"}, "metrics": {}})
            node = node[-1]
        node["metrics"] = {"time_incl": parent["metrics"]["time_incl"] * 2 + 1}
    elif kind == "children_not_list":
        node["children"] = {"0": node.get("children", [])}
    elif kind == "missing_frame":
        del node["frame"]
    elif kind == "node_not_object":
        siblings = parent["children"] if parent else doc["roots"]
        siblings[siblings.index(node)] = ["not", "a", "node"]


def agent_shaped_doc(seed, stated_totals):
    """A cct-v1 tree shaped like the agent benchmark's: main over 14
    callees, each with fanout 3 to depth 4 (561 nodes), and four metrics.
    ``stated_totals`` states every metric's total, summed in document order."""
    rng = random.Random(seed)

    def node(fn, level, excl):
        children = []
        if level < 4:
            children = [node(f"{fn}_c{k}", level + 1, rng.uniform(1e-5, 1e-3)) for k in range(3)]
        return {
            "frame": {"fn": fn, "file": "main.c", "line": rng.randrange(1, 2000)},
            "metrics": {
                "time_excl": excl,
                "time_incl": excl + sum(c["metrics"]["time_incl"] for c in children),
                "l1_dcache_miss": float(rng.randrange(1000, 10**6)),
                "fp_inst": float(rng.randrange(10**4, 10**8)),
            },
            "children": children,
        }

    callees = [node("relax", 1, 0.03), node("init_field", 1, 0.002)]
    callees += [node(f"helper_{i}", 1, rng.uniform(1e-6, 1e-4)) for i in range(12)]
    main = {
        "frame": {"fn": "main", "file": "main.c", "line": 1},
        "metrics": {
            "time_excl": 1e-4,
            "time_incl": 1e-4 + sum(c["metrics"]["time_incl"] for c in callees),
            "l1_dcache_miss": 10.0,
            "fp_inst": 10.0,
        },
        "children": callees,
    }
    doc = {
        "schema": "cct-v1",
        "metrics": [
            {"id": "time_excl", "unit": "s", "kind": "Exclusive"},
            {"id": "time_incl", "unit": "s", "kind": "Inclusive"},
            {"id": "l1_dcache_miss", "unit": "count", "kind": "Exclusive"},
            {"id": "fp_inst", "unit": "count", "kind": "Exclusive"},
        ],
        "roots": [main],
    }
    if stated_totals:
        nodes = [n for n, _ in _preorder(doc)]
        doc["total"] = {
            "time_excl": sum(n["metrics"]["time_excl"] for n in nodes),
            "time_incl": main["metrics"]["time_incl"],
            "l1_dcache_miss": sum(n["metrics"]["l1_dcache_miss"] for n in nodes),
            "fp_inst": sum(n["metrics"]["fp_inst"] for n in nodes),
        }
    return doc


class TestImportEquivalence:
    """The one-pass import builds the trees and raises the errors that the
    check-by-check import in ``reference_impl`` does."""

    @given(doc=cct_docs())
    @settings(max_examples=300, deadline=None)
    def test_valid_documents_import_to_equal_trees(self, doc):
        blob = doc_bytes(doc)
        tree = pr.import_profile(blob)
        assert tree == reference_impl.import_profile(blob)
        assert pr.serialize_profile(tree) == pr.serialize_profile(
            reference_impl.import_profile(blob)
        )

    @given(
        doc=cct_docs(full=True).filter(lambda d: d["roots"]),
        kind=st.sampled_from(_MUTATIONS),
        index=st.integers(0, 10**6),
    )
    @settings(max_examples=400, deadline=None)
    def test_single_mutation_raises_the_same_error(self, doc, kind, index):
        _mutate(doc, kind, index)
        blob = json.dumps(doc).encode()
        got = _outcome(pr.import_profile, blob)
        assert isinstance(got, tuple), f"{kind} imported without error"
        assert got == _outcome(reference_impl.import_profile, blob)

    @pytest.mark.parametrize("stated_totals", [True, False])
    @pytest.mark.parametrize("seed", [1, 11])
    def test_agent_shaped_tree_imports_equal(self, seed, stated_totals):
        doc = agent_shaped_doc(seed, stated_totals)
        assert sum(1 for _ in _preorder(doc)) == 561
        blob = doc_bytes(doc)
        tree = pr.import_profile(blob)
        expected = reference_impl.import_profile(blob)
        assert tree == expected
        # Equal floats, bit for bit: the stated totals as given, or the
        # node sums taken in the same order.
        assert [v.hex() for v in tree.total.values()] == [v.hex() for v in expected.total.values()]
        assert list(tree.total) == list(expected.total)

    @pytest.mark.parametrize("kind", _MUTATIONS)
    def test_each_mutation_of_the_last_node(self, kind):
        doc = random_tree_doc(7)
        _mutate(doc, kind, len(list(_preorder(doc))) - 1)
        blob = json.dumps(doc).encode()
        got = _outcome(pr.import_profile, blob)
        assert isinstance(got, tuple)
        assert got == _outcome(reference_impl.import_profile, blob)


class TestSummarizeEquivalence:
    """Picking the top k with a heap over the node walk writes the text
    that sorting every (path, node) pair writes."""

    @given(doc=cct_docs(), env=st.sampled_from((None, {"threads": 4, "hardware": "x86"})))
    @settings(max_examples=200, deadline=None)
    def test_same_text_as_sorting_everything(self, doc, env):
        tree = pr.import_profile(doc_bytes(doc))
        for metric_id in tree.metric_catalog:
            for top_k in (1, 2, 3, 50):
                for budget in (4, 40, 120, pr.DEFAULT_CHAR_BUDGET):
                    args = (tree, top_k, env, metric_id, budget)
                    assert pr.summarize_for_model(*args) == reference_impl.summarize_for_model(*args)

    @pytest.mark.parametrize("seed", [1, 11])
    def test_agent_shaped_tree(self, seed):
        tree = pr.import_profile(doc_bytes(agent_shaped_doc(seed, stated_totals=False)))
        for metric_id in tree.metric_catalog:
            for top_k in (1, 5, 600):
                assert pr.summarize_for_model(tree, top_k, metric_id=metric_id) == (
                    reference_impl.summarize_for_model(tree, top_k, metric_id=metric_id)
                )
