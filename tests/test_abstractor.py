"""Unit tests for the Abstractor and content-tree serialization."""

import pytest

import repro.contenttree.abstractor as abstractor
from repro.contenttree import (
    Abstractor,
    ContentTree,
    ContentTreeError,
    build_example_tree,
    linear_truncation,
    tree_from_dict,
    tree_from_json,
    tree_from_segments,
    tree_to_dict,
    tree_to_json,
)


class TestAbstractor:
    def test_requires_nonempty_tree(self):
        with pytest.raises(ContentTreeError):
            Abstractor(ContentTree())

    def test_level_for_budget_picks_deepest_fitting(self):
        a = Abstractor(build_example_tree())  # levels cost 20/60/100
        assert a.level_for_budget(20) == 0
        assert a.level_for_budget(59) == 0
        assert a.level_for_budget(60) == 1
        assert a.level_for_budget(99) == 1
        assert a.level_for_budget(100) == 2
        assert a.level_for_budget(10_000) == 2

    def test_budget_below_minimum_rejected(self):
        a = Abstractor(build_example_tree())
        with pytest.raises(ContentTreeError):
            a.level_for_budget(19)

    def test_budget_nonpositive_rejected(self):
        a = Abstractor(build_example_tree())
        with pytest.raises(ContentTreeError):
            a.level_for_budget(0)

    def test_summarize(self):
        summary = Abstractor(build_example_tree()).summarize(60)
        assert summary.level == 1
        assert summary.duration == 60
        assert summary.segments == ("S0", "S1", "S4")

    def test_at_level(self):
        summary = Abstractor(build_example_tree()).at_level(2)
        assert summary.segments == ("S0", "S1", "S2", "S3", "S4")
        assert len(summary) == 5

    def test_at_level_out_of_range(self):
        a = Abstractor(build_example_tree())
        with pytest.raises(ContentTreeError):
            a.at_level(3)
        with pytest.raises(ContentTreeError):
            a.at_level(-1)

    def test_all_levels_monotone(self):
        summaries = Abstractor(build_example_tree()).all_levels()
        durations = [s.duration for s in summaries]
        assert durations == sorted(durations)
        assert len(summaries) == 3

    def test_summary_is_subsequence_of_full(self):
        a = Abstractor(build_example_tree())
        full = list(a.at_level(2).segments)
        short = list(a.at_level(1).segments)
        it = iter(full)
        assert all(s in it for s in short)  # subsequence check


class TestNestingInvariant:
    """Level-k ⊆ level-(k+1): the property segment-level encode reuse
    across abstraction levels depends on (see repro.lod.publisher)."""

    FLAT = [
        ("intro", 30, 0), ("history", 20, 1), ("aside", 25, 2),
        ("footnote", 15, 3), ("core", 30, 0), ("proof", 20, 1),
        ("lemma", 25, 2), ("remark", 15, 3),
    ]

    def test_round_trip_all_levels(self):
        """tree_from_segments → all_levels reproduces the flat lecture."""
        tree = tree_from_segments(self.FLAT)
        summaries = Abstractor(tree).all_levels()
        # deepest level replays the whole lecture, in lecture order
        deepest = summaries[-1]
        assert [n for n in deepest.segments if n != "overview"] == [
            name for name, _, _ in self.FLAT
        ]
        assert deepest.duration == sum(d for _, d, _ in self.FLAT)
        # each level contains exactly the segments of importance < level
        for summary in summaries[1:]:
            expected = [
                name for name, _, imp in self.FLAT if imp < summary.level
            ]
            assert [n for n in summary.segments if n != "overview"] == expected

    def test_every_level_subset_of_next(self):
        tree = tree_from_segments(self.FLAT)
        a = Abstractor(tree)
        for level in range(tree.highest_level):
            shorter = list(a.at_level(level).segments)
            longer = iter(a.at_level(level + 1).segments)
            assert all(name in longer for name in shorter), (
                f"level {level} not an order-preserving subset of {level + 1}"
            )

    def test_verify_nesting_passes(self):
        Abstractor(tree_from_segments(self.FLAT)).verify_nesting()
        Abstractor(build_example_tree()).verify_nesting()
        Abstractor(tree_from_segments([("only", 10, 0)])).verify_nesting()

    def test_verify_nesting_detects_reordering(self):
        tree = tree_from_segments(self.FLAT)
        original = tree.presentation_at

        def scrambled(level):
            nodes = original(level)
            return list(reversed(nodes)) if level == 2 else nodes

        tree.presentation_at = scrambled
        with pytest.raises(ContentTreeError):
            Abstractor(tree).verify_nesting()


class TestLinearTruncation:
    SEGMENTS = [("a", 20), ("b", 20), ("c", 20), ("d", 20), ("e", 20)]

    def test_prefix_only(self):
        kept, used = linear_truncation(self.SEGMENTS, 60)
        assert kept == ("a", "b", "c") and used == 60

    def test_budget_smaller_than_first(self):
        kept, used = linear_truncation(self.SEGMENTS, 10)
        assert kept == () and used == 0

    def test_covers_whole_when_budget_large(self):
        kept, _ = linear_truncation(self.SEGMENTS, 1000)
        assert len(kept) == 5

    def test_tree_summary_covers_later_material_truncation_does_not(self):
        # importance-built tree: essential segments spread over the lecture
        flat = [("intro", 20, 0), ("detail1", 20, 1), ("core", 20, 0),
                ("detail2", 20, 1), ("conclusion", 20, 0)]
        tree = tree_from_segments(flat)
        summary = Abstractor(tree).summarize(60)
        assert "conclusion" in summary.segments
        kept, _ = linear_truncation([(n, d) for n, d, _ in flat], 60)
        assert "conclusion" not in kept


class TestTreeFromSegments:
    def test_importance_maps_to_level(self):
        tree = tree_from_segments([("a", 10, 0), ("b", 10, 1), ("c", 10, 2)])
        assert tree.node("a").level == 1
        assert tree.node("b").level == 2
        assert tree.node("c").level == 3

    def test_narrative_structure_kept(self):
        tree = tree_from_segments(
            [("a", 10, 0), ("a1", 10, 1), ("b", 10, 0), ("b1", 10, 1)]
        )
        assert tree.node("a1").parent.name == "a"
        assert tree.node("b1").parent.name == "b"

    def test_importance_jump_attaches_to_closest_ancestor(self):
        tree = tree_from_segments([("a", 10, 0), ("deep", 10, 3)])
        assert tree.node("deep").parent.name == "a"

    def test_negative_importance_rejected(self):
        with pytest.raises(ContentTreeError):
            tree_from_segments([("a", 10, -1)])

    def test_root_value_counts_in_level0(self, monkeypatch):
        monkeypatch.setattr(abstractor, "ROOT_VALUE", 5)
        tree = tree_from_segments([("a", 10, 0)])
        assert tree.presentation_time(0) == 5


class TestSerialization:
    def test_round_trip_structure(self):
        tree = build_example_tree()
        clone = tree_from_json(tree_to_json(tree))
        assert clone.level_values() == tree.level_values()
        assert [n.name for n in clone.nodes()] == [n.name for n in tree.nodes()]

    def test_payload_round_trip(self):
        tree = ContentTree()
        tree.initialize("r", 1, payload={"slide": "intro.png"})
        clone = tree_from_json(tree_to_json(tree))
        assert clone.node("r").payload == {"slide": "intro.png"}

    def test_empty_tree_round_trip(self):
        clone = tree_from_json(tree_to_json(ContentTree()))
        assert clone.root is None

    def test_version_checked(self):
        with pytest.raises(ContentTreeError):
            tree_from_dict({"version": 99, "root": None})

    def test_invalid_json_rejected(self):
        with pytest.raises(ContentTreeError):
            tree_from_json("not json{")

    def test_non_object_json_rejected(self):
        with pytest.raises(ContentTreeError):
            tree_from_json("[1,2,3]")

    def test_dict_shape(self):
        data = tree_to_dict(build_example_tree())
        assert data["version"] == 1
        assert data["root"]["name"] == "S0"
        assert [c["name"] for c in data["root"]["children"]] == ["S1", "S4"]
