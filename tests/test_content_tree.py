"""Unit tests for the multiple-level content tree — including the paper's
§2.3 worked example and the Figure 3/4 insert/delete examples."""

import pytest

from repro.contenttree import ContentTree, ContentTreeError, build_example_tree


class TestNodeBasics:
    def test_empty_name_rejected(self):
        tree = ContentTree()
        with pytest.raises(ContentTreeError):
            tree.initialize("", 20)

    def test_negative_value_rejected(self):
        tree = ContentTree()
        with pytest.raises(ContentTreeError):
            tree.initialize("r", -1)

    def test_level_computation(self):
        tree = build_example_tree()
        assert tree.node("S0").level == 0
        assert tree.node("S1").level == 1
        assert tree.node("S2").level == 2

    def test_is_ancestor_of(self):
        tree = build_example_tree()
        assert tree.node("S0").is_ancestor_of(tree.node("S2"))
        assert not tree.node("S2").is_ancestor_of(tree.node("S0"))


class TestPaperSection23:
    """The exact four-step build of §2.3, checking every printed value."""

    def test_step1_add_s0(self):
        tree = ContentTree()
        tree.initialize("S0", 20)
        assert tree.highest_level == 0
        assert tree.presentation_time(0) == 20

    def test_step2_add_s1(self):
        tree = ContentTree()
        tree.initialize("S0", 20)
        tree.attach("S1", 20, level=1)
        assert tree.highest_level == 1
        assert tree.presentation_time(1) == 40

    def test_step3_add_s2(self):
        tree = ContentTree()
        tree.initialize("S0", 20)
        tree.attach("S1", 20, level=1)
        tree.attach("S2", 20, level=2)
        assert tree.highest_level == 2
        assert tree.presentation_time(2) == 60

    def test_step4_add_s3_s4(self):
        tree = build_example_tree()
        assert tree.highest_level == 2
        assert tree.presentation_time(1) == 60
        assert tree.presentation_time(2) == 100

    def test_full_level_values(self):
        assert build_example_tree().level_values() == [20.0, 60.0, 100.0]

    def test_structure(self):
        tree = build_example_tree()
        assert [c.name for c in tree.node("S0").children] == ["S1", "S4"]
        assert [c.name for c in tree.node("S1").children] == ["S2", "S3"]


class TestFigure3Insert:
    """Insert S5 at level 1 adopting S4 → LevelNodes 20 / 60 / 120."""

    def test_insert_reproduces_printed_levelnodes(self):
        tree = build_example_tree()
        tree.insert("S5", 20, parent="S0", adopt=["S4"])
        assert tree.highest_level == 2
        assert tree.presentation_time(0) == 20
        assert tree.presentation_time(1) == 60
        assert tree.presentation_time(2) == 120

    def test_insert_moves_adopted_one_level_deeper(self):
        tree = build_example_tree()
        tree.insert("S5", 20, parent="S0", adopt=["S4"])
        assert tree.node("S5").level == 1
        assert tree.node("S4").level == 2
        assert tree.node("S4").parent.name == "S5"

    def test_insert_preserves_sibling_order(self):
        tree = build_example_tree()
        tree.insert("S5", 20, parent="S0", adopt=["S4"])
        assert [c.name for c in tree.node("S0").children] == ["S1", "S5"]

    def test_insert_without_adoption_appends(self):
        tree = build_example_tree()
        tree.insert("S5", 20, parent="S1")
        assert [c.name for c in tree.node("S1").children] == ["S2", "S3", "S5"]

    def test_insert_explicit_position(self):
        tree = build_example_tree()
        tree.insert("S5", 20, parent="S0", position=0)
        assert [c.name for c in tree.node("S0").children] == ["S5", "S1", "S4"]

    def test_adopt_non_child_rejected(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.insert("S5", 20, parent="S0", adopt=["S2"])  # S2 is under S1

    def test_duplicate_name_rejected(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.insert("S1", 20, parent="S0")


class TestFigure4Delete:
    """Delete S5 (level 1): its children are adopted by its sibling S1."""

    def figure3_tree(self):
        tree = build_example_tree()
        tree.insert("S5", 20, parent="S0", adopt=["S4"])
        return tree

    def test_children_adopted_by_left_sibling(self):
        tree = self.figure3_tree()
        tree.delete("S5")
        assert "S5" not in tree
        assert tree.node("S4").parent.name == "S1"
        assert [c.name for c in tree.node("S1").children] == ["S2", "S3", "S4"]

    def test_level_values_after_delete(self):
        tree = self.figure3_tree()
        tree.delete("S5")
        # S4 is now a level-2 detail segment
        assert tree.level_values() == [20.0, 40.0, 100.0]

    def test_delete_leaf(self):
        tree = build_example_tree()
        tree.delete("S2")
        assert "S2" not in tree and len(tree) == 4

    def test_delete_only_child_adopts_to_right_sibling(self):
        tree = ContentTree()
        tree.initialize("r", 10)
        tree.attach("a", 10, parent="r")
        tree.attach("b", 10, parent="r")
        tree.attach("c", 10, parent="a")
        tree.delete("a")  # no left sibling: 'c' goes to right sibling 'b'
        assert tree.node("c").parent.name == "b"

    def test_delete_single_child_falls_back_to_parent(self):
        tree = ContentTree()
        tree.initialize("r", 10)
        tree.attach("a", 10, parent="r")
        tree.attach("c", 10, parent="a")
        tree.delete("a")
        assert tree.node("c").parent.name == "r"

    def test_delete_root_with_multiple_children_rejected(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.delete("S0")

    def test_delete_root_with_single_child_promotes(self):
        tree = ContentTree()
        tree.initialize("r", 10)
        tree.attach("a", 10, parent="r")
        tree.delete("r")
        assert tree.root.name == "a" and tree.root.level == 0

    def test_delete_last_node_empties_tree(self):
        tree = ContentTree()
        tree.initialize("r", 10)
        tree.delete("r")
        assert tree.root is None and len(tree) == 0


class TestOperations:
    def test_attach_requires_initialized(self):
        with pytest.raises(ContentTreeError):
            ContentTree().attach("x", 1, level=1)

    def test_attach_needs_exactly_one_placement(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.attach("x", 1)
        with pytest.raises(ContentTreeError):
            tree.attach("x", 1, level=1, parent="S0")

    def test_attach_level_zero_rejected(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.attach("x", 1, level=0)

    def test_attach_under_missing_level(self):
        tree = ContentTree()
        tree.initialize("r", 1)
        with pytest.raises(ContentTreeError):
            tree.attach("x", 1, level=3)

    def test_attach_by_level_picks_rightmost_parent(self):
        tree = build_example_tree()
        tree.attach("S9", 20, level=2)
        assert tree.node("S9").parent.name == "S4"

    def test_second_initialize_rejected(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.initialize("again", 5)

    def test_unknown_node_errors(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.node("nope")


class TestQueries:
    def test_presentation_order_is_depth_first(self):
        tree = build_example_tree()
        assert [n.name for n in tree.nodes()] == ["S0", "S1", "S2", "S3", "S4"]

    def test_presentation_at_level(self):
        tree = build_example_tree()
        assert [n.name for n in tree.presentation_at(1)] == ["S0", "S1", "S4"]
        assert [n.name for n in tree.presentation_at(0)] == ["S0"]

    def test_level_nodes(self):
        tree = build_example_tree()
        assert [n.name for n in tree.level_nodes(2)] == ["S2", "S3"]

    def test_negative_level_rejected(self):
        with pytest.raises(ContentTreeError):
            build_example_tree().presentation_time(-1)

    def test_empty_tree_queries(self):
        tree = ContentTree()
        assert tree.highest_level == -1
        assert tree.level_values() == []
        assert tree.presentation_time(3) == 0

    def test_render(self):
        text = build_example_tree().render()
        assert text.splitlines()[0] == "S0 (20s)"
        assert "  S1 (20s)" in text
        assert "    S2 (20s)" in text

    def test_validate_ok(self):
        build_example_tree().validate()

    def test_validate_detects_corruption(self):
        tree = build_example_tree()
        tree.node("S2").parent = tree.node("S4")  # corrupt pointer
        with pytest.raises(ContentTreeError):
            tree.validate()
