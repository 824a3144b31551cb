"""Unit tests for content-tree restructuring (move/promote/demote)."""

import pytest

from repro.contenttree import ContentTree, ContentTreeError, build_example_tree


class TestMove:
    def test_move_subtree_changes_levels(self):
        tree = build_example_tree()  # S0(S1(S2,S3),S4)
        tree.move("S2", parent="S4")
        assert tree.node("S2").parent.name == "S4"
        assert tree.node("S2").level == 2
        assert [c.name for c in tree.node("S1").children] == ["S3"]
        tree.validate()

    def test_move_keeps_subtree(self):
        tree = build_example_tree()
        tree.move("S1", parent="S4")
        assert tree.node("S1").level == 2
        assert tree.node("S2").level == 3  # shifted with its parent
        tree.validate()

    def test_move_under_descendant_rejected(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.move("S1", parent="S2")
        with pytest.raises(ContentTreeError):
            tree.move("S1", parent="S1")

    def test_move_root_rejected(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.move("S0", parent="S1")

    def test_move_with_position(self):
        tree = build_example_tree()
        tree.move("S4", parent="S1", position=0)
        assert [c.name for c in tree.node("S1").children] == ["S4", "S2", "S3"]

    def test_level_values_follow_move(self):
        tree = build_example_tree()  # [20, 60, 100]
        tree.move("S4", parent="S1")  # S4: level 1 -> 2
        assert tree.level_values() == [20.0, 40.0, 100.0]


class TestPromoteDemote:
    def test_promote_moves_one_level_up(self):
        tree = build_example_tree()
        tree.promote("S2")  # child of S1 -> sibling after S1
        assert tree.node("S2").level == 1
        assert [c.name for c in tree.node("S0").children] == ["S1", "S2", "S4"]

    def test_promote_at_level_one_rejected(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.promote("S1")
        with pytest.raises(ContentTreeError):
            tree.promote("S0")

    def test_demote_moves_under_previous_sibling(self):
        tree = build_example_tree()
        tree.demote("S4")  # sibling of S1 -> child of S1
        assert tree.node("S4").parent.name == "S1"
        assert tree.node("S4").level == 2

    def test_demote_first_sibling_rejected(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.demote("S1")  # no preceding sibling
        with pytest.raises(ContentTreeError):
            tree.demote("S2")

    def test_demote_root_rejected(self):
        tree = build_example_tree()
        with pytest.raises(ContentTreeError):
            tree.demote("S0")

    def test_promote_then_demote_round_trips(self):
        tree = build_example_tree()
        before = tree.render()
        tree.promote("S3")  # becomes sibling right after S1
        tree.demote("S3")  # back under S1 (its preceding sibling), appended
        assert tree.node("S3").parent.name == "S1"
        assert tree.level_values() == build_example_tree().level_values()
