"""The multiple-level content tree of paper §2.2–§2.4.

A teaching material is organized as a tree of *presentation segments*:

* the root is at **level 0**; children of a level-q node are at level q+1;
* siblings ordered left-to-right give the playback sequence;
* "the higher level gives the longer presentation" — playing the material
  *at level q* plays every segment of level ≤ q, in depth-first
  (document) order, so deeper levels add detail;
* ``LevelNodes[q]`` (the paper's variable) is the total presentation time
  at level q — :meth:`ContentTree.presentation_time`.

The paper's primitive operations are implemented exactly: initialize,
**attach** (add a node at a level, under the rightmost eligible parent, or
an explicit one), **detach** (remove a whole subtree), **insert** (splice a
node between a parent and a run of its children — Figure 3), and **delete**
(remove one node; its children are adopted by its left sibling, or by its
parent when it has none — Figure 4).

The §2.3 worked example (S0..S4, ``LevelNodes`` = 20/60/100) and the
Figure 3/4 insert/delete examples are reproduced in
``tests/test_content_tree.py`` and ``benchmarks/test_bench_content_tree.py``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence


class ContentTreeError(Exception):
    """Structural misuse of a content tree."""


class ContentNode:
    """One presentation segment in the content tree.

    ``value`` is the segment's presentation time in seconds (the paper's
    node value). Children are ordered; order is the playback sequence.
    """

    __slots__ = ("name", "value", "parent", "children", "payload")

    def __init__(self, name: str, value: float, *, payload=None) -> None:
        if not name:
            raise ContentTreeError("node name must be non-empty")
        if value < 0:
            raise ContentTreeError(f"node {name!r}: value must be >= 0")
        self.name = name
        self.value = float(value)
        self.parent: Optional["ContentNode"] = None
        self.children: List["ContentNode"] = []
        self.payload = payload

    @property
    def level(self) -> int:
        """Distance from the root (root is level 0)."""
        level, node = 0, self
        while node.parent is not None:
            node = node.parent
            level += 1
        return level

    def is_ancestor_of(self, other: "ContentNode") -> bool:
        node = other.parent
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def subtree(self) -> Iterator["ContentNode"]:
        """Depth-first, left-to-right — the presentation order."""
        yield self
        for child in self.children:
            yield from child.subtree()

    def __repr__(self) -> str:
        return f"ContentNode({self.name!r}, value={self.value:g}, level={self.level})"


class ContentTree:
    """A multiple-level content tree with the paper's primitive operations."""

    def __init__(self) -> None:
        self.root: Optional[ContentNode] = None
        self._by_name: Dict[str, ContentNode] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def node(self, name: str) -> ContentNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise ContentTreeError(f"no node named {name!r}") from None

    def nodes(self) -> Iterator[ContentNode]:
        """All nodes in presentation (depth-first) order."""
        if self.root is not None:
            yield from self.root.subtree()

    @property
    def highest_level(self) -> int:
        """The paper's ``highestLevel`` (deepest populated level; -1 if empty)."""
        return max((n.level for n in self.nodes()), default=-1)

    def level_nodes(self, level: int) -> List[ContentNode]:
        """Nodes at exactly ``level``, in presentation order."""
        return [n for n in self.nodes() if n.level == level]

    def presentation_time(self, level: int) -> float:
        """The paper's ``LevelNodes[level]->value``: total playing time of
        the level-``level`` presentation = Σ value over nodes of level ≤ level."""
        if level < 0:
            raise ContentTreeError("level must be >= 0")
        return sum(n.value for n in self.nodes() if n.level <= level)

    def level_values(self) -> List[float]:
        """``[presentation_time(0), ..., presentation_time(highest_level)]``."""
        return [self.presentation_time(q) for q in range(self.highest_level + 1)]

    def presentation_at(self, level: int) -> List[ContentNode]:
        """Segments played at ``level``, in presentation order."""
        return [n for n in self.nodes() if n.level <= level]

    # ------------------------------------------------------------------
    # primitive operations (paper §2.2: initialize / attach / detach,
    # §2.4: insert / delete)
    # ------------------------------------------------------------------

    def initialize(self, name: str, value: float, *, payload=None) -> ContentNode:
        """Create the root (level 0). The tree must be empty."""
        if self.root is not None:
            raise ContentTreeError("tree already initialized")
        node = ContentNode(name, value, payload=payload)
        self.root = node
        self._by_name[name] = node
        return node

    def _register(self, node: ContentNode) -> None:
        if node.name in self._by_name:
            raise ContentTreeError(f"node {node.name!r} already in tree")
        self._by_name[node.name] = node

    def attach(
        self,
        name: str,
        value: float,
        *,
        level: Optional[int] = None,
        parent: Optional[str] = None,
        payload=None,
    ) -> ContentNode:
        """Add a leaf node, the paper's "attach a node".

        Either ``parent`` names the parent explicitly (appended as its last
        child), or ``level`` places the node under the *rightmost* node at
        ``level - 1`` — exactly how the §2.3 example grows the tree.
        """
        if self.root is None:
            raise ContentTreeError("initialize the tree first")
        if (level is None) == (parent is None):
            raise ContentTreeError("give exactly one of level= or parent=")
        if parent is not None:
            parent_node = self.node(parent)
        else:
            if level < 1:
                raise ContentTreeError("attach level must be >= 1 (root exists)")
            candidates = self.level_nodes(level - 1)
            if not candidates:
                raise ContentTreeError(
                    f"no node at level {level - 1} to attach under"
                )
            parent_node = candidates[-1]
        node = ContentNode(name, value, payload=payload)
        self._register(node)
        node.parent = parent_node
        parent_node.children.append(node)
        return node

    def insert(
        self,
        name: str,
        value: float,
        *,
        parent: str,
        adopt: Sequence[str] = (),
        position: Optional[int] = None,
        payload=None,
    ) -> ContentNode:
        """Splice a new node between ``parent`` and some of its children —
        the Figure 3 operation ("insert a node S5 into the content tree").

        ``adopt`` names children of ``parent`` that become children of the
        new node (keeping their order); they move one level deeper.
        ``position`` fixes the new node's index among the remaining
        children (default: where the first adopted child was, else last).
        """
        parent_node = self.node(parent)
        adopt_nodes = [self.node(a) for a in adopt]
        for child in adopt_nodes:
            if child.parent is not parent_node:
                raise ContentTreeError(
                    f"{child.name!r} is not a child of {parent!r}; cannot adopt"
                )
        node = ContentNode(name, value, payload=payload)
        self._register(node)
        if position is None:
            position = (
                parent_node.children.index(adopt_nodes[0])
                if adopt_nodes
                else len(parent_node.children)
            )
        for child in adopt_nodes:
            parent_node.children.remove(child)
            child.parent = node
            node.children.append(child)
        node.parent = parent_node
        parent_node.children.insert(min(position, len(parent_node.children)), node)
        return node

    def delete(self, name: str) -> ContentNode:
        """Remove one node; children adopted by its **left sibling** — the
        Figure 4 operation ("S5's children will be adopted by S5's sibling
        S1"). Falls back to the right sibling, then to the parent. The root
        can only be deleted when it has at most one child (which becomes
        the new root).
        """
        node = self.node(name)
        if node.parent is None:
            if len(node.children) > 1:
                raise ContentTreeError(
                    "cannot delete a root with multiple children"
                )
            del self._by_name[name]
            if node.children:
                heir = node.children[0]
                heir.parent = None
                self.root = heir
                node.children.clear()
            else:
                self.root = None
            return node

        parent = node.parent
        index = parent.children.index(node)
        if node.children:
            left = parent.children[index - 1] if index > 0 else None
            right = (
                parent.children[index + 1]
                if index + 1 < len(parent.children)
                else None
            )
            adopter = left or right or parent
            for child in node.children:
                child.parent = adopter
                adopter.children.append(child)
            node.children.clear()
        parent.children.remove(node)
        node.parent = None
        del self._by_name[name]
        return node

    def move(
        self, name: str, *, parent: str, position: Optional[int] = None
    ) -> ContentNode:
        """Re-parent the subtree rooted at ``name`` under ``parent``.

        The node keeps its children; its whole subtree shifts level with
        it. Moving a node under its own descendant is rejected.
        """
        node = self.node(name)
        new_parent = self.node(parent)
        if node is new_parent or node.is_ancestor_of(new_parent):
            raise ContentTreeError(
                f"cannot move {name!r} under its own subtree"
            )
        if node.parent is None:
            raise ContentTreeError("cannot move the root")
        node.parent.children.remove(node)
        node.parent = new_parent
        if position is None:
            new_parent.children.append(node)
        else:
            new_parent.children.insert(
                min(max(position, 0), len(new_parent.children)), node
            )
        return node

    def promote(self, name: str) -> ContentNode:
        """Move a node one level shallower: it becomes its parent's next
        sibling (subtree moves with it)."""
        node = self.node(name)
        if node.parent is None or node.parent.parent is None:
            raise ContentTreeError(
                f"cannot promote {name!r}: already at level <= 1"
            )
        parent = node.parent
        grandparent = parent.parent
        index = grandparent.children.index(parent)
        return self.move(name, parent=grandparent.name, position=index + 1)

    # ------------------------------------------------------------------
    # pretty-printing
    # ------------------------------------------------------------------

    def render(self) -> str:
        """Indented ASCII rendering (one node per line)."""
        lines: List[str] = []

        def walk(node: ContentNode, depth: int) -> None:
            lines.append(f"{'  ' * depth}{node.name} ({node.value:g}s)")
            for child in node.children:
                walk(child, depth + 1)

        if self.root is not None:
            walk(self.root, 0)
        return "\n".join(lines)

    def validate(self) -> None:
        """Check parent/child pointers and the name index agree."""
        seen = set()
        for node in self.nodes():
            seen.add(node.name)
            if self._by_name.get(node.name) is not node:
                raise ContentTreeError(f"index out of sync at {node.name!r}")
            for child in node.children:
                if child.parent is not node:
                    raise ContentTreeError(
                        f"broken parent pointer at {child.name!r}"
                    )
        if seen != set(self._by_name):
            raise ContentTreeError("index contains detached nodes")


def build_example_tree() -> ContentTree:
    """The §2.3 worked example: S0..S4, every segment 20 seconds.

    Steps (paper's printed ``LevelNodes`` values in parentheses):

    1. add S0 at level 0  → highestLevel 0, LevelNodes[0] = 20
    2. add S1 at level 1  → highestLevel 1, LevelNodes[1] = 40
    3. add S2 at level 2  → highestLevel 2, LevelNodes[2] = 60
    4. add S3 at level 2 and S4 at level 1
       → highestLevel 2, LevelNodes[1] = 60, LevelNodes[2] = 100
    """
    tree = ContentTree()
    tree.initialize("S0", 20)
    tree.attach("S1", 20, level=1)
    tree.attach("S2", 20, level=2)
    tree.attach("S3", 20, level=2)
    tree.attach("S4", 20, level=1)
    return tree
