"""The Abstractor of paper §2.2 — level-based presentation summarization.

"The Abstractor utilizes the content tree to organize the information …
the multiple level content tree approach may be used to arrive at an
efficient summarizing method." Given a viewing-time budget, the Abstractor
picks the deepest level whose total presentation time fits, yielding the
longest presentation that fits the budget; level 0 is the shortest summary.

:func:`tree_from_segments` builds a content tree from a flat lecture by
importance, so recorded lectures (see :mod:`repro.lod`) get multi-level
summaries for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .tree import ContentTree, ContentTreeError


@dataclass(frozen=True)
class Summary:
    """Result of an abstraction query."""

    level: int
    duration: float
    segments: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.segments)


class Abstractor:
    """Level-based summarization over a content tree."""

    def __init__(self, tree: ContentTree) -> None:
        if tree.root is None:
            raise ContentTreeError("cannot abstract an empty tree")
        self.tree = tree

    def level_for_budget(self, budget: float) -> int:
        """Deepest level whose presentation time fits within ``budget``.

        Raises :class:`ContentTreeError` when even level 0 does not fit —
        the material has no summary short enough.
        """
        if budget <= 0:
            raise ContentTreeError("budget must be positive")
        chosen: Optional[int] = None
        for level in range(self.tree.highest_level + 1):
            if self.tree.presentation_time(level) <= budget + 1e-9:
                chosen = level
            else:
                break
        if chosen is None:
            raise ContentTreeError(
                f"even the level-0 summary "
                f"({self.tree.presentation_time(0):g}s) exceeds budget {budget:g}s"
            )
        return chosen

    def summarize(self, budget: float) -> Summary:
        """The longest presentation fitting ``budget``."""
        level = self.level_for_budget(budget)
        segments = self.tree.presentation_at(level)
        return Summary(
            level=level,
            duration=self.tree.presentation_time(level),
            segments=tuple(n.name for n in segments),
        )

    def at_level(self, level: int) -> Summary:
        """The presentation at an explicit level."""
        if not 0 <= level <= self.tree.highest_level:
            raise ContentTreeError(
                f"level {level} outside 0..{self.tree.highest_level}"
            )
        segments = self.tree.presentation_at(level)
        return Summary(
            level=level,
            duration=self.tree.presentation_time(level),
            segments=tuple(n.name for n in segments),
        )

    def all_levels(self) -> List[Summary]:
        """One summary per level — the "flexible teaching material" view."""
        return [self.at_level(q) for q in range(self.tree.highest_level + 1)]

    def verify_nesting(self) -> None:
        """Assert the level-nesting invariant the publish pipeline reuses.

        The level-q presentation must be an *order-preserving subset* of the
        level-(q+1) presentation: "the higher level gives the longer
        presentation" by adding detail, never by reordering or dropping
        material. Segment-level encode reuse across abstraction levels
        (publishing level k after level k+1 encodes only the delta) is
        sound exactly because of this property.
        """
        for level in range(self.tree.highest_level):
            shorter = [n.name for n in self.tree.presentation_at(level)]
            longer = iter(n.name for n in self.tree.presentation_at(level + 1))
            if not all(name in longer for name in shorter):
                raise ContentTreeError(
                    f"level {level} is not an order-preserving subset of "
                    f"level {level + 1}"
                )


def linear_truncation(
    segments: Sequence[Tuple[str, float]], budget: float
) -> Tuple[Tuple[str, ...], float]:
    """Baseline summarizer: keep the prefix of segments fitting the budget.

    This is what a system without the content tree does — cut the lecture
    off when time runs out. Used by the abstraction ablation to show the
    content tree keeps *coverage* (segments from the whole lecture) while
    truncation only keeps the beginning.
    """
    kept: List[str] = []
    used = 0.0
    for name, value in segments:
        if used + value > budget + 1e-9:
            break
        kept.append(name)
        used += value
    return tuple(kept), used


#: the playout time of the root a flat lecture's tree hangs under, s
ROOT_VALUE = 0.0


def tree_from_segments(
    segments: Sequence[Tuple[str, float, int]], *, root_name: str = "overview"
) -> ContentTree:
    """Build a content tree from ``(name, duration, importance)`` triples.

    ``importance`` 0 is the most essential (appears in the level-1 summary);
    larger values are finer detail at deeper levels. Segment order is
    preserved within each level: each segment attaches under the most
    recent segment of the previous level (or the root), so the tree keeps
    the lecture's narrative structure.
    """
    tree = ContentTree()
    tree.initialize(root_name, ROOT_VALUE)
    last_at_level: dict = {0: root_name}
    for name, duration, importance in segments:
        if importance < 0:
            raise ContentTreeError(f"segment {name!r}: importance must be >= 0")
        level = importance + 1
        parent_level = level - 1
        while parent_level > 0 and parent_level not in last_at_level:
            parent_level -= 1
        tree.attach(name, duration, parent=last_at_level[parent_level])
        last_at_level[level] = name
        # deeper levels reset when a shallower segment arrives
        for deeper in [q for q in last_at_level if q > level]:
            del last_at_level[deeper]
    return tree
