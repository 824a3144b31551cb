"""Text rendering of presentation timelines.

Pure string generation: :func:`timeline_to_ascii` draws the playout
schedule a compiled net produces as a Gantt chart (the ``python -m repro``
demo prints one).
"""

from __future__ import annotations

from .scheduler import PresentationTimeline


def timeline_to_ascii(timeline: PresentationTimeline, *, width: int = 60) -> str:
    """ASCII Gantt chart of a presentation timeline (README/examples)."""
    total = timeline.duration or 1.0
    rows = []
    names = timeline.media_names()
    pad = max((len(n) for n in names), default=0)
    for name in names:
        row = [" "] * width
        for entry in timeline.entries:
            if entry.media != name:
                continue
            lo = int(entry.start / total * (width - 1))
            hi = max(lo + 1, int(entry.end / total * (width - 1)))
            for i in range(lo, min(hi, width)):
                row[i] = "█"
        rows.append(f"{name.ljust(pad)} |{''.join(row)}|")
    scale = f"{' ' * pad}  0{' ' * (width - len(f'{total:.1f}') - 1)}{total:.1f}s"
    return "\n".join(rows + [scale])
