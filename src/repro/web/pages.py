"""HTML page rendering — the visible half of the web publishing manager.

Figure 5 of the paper shows browser pages: the publishing form ("fill the
path in the form for publishing") and the replay page. These renderers
produce that UI as plain HTML strings served by the publisher's HTTP
routes, so the whole Fig. 5 interaction is inspectable: ``GET /publish``
returns the form, ``POST /publish`` processes it, ``GET /`` lists the
catalog with replay links.

No templating engine — f-strings with explicit escaping, which is all a
five-field form needs.
"""

from __future__ import annotations

import html
from typing import Dict, Iterable, Sequence


def _escape(text: object) -> str:
    return html.escape(str(text), quote=True)


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n"
        f"<html><head><title>{_escape(title)}</title>"
        "<style>body{font-family:sans-serif;margin:2em}"
        "label{display:block;margin:.5em 0}"
        "table{border-collapse:collapse}"
        "td,th{border:1px solid #999;padding:.3em .8em}</style>"
        f"</head><body><h1>{_escape(title)}</h1>{body}</body></html>"
    )


def render_publish_form(profiles: Sequence[str]) -> str:
    """The Fig. 5(a) form: video path, slide directory, point, profile."""
    options = "".join(
        f'<option value="{_escape(p)}">{_escape(p)}</option>' for p in profiles
    )
    body = f"""
<form method="POST" action="/publish">
  <label>Video file path (MPEG4):
    <input name="video_path" size="40" placeholder="/videos/lecture.mpg"></label>
  <label>Directory of presented slides:
    <input name="slide_dir" size="40" placeholder="/slides/lecture/"></label>
  <label>Publishing point name:
    <input name="point" size="20" placeholder="lecture1"></label>
  <label>Bandwidth profile:
    <select name="profile">{options}</select></label>
  <label><input type="checkbox" name="protect" value="1"> DRM-protect</label>
  <button type="submit">Publish</button>
</form>"""
    return _page("Web Publishing Manager", body)


def render_catalog(entries: Iterable[Dict[str, object]]) -> str:
    """The replay page: one row per published lecture with its URL."""
    rows = "".join(
        "<tr>"
        f"<td>{_escape(e.get('point', ''))}</td>"
        f"<td>{_escape(e.get('title', ''))}</td>"
        f"<td>{_escape(e.get('duration', ''))}s</td>"
        f"<td><a href=\"{_escape(e.get('url', ''))}\">replay</a></td>"
        "</tr>"
        for e in entries
    )
    body = (
        "<table><tr><th>point</th><th>title</th><th>duration</th>"
        f"<th>link</th></tr>{rows}</table>"
        '<p><a href="/publish">publish another lecture</a></p>'
    )
    return _page("Published Lectures", body)
