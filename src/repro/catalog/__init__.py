"""Content-aware catalog and predictive caching.

The paper's content tree — script commands, slide markers, LOD levels —
is built at publish time; this package makes it earn its keep at
*delivery* time (the direction Kannan & Andres' automated
lecture-capture/navigation system points):

* :class:`CatalogIndex` — a searchable catalog built from published
  script commands and LOD metadata: per-lecture slide tables of
  contents, seek-to-slide resolution (slide id → packet-run offset via
  the ASF simple index), and deterministic full-text token search over
  titles and command parameters.
* :class:`TinyLFUAdmission` — a frequency-based admission policy for
  :class:`~repro.streaming.edge.PacketRunCache`: a 4-bit count-min
  sketch with periodic halving, a doorkeeper Bloom filter absorbing
  one-hit wonders, and admit-on-compare against the LRU victim. A
  one-shot sequential scan of the whole catalog no longer evicts the
  hot set.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "admission": ("CountMinSketch", "Doorkeeper", "TinyLFUAdmission"),
    "index": ("CatalogIndex", "LectureEntry", "SearchHit", "SlideRef", "tokenize"),
})
