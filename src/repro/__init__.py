"""repro — reproduction of "Implementing a Distributed Lecture-on-Demand
Multimedia Presentation System" (Deng, Shih, Shiau, Chang & Liu, ICDCS
Workshops 2002).

Subpackages
-----------
:mod:`repro.core`
    Petri nets: base model, analysis, timed semantics, OCPN/XOCPN
    compilers, and the paper's extended timed Petri net (interaction,
    distributed sync, floor control) plus the prioritized-net baseline.
:mod:`repro.contenttree`
    The multiple-level content tree and the Abstractor.
:mod:`repro.media`
    Synthetic media objects, simulated codecs, bandwidth profiles, clocks.
:mod:`repro.asf`
    The ASF-like container: header, packets, script commands, index, DRM,
    and the encoder (stored files and live broadcast).
:mod:`repro.net`
    Discrete-event network simulator: links, transport, QoS admission.
:mod:`repro.web`
    Minimal HTTP substrate over the simulator.
:mod:`repro.catalog`
    Catalog search, cache admission and scheduled prefetch at the edge.
:mod:`repro.streaming`
    The media server (publishing points, unicast/broadcast pacing) and the
    jitter-buffered player.
:mod:`repro.control`
    Supervision plane: heartbeat failure detection and region-parent
    failover; graceful drains with warm session hand-off live on the relay.
:mod:`repro.load`
    Million-viewer workload generation and the cohort load harness.
:mod:`repro.obs`
    End-to-end observability: tracer, cross-layer trace checker, QoE.
:mod:`repro.lod`
    The Lecture-on-Demand application: recorder, orchestrator, web
    publishing manager, level-based replay, classroom floor control.
:mod:`repro.metrics`
    Statistics and experiment collectors used by the paper benches.

Quick start
-----------
>>> from repro.lod import Lecture, MediaStore, WebPublishingManager
>>> from repro.streaming import MediaPlayer, MediaServer
>>> from repro.web import VirtualNetwork
>>> lecture = Lecture.from_slide_durations("Demo", "Prof", [10.0, 10.0])
>>> network = VirtualNetwork()
>>> server = MediaServer(network, "server", port=8080)
>>> store = MediaStore()
>>> store.register_lecture("/v/demo.mpg", "/slides/", lecture)
>>> manager = WebPublishingManager(server, store)
>>> record = manager.publish(video_path="/v/demo.mpg", slide_dir="/slides/",
...                          point="demo")
>>> report = MediaPlayer(network, "student").watch(record.url)
>>> [c.command.parameter for c in report.slide_changes()]
['slide0', 'slide1']
"""

__version__ = "1.0.0"

from ._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    name: (name,)
    for name in (
        "asf", "catalog", "contenttree", "control", "core", "load", "lod", "media",
        "metrics", "net", "obs", "streaming", "web",
    )
})
