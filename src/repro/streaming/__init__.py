"""Streaming: media server, edge-relay tier, sessions, jitter-buffered player."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "backbone": ("BackboneBudget", "BudgetError"),
    "buffer": ("JitterBuffer",),
    "client": (
        "FiredCommand", "MediaPlayer", "PlaybackReport", "PlayerError",
        "PlayerState", "RenderDigest",
    ),
    "edge": (
        "EdgeDirectory", "EdgeRelay", "FillToken", "PacketRunCache",
        "PlacementError", "build_edge_tier", "build_relay_tree",
    ),
    "recovery": ("NakRequest", "RecoveryClient", "RecoveryConfig"),
    "server": ("MediaServer", "PublishError", "PublishingPoint"),
    "session": ("SessionError", "SessionState", "SessionTable", "StreamSession"),
})
