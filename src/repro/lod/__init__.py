"""Lecture-on-Demand application layer: record → orchestrate → publish →
replay, with floor control and content-tree summaries."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "course": ("CatalogError", "Course", "CourseCatalog", "StudentProgress"),
    "floor": ("Classroom", "ClassroomEvent", "FloorDenied"),
    "interaction": (
        "ACTIONS", "InteractionScript", "ModelRunResult", "ScriptedAction",
        "StreamRunResult", "apply_to_model", "apply_to_stream", "random_script",
    ),
    "lecture": (
        "Lecture", "LectureError", "LectureSegment", "TimedAnnotation", "demo_lecture",
    ),
    "orchestrator": (
        "OrchestrationError", "OrchestrationResult", "Orchestrator",
        "verify_orchestration",
    ),
    "playback": ("LODPlayback", "LevelReplayReport", "SyncAudit", "replay_all_levels"),
    "publisher": (
        "LODPublishResult", "LODPublisher", "MediaStore", "PublishFormError",
        "PublishedLecture", "PublishedVariant", "WebPublishingManager",
    ),
    "recorder": (
        "CameraSource", "LectureRecorder", "LiveCaptureSession", "MicrophoneSource",
    ),
    "shared": ("SharedEvent", "SharedViewing"),
})
