"""Lecture-on-Demand application layer: record → orchestrate → publish →
replay, with floor control and content-tree summaries."""

from .floor import Classroom, ClassroomEvent, FloorDenied
from .interaction import (
    ACTIONS,
    InteractionScript,
    ModelRunResult,
    ScriptedAction,
    StreamRunResult,
    apply_to_model,
    apply_to_stream,
    random_script,
)
from .lecture import (
    Lecture,
    LectureError,
    LectureSegment,
    TimedAnnotation,
    demo_lecture,
)
from .orchestrator import (
    OrchestrationError,
    OrchestrationResult,
    Orchestrator,
    verify_orchestration,
)
from .playback import (
    LevelReplayReport,
    LODPlayback,
    SyncAudit,
    replay_all_levels,
)
from .publisher import (
    LODPublisher,
    LODPublishResult,
    MediaStore,
    PublishedLecture,
    PublishedVariant,
    PublishFormError,
    WebPublishingManager,
)
from .course import CatalogError, Course, CourseCatalog, StudentProgress
from .shared import SharedEvent, SharedViewing
from .recorder import (
    CameraSource,
    LectureRecorder,
    LiveCaptureSession,
    MicrophoneSource,
)

__all__ = [
    "ACTIONS", "CameraSource", "CatalogError", "Classroom", "ClassroomEvent",
    "Course", "CourseCatalog", "FloorDenied",
    "InteractionScript", "LODPlayback", "LODPublishResult", "LODPublisher",
    "Lecture", "LectureError",
    "LectureRecorder", "LectureSegment", "LevelReplayReport",
    "LiveCaptureSession", "MediaStore", "MicrophoneSource", "ModelRunResult",
    "OrchestrationError", "OrchestrationResult", "Orchestrator",
    "PublishFormError", "PublishedLecture", "PublishedVariant",
    "ScriptedAction", "SharedEvent", "SharedViewing",
    "StreamRunResult", "StudentProgress", "SyncAudit", "TimedAnnotation",
    "WebPublishingManager", "apply_to_model", "apply_to_stream", "demo_lecture",
    "random_script", "replay_all_levels", "verify_orchestration",
]
