"""Simulated capture devices and the lecture recorder.

Substitutes the paper's "attached devices (video camera or microphone)":
seeded generators that produce frames/samples with wall-clock timestamps.
:class:`LectureRecorder` is the classroom workflow — start recording, the
teacher advances slides and scribbles annotations, stop — and yields a
:class:`~repro.lod.lecture.Lecture`. :class:`LiveCaptureSession` couples
the same sources to a live ASF encoder on the simulator for real-time
broadcast (paper §2.5: "broadcast their encoded content in real time").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..asf.encoder import ASFEncoder, EncoderConfig, LiveEncoderSession
from ..asf.header import StreamProperties
from ..asf.packets import MediaUnit, units_from_encoded
from ..asf.script_commands import ScriptCommand, TYPE_SLIDE
from ..media.objects import (
    AnnotationObject,
    AudioObject,
    ImageObject,
    VideoObject,
)
from ..media.profiles import BandwidthProfile
from ..net.engine import PeriodicTask, Simulator
from .lecture import Lecture, LectureError, LectureSegment, TimedAnnotation


class CameraSource:
    """A camera: fixed resolution and frame rate."""

    width = 320
    height = 240
    fps = 15.0
    seed = "camera"

    def captured_video(self, name: str, duration: float) -> VideoObject:
        return VideoObject(
            name, duration, width=self.width, height=self.height,
            fps=self.fps, seed=self.seed,
        )


class MicrophoneSource:
    """A microphone: fixed sample format."""

    sample_rate = 22_050
    channels = 1
    seed = "microphone"

    def captured_audio(self, name: str, duration: float) -> AudioObject:
        return AudioObject(
            name, duration, sample_rate=self.sample_rate,
            channels=self.channels, seed=self.seed,
        )


class LectureRecorder:
    """Records a lecture: slide advances and annotations against a clock.

    Drive it with :meth:`advance_slide` / :meth:`annotate` at increasing
    times, then :meth:`finish` to get the :class:`Lecture`.
    """

    slide_width = 1024
    slide_height = 768

    def __init__(
        self,
        title: str,
        author: str,
        *,
        microphone: Optional[MicrophoneSource] = None,
    ) -> None:
        self.title = title
        self.author = author
        self.camera = CameraSource()
        self.microphone = microphone
        self._marks: List[Tuple[float, str, int]] = []  # (time, slide name, importance)
        self._annotations: List[Tuple[float, AnnotationObject]] = []
        self._finished = False
        self._started = False

    def start(self) -> None:
        if self._started:
            raise LectureError("recorder already started")
        self._started = True
        self._marks.append((0.0, "slide0", 0))

    def advance_slide(
        self, at: float, *, name: Optional[str] = None, importance: int = 0
    ) -> str:
        """The teacher moves to the next slide at ``at`` seconds."""
        self._check_recording()
        if at <= self._marks[-1][0]:
            raise LectureError("slide advances must move forward in time")
        slide_name = name or f"slide{len(self._marks)}"
        self._marks.append((at, slide_name, importance))
        return slide_name

    def annotate(
        self, at: float, text: str, *, duration: float = 5.0
    ) -> AnnotationObject:
        """The teacher writes an annotation at ``at`` seconds."""
        self._check_recording()
        annotation = AnnotationObject(
            f"note{len(self._annotations)}", duration, text=text
        )
        self._annotations.append((at, annotation))
        return annotation

    def _check_recording(self) -> None:
        if not self._started:
            raise LectureError("recorder not started")
        if self._finished:
            raise LectureError("recorder already finished")

    def finish(self, at: float) -> Lecture:
        """Stop recording at ``at`` seconds and assemble the lecture."""
        self._check_recording()
        if at <= self._marks[-1][0]:
            raise LectureError("finish time must be after the last slide advance")
        self._finished = True
        video = self.camera.captured_video("talk", at)
        audio = (
            self.microphone.captured_audio("voice", at)
            if self.microphone is not None
            else None
        )
        segments: List[LectureSegment] = []
        boundaries = self._marks + [(at, "<end>", 0)]
        for (start, name, importance), (end, _, _) in zip(boundaries, boundaries[1:]):
            duration = end - start
            notes = [
                TimedAnnotation(ann, t - start)
                for t, ann in self._annotations
                if start < t < end and t - start + ann.duration < duration
            ]
            segments.append(
                LectureSegment(
                    name=name,
                    slide=ImageObject(
                        name, duration, width=self.slide_width,
                        height=self.slide_height, seed=name,
                    ),
                    start=start,
                    duration=duration,
                    importance=importance,
                    annotations=notes,
                )
            )
        return Lecture(
            title=self.title,
            author=self.author,
            video=video,
            audio=audio,
            segments=segments,
        )


class LiveCaptureSession:
    """Real-time capture → encode → broadcast on the simulator.

    Every ``chunk`` seconds a :class:`~repro.net.engine.PeriodicTask`
    encodes the freshly captured media and feeds it to the live encoder
    session; slide advances inject live SLIDE script commands. Stop with
    :meth:`finish`.
    """

    VIDEO_STREAM = 1
    AUDIO_STREAM = 2
    FILE_ID = "live-lecture"

    def __init__(
        self,
        simulator: Simulator,
        profile: BandwidthProfile,
        *,
        microphone: Optional[MicrophoneSource] = None,
        chunk: float = 0.5,
    ) -> None:
        self.simulator = simulator
        self.profile = profile
        self.camera = CameraSource()
        self.microphone = microphone
        self.chunk = chunk
        streams = [
            StreamProperties(
                self.VIDEO_STREAM, "video", codec=profile.video_codec,
                bitrate=profile.video_bitrate, name="camera",
            )
        ]
        if microphone is not None:
            streams.append(
                StreamProperties(
                    self.AUDIO_STREAM, "audio", codec=profile.audio_codec,
                    bitrate=profile.audio_bitrate, name="microphone",
                )
            )
        encoder = ASFEncoder(EncoderConfig(profile=profile))
        self.session: LiveEncoderSession = encoder.start_live(
            file_id=self.FILE_ID, streams=streams
        )
        self._origin = simulator.now
        self._video_index = 0
        self._audio_index = 0
        self._task = PeriodicTask(simulator, chunk, self._capture_chunk,
                                  start_delay=chunk)
        self.slides_sent: List[Tuple[float, str]] = []

    @property
    def stream(self):
        return self.session.stream

    @property
    def elapsed(self) -> float:
        return self.simulator.now - self._origin

    def _capture_chunk(self) -> None:
        if self.session.stream.closed:
            return
        start = self.elapsed - self.chunk
        # encode this chunk of camera footage at the profile's rate
        chunk_video = self.camera.captured_video("chunk", self.chunk)
        encoded = self.profile.encode_video(chunk_video)
        units: List[MediaUnit] = []
        for u in units_from_encoded(self.VIDEO_STREAM, encoded):
            units.append(
                MediaUnit(
                    self.VIDEO_STREAM,
                    self._video_index,
                    round((start + u.timestamp_ms / 1000.0) * 1000),
                    u.keyframe,
                    u.data,
                )
            )
            self._video_index += 1
        if self.microphone is not None:
            chunk_audio = self.microphone.captured_audio("chunk", self.chunk)
            encoded_audio = self.profile.encode_audio(chunk_audio)
            for u in units_from_encoded(self.AUDIO_STREAM, encoded_audio):
                units.append(
                    MediaUnit(
                        self.AUDIO_STREAM,
                        self._audio_index,
                        round((start + u.timestamp_ms / 1000.0) * 1000),
                        u.keyframe,
                        u.data,
                    )
                )
                self._audio_index += 1
        self.session.capture(units)

    def advance_slide(self, name: str) -> None:
        """Inject a live SLIDE command at the current capture time."""
        command = ScriptCommand(round(self.elapsed * 1000), TYPE_SLIDE, name)
        self.session.send_command(command)
        self.slides_sent.append((self.elapsed, name))

    def finish(self) -> None:
        self._task.stop()
        self.session.finish()
