"""Petri-net core: the paper's extended timed Petri net and its lineage.

Public surface of :mod:`repro.core`:

* base nets and analysis — :class:`PetriNet`, :class:`Marking`,
  :func:`reachability_graph`, :func:`is_safe`, :func:`is_p_invariant`
* timed semantics — :class:`TimedPetriNet`, :class:`TimedExecution`
* interval algebra — :class:`TemporalRelation`, :class:`Interval`
* OCPN / XOCPN compilers — :func:`compile_spec`, :func:`compile_xocpn`
* the extended model — :class:`ExtendedPresentation`,
  :class:`InteractivePlayer`, :class:`FloorControl`,
  :class:`DistributedCoordinator`
* prioritized baseline — :class:`PrioritizedPetriNet`
* scheduling — :class:`PresentationTimeline`, :func:`timeline_to_ascii`

``python -m repro nets check`` (:mod:`repro.core.netcheck`) runs the
analysis on the nets the system itself fires or compiles.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "analysis": (
        "ReachabilityGraph", "StateSpaceLimitExceeded", "bound", "is_p_invariant",
        "is_safe", "reachability_graph",
    ),
    "extended": (
        "CONTROL_TRANSITIONS", "DistributedCoordinator", "ExtendedPresentation",
        "FloorControl", "Interaction", "InteractivePlayer", "PlayerEvent",
        "Segment", "SiteLink", "build_control_net", "build_floor_net",
    ),
    "intervals": ("Interval", "TemporalRelation", "relation_between", "schedule_pair"),
    "ocpn": (
        "CompiledOCPN", "Composite", "MediaLeaf", "OCPNCompiler", "Spec",
        "SpecError", "compile_spec", "parallel", "sequence", "spec_duration",
        "spec_intervals", "verify_schedule",
    ),
    "petri": (
        "Arc", "DuplicateNodeError", "Marking", "NotEnabledError", "PetriNet",
        "PetriNetError", "Place", "Transition", "UnknownNodeError",
    ),
    "prioritized": ("PrioritizedPetriNet",),
    "scheduler": ("PresentationTimeline", "TimelineEntry"),
    "timed": ("TimedEvent", "TimedExecution", "TimedPetriNet"),
    "visualize": ("timeline_to_ascii",),
    "xocpn": (
        "Channel", "CompiledXOCPN", "QoSRequirement", "StallReport",
        "XOCPNCompiler", "compile_xocpn", "measure_stalls",
    ),
})
