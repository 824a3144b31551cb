"""Million-viewer load harness: workload generation, per-edge viewer
cohorts, and the driver that executes either against the serving tier.

See :mod:`repro.load.workload` for the catalog-driven generator (Zipf
popularity, flash crowds, churn), :mod:`repro.load.cohort` for
the N-viewers-one-session aggregation with lazy de-aggregation, and
:mod:`repro.load.harness` for the real/cohort execution modes and the
measurements ``bench/run.py`` reports.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "cohort": ("CohortError", "CohortViewer"),
    "harness": (
        "LoadConfig", "LoadResult", "encode_lecture", "peak_rss_bytes", "run_workload",
    ),
    "workload": (
        "ArrivalScript", "CohortPlan", "LectureSpec", "ViewerArrival",
        "WorkloadError", "WorkloadSpec", "generate", "plan_cohorts",
    ),
})
