"""Multiple-level content tree (paper §2.2–§2.4) and the Abstractor."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "abstractor": ("Abstractor", "Summary", "linear_truncation", "tree_from_segments"),
    "serialize": (
        "FORMAT_VERSION", "tree_from_dict", "tree_from_json", "tree_to_dict",
        "tree_to_json",
    ),
    "tree": ("ContentNode", "ContentTree", "ContentTreeError", "build_example_tree"),
})
