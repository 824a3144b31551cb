"""JSON (de)serialization of content trees.

The publishing manager stores the content tree of a published lecture next
to the stream so clients can offer per-level replay; this module is that
storage format. Round-trip fidelity (structure, order, values, payloads) is
property-tested in ``tests/property/test_tree_properties.py``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from .tree import ContentNode, ContentTree, ContentTreeError

FORMAT_VERSION = 1


def node_to_dict(node: ContentNode) -> Dict[str, Any]:
    data: Dict[str, Any] = {"name": node.name, "value": node.value}
    if node.payload is not None:
        data["payload"] = node.payload
    if node.children:
        data["children"] = [node_to_dict(child) for child in node.children]
    return data


def tree_to_dict(tree: ContentTree) -> Dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "root": node_to_dict(tree.root) if tree.root is not None else None,
    }


def tree_to_json(tree: ContentTree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def _attach_from_dict(tree: ContentTree, parent: Optional[str], data: Dict[str, Any]) -> None:
    name = data["name"]
    value = data["value"]
    payload = data.get("payload")
    if parent is None:
        tree.initialize(name, value, payload=payload)
    else:
        tree.attach(name, value, parent=parent, payload=payload)
    for child in data.get("children", ()):
        _attach_from_dict(tree, name, child)


def tree_from_dict(data: Dict[str, Any]) -> ContentTree:
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ContentTreeError(f"unsupported content-tree format version {version!r}")
    tree = ContentTree()
    if data.get("root") is not None:
        _attach_from_dict(tree, None, data["root"])
    tree.validate()
    return tree


def tree_from_json(text: str) -> ContentTree:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContentTreeError(f"invalid content-tree JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ContentTreeError("content-tree JSON must be an object")
    return tree_from_dict(data)
