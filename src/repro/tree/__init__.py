"""Tag-tree substrate (Section 2.2 of the paper).

A well-formed web document is modeled as a *tag tree* (Definition 1): internal
nodes are tag nodes, leaves are content nodes.  This package provides

* the node model (:mod:`repro.tree.node`),
* construction from raw HTML via the normalizer
  (:mod:`repro.tree.builder`, the Phase 1 third task),
* the structural metrics used by every heuristic -- ``fanout``, ``nodeSize``,
  ``subtreeSize``, ``tagCount`` (:mod:`repro.tree.metrics`),
* dot-notation path expressions like ``HTML[1].body[2].form[4]``
  (:mod:`repro.tree.paths`), and
* traversal and ASCII rendering helpers (:mod:`repro.tree.traversal`,
  :mod:`repro.tree.render`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.tree.builder": ("build_tag_tree", "parse_document"),
        "repro.tree.diff": ("Change", "diff_trees", "summarize_staleness"),
        "repro.tree.metrics": ("fanout", "node_size", "subtree_size", "tag_count"),
        "repro.tree.node": ("ContentNode", "Node", "TagNode"),
        "repro.tree.paths": ("format_path", "node_at_path", "parse_path", "path_of"),
        "repro.tree.render": ("render_tree",),
        "repro.tree.validate": ("assert_valid_tree", "validate_tree"),
        "repro.tree.traversal": (
            "ancestors", "descendants", "find_all", "find_first", "is_ancestor",
            "iter_nodes", "leaf_nodes", "tag_nodes",
        ),
    },
)

__all__ = [
    "Change",
    "ContentNode",
    "assert_valid_tree",
    "diff_trees",
    "summarize_staleness",
    "validate_tree",
    "Node",
    "TagNode",
    "ancestors",
    "build_tag_tree",
    "descendants",
    "fanout",
    "find_all",
    "find_first",
    "format_path",
    "is_ancestor",
    "iter_nodes",
    "leaf_nodes",
    "node_at_path",
    "node_size",
    "parse_document",
    "parse_path",
    "path_of",
    "render_tree",
    "subtree_size",
    "tag_count",
    "tag_nodes",
]
