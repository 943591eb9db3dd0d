"""uftree: ranked trees, union-by-rank forests, and exact recognition.

The package decides whether a given ranked tree can arise inside a
disjoint-set forest built with union-by-rank merges and path compressions.
Merge-only (Union) trees are recognized in linear time; the general problem
is NP-complete and is solved exactly by a certificate-producing search,
cross-checkable against a brute-force push oracle.  A compiler from k-way
Partition instances to "flat trees" realizes the hardness construction and
doubles as a validation harness, and a union-by-rank forest engine provides
ground-truth positive instances.
"""

from .errors import CapExceeded, FormatError, InvalidTreeError
from .forest import (
    ExportedTree,
    Forest,
    enumerate_trees,
    export_trees,
    format_oplog,
    mutate,
    parse_oplog,
    random_oplog,
    random_uf_tree,
    replay,
)
from .recognize import (
    Certificate,
    Verdict,
    brute_force_is_uf,
    check_certificate,
    count_filter,
    format_certificate,
    is_union_find_tree,
    is_union_tree,
    parse_certificate,
    satisfies_union_condition,
)
from .reduction import (
    FlatTree,
    PartitionInstance,
    PartitionSolution,
    ReductionReport,
    extract_solution,
    format_instance,
    format_report,
    is_valid_solution,
    make_apple,
    make_basket,
    make_flat_tree,
    parse_instance,
    solve_partition,
    verify_reduction,
)
from .tree import (
    RankedTree,
    ValidationResult,
    canonical_form,
    canonical_key,
    collapse,
    export_dot,
    legal_pushes,
    merge,
    parse_tree,
    parse_tree_with_map,
    precedes,
    push,
    serialize_tree,
    singleton,
    subtree,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "Certificate",
    "ExportedTree",
    "FlatTree",
    "Forest",
    "FormatError",
    "InvalidTreeError",
    "PartitionInstance",
    "PartitionSolution",
    "RankedTree",
    "ReductionReport",
    "ValidationResult",
    "Verdict",
    "brute_force_is_uf",
    "canonical_form",
    "canonical_key",
    "check_certificate",
    "collapse",
    "count_filter",
    "enumerate_trees",
    "export_dot",
    "export_trees",
    "extract_solution",
    "format_certificate",
    "format_instance",
    "format_oplog",
    "format_report",
    "is_union_find_tree",
    "is_union_tree",
    "is_valid_solution",
    "legal_pushes",
    "make_apple",
    "make_basket",
    "make_flat_tree",
    "merge",
    "mutate",
    "parse_certificate",
    "parse_instance",
    "parse_oplog",
    "parse_tree",
    "parse_tree_with_map",
    "precedes",
    "push",
    "random_oplog",
    "random_uf_tree",
    "replay",
    "satisfies_union_condition",
    "serialize_tree",
    "singleton",
    "solve_partition",
    "subtree",
    "validate",
    "verify_reduction",
]
