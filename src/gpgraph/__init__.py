"""Power graphs of finite groups: construction, completeness, components,
planarity, and an exhaustive classification-verification harness."""

from .catalog import GroupSpec, build, catalog_up_to, enumerate_abelian_up_to, parse_spec
from .graphs import SimpleGraph, from_edge_list
from .groups import (
    FiniteGroup,
    closure_from_permutations,
    format_cayley_table,
    parse_cayley_table,
    read_cayley_table,
    validate_and_build,
    write_cayley_table,
)
from .planarity import (
    PlanarityVerdict,
    biconnected_components,
    euler_bound_check,
    is_planar,
)
from .powergraph import (
    VertexConvention,
    generalized_power_graph,
    power_graph,
    vertex_elements,
)
from .verify import TheoremReport, VerifyConfig, reports_to_json, run_all

__all__ = [
    "FiniteGroup",
    "GroupSpec",
    "PlanarityVerdict",
    "SimpleGraph",
    "TheoremReport",
    "VerifyConfig",
    "VertexConvention",
    "biconnected_components",
    "build",
    "catalog_up_to",
    "closure_from_permutations",
    "enumerate_abelian_up_to",
    "euler_bound_check",
    "format_cayley_table",
    "from_edge_list",
    "generalized_power_graph",
    "is_planar",
    "parse_cayley_table",
    "parse_spec",
    "power_graph",
    "read_cayley_table",
    "reports_to_json",
    "run_all",
    "validate_and_build",
    "vertex_elements",
    "write_cayley_table",
]
