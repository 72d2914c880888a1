"""Exact covering numbers of finite permutation groups.

The covering number σ(G) is the least number of proper subgroups whose
union is all of G (∞ for cyclic groups, which have no such cover).  The
package computes σ exactly by branch-and-bound over an incidence structure
of maximal cyclic subgroups versus maximal subgroups, emits
machine-checkable certificates for the lower bounds, enumerates all
minimum covers, tests σ-elementarity, and reproduces the classification
of σ-elementary groups with small covering numbers.
"""

from .analysis import (
    ElementaryVerdict,
    SigmaOptions,
    TomkinsonResult,
    classification_report,
    count_symmetric_order_elements,
    derived_series,
    derived_subgroup,
    has_klein_quotient,
    is_sigma_elementary,
    is_solvable,
    sigma,
    sigma_value,
    solvable_elementary_check,
    structural_audit,
    tomkinson_sigma,
)
from .catalog import MANIFEST, construct, parse_group_file, parse_spec, render_group_file
from .cover import (
    INFINITY,
    Certificate,
    CoverInstance,
    SigmaResult,
    VerifyResult,
    build_instance,
    counting_lower_bound,
    enumerate_optimal_covers,
    greedy_upper_bound,
    reduce,
    solve_exact,
    verify_cover,
)
from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    CyclicGroupError,
    GroupCoverError,
    GroupFileError,
    InvariantError,
    ParseError,
    SpecError,
)
from .group import PermGroup, center
from .perm import Permutation, parse_cycles
from .subgroup import SubgroupSet
from .subgroup_lattice import SubgroupLattice, generated_subgroup, lattice

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "CapExceededError",
    "Certificate",
    "CoverInstance",
    "CyclicGroupError",
    "ElementaryVerdict",
    "GroupCoverError",
    "GroupFileError",
    "INFINITY",
    "InvariantError",
    "MANIFEST",
    "ParseError",
    "PermGroup",
    "Permutation",
    "SigmaOptions",
    "SigmaResult",
    "SpecError",
    "SubgroupLattice",
    "SubgroupSet",
    "TomkinsonResult",
    "VerifyResult",
    "build_instance",
    "center",
    "classification_report",
    "construct",
    "count_symmetric_order_elements",
    "counting_lower_bound",
    "derived_series",
    "derived_subgroup",
    "enumerate_optimal_covers",
    "generated_subgroup",
    "greedy_upper_bound",
    "has_klein_quotient",
    "is_sigma_elementary",
    "is_solvable",
    "lattice",
    "parse_cycles",
    "parse_group_file",
    "parse_spec",
    "reduce",
    "render_group_file",
    "sigma",
    "sigma_value",
    "solvable_elementary_check",
    "solve_exact",
    "structural_audit",
    "tomkinson_sigma",
    "verify_cover",
]
