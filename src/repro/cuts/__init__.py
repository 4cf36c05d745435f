"""Cuts, bisection widths, and every cut construction in the paper.

Exact solvers (exhaustive enumeration, the layered min-plus DP), heuristic
solvers (Kernighan-Lin, Fiduccia-Mattheyses, spectral), the paper's
folklore cuts, the mesh-of-stars analysis (Lemmas 2.17-2.19), the headline
sub-``n`` bisection of ``Bn`` (Theorem 2.20), and the compact/amenable set
machinery (Lemmas 2.6-2.9, 2.14-2.15).
"""

from .cut import Cut
from .enumerate_exact import CutProfile, cut_profile, min_bisection, min_u_bisection
from .layered_dp import (
    LayeredProfile,
    layered_cut_profile,
    layered_bisection_width,
    layered_min_bisection,
    layered_u_bisection_width,
)
from .branch_and_bound import bb_min_bisection, bb_bisection_width
from .kernighan_lin import kernighan_lin_bisection, kl_refine
from .fiduccia_mattheyses import fm_refine, fm_bisection
from .spectral import fiedler_vector, spectral_bisection
from .constructions import (
    column_prefix_cut,
    ccc_dimension_cut,
    level_split_cut,
    product_prefix_cut,
    fat_tree_root_cut,
)
from .mos_cuts import (
    f_xy,
    f_minimum,
    f_min_on_grid,
    mos_m2_capacity,
    mos_m2_bisection_width,
    MosCutSpec,
    optimal_mos_cut_spec,
    build_mos_cut,
)
from .butterfly_bisection import (
    mos_quotient_map,
    BisectionPlan,
    plan_bisection,
    best_plan,
    build_planned_bisection,
    butterfly_bisection_below_n,
)
from .compactness import (
    collapse_onto_side,
    best_collapse,
    check_compact_for_cut,
    collapse_above_inputs,
    component_collapse,
)
from .amenable import mixed_orientation, rearranged, check_amenable_for_cut

__all__ = [
    "Cut",
    "CutProfile",
    "cut_profile",
    "min_bisection",
    "min_u_bisection",
    "LayeredProfile",
    "layered_cut_profile",
    "layered_bisection_width",
    "layered_min_bisection",
    "layered_u_bisection_width",
    "bb_min_bisection",
    "bb_bisection_width",
    "kernighan_lin_bisection",
    "kl_refine",
    "fm_refine",
    "fm_bisection",
    "fiedler_vector",
    "spectral_bisection",
    "column_prefix_cut",
    "ccc_dimension_cut",
    "level_split_cut",
    "product_prefix_cut",
    "fat_tree_root_cut",
    "f_xy",
    "f_minimum",
    "f_min_on_grid",
    "mos_m2_capacity",
    "mos_m2_bisection_width",
    "MosCutSpec",
    "optimal_mos_cut_spec",
    "build_mos_cut",
    "mos_quotient_map",
    "BisectionPlan",
    "plan_bisection",
    "best_plan",
    "build_planned_bisection",
    "butterfly_bisection_below_n",
    "collapse_onto_side",
    "best_collapse",
    "check_compact_for_cut",
    "collapse_above_inputs",
    "component_collapse",
    "mixed_orientation",
    "rearranged",
    "check_amenable_for_cut",
]
