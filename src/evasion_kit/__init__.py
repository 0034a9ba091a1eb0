"""Evasion path analysis for mobile sensor networks.

Given sensor tracks over a disk with a sensed fence, this package locates the
times at which coverage topology changes, tracks uncovered components through
the resulting zigzag of fibers and cobordisms, and computes the exact inverse
limit whose cardinality lower-bounds the number of evasion path classes. A
boundary-only pipeline rebuilds the same diagram from boundary components and
winding numbers, witness extraction certifies actual evasion paths, and a
brute-force reachability oracle cross-checks everything.
"""

from .analysis import (AnalysisReport, BoundaryData, OracleResult, Witness,
                       analyze, analyze_boundary, analyze_direct,
                       analyze_oracle, boundary_data_from_document,
                       boundary_limit, d1_count, extract_boundary_data,
                       extract_witness, oracle_reachability, point_uncovered,
                       verify_witness)
from .errors import (EvasionError, ResolutionError, SimultaneousEventsError,
                     WitnessError)
from .limit import (AlgebraLimit, LimitError, LimitResult, PartitionAlgebra,
                    ZigzagAlgebraDiagram, ZigzagSetDiagram, diagrams_isomorphic,
                    inverse_limit, join_partitions, limit_of_algebras,
                    partition_algebra, partition_from_functionals,
                    pullback_partition)
from .planar_homology import (Hole, HoleBasis, HomologyError, alexander_image,
                              holes, winding)
from .rasterize import (BoundaryComponents, CobordismComplex, ComponentLabels,
                        FiberComplex, GridSpec, RasterError, cell_center,
                        components, count_holes, coverage_masks, domain_masks,
                        grid_for_scenario, label_components,
                        rasterize_cobordism, rasterize_fiber, rasterize_fibers)
from .render import render_scenario, slice_svg
from .scenario import (BUILTIN_NAMES, Scenario, ScenarioError, SensorTrack,
                       builtin_scenario, canonical_json, load_scenario,
                       positions_at, random_interval_scenario, save_scenario,
                       scenario_from_document, scenario_to_document,
                       sensor_position, validate_scenario)
from .zigzag import (Event, ZigzagBundle, build_zigzag, detect_events,
                     fiber_signature, interleave)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # scenarios
    "Scenario", "SensorTrack", "ScenarioError", "BUILTIN_NAMES",
    "builtin_scenario", "random_interval_scenario", "validate_scenario",
    "scenario_to_document",
    "scenario_from_document", "load_scenario", "save_scenario",
    "canonical_json", "positions_at", "sensor_position",
    # rasterization
    "GridSpec", "RasterError", "grid_for_scenario", "cell_center",
    "coverage_masks", "domain_masks", "FiberComplex", "CobordismComplex",
    "rasterize_fiber", "rasterize_fibers", "rasterize_cobordism",
    "ComponentLabels", "BoundaryComponents", "components", "label_components",
    "count_holes",
    # limits and algebras
    "LimitError", "ZigzagSetDiagram", "LimitResult", "inverse_limit",
    "PartitionAlgebra", "partition_algebra", "partition_from_functionals",
    "join_partitions", "pullback_partition",
    "ZigzagAlgebraDiagram", "AlgebraLimit", "limit_of_algebras",
    "diagrams_isomorphic",
    # planar homology
    "HomologyError", "Hole", "HoleBasis", "holes", "winding",
    "alexander_image",
    # events and zigzags
    "Event", "fiber_signature", "detect_events", "interleave",
    "ZigzagBundle", "build_zigzag",
    # analyses
    "AnalysisReport", "Witness", "point_uncovered", "verify_witness",
    "extract_witness", "analyze", "analyze_direct", "BoundaryData",
    "boundary_data_from_document", "extract_boundary_data", "boundary_limit",
    "analyze_boundary", "OracleResult", "oracle_reachability",
    "analyze_oracle", "d1_count",
    # errors
    "EvasionError", "ResolutionError", "SimultaneousEventsError",
    "WitnessError",
    # rendering
    "slice_svg", "render_scenario",
]
