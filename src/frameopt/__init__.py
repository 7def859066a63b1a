"""Topology optimization of 2-D frame ground structures.

Compliance minimization over member areas with four solution methods:
an optimality-criteria fixed point, a projected-gradient local solver,
a nonlinear-SDP penalty method, and a moment-relaxation hierarchy with
global lower/upper-bound certificates backed by a built-in SDP solver.
"""

from frameopt.model import (
    CIRCLE_SECTION,
    PLATE_GIRDER_SECTION,
    SQUARE_SECTION,
    DistributedLoad,
    Element,
    FrameAssembly,
    GroundStructure,
    MechanismError,
    ModelError,
    NodalForce,
    NodalMoment,
    Node,
    SelfWeight,
    Support,
    require_valid,
    uniform_design,
    validate,
)
from frameopt.analysis import (
    AnalysisResult,
    DanglingLoadError,
    SingularSystemError,
    compliance,
    compliance_gradient,
    uniform_upper_bound,
)
from frameopt.local import (
    LocalResult,
    OcConfig,
    run_local_nlp,
    run_oc,
)
from frameopt.nsdp import (
    IncompatibleLoadError,
    SchurCheck,
    build_compliance_lmi,
    check_schur_equivalence,
    run_nsdp_local,
)
from frameopt.sdp import (
    KktReport,
    SdpBlock,
    SdpProblem,
    SdpSolution,
    check_kkt,
    solve_sdp,
)
from frameopt.moments import (
    Certificate,
    HierarchyResult,
    MonomialBasis,
    RankReport,
    Relaxation,
    RelaxationSolution,
    ScaledProblem,
    build_relaxation,
    extract_design,
    gap_certificate,
    moment_matrix,
    moment_vector,
    monomial_basis,
    rank_certificate,
    run_hierarchy,
    scale_problem,
    solve_relaxation,
)
from frameopt.problems import (
    PROBLEM_SCHEMA,
    BenchmarkCase,
    benchmark_case,
    build_benchmarks,
    cantilever,
    girder,
    load_problem,
    packaged_problem,
    problem_from_dict,
    problem_to_dict,
    ten_beam,
)
from frameopt.render import render_svg, render_topology
from frameopt.cli import (
    BenchReport,
    MethodResult,
    SolveSettings,
    main,
    run_benchmark,
    run_method,
)

__version__ = "0.1.0"
