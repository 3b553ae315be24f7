"""convrefine: class-separation analysis and architecture refinement for conv nets."""

from .featio import (
    load_manifest,
    read_labels_file,
    read_tensor_file,
    write_labels_file,
    write_tensor_file,
)
from .netir import (
    ConvBlock,
    IRSyntaxError,
    IRValidationError,
    NetworkIR,
    param_count,
    parse_network,
    serialize_network,
)
from .planner import (
    BlockTerms,
    PlanEntry,
    RefinementPlan,
    block_terms,
    build_plan,
    parse_plan,
    psi,
    serialize_plan,
)
from .rewriter import SizeReport, apply_plan, size_report
from .sepstats import (
    SeparationTally,
    network_statistics,
    separation_tally,
)
from .evalkit import precision_at_k, synth_activations

__version__ = "0.1.0"
