"""Exact-arithmetic generalized Sierpinski carpets and curl closability checks."""

from .carpet import (
    CarpetSpec,
    NonOddReciprocal,
    Prefractal,
    RatioOutOfRange,
    SpecError,
    StageBeyondSpec,
    TailDiverges,
    TailInterval,
    enumerate_holes,
    enumerate_squares,
    gap_height,
    prefractal_measure,
    side_length,
    tail_measure_bounds,
    validate_spec,
)
from .fields import ProductVectorField
from .forms import verify_wedge_approximation
from .report import VerificationReport, report_to_csv, report_to_json
from .witness import (
    CellNeighborhood,
    FlattenedField,
    Tent,
    build_cell_field,
    build_flattened,
    build_neighborhoods,
    build_ramp,
    build_staircase,
    build_tents,
    check_local_constancy,
    verify_witness_sequence,
)

__version__ = "0.1.0"
