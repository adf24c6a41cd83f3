"""Numerical laboratory for bilateral operator-valued weighted shifts.

Shifts act on two-sided square-summable block sequences; weights are small
dense complex matrices.  The package provides the matrix decompositions and
predicates the constructions need, windowed verification of intertwining and
unitarity for banded operators, canonical positive-weight forms, a decision
procedure for unitary equivalence by single-band (diagonal-form) operators
with constructive witnesses, and a CLI over a JSON specification format.

Spec documents run through one task runner, ``run_spec``: ``shiftlab
verify``, the other CLI commands and the bundled examples, which are spec
files under ``shiftlab/examples`` (``load_example``, ``run_example``).
"""

from .bands import (
    BandedOperator,
    ConditionCheck,
    ConjugationResult,
    SkippedCheck,
    WindowReport,
    check_band_count_bound,
    check_diagonal_propagation,
    check_two_band_structure,
    conjugate_to_shift,
    identity_operator,
    single_band,
    verify_intertwining,
    verify_unitary_banded,
    verify_unitary_three_band,
    verify_unitary_two_band,
)
from .corpus import EXAMPLE_NAMES, load_example, run_example
from .equivalence import (
    ConjugatorResult,
    EquivalenceVerdict,
    Obstruction,
    PositiveForm,
    VerdictStatus,
    decide_diagonal_equivalence,
    decide_diagonal_equivalence_scan,
    diagonal_witness,
    eigen_moduli_screen,
    gram_chains,
    norm_offset_screen,
    positive_form,
    solve_joint_conjugator,
)
from .errors import (
    ConditioningError,
    DimensionError,
    PreconditionError,
    ShiftLabError,
    SpecFormatError,
    WindowAccessError,
)
from .matrices import (
    DEFAULT_TOL,
    INVERTIBILITY_THRESHOLD,
    Tolerance,
    is_unitary,
    nearest_unitary,
    polar_decompose,
)
from .reports import ReportCheck, RunReport
from .shifts import (
    BilateralShift,
    EventuallyIdentityWeights,
    PeriodicWeights,
    WeightSequence,
    WindowedWeights,
    identity_weights,
    reindex_weights,
    weight_norm_profile,
)
from .specfile import (
    SpecModel,
    load_spec_file,
    parse_shift_spec,
    run_spec,
    serialize_model,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
