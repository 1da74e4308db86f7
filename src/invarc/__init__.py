"""Exact derivation and numeric validation of the inverse elliptic-arc
approximation.

The pipeline: the perimeter series for an ellipse gives the excess
h(lambda^2); reverting it gives the true inverse lambda^2(h); expanding
that as a regular C-fraction and freezing the near-constant tail at 3/4
collapses to the closed form 4h - 3h^2/(2 + sqrt(1 - 3h)), whose error
against the true inverse is -h^6/32 + O(h^7).  Everything symbolic runs
over exact rationals; the numeric layer validates the result against two
independent floating-point perimeter engines.
"""

from .cfrac import (
    CFracError,
    CFraction,
    CLOSED_FORM,
    DegenerateHead,
    IndexOutOfRange,
    InsufficientDepth,
    InsufficientOrder,
    IrregularExpansion,
    NotInRamanujanShape,
    TailClosedForm,
    cfrac_expand,
    cfrac_to_series,
    collapse_to_closed_form,
    freeze_tail,
)
from .derivation import (
    DerivationReport,
    full_report,
    h_series,
    ivory_coefficient,
    ivory_series,
    ramanujan_series,
    true_inverse_series,
)
from .numeric import (
    DEFAULT_CONFIG,
    ERROR_TABLE_COLUMNS,
    EXACT_SWEEP_CUTOFF,
    DomainError,
    Ellipse,
    ErrorRow,
    NoConvergence,
    NumericError,
    OutOfRange,
    PrecisionConfig,
    error_sweep,
    h_of,
    invert_from_measurements,
    lambda_of,
    perimeter_agm,
    perimeter_series,
    ramanujan_lambda_sq,
)
from .series import (
    DivisionByZeroSeries,
    NonUnitConstant,
    NonzeroInnerConstant,
    NotCentered,
    PowerSeries,
    SeriesError,
    ZeroConstantTerm,
    ZeroLinearTerm,
)

__version__ = "0.1.0"

__all__ = [
    "CFracError",
    "CFraction",
    "CLOSED_FORM",
    "DEFAULT_CONFIG",
    "DegenerateHead",
    "DerivationReport",
    "DivisionByZeroSeries",
    "DomainError",
    "ERROR_TABLE_COLUMNS",
    "EXACT_SWEEP_CUTOFF",
    "Ellipse",
    "ErrorRow",
    "IndexOutOfRange",
    "InsufficientDepth",
    "InsufficientOrder",
    "IrregularExpansion",
    "NoConvergence",
    "NonUnitConstant",
    "NonzeroInnerConstant",
    "NotCentered",
    "NotInRamanujanShape",
    "NumericError",
    "OutOfRange",
    "PowerSeries",
    "PrecisionConfig",
    "SeriesError",
    "TailClosedForm",
    "ZeroConstantTerm",
    "ZeroLinearTerm",
    "cfrac_expand",
    "cfrac_to_series",
    "collapse_to_closed_form",
    "error_sweep",
    "freeze_tail",
    "full_report",
    "h_of",
    "h_series",
    "invert_from_measurements",
    "ivory_coefficient",
    "ivory_series",
    "lambda_of",
    "perimeter_agm",
    "perimeter_series",
    "ramanujan_lambda_sq",
    "ramanujan_series",
    "true_inverse_series",
]
