"""Reference coefficient tables the pipeline must reproduce.

These values are the package's frozen contract: the verification command
compares freshly generated series against them and reports anything beyond
the tables as merely derived.  All entries are exact rationals.
"""

from fractions import Fraction as F

# Keyed by series name, then by power of the series variable
# (lambda^2 for "ivory"/"h-series", h for the rest).
REFERENCE_SERIES: dict[str, dict[int, F]] = {
    "ivory": {
        0: F(1),
        1: F(1, 4),
        2: F(1, 64),
        3: F(1, 256),
        4: F(25, 16384),
        5: F(49, 65536),
        6: F(441, 1048576),
        7: F(1089, 4194304),
        8: F(184041, 1073741824),
        9: F(511225, 4294967296),
    },
    "true": {
        0: F(0),
        1: F(4),
        2: F(-1),
        3: F(-1, 2),
        4: F(-5, 8),
        5: F(-17, 16),
        6: F(-273, 128),
        7: F(-609, 128),
        8: F(-23391, 2048),
    },
    "approx": {
        0: F(0),
        1: F(4),
        2: F(-1),
        3: F(-1, 2),
        4: F(-5, 8),
        5: F(-17, 16),
        6: F(-269, 128),
        7: F(-1163, 256),
        8: F(-10657, 1024),
    },
    "difference": {
        0: F(0),
        1: F(0),
        2: F(0),
        3: F(0),
        4: F(0),
        5: F(0),
        6: F(-1, 32),
        7: F(-55, 256),
        8: F(-2077, 2048),
    },
}
# The h-series is the ivory series minus 1: the same table, constant term 0.
REFERENCE_SERIES["h-series"] = {**REFERENCE_SERIES["ivory"], 0: F(0)}

# Partial numerator coefficients of the true inverse's continued fraction.
# The first three come straight off the display; the fourth and fifth are
# pinned by the re-expansion identity (the depth-d truncation must match
# the source series through order d + 2), which determines them uniquely.
CFRAC_PARTIALS: tuple[F, ...] = (
    F(1, 2),
    F(3, 4),
    F(3, 4),
    F(31, 36),
    F(911, 1116),
)
