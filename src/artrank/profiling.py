"""User typology: percentile levels, A/B/C codes, role quadrants, normalization.

Each user carries 8 metrics (authority, weighted authority, in-strength,
in-degree, hub, weighted hub, out-strength, out-degree). Per metric, users
are split into levels by empirical percentile: C for [0, 0.5], B for
(0.5, 0.9], A for (0.9, 1]. The four artist-side levels form the artist
code (in-degree, in-strength, authority, weighted authority, in that
order), the collector-side levels the collector code; codes support
wildcard pattern queries such as ``AC**``.

Profiles are columns: one cut of the (n, 8) percentile matrix gives every
level, the codes are those levels read as base-3 numbers, and the roles come
from two boolean columns. ``match_code`` queries the code columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .centrality import DegreeMetrics, HitsScores
from .graph import CollectorArtistNetwork

METRIC_NAMES = (
    "authority",
    "w_authority",
    "in_strength",
    "in_degree",
    "hub",
    "w_hub",
    "out_strength",
    "out_degree",
)

ARTIST_CODE_METRICS = ("in_degree", "in_strength", "authority", "w_authority")
COLLECTOR_CODE_METRICS = ("out_degree", "out_strength", "hub", "w_hub")

LEVEL_SYMBOLS = ("A", "B", "C")
WILDCARD = "*"

TIE_RANK_MAX = "max"  # ties share the highest rank of their group (default)
TIE_RANK_MIN = "min"  # ties share the lowest rank; keeps zero-heavy columns low

# a percentile's level index counts the cuts below it: C (<= 0.5), B (<= 0.9), A
_LEVEL_CUTS = np.array([0.5, 0.9])
_LEVELS = np.array(["C", "B", "A"])
# every 4-level code, at the index its level indexes spell in base 3
_CODES = np.array(["".join(code) for code in product(_LEVELS.tolist(), repeat=4)])
_BASE3 = np.array([27, 9, 3, 1])


class Role(str, Enum):
    """Quadrants of the sale/purchase count plane."""

    BY_STANDER = "by_stander"
    PURE_SELLER = "pure_seller"
    PURE_BUYER = "pure_buyer"
    TRADER = "trader"


# the role at index 2 * high_sell + high_buy
ROLES = (Role.BY_STANDER, Role.PURE_BUYER, Role.PURE_SELLER, Role.TRADER)


@dataclass(frozen=True)
class MetricsTable:
    """The 8-metric vector per user, columns in ``METRIC_NAMES`` order."""

    users: tuple[str, ...]
    values: np.ndarray  # shape (n_users, 8), non-negative floats

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.users), len(METRIC_NAMES)):
            raise ValueError("values must be (n_users, 8)")
        bad = np.argwhere(~np.isfinite(self.values))
        if bad.size:
            row, col = bad[0].tolist()
            raise ValueError(f"non-finite {METRIC_NAMES[col]} for user {self.users[row]!r}")
        if self.values.size and np.min(self.values) < 0:
            raise ValueError("metric values must be non-negative")

    def column(self, name: str) -> np.ndarray:
        return self.values[:, METRIC_NAMES.index(name)]


@dataclass(frozen=True, eq=False)
class Profiles:
    """Every user's profile as columns, aligned to the metrics table's rows.

    User ``i`` has role ``ROLES[role[i]]``, the 4-letter codes
    ``artist_code[i]`` and ``collector_code[i]``, the max-normalized metrics
    ``normalized[i]`` (8 values in ``METRIC_NAMES`` order) and
    ``trader_score[i]``.
    """

    users: tuple[str, ...]
    role: np.ndarray
    artist_code: np.ndarray
    collector_code: np.ndarray
    normalized: np.ndarray
    trader_score: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


def build_metrics_table(
    net: CollectorArtistNetwork,
    degrees: DegreeMetrics,
    unweighted: HitsScores,
    weighted: HitsScores,
) -> MetricsTable:
    """Assemble the per-user metric matrix from network-level results."""
    n = net.node_count
    for scores in (unweighted, weighted):
        if scores.authority.shape != (n,):
            raise ValueError("score vectors must match the network node count")
    values = np.column_stack(
        [
            unweighted.authority,
            weighted.authority,
            degrees.in_strength.to_float(),
            degrees.in_degree.astype(np.float64),
            unweighted.hub,
            weighted.hub,
            degrees.out_strength.to_float(),
            degrees.out_degree.astype(np.float64),
        ]
    )
    return MetricsTable(users=net.users, values=values)


def percentiles(scores, tie_rank: str = TIE_RANK_MAX) -> np.ndarray:
    """Empirical percentile of each score within the vector.

    ``max``: fraction of scores less than or equal (ties pushed up, default).
    ``min``: lowest rank of the tie group over n.
    """
    v = np.asarray(scores, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("scores must be a non-empty 1-d vector")
    ordered = np.sort(v)
    if tie_rank == TIE_RANK_MAX:
        ranks = np.searchsorted(ordered, v, side="right")
    elif tie_rank == TIE_RANK_MIN:
        ranks = np.searchsorted(ordered, v, side="left") + 1
    else:
        raise ValueError(f"unknown tie_rank: {tie_rank!r}")
    return ranks / v.size


def percentile_levels(scores, tie_rank: str = TIE_RANK_MAX) -> list[str]:
    """A/B/C level per score: C for percentile <= 0.5, B <= 0.9, A above."""
    return _LEVELS[_level_index(percentiles(scores, tie_rank))].tolist()


def role_codes(table: MetricsTable, tie_rank: str = TIE_RANK_MAX) -> tuple[list[str], list[str]]:
    """Per-user artist and collector 4-letter codes, aligned to table order."""
    artist, collector = _code_columns(table, tie_rank)
    return artist.tolist(), collector.tolist()


def classify_role(table: MetricsTable, percentile_threshold: float = 0.95) -> list[Role]:
    """Quadrant role per user from the sale (in-degree) and buy (out-degree) counts.

    A user is high on a dimension when its count lies strictly above the
    empirical ``percentile_threshold`` quantile of that dimension, i.e. past
    the percentile line of the count-count scatter. Rank-based, so any
    strictly increasing rescaling of a column leaves the labels unchanged.
    """
    return [ROLES[i] for i in _role_index(table, percentile_threshold).tolist()]


def normalize_metrics(table: MetricsTable) -> np.ndarray:
    """Divide each column by its maximum; an all-zero column stays all zero."""
    maxima = table.values.max(axis=0) if table.values.size else np.zeros(len(METRIC_NAMES))
    safe = np.where(maxima > 0, maxima, 1.0)
    return table.values / safe


def build_profiles(
    table: MetricsTable,
    percentile_threshold: float = 0.95,
    tie_rank: str = TIE_RANK_MAX,
) -> Profiles:
    """Full per-user profiles: role, codes, normalized vector, trader score.

    The trader score is the product of the unweighted authority and hub
    columns.
    """
    artist_code, collector_code = _code_columns(table, tie_rank)
    # an overflow leaves inf, which the `profile` command refuses by name
    with np.errstate(over="ignore"):
        trader_score = table.column("authority") * table.column("hub")
    return Profiles(
        users=table.users,
        role=_role_index(table, percentile_threshold),
        artist_code=artist_code,
        collector_code=collector_code,
        normalized=normalize_metrics(table),
        trader_score=trader_score,
    )


def match_code(profiles: Profiles, pattern: str, which: str = "artist") -> list[str]:
    """Users whose stored code matches the pattern position-wise, in table order.

    ``which`` selects the artist code, the collector code, or the 8-symbol
    concatenation (``full``). ``*`` matches any level; stored codes never
    contain wildcards.
    """
    return [profiles.users[i] for i in _matching_rows(profiles, pattern, which)]


def _matching_rows(profiles: Profiles, pattern: str, which: str) -> list[int]:
    """The rows of the users whose ``which`` code matches ``pattern``, in table order."""
    _check_pattern(pattern, which)
    codes = {
        "artist": (profiles.artist_code,),
        "collector": (profiles.collector_code,),
        "full": (profiles.artist_code, profiles.collector_code),
    }[which]
    # one column of letters per code position
    letters = np.hstack([np.asarray(code, dtype="U4").view("U1").reshape(-1, 4) for code in codes])
    keep = np.ones(len(profiles), dtype=bool)
    for position, symbol in enumerate(pattern):
        if symbol != WILDCARD:
            keep &= letters[:, position] == symbol
    return np.flatnonzero(keep).tolist()


def _check_pattern(pattern: str, which: str) -> None:
    """Raise ValueError unless ``pattern`` is a well-formed query of the ``which`` code."""
    expected = {"artist": 4, "collector": 4, "full": 8}.get(which)
    if expected is None:
        raise ValueError(f"unknown code selector: {which!r}")
    if len(pattern) != expected or any(
        c not in LEVEL_SYMBOLS and c != WILDCARD for c in pattern
    ):
        raise ValueError(f"malformed pattern: {pattern!r}")


def _level_index(percentile: np.ndarray) -> np.ndarray:
    """0 (C), 1 (B) or 2 (A) per percentile: the number of cuts below it."""
    return np.searchsorted(_LEVEL_CUTS, percentile, side="left")


def _code_columns(table: MetricsTable, tie_rank: str) -> tuple[np.ndarray, np.ndarray]:
    """Artist and collector codes of every user, from one cut of all 8 percentile columns."""
    if not table.users:
        raise ValueError("metrics table is empty")
    levels = _level_index(
        np.column_stack([percentiles(column, tie_rank) for column in table.values.T])
    )
    return tuple(
        _CODES[levels[:, [METRIC_NAMES.index(m) for m in metrics]] @ _BASE3]
        for metrics in (ARTIST_CODE_METRICS, COLLECTOR_CODE_METRICS)
    )


def _role_index(table: MetricsTable, percentile_threshold: float) -> np.ndarray:
    """Index into ``ROLES`` per user, from the high-seller and high-buyer columns."""
    if not 0 < percentile_threshold < 1:
        raise ValueError("percentile_threshold must be in (0, 1)")
    sell = table.column("in_degree")
    buy = table.column("out_degree")
    high_sell = sell > _quantile(sell, percentile_threshold)
    high_buy = buy > _quantile(buy, percentile_threshold)
    return 2 * high_sell.astype(np.int8) + high_buy


def _quantile(values: np.ndarray, q: float) -> float:
    """Smallest sample value whose empirical CDF reaches q."""
    ordered = np.sort(values)
    k = max(1, math.ceil(q * values.size - 1e-9))
    return float(ordered[k - 1])
