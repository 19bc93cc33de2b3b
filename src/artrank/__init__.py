"""Collector-artist network analytics for art-market sale logs.

Builds the weighted endorsement network (buyer to original creator) from a
validated sale-event log and computes authority/hub rankings, degree and
strength measures, concentration statistics (Lorenz, Gini, top shares),
Kendall rank correlations, and percentile-based user profiles. A batch CLI
(``artrank``) wires the stages into a deterministic artifact pipeline.
"""

from .centrality import (
    DegreeMetrics,
    HitsConfig,
    HitsScores,
    degree_metrics,
    hits,
    trader_score,
)
from .columns import DecimalColumn, TextColumn
from .econometrics import (
    CORRELATION_LABELS,
    CorrelationMatrix,
    LorenzCurve,
    correlation_matrix,
    gini,
    kendall_tau,
    lorenz,
    top_share,
)
from .graph import (
    AdjacencyView,
    CollectorArtistNetwork,
    CSRMatrix,
    RoleFlags,
    Weighting,
    active_users,
    adjacency,
    build_network,
)
from .ingest import (
    EventLog,
    MissingRateError,
    RateTable,
    RejectReport,
    convert_currency,
    parse_events,
    write_events_csv,
)
from .profiling import (
    ARTIST_CODE_METRICS,
    COLLECTOR_CODE_METRICS,
    METRIC_NAMES,
    MetricsTable,
    Profiles,
    Role,
    build_metrics_table,
    build_profiles,
    classify_role,
    match_code,
    normalize_metrics,
    percentiles,
    role_codes,
)
from .report import (
    DIMENSION_PURCHASES,
    DIMENSION_SALES,
    MarketSummary,
    figure5_data,
    histogram_data,
    summarize,
    volume_by_buyer,
    volume_by_seller,
)

__version__ = "0.1.0"

__all__ = [
    "ARTIST_CODE_METRICS",
    "AdjacencyView",
    "COLLECTOR_CODE_METRICS",
    "CORRELATION_LABELS",
    "CSRMatrix",
    "CollectorArtistNetwork",
    "CorrelationMatrix",
    "DIMENSION_PURCHASES",
    "DIMENSION_SALES",
    "DecimalColumn",
    "DegreeMetrics",
    "EventLog",
    "HitsConfig",
    "HitsScores",
    "LorenzCurve",
    "METRIC_NAMES",
    "MarketSummary",
    "MetricsTable",
    "MissingRateError",
    "Profiles",
    "RateTable",
    "RejectReport",
    "Role",
    "RoleFlags",
    "TextColumn",
    "Weighting",
    "active_users",
    "adjacency",
    "build_metrics_table",
    "build_network",
    "build_profiles",
    "classify_role",
    "convert_currency",
    "correlation_matrix",
    "degree_metrics",
    "figure5_data",
    "gini",
    "histogram_data",
    "hits",
    "kendall_tau",
    "lorenz",
    "match_code",
    "normalize_metrics",
    "parse_events",
    "percentiles",
    "role_codes",
    "summarize",
    "top_share",
    "trader_score",
    "volume_by_buyer",
    "volume_by_seller",
    "write_events_csv",
]
