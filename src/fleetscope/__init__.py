"""fleetscope: map structured-hostname CDN fleets and estimate their traffic.

Discovery walks each grammar-generated name prefix's server counters
through DNS until the zone stops answering;
validation cross-checks claimed locations and operators against geo and
ASN snapshots; the probe engine samples IPv4 ID counters over ICMP; the
estimator turns ID deltas into packet rates; analytics aggregates them.
A simulated fleet with exact ground truth backs the whole test suite.
"""

__version__ = "0.1.0"

from .names import (  # noqa: F401
    MalformedName,
    ServerName,
    Wordlists,
    format_server_name,
    parse_server_name,
)
from .ipid import (  # noqa: F401
    IdBehavior,
    SeriesEstimates,
    ambiguity_bound,
    estimate_series,
)
