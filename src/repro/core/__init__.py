"""The S3 core: instance model, score, and the S3k search algorithm."""

from .components import Component, ComponentIndex
from .concrete_score import S3kScore
from .connection_index import ConnectionIndex, StaleIndexError
from .connections import ComponentConnections, Connection, resolve_connections
from .extension import extend_query, keyword_extension
from .instance import S3Instance
from .oracle import exact_proximities, exact_scores, exact_top_k
from .paths import (
    NetworkEdge,
    PathExplorer,
    SocialPath,
    bounded_social_proximity,
)
from .prox import ProximityIndex
from .score import FeasibleScore
from .search import (
    QueryState,
    RankedResult,
    S3kSearch,
    SearchResult,
)

__all__ = [
    "S3Instance",
    "S3kSearch",
    "S3kScore",
    "FeasibleScore",
    "SearchResult",
    "RankedResult",
    "QueryState",
    "Component",
    "ComponentIndex",
    "ComponentConnections",
    "Connection",
    "ConnectionIndex",
    "StaleIndexError",
    "resolve_connections",
    "ProximityIndex",
    "PathExplorer",
    "SocialPath",
    "NetworkEdge",
    "bounded_social_proximity",
    "keyword_extension",
    "extend_query",
    "exact_scores",
    "exact_top_k",
    "exact_proximities",
]
