"""Multi-path token swap routing over CFMM pool snapshots."""

from .allocation import (
    Allocation,
    AsgmParams,
    AsgmResult,
    MultiEdgePath,
    asgm,
    objective,
    path_output,
)
from .baselines import best_single_path
from .cfmm import (
    MAX_UINT256,
    ConstantProduct,
    PiecewiseLiquidity,
    Segment,
    SequentialComposite,
)
from .engine import (
    RouteQuery,
    RouteSolution,
    merge_and_expand,
    prepare_routing,
    prime,
    verify_solution,
)
from .errors import (
    AmountOverflowError,
    CapacityExceededError,
    InvalidParamsError,
    MalformedSnapshotError,
    NoRouteError,
    ParseError,
    RoutingError,
    VersionUnsupportedError,
)
from .graph import Edge, Pool, SwapGraph, Token, build_graph, prune_leaf_tokens
from .io import Snapshot, generate_synthetic, load_snapshot, save_snapshot
from .pathfind import SinglePath, find_path
from .preprocess import build_shortcut_index, select_hubs

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
