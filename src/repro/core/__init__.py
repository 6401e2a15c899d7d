"""EDD co-search core: the Eq. 1 objective and the bilevel search loop."""

from repro.core.checkpoint import (
    CheckpointCallback,
    SearchCheckpoint,
    find_latest_checkpoint,
    load_checkpoint,
    restore_search_state,
    save_checkpoint,
)
from repro.core.config import EDDConfig
from repro.core.engine import EngineRun, SearchEngine
from repro.core.loss import combined_loss
from repro.core.cosearch import EDDSearcher, build_supernet
from repro.core.parallel import ParallelEvaluator
from repro.core.results import (
    EpochRecord,
    MultiSearchResult,
    SearchResult,
    TrainResult,
)
from repro.core.trainer import evaluate_network, train_from_spec

__all__ = [
    "CheckpointCallback",
    "EDDConfig",
    "EngineRun",
    "MultiSearchResult",
    "ParallelEvaluator",
    "SearchCheckpoint",
    "SearchEngine",
    "find_latest_checkpoint",
    "load_checkpoint",
    "restore_search_state",
    "save_checkpoint",
    "EDDSearcher",
    "EpochRecord",
    "SearchResult",
    "TrainResult",
    "build_supernet",
    "combined_loss",
    "evaluate_network",
    "train_from_spec",
]
