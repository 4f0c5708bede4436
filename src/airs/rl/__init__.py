from .agents import AGENT_SPECS, build_agent
from .necsa import EpisodicTable, NecsaShaper, abstract_state, necsa_revise
from .ppo import (
    NumericAbort,
    PpoConfig,
    PpoUpdater,
    RolloutBuffer,
    gae_advantages,
    normalize_advantages,
    ppo_loss,
)
from .train import evaluate, train

__all__ = [
    "AGENT_SPECS",
    "build_agent",
    "EpisodicTable",
    "NecsaShaper",
    "abstract_state",
    "necsa_revise",
    "NumericAbort",
    "PpoConfig",
    "PpoUpdater",
    "RolloutBuffer",
    "gae_advantages",
    "normalize_advantages",
    "ppo_loss",
    "evaluate",
    "train",
]
