from .agents import AGENT_SPECS, baseline_agent
from .necsa import EpisodicTable, NecsaShaper, abstract_state, necsa_revise
from .ppo import (
    NumericAbort,
    PpoConfig,
    PpoUpdater,
    RolloutBuffer,
    Transition,
    gae_advantages,
    normalize_advantages,
    ppo_loss,
)
from .train import agent_from_checkpoint, evaluate, train

__all__ = [
    "AGENT_SPECS",
    "baseline_agent",
    "EpisodicTable",
    "NecsaShaper",
    "abstract_state",
    "necsa_revise",
    "NumericAbort",
    "PpoConfig",
    "PpoUpdater",
    "RolloutBuffer",
    "Transition",
    "gae_advantages",
    "normalize_advantages",
    "ppo_loss",
    "agent_from_checkpoint",
    "evaluate",
    "train",
]
