from .tensor import Param
from .layers import Dense, MogrifierLstm
from .policy import ActorCritic
from .optim import Adam, adam_update
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Param",
    "Dense",
    "MogrifierLstm",
    "ActorCritic",
    "Adam",
    "adam_update",
    "load_checkpoint",
    "save_checkpoint",
]
