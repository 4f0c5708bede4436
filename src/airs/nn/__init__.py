from .tensor import Tensor, backward, no_grad
from .layers import Dense, MogrifierLstm
from .policy import ActorCritic
from .optim import Adam, adam_update
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "Dense",
    "MogrifierLstm",
    "ActorCritic",
    "Adam",
    "adam_update",
    "load_checkpoint",
    "save_checkpoint",
]
