"""Agent roster: the trained policies plus trivial reference baselines.

PPO-family agents differ only in which enhancements are active:

    kind            surface phases   gating rounds   episodic revision
    ppo_vanilla     learned (+M)     0               off
    ppo_necsa       learned (+M)     0               on
    ppo_phasectl    computed         0               off
    ppo_mogrifier   learned (+M)     5               off
    eppo            computed         5               on

`random` draws uniform displacement commands and `hover` holds position;
neither trains.  `AGENT_SPECS` lists the kinds in the ablation's order, and
`build_agent` sizes every kind by the observation and action widths of the
env it flies.
"""

from dataclasses import dataclass

import numpy as np

from ..nn.policy import ActorCritic


@dataclass(frozen=True)
class AgentSpec:
    kind: str
    trainable: bool
    phase_control: bool
    mogrifier_rounds: int
    use_necsa: bool


AGENT_SPECS = {spec.kind: spec for spec in (
    AgentSpec("ppo_vanilla", True, False, 0, False),
    AgentSpec("ppo_necsa", True, False, 0, True),
    AgentSpec("ppo_phasectl", True, True, 0, False),
    AgentSpec("ppo_mogrifier", True, False, 5, False),
    AgentSpec("eppo", True, True, 5, True),
    AgentSpec("random", False, True, 0, False),
    AgentSpec("hover", False, True, 0, False),
)}


class PpoAgent:
    def __init__(self, policy: ActorCritic, spec: AgentSpec):
        self.policy = policy
        self.spec = spec
        self.state = policy.initial_state(1)

    def reset(self):
        self.state = self.policy.initial_state(1)

    def act(self, obs, rng, greedy: bool = False):
        """The policy's action for `obs`; advances the agent's recurrent state."""
        action, self.state = self.policy.act(obs, self.state, rng, greedy=greedy)
        return action


class RandomAgent:
    """Uniform commands over the whole action cube."""

    def __init__(self, action_dim: int):
        self.spec = AGENT_SPECS["random"]
        self.action_dim = action_dim

    def reset(self):
        pass

    def act(self, obs, rng, greedy: bool = False):
        return rng.uniform(-1.0, 1.0, size=self.action_dim)


class HoverAgent:
    """Zero displacement every slot."""

    def __init__(self, action_dim: int):
        self.spec = AGENT_SPECS["hover"]
        self.action_dim = action_dim

    def reset(self):
        pass

    def act(self, obs, rng, greedy: bool = False):
        return np.zeros(self.action_dim)


def build_agent(kind: str, env, init_rng=None, **nn):
    """An agent of `kind` for `env`, sized by its observation and action widths.

    Trainable kinds need an init generator; `nn` (the config's `nn` section:
    hidden, log_std_init, bptt_chunk) goes to their `ActorCritic`.
    """
    if kind not in AGENT_SPECS:
        raise ValueError(f"unknown agent kind {kind!r}; choose from {sorted(AGENT_SPECS)}")
    spec = AGENT_SPECS[kind]
    if not spec.trainable:
        return (RandomAgent if kind == "random" else HoverAgent)(env.action_dim)
    if init_rng is None:
        raise ValueError(f"agent kind {kind!r} needs an init generator")
    policy = ActorCritic(init_rng, obs_dim=env.observation_dim, action_dim=env.action_dim,
                         mogrifier_rounds=spec.mogrifier_rounds, **nn)
    return PpoAgent(policy, spec)
