"""Agent roster: the trained policies plus trivial reference baselines.

PPO-family agents differ only in which enhancements are active:

    kind            surface phases   gating rounds   episodic revision
    eppo            computed         5               on
    ppo_vanilla     learned (+M)     0               off
    ppo_necsa       learned (+M)     0               on
    ppo_phasectl    computed         0               off
    ppo_mogrifier   learned (+M)     5               off

`random` draws uniform displacement commands and `hover` holds position;
neither trains.
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


AGENT_SPECS = {
    "eppo": AgentSpec("eppo", True, True, 5, True),
    "ppo_vanilla": AgentSpec("ppo_vanilla", True, False, 0, False),
    "ppo_necsa": AgentSpec("ppo_necsa", True, False, 0, True),
    "ppo_phasectl": AgentSpec("ppo_phasectl", True, True, 0, False),
    "ppo_mogrifier": AgentSpec("ppo_mogrifier", True, False, 5, False),
    "random": AgentSpec("random", False, True, 0, False),
    "hover": AgentSpec("hover", False, True, 0, False),
}


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

    def state_arrays(self):
        h, c = self.state
        return h[0].copy(), c[0].copy()


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


def baseline_agent(kind: str, obs_dim: int = 6, irs_elements: int = 16,
                   init_rng=None, hidden: int = 64, log_std_init: float = -0.5,
                   bptt_chunk: int = 16):
    """Construct an agent by kind; trainable kinds need an init generator."""
    if kind not in AGENT_SPECS:
        raise ValueError(f"unknown agent kind {kind!r}; choose from {sorted(AGENT_SPECS)}")
    spec = AGENT_SPECS[kind]
    action_dim = 3 if spec.phase_control else 3 + irs_elements
    if not spec.trainable:
        if kind == "random":
            return RandomAgent(action_dim)
        return HoverAgent(action_dim)
    if init_rng is None:
        raise ValueError(f"agent kind {kind!r} needs an init generator")
    policy = ActorCritic(
        init_rng,
        obs_dim=obs_dim,
        action_dim=action_dim,
        hidden=hidden,
        mogrifier_rounds=spec.mogrifier_rounds,
        log_std_init=log_std_init,
        bptt_chunk=bptt_chunk,
    )
    return PpoAgent(policy, spec)
