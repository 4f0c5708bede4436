"""Seedable simulator and training stack for a UAV-carried reflecting-surface
relay that serves ground users over millimeter-wave links in an urban grid.

Subpackages:
    scenario  -- city geometry, occlusion tests, road-constrained user mobility
    channel   -- path loss, steering vectors, Rician synthesis, phase control
    uav       -- flight kinematics and rotary-wing propulsion energy
    env       -- the decision process: scheduling, reward, fairness, metrics
    nn        -- float64 MLP/LSTM/mogrifier kernels with explicit gradients
    rl        -- clipped-surrogate policy optimization, episodic reward
                 revision, training loop, baseline agents
    cli       -- train / eval / plotdata / ablate commands
"""

__version__ = "0.1.0"
