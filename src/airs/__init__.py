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

import os

__version__ = "0.1.0"

# One BLAS thread, set before anything imports numpy: a gemm's rounding depends
# on how many threads split it, so a thread count set by the caller would
# silently change the bytes a run writes.  The `airs` console script and
# `python -m airs.cli` import this package first.  A caller's value is
# overridden on purpose; honouring it would make it one more setting.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ[_name] = "1"
