import numpy as np
import pytest

import tape
from airs.config import default_config


@pytest.fixture(autouse=True)
def clean_tape():
    tape.clear_tape()
    yield
    tape.clear_tape()


def toy_overrides(cfg, users=1, pure_los=True, buildings_per_cell=5):
    """Small fast scenario shared by env/rl/cli tests."""
    cfg["scenario"].update(
        {
            "area_x_max": 100.0,
            "area_y_max": 100.0,
            "grid_cells_per_side": 2,
            "cell_side": 45.0,
            "buildings_per_cell": buildings_per_cell,
            "building_height_range": [25.0, 65.0],
            "su_position": [-20.0, 50.0, 15.0],
            "alt_min": 25.0,
            "alt_max": 60.0,
            "seed": 0,
        }
    )
    if users == 1:
        cfg["scenario"]["user_initial_positions"] = [[75.0, 50.0, 0.0]]
    elif users == 3:
        cfg["scenario"]["user_initial_positions"] = [
            [75.0, 50.0, 0.0],
            [50.0, 25.0, 0.0],
            [25.0, 50.0, 0.0],
        ]
    else:
        raise ValueError(users)
    cfg["env"]["users"] = users
    cfg["channel"]["pure_los"] = pure_los
    cfg["env"].update({"horizon": 100, "d_max": 30.0})
    return cfg


@pytest.fixture
def toy_config():
    return toy_overrides(default_config())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
