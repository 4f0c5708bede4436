import numpy as np
import pytest

from airs import scenario as sc
from conftest import record


def default_scenario(**kw):
    return record(sc.ScenarioConfig, "scenario", **kw)


def small_scenario(buildings_per_cell=2, **kw):
    base = dict(
        area_x_max=100.0,
        area_y_max=100.0,
        grid_cells_per_side=2,
        cell_side=45.0,
        buildings_per_cell=buildings_per_cell,
        building_height_range=(10.0, 40.0),
        su_position=(-20.0, 50.0, 15.0),
        user_initial_positions=((75.0, 50.0, 0.0),),
        alt_min=20.0,
        alt_max=60.0,
        seed=0,
    )
    base.update(kw)
    return default_scenario(**base)


# -- configuration validation -------------------------------------------------


def test_area_must_match_grid():
    with pytest.raises(sc.ScenarioError, match="does not match"):
        small_scenario(cell_side=40.0)


def test_user_off_road_rejected():
    with pytest.raises(sc.ScenarioError, match="not on a road"):
        small_scenario(user_initial_positions=((20.0, 20.0, 0.0),))


def test_user_above_ground_rejected():
    with pytest.raises(sc.ScenarioError, match="ground point"):
        small_scenario(user_initial_positions=((75.0, 50.0, 1.0),))


# -- city generation ----------------------------------------------------------


def test_zero_buildings_gives_empty_city():
    assert sc.generate_city(small_scenario(buildings_per_cell=0)) == []


def test_default_grid_has_72_buildings():
    city = sc.generate_city(default_scenario())
    assert len(city) == 72  # 3x3 cells, 8 buildings each


def test_same_seed_same_city():
    a = sc.generate_city(default_scenario(seed=9))
    b = sc.generate_city(default_scenario(seed=9))
    assert a == b
    c = sc.generate_city(default_scenario(seed=10))
    assert a != c


def test_buildings_inside_cells_and_off_roads():
    cfg = default_scenario()
    network = sc.RoadNetwork(cfg)
    pitch = cfg.cell_side + cfg.road_width
    for b in sc.generate_city(cfg):
        col = int((b.x0 - cfg.area_x_min) // pitch)
        row = int((b.y0 - cfg.area_y_min) // pitch)
        ox = cfg.area_x_min + col * pitch
        oy = cfg.area_y_min + row * pitch
        assert ox <= b.x0 <= b.x1 <= ox + cfg.cell_side
        assert oy <= b.y0 <= b.y1 <= oy + cfg.cell_side
        lo, hi = cfg.building_height_range
        assert lo <= b.height <= hi
        for corner in ((b.x0, b.y0), (b.x1, b.y1)):
            assert not network.on_road(*corner)


def test_buildings_in_one_cell_do_not_overlap():
    cfg = small_scenario(buildings_per_cell=5)
    city = sc.generate_city(cfg)
    per_cell = {}
    for b in city:
        key = (b.x0 // 55, b.y0 // 55)
        per_cell.setdefault(key, []).append(b)
    for group in per_cell.values():
        for i, p in enumerate(group):
            for q in group[i + 1:]:
                disjoint = (
                    p.x1 <= q.x0 or q.x1 <= p.x0 or p.y1 <= q.y0 or q.y1 <= p.y0
                )
                assert disjoint


def test_overcrowded_cell_raises():
    with pytest.raises(sc.ScenarioError, match="cannot fit"):
        sc.generate_city(small_scenario(buildings_per_cell=200))


# -- line of sight --------------------------------------------------------------


def test_los_above_all_buildings():
    city = sc.generate_city(default_scenario())
    top = max(b.height for b in city)
    assert sc.is_los((0.0, 0.0, top + 1), (620.0, 620.0, top + 1), city)


def test_los_blocked_through_interior():
    city = sc.generate_city(default_scenario())
    b = city[0]
    cx, cy = (b.x0 + b.x1) / 2, (b.y0 + b.y1) / 2
    assert not sc.is_los((cx, cy, -1.0), (cx, cy, b.height + 1.0), city)


def test_los_identical_endpoints_rejected():
    with pytest.raises(sc.ScenarioError):
        sc.is_los((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), [])


def test_los_empty_city_always_true():
    assert sc.is_los((0, 0, 0), (1, 1, 1), [])


def sampling_oracle(a, b, index, samples=10_000):
    ts = np.linspace(0.0, 1.0, samples + 2)[1:-1][:, None]
    points = np.asarray(a) + ts * (np.asarray(b) - np.asarray(a))
    inside = (points[:, None, :] >= index.lo) & (points[:, None, :] <= index.hi)
    return not bool(inside.all(axis=2).any())


def test_los_matches_sampling_oracle(rng):
    city = sc.generate_city(default_scenario())
    index = sc.BuildingIndex(city)
    for _ in range(250):
        a = rng.uniform([0, 0, 0], [620, 620, 150])
        b = rng.uniform([0, 0, 0], [620, 620, 150])
        assert sc.is_los(a, b, index) == sampling_oracle(a, b, index)


def test_los_symmetric(rng):
    city = sc.generate_city(default_scenario())
    index = sc.BuildingIndex(city)
    for _ in range(300):
        a = rng.uniform([0, 0, 0], [620, 620, 120])
        b = rng.uniform([0, 0, 0], [620, 620, 120])
        assert sc.is_los(a, b, index) == sc.is_los(b, a, index)


def test_los_monotone_altitude_clearance(rng):
    city = sc.generate_city(default_scenario())
    index = sc.BuildingIndex(city)
    top = max(b.height for b in city)
    for _ in range(200):
        a = rng.uniform([0, 0, 0], [620, 620, 120])
        b = rng.uniform([0, 0, 0], [620, 620, 120])
        lifted_a = np.array([a[0], a[1], top + rng.uniform(0.1, 50.0)])
        lifted_b = np.array([b[0], b[1], top + rng.uniform(0.1, 50.0)])
        assert sc.is_los(lifted_a, lifted_b, index)


def reference_is_los(a, b, index):
    """The slab test as first written: per-axis min/max of both face
    parameters, with a flat axis patched to all or nothing.  Kept as the
    exact oracle of `sc.is_los`."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.array_equal(a, b):
        raise sc.ScenarioError("is_los requires distinct endpoints")
    if len(index) == 0:
        return True
    if tuple(b.tolist()) < tuple(a.tolist()):
        a, b = b, a
    d = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (index.lo - a) / d
        t2 = (index.hi - a) / d
    axis_lo = np.minimum(t1, t2)
    axis_hi = np.maximum(t1, t2)
    flat = d == 0.0
    if flat.any():
        inside = (a >= index.lo) & (a <= index.hi)
        axis_lo = np.where(flat & inside, -np.inf, axis_lo)
        axis_hi = np.where(flat & inside, np.inf, axis_hi)
        axis_lo = np.where(flat & ~inside, np.inf, axis_lo)
        axis_hi = np.where(flat & ~inside, -np.inf, axis_hi)
    t_enter = axis_lo.max(axis=1)
    t_exit = axis_hi.min(axis=1)
    return not bool((np.minimum(t_exit, 1.0) > np.maximum(t_enter, 0.0)).any())


def hard_segments(index, rng, count):
    """Segments through the city: a fifth each random, axis-parallel (one or
    two coordinates shared), lying in a box face, starting on a box face,
    and ending on a box edge line (two of its face coordinates)."""
    lo, hi = index.lo, index.hi
    top = [620.0, 620.0, 150.0]
    for i in range(count):
        a = rng.uniform([0, 0, 0], top)
        b = rng.uniform([0, 0, 0], top)
        box = int(rng.integers(len(lo)))
        axis = int(rng.integers(3))
        face = (lo if rng.random() < 0.5 else hi)[box, axis]
        kind = i % 5
        if kind == 1:
            shared = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
            b[shared] = a[shared]
        elif kind == 2:
            a = rng.uniform(lo[box] - 5.0, hi[box] + 5.0)
            b = rng.uniform(lo[box] - 5.0, hi[box] + 5.0)
            a[axis] = b[axis] = face
        elif kind == 3:
            a = rng.uniform(lo[box], hi[box])
            a[axis] = face
        elif kind == 4:
            b[axis] = face
            b[(axis + 1) % 3] = (lo if rng.random() < 0.5 else hi)[box, (axis + 1) % 3]
        if not np.array_equal(a, b):
            yield a, b


def test_los_equals_reference_slab_test(rng):
    index = sc.BuildingIndex(sc.generate_city(default_scenario()))
    verdicts = []
    for a, b in hard_segments(index, rng, 6000):
        expected = reference_is_los(a, b, index)
        assert sc.is_los(a, b, index) == expected, (a, b)
        verdicts.append(expected)
    assert len(verdicts) >= 5000
    assert 0.2 < np.mean(verdicts) < 0.8
    # A flat axis whose direction component is -0.0 (-0.0 minus 0.0): a
    # segment on the ground across a footprint lies in the box's bottom face.
    (x0, y0, _), (x1, y1, _) = index.lo[0], index.hi[0]
    y = (y0 + y1) / 2
    for a, b in (((x0 - 10.0, y, 0.0), (x1 + 10.0, y, -0.0)),
                 ((x1 + 10.0, y, -0.0), (x0 - 10.0, y, 0.0))):
        assert sc.is_los(a, b, index) == reference_is_los(a, b, index) is False


def test_two_hop_los_equals_both_reference_hops(rng):
    index = sc.BuildingIndex(sc.generate_city(default_scenario()))

    def outcome(test):
        try:
            return test()
        except sc.ScenarioError:
            return "raised"

    segments = list(hard_segments(index, rng, 1500))
    outcomes = []
    for (a, b), (c, _) in zip(segments, segments[1:]):
        # Second hop coincident, first hop coincident, and all distinct.
        for su, irs, user in ((a, b, b.copy()), (a, a.copy(), b), (a, b, c), (c, a, b)):
            expected = outcome(lambda: reference_is_los(su, irs, index)
                               and reference_is_los(irs, user, index))
            assert outcome(lambda: sc.is_los(su, irs, index, then=user)) == expected
            outcomes.append(expected)
    assert {True, False, "raised"} <= set(outcomes)
    assert outcome(lambda: sc.is_los((0, 0, 0), (1, 1, 1), [], then=(1, 1, 1))) == "raised"


@pytest.mark.parametrize("offset", [-5e-7, 0.0, 5e-7])
def test_boundary_band_verdicts_flip_between_grown_and_shrunk_boxes(offset):
    """Segments within 1e-6 of a box face or top edge sit in the boundary band
    that acceptance criterion 07 tolerates: boxes grown by 1e-6 block them and
    boxes shrunk by 1e-6 do not.  The default verdict is one of the two, and
    the right one: `offset` > 0 passes outside the box and is clear, < 0 cuts a
    sliver of it and is blocked.  At 0 the segment in the face's plane counts
    as inside, and the one touching the edge at a point does not block."""
    box = sc.Building(10.0, 10.0, 20.0, 20.0, 30.0)
    grown, shrunk = (sc.BuildingIndex([sc.Building(box.x0 - d, box.y0 - d, box.x1 + d,
                                                   box.y1 + d, box.height + d)])
                     for d in (1e-6, -1e-6))
    x, top = box.x0 - offset, box.height + offset
    segments = [  # (a, b, clear at offset 0)
        ((x, 5.0, 12.0), (x, 25.0, 18.0), False),  # along the x0 face
        ((15.0, 15.0, top + 5.0), (25.0, 15.0, top - 5.0), True),  # over the x1 top edge
    ]
    for a, b, clear_on_surface in segments:
        verdicts = sc.is_los(a, b, grown), sc.is_los(a, b, shrunk)
        assert verdicts == (False, True), (a, b)
        expected = offset > 0.0 or (offset == 0.0 and clear_on_surface)
        assert sc.is_los(a, b, [box]) == expected, (a, b)


def test_built_index_is_read_only():
    """An in-place edit of the corners or the face table raises, so the index
    cannot go stale."""
    index = sc.BuildingIndex(sc.generate_city(default_scenario()))
    for table in (index.lo, index.hi, index.slabs):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


# -- user mobility ---------------------------------------------------------------


def test_step_user_zero_speed(rng):
    cfg = small_scenario()
    net = sc.RoadNetwork(cfg)
    track = sc.UserTrack(np.array([75.0, 50.0, 0.0]), np.array([1.0, 0.0]), 0.0)
    after = sc.step_user(track, 1.0, rng, net)
    assert np.array_equal(after.position, track.position)


def test_step_user_straight_advance(rng):
    cfg = small_scenario()
    net = sc.RoadNetwork(cfg)
    track = sc.UserTrack(np.array([75.0, 50.0, 0.0]), np.array([-1.0, 0.0]), 1.0)
    after = sc.step_user(track, 1.0, rng, net)
    assert after.position[0] == pytest.approx(74.0)
    assert after.position[1] == pytest.approx(50.0)


def test_step_user_turns_at_dead_end(rng):
    cfg = small_scenario()
    net = sc.RoadNetwork(cfg)
    # Spawn one meter before the east border, heading into it.
    track = sc.UserTrack(np.array([99.0, 50.0, 0.0]), np.array([1.0, 0.0]), 1.0)
    after = sc.step_user(track, 2.0, rng, net)
    assert after.position[0] == pytest.approx(99.0)
    assert after.heading[0] == -1.0


def test_long_walk_stays_on_roads():
    cfg = default_scenario(user_initial_positions=((305.0, 205.0, 0.0),))
    net = sc.RoadNetwork(cfg)
    rng = np.random.default_rng(7)
    track = sc.UserTrack.spawn((305.0, 205.0, 0.0), net, 1.0, rng)
    for _ in range(100_000):
        track = sc.step_user(track, 1.0, rng, net)
        assert net.on_road(track.position[0], track.position[1])


def test_walk_deterministic_per_seed():
    cfg = small_scenario()
    net = sc.RoadNetwork(cfg)

    def trajectory(seed):
        gen = np.random.default_rng(seed)
        track = sc.UserTrack.spawn((75.0, 50.0, 0.0), net, 1.4, gen)
        points = []
        for _ in range(500):
            track = sc.step_user(track, 1.0, gen, net)
            points.append(tuple(track.position))
        return points

    assert trajectory(3) == trajectory(3)
    assert trajectory(3) != trajectory(4)


def test_spawn_snaps_to_centerline():
    cfg = small_scenario()
    net = sc.RoadNetwork(cfg)
    track = sc.UserTrack.spawn((75.0, 52.5, 0.0), net, 1.0, np.random.default_rng(0))
    assert track.position[1] == pytest.approx(50.0)


def graph_headings(network):
    """Every node of the road graph, with the headings toward its neighbours.

    The oracle for `RoadNetwork.headings`: an explicit dict-of-sets graph of
    the centerlines, keyed by coordinates rounded to 6 places, with an edge
    between each two consecutive nodes of a centerline.
    """
    graph = {}

    def key(x, y):
        return (round(float(x), 6), round(float(y), 6))

    def add_edge(a, b):
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set()).add(a)

    nodes = []
    for cy in network.centers_y:
        nodes += [(x, cy) for x in network.nodes_x]
        for a, b in zip(network.nodes_x, network.nodes_x[1:]):
            add_edge(key(a, cy), key(b, cy))
    for cx in network.centers_x:
        nodes += [(cx, y) for y in network.nodes_y]
        for a, b in zip(network.nodes_y, network.nodes_y[1:]):
            add_edge(key(cx, a), key(cx, b))
    return {
        (x, y): sorted((float((nx > x) - (nx < x)), float((ny > y) - (ny < y)))
                       for nx, ny in graph[key(x, y)])
        for x, y in nodes
    }


@pytest.mark.parametrize("cfg", [default_scenario(), small_scenario()], ids=["default", "toy"])
def test_headings_match_the_centerline_graph(cfg):
    net = sc.RoadNetwork(cfg)
    expected = graph_headings(net)
    crossings = len(net.centers_x) * len(net.centers_y)
    assert len(expected) == (len(net.centers_y) * len(net.nodes_x)
                             + len(net.centers_x) * len(net.nodes_y) - crossings)
    for (x, y), headings in expected.items():
        assert net.headings(x, y) == headings, (x, y)
