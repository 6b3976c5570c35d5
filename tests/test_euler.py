import itertools

import pytest

from wildram.euler import SurfaceConfig, euler_delta, preset


def config(swans, intersections, klog, r_sum=0):
    return SurfaceConfig(
        components=tuple((f"D{i}", s) for i, s in enumerate(swans)),
        intersections=tuple(tuple(r) for r in intersections),
        klog=tuple(klog), r_sum=r_sum)


def test_trivial_character():
    report = euler_delta(config([0], [[1]], [-2]))
    assert report.delta == 0


def test_single_component_worked_example():
    report = euler_delta(config([2], [[1]], [-3]))
    assert report.sw_self == 4
    assert report.sw_klog == -6
    assert report.delta == -2


def test_two_component_worked_example():
    report = euler_delta(config([1, 1], [[0, 1], [1, 0]], [0, 0], r_sum=2))
    assert report.delta == 0


def test_bilinearity_in_the_conductors():
    base = config([1, 2], [[1, 1], [1, 0]], [-1, -2], r_sum=0)
    scaled = config([3, 6], [[1, 1], [1, 0]], [-1, -2], r_sum=0)
    a, b = euler_delta(base), euler_delta(scaled)
    assert b.sw_self == 9 * a.sw_self
    assert b.sw_klog == 3 * a.sw_klog


def test_component_permutation_invariance():
    swans, klog = [1, 2, 3], [-1, -2, -3]
    inter = [[1, 2, 0], [2, 0, 1], [0, 1, 1]]
    reference = euler_delta(config(swans, inter, klog, r_sum=4)).delta
    for perm in itertools.permutations(range(3)):
        permuted = config([swans[i] for i in perm],
                          [[inter[i][j] for j in perm] for i in perm],
                          [klog[i] for i in perm], r_sum=4)
        assert euler_delta(permuted).delta == reference


def test_validation_errors():
    with pytest.raises(ValueError):
        config([1], [[1, 0]], [-2])                    # not square
    with pytest.raises(ValueError):
        config([1, 1], [[0, 1], [2, 0]], [0, 0])       # not symmetric
    with pytest.raises(ValueError):
        config([1], [[1]], [-2, 0])                    # klog length
    with pytest.raises(ValueError):
        config([-1], [[1]], [-2])                      # negative conductor


def test_non_integer_numbers_are_refused():
    # the constructor holds the integer rule, so a preset and a parsed
    # JSON config both refuse a float instead of truncating it
    with pytest.raises(ValueError, match="must be integers"):
        preset("plane-line", [2.5])
    with pytest.raises(ValueError, match="must be integers"):
        SurfaceConfig.from_dict({"components": [{"name": "L", "sw": 2.9}],
                                 "intersections": [[1]], "klog": [-2]})
    with pytest.raises(ValueError, match="must be integers"):
        config([1], [[1.0]], [-2])
    with pytest.raises(ValueError, match="must be integers"):
        config([1], [[1]], [-2], r_sum="0")
    # operator.index takes a bool, which would print as a conductor
    with pytest.raises(ValueError, match="True is a bool"):
        preset("plane-line", [True])
    with pytest.raises(ValueError, match="False is a bool"):
        SurfaceConfig.from_dict({"components": [{"name": "L", "sw": 1}],
                                 "intersections": [[1]], "klog": [False]})


def test_round_trip_dict():
    cfg = config([2, 1], [[1, 1], [1, 1]], [-1, -1], r_sum=3)
    assert SurfaceConfig.from_dict(cfg.to_dict()) == cfg


def test_presets():
    one = preset("plane-line", [2])
    assert euler_delta(one).delta == 2 * 2 * 1 + 2 * (-2)
    two = preset("plane-two-lines", [1, 1], r_sum=2)
    # (L1+L2)^2 = 4, K_log degrees -1 each
    assert euler_delta(two).delta == 4 - 2 - 2
    with pytest.raises(ValueError):
        preset("plane-line", [1, 2])
    with pytest.raises(ValueError):
        preset("torus", [1])
