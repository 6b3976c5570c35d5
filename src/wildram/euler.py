"""Global Euler-characteristic delta from intersection data.

Evaluates

    delta = (Sw . Sw) + (Sw . K_log) - sum of local blow-up totals,

where Sw is the divisor combination sum_i sw_i * D_i of Swan conductors
along the boundary components, (. , .) the user-supplied intersection
pairing, and K_log the degrees of the log canonical sheaf on the
components.  The global geometry is input, not computed; two presets for
the projective plane ship for convenience.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class SurfaceConfig:
    components: tuple          # (name, swan) pairs
    intersections: tuple       # symmetric square matrix, rows as tuples
    klog: tuple                # (K_log . D_i) per component
    r_sum: int                 # total of the local blow-up invariants

    def __post_init__(self):
        """Every number must be an integer, by ``operator.index``, and not
        a bool: a float conductor is refused, never truncated, and a
        ``True`` is never kept where a conductor is printed."""
        try:
            for number in (*(sw for _, sw in self.components),
                           *(x for row in self.intersections for x in row),
                           *self.klog, self.r_sum):
                if isinstance(number, bool):
                    raise TypeError(f"{number!r} is a bool")
                operator.index(number)
        except TypeError as err:
            raise ValueError(f"surface config numbers must be integers: "
                             f"{err}") from None
        n = len(self.components)
        if len(self.intersections) != n or any(len(r) != n for r in self.intersections):
            raise ValueError("intersection matrix must be square of the "
                             "component count")
        for i in range(n):
            for j in range(n):
                if self.intersections[i][j] != self.intersections[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
        if len(self.klog) != n:
            raise ValueError("klog vector length must match the components")
        if self.r_sum < 0 or any(sw < 0 for _, sw in self.components):
            raise ValueError("conductors and r_sum must be nonnegative")

    @classmethod
    def from_dict(cls, data):
        """The config of a parsed JSON object.  A missing key or a wrong
        shape raises ValueError, as the constructor does on a number that
        is not an integer."""
        try:
            return cls(
                components=tuple((c["name"], c["sw"])
                                 for c in data["components"]),
                intersections=tuple(map(tuple, data["intersections"])),
                klog=tuple(data["klog"]),
                r_sum=data.get("r_sum", 0),
            )
        except KeyError as err:
            raise ValueError(f"surface config lacks the key {err}") from None
        except TypeError as err:
            raise ValueError(f"malformed surface config: {err}") from None

    def to_dict(self):
        return {
            "components": [{"name": n, "sw": s} for n, s in self.components],
            "intersections": [list(r) for r in self.intersections],
            "klog": list(self.klog),
            "r_sum": self.r_sum,
        }


@dataclass
class EulerReport:
    sw_self: int
    sw_klog: int
    delta: int

    def to_dict(self):
        return {"sw_self": self.sw_self, "sw_klog": self.sw_klog,
                "delta": self.delta}


def euler_delta(config):
    """delta = sum_ij sw_i sw_j I[i][j] + sum_i sw_i klog[i] - r_sum."""
    swans = [sw for _, sw in config.components]
    sw_self = sum(swans[i] * swans[j] * config.intersections[i][j]
                  for i in range(len(swans)) for j in range(len(swans)))
    sw_klog = sum(sw * k for sw, k in zip(swans, config.klog))
    return EulerReport(sw_self=sw_self, sw_klog=sw_klog,
                       delta=sw_self + sw_klog - config.r_sum)


def preset(name, swans, r_sum=0):
    """Intersection data for the projective plane.

    "plane-line": boundary one line L, L.L = 1, K_log.L = -2.
    "plane-two-lines": two lines, all pairwise intersections 1,
    K_log.L_i = -1.
    """
    if name == "plane-line":
        if len(swans) != 1:
            raise ValueError("plane-line takes one conductor")
        return SurfaceConfig(components=(("L", swans[0]),),
                             intersections=((1,),), klog=(-2,), r_sum=r_sum)
    if name == "plane-two-lines":
        if len(swans) != 2:
            raise ValueError("plane-two-lines takes two conductors")
        return SurfaceConfig(
            components=(("L1", swans[0]), ("L2", swans[1])),
            intersections=((1, 1), (1, 1)), klog=(-1, -1), r_sum=r_sum)
    raise ValueError(f"unknown preset {name!r}")
