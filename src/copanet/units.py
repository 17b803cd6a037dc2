"""Competitive pathway units.

A CoPa unit runs K parallel residual-type pathways over a shared input and
merges them with an elementwise max. Each pathway output is
z_k = shortcut(x) + h_k(x); the shortcut is the identity unless channel count
or stride changes, in which case one 1x1 projection conv is shared by all K
pathways. The winning pathway index per element can be captured as a routing
mask.

Pathway internals follow the pre-activation convention: the bottleneck stack
is [BN, ReLU, 1x1 reduce] -> [BN, ReLU, 3x3] -> [1x1 expand] and the basic
stack is [BN, ReLU, 3x3] -> [3x3]; the last conv of a pathway is never
followed (or preceded) by BN/ReLU, so the merge sees raw pre-activation
values.
"""

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import BatchNormState, Tensor
from .errors import ConfigurationError, UsageError

PATHWAY_KINDS = ("bottleneck", "basic")


@dataclass(frozen=True)
class PathwaySpec:
    """Shape of one residual pathway."""
    kind: str
    in_channels: int
    mid_channels: int
    out_channels: int
    stride: int = 1

    def __post_init__(self):
        if self.kind not in PATHWAY_KINDS:
            raise ConfigurationError(f"pathway kind must be one of {PATHWAY_KINDS}, got {self.kind!r}")
        if self.stride not in (1, 2):
            raise ConfigurationError(f"pathway stride must be 1 or 2, got {self.stride}")
        if min(self.in_channels, self.mid_channels, self.out_channels) < 1:
            raise ConfigurationError(f"pathway channel counts must be positive: {self}")
        if self.kind == "basic" and self.mid_channels != self.out_channels:
            raise ConfigurationError(
                f"basic pathways use mid_channels == out_channels, got {self}")


@dataclass(frozen=True)
class CoPaUnitSpec:
    """Configuration of one competitive unit: K identical pathways."""
    k: int
    pathway: PathwaySpec

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"pathway count k must be >= 1, got {self.k}")

    @property
    def needs_projection(self):
        p = self.pathway
        return p.in_channels != p.out_channels or p.stride != 1


@dataclass
class RoutingMask:
    """Winning pathway index per output element of one unit."""
    unit_id: str
    winners: np.ndarray  # int8, shape N x C x H x W, entries in [0, K)


class CoPaUnit:
    """One competitive pathway unit with its parameters.

    Weights are zero-initialized (the unit is then the identity map when the
    shortcut is the identity); use trainer.he_init for training.
    """

    def __init__(self, spec, unit_id="unit"):
        self.spec = spec
        self.unit_id = unit_id
        p = spec.pathway
        self._paths = []
        for k in range(spec.k):
            if p.kind == "bottleneck":
                path = {
                    "bn1": BatchNormState(p.in_channels),
                    "conv1": Tensor(np.zeros((p.mid_channels, p.in_channels, 1, 1)), requires_grad=True),
                    "bn2": BatchNormState(p.mid_channels),
                    "conv2": Tensor(np.zeros((p.mid_channels, p.mid_channels, 3, 3)), requires_grad=True),
                    "conv3": Tensor(np.zeros((p.out_channels, p.mid_channels, 1, 1)), requires_grad=True),
                }
            else:
                path = {
                    "bn1": BatchNormState(p.in_channels),
                    "conv1": Tensor(np.zeros((p.out_channels, p.in_channels, 3, 3)), requires_grad=True),
                    "conv2": Tensor(np.zeros((p.out_channels, p.out_channels, 3, 3)), requires_grad=True),
                }
            self._paths.append(path)
        self.proj = None
        if spec.needs_projection:
            self.proj = Tensor(np.zeros((p.out_channels, p.in_channels, 1, 1)), requires_grad=True)

    def parameters(self):
        """Stable name -> Tensor registry for this unit."""
        out = {}
        for k, path in enumerate(self._paths):
            for lname, item in path.items():
                if isinstance(item, BatchNormState):
                    out[f"path{k}.{lname}.gamma"] = item.gamma
                    out[f"path{k}.{lname}.beta"] = item.beta
                else:
                    out[f"path{k}.{lname}.w"] = item
        if self.proj is not None:
            out["proj.w"] = self.proj
        return out

    def bn_states(self):
        out = {}
        for k, path in enumerate(self._paths):
            for lname, item in path.items():
                if isinstance(item, BatchNormState):
                    out[f"path{k}.{lname}"] = item
        return out

    def pathway_residual(self, x, k, training):
        """Run only pathway k's transformation h_k on x."""
        p = self.spec.pathway
        path = self._paths[k]
        with engine.op_scope(f"{self.unit_id}.path{k}"):
            h = engine.bn_relu(x, path["bn1"], training)
            if p.kind == "bottleneck":
                h = engine.conv2d(h, path["conv1"], stride=1, padding=0)
                h = engine.bn_relu(h, path["bn2"], training)
                h = engine.conv2d(h, path["conv2"], stride=p.stride, padding=1)
                h = engine.conv2d(h, path["conv3"], stride=1, padding=0)
            else:
                h = engine.conv2d(h, path["conv1"], stride=p.stride, padding=1)
                h = engine.conv2d(h, path["conv2"], stride=1, padding=1)
        return h

    def forward(self, x, training=False, capture=False):
        """Compute max_k(shortcut(x) + h_k(x)).

        Returns (output, RoutingMask or None). Capturing routing on a K=1
        unit is a configuration error because there is no competition.
        """
        p = self.spec.pathway
        if x.shape[1] != p.in_channels:
            raise ConfigurationError(
                f"{self.unit_id}: input has {x.shape[1]} channels, expected {p.in_channels}")
        if capture and self.spec.k == 1:
            raise ConfigurationError(f"{self.unit_id}: routing capture needs K >= 2, got K=1")

        if self.proj is not None:
            with engine.op_scope(f"{self.unit_id}.proj"):
                shortcut = engine.conv2d(x, self.proj, stride=p.stride, padding=0)
        else:
            shortcut = x

        branches = [engine.add(shortcut, self.pathway_residual(x, k, training))
                    for k in range(self.spec.k)]
        if self.spec.k == 1:
            return branches[0], None
        out, winners = engine.elementwise_max_k(branches, capture_routing=capture)
        mask = RoutingMask(self.unit_id, winners) if capture else None
        return out, mask


def compose_winners(x0, units, fixed_masks):
    """Rebuild a stack's output from frozen routing decisions.

    For identity-shortcut units, each element of the stack output decomposes
    into the input plus the sum of the winning pathways' residuals:
    y_L = x + h_(w1)(x) + h_(w2)(y_1) + ... Per element, this accumulates only
    the residual of the pathway named in each unit's mask. Runs in eval mode
    and matches the normal forward output bit for bit.
    """
    if not units:
        return Tensor(x0.data.copy())
    if len(units) != len(fixed_masks):
        raise UsageError(f"got {len(units)} units but {len(fixed_masks)} masks")
    y = Tensor(x0.data.copy())
    for unit, mask in zip(units, fixed_masks):
        if unit.spec.needs_projection:
            raise UsageError(f"{unit.unit_id}: compose_winners requires identity shortcuts")
        winners = mask.winners if isinstance(mask, RoutingMask) else np.asarray(mask)
        residuals = np.stack(
            [unit.pathway_residual(y, k, training=False).data for k in range(unit.spec.k)])
        if winners.shape != residuals.shape[1:]:
            raise UsageError(
                f"{unit.unit_id}: mask shape {winners.shape} does not match output {residuals.shape[1:]}")
        chosen = np.take_along_axis(residuals, winners[None].astype(np.int64), axis=0)[0]
        y = Tensor(y.data + chosen)
    return y
