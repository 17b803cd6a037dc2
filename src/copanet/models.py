"""Model assembly: full CoPaNet / CoPaNet-R networks from a NetworkConfig.

Architecture for 32x32 inputs: a single 3x3 stem conv, three blocks of CoPa
units separated by 2x2 stride-2 average pooling (pooling does all spatial
downsampling; unit strides stay 1), then BN + ReLU, global average pooling
and a linear classifier. The first unit of blocks 2 and 3 projects to the
wider channel count.

The R variant carries each block's pooled output forward: carried features
are re-pooled at every later pooling layer, concatenated into the next
block's input (the block's first projection absorbs the extra channels), and
the classifier consumes the concatenation of all three blocks' globally
pooled outputs.
"""

import io
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import BatchNormState, Tensor
from .errors import ConfigurationError
from .units import CoPaUnit, CoPaUnitSpec, PathwaySpec

VARIANTS = ("plain", "R")

# m=1 widths reconstructed from the 180-map final block and the ~1.75 M
# parameter total; both scale linearly with the widening factor.
BASE_STAGE_WIDTHS = (45, 90, 180)
BASE_MID_WIDTHS = (12, 23, 45)

CONVS_PER_PATHWAY = {"bottleneck": 3, "basic": 2}


@dataclass(frozen=True)
class NetworkConfig:
    """Full description of one CoPaNet model."""
    depth: int = 164
    k: int = 2
    m: int = 1
    variant: str = "plain"
    kind: str = "bottleneck"
    stage_widths: tuple = None
    mid_widths: tuple = None
    num_classes: int = 10
    dropout_rate: float = 0.2
    input_channels: int = 3
    input_size: int = 32

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.kind not in CONVS_PER_PATHWAY:
            raise ConfigurationError(f"kind must be bottleneck or basic, got {self.kind!r}")
        if self.k < 1 or self.m < 1:
            raise ConfigurationError(f"k and m must be >= 1, got k={self.k}, m={self.m}")
        if self.k > engine.MAX_K:
            raise ConfigurationError(
                f"k must be <= {engine.MAX_K} (routing winners are int8), got k={self.k}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.num_classes < 2:
            raise ConfigurationError(f"num_classes must be >= 2, got {self.num_classes}")
        self.units_per_stage  # validates depth arithmetic
        for name, given in (("stage_widths", self.stage_widths), ("mid_widths", self.mid_widths)):
            if given is not None and (len(tuple(given)) != 3 or min(given) < 1):
                raise ConfigurationError(f"{name} needs 3 entries >= 1, got {given!r}")

    @property
    def units_per_stage(self):
        convs = CONVS_PER_PATHWAY[self.kind]
        per_unit = 3 * convs
        if (self.depth - 2) % per_unit != 0 or self.depth <= 2:
            raise ConfigurationError(
                f"depth {self.depth} is invalid for {self.kind} pathways: depth = "
                f"3 stages * units_per_stage * {convs} convs + 2 (stem conv + classifier), "
                f"so depth - 2 = {self.depth - 2} must be a positive multiple of {per_unit}")
        return (self.depth - 2) // per_unit

    @property
    def widths(self):
        if self.stage_widths is not None:
            return tuple(int(w) for w in self.stage_widths)
        return tuple(self.m * w for w in BASE_STAGE_WIDTHS)

    @property
    def mids(self):
        if self.kind == "basic":
            return self.widths
        if self.mid_widths is not None:
            return tuple(int(w) for w in self.mid_widths)
        return tuple(self.m * w for w in BASE_MID_WIDTHS)


class Model:
    """A built CoPaNet: parameter registry plus the forward computation."""

    def __init__(self, config):
        self.config = config
        widths, mids = config.widths, config.mids
        units = config.units_per_stage

        self.init_conv = Tensor(
            np.zeros((widths[0], config.input_channels, 3, 3)), requires_grad=True)
        self.stages = []
        in_ch = widths[0]
        for s in range(3):
            stage = []
            stage_in = in_ch
            if config.variant == "R" and s == 2:
                stage_in += widths[0]  # block-1 features ride into block 3
            cin = stage_in
            for u in range(units):
                spec = CoPaUnitSpec(
                    k=config.k,
                    pathway=PathwaySpec(config.kind, cin, mids[s], widths[s], stride=1))
                stage.append(CoPaUnit(spec, unit_id=f"stage{s + 1}.unit{u:02d}"))
                cin = widths[s]
            self.stages.append(stage)
            in_ch = widths[s]
        self.final_bn = BatchNormState(widths[2])
        feat = sum(widths) if config.variant == "R" else widths[2]
        self.classifier_w = Tensor(np.zeros((feat, config.num_classes)), requires_grad=True)
        self.classifier_b = Tensor(np.zeros(config.num_classes), requires_grad=True)
        for name, p in self.parameters().items():
            p.op = f"param:{name}"  # names surface in numeric diagnostics

    def parameters(self):
        """Stable name -> Tensor registry; every parameter appears once."""
        out = {"init_conv.w": self.init_conv}
        for stage in self.stages:
            for unit in stage:
                for name, p in unit.parameters().items():
                    out[f"{unit.unit_id}.{name}"] = p
        out["final_bn.gamma"] = self.final_bn.gamma
        out["final_bn.beta"] = self.final_bn.beta
        out["classifier.w"] = self.classifier_w
        out["classifier.b"] = self.classifier_b
        return out

    def bn_states(self):
        out = {}
        for stage in self.stages:
            for unit in stage:
                for name, st in unit.bn_states().items():
                    out[f"{unit.unit_id}.{name}"] = st
        out["final_bn"] = self.final_bn
        return out

    def buffers(self):
        """Non-trainable state (BN running statistics), stable names."""
        out = {}
        for name, st in self.bn_states().items():
            out[f"{name}.running_mean"] = st.running_mean
            out[f"{name}.running_var"] = st.running_var
        return out

    def classifier_slices(self):
        """Channel ranges of the classifier input per source block."""
        widths = self.config.widths
        if self.config.variant != "R":
            return [(0, widths[2])]
        bounds = np.cumsum([0] + list(widths))
        return [(int(bounds[i]), int(bounds[i + 1])) for i in range(3)]

    def zero_grad(self):
        for p in self.parameters().values():
            p.grad = None

    def forward(self, x, training=False, rng=None, capture_stage=None):
        """Run the network on an NCHW batch.

        Returns logits, or (logits, [RoutingMask ...]) when capture_stage
        names a stage (1-based) whose units should record routing.
        """
        cfg = self.config
        if capture_stage is not None and cfg.k == 1:
            raise ConfigurationError("routing capture needs a model with k >= 2")
        if training and cfg.dropout_rate > 0 and rng is None:
            raise ConfigurationError("training forward with dropout needs an rng")

        masks = []
        h = engine.conv2d(x, self.init_conv, stride=1, padding=1)
        carried = []  # R variant: pooled block outputs, re-pooled as we go
        for s, stage in enumerate(self.stages):
            for unit in stage:
                h, mask = unit.forward(h, training=training,
                                       capture=(capture_stage == s + 1))
                if mask is not None:
                    masks.append(mask)
            if s == 2:
                break
            pooled = engine.avgpool2d(h, 2, 2)
            carried = [engine.avgpool2d(c, 2, 2) for c in carried]
            if cfg.variant == "R":
                nxt = engine.concat_channels([pooled] + carried) if carried else pooled
                carried = carried + [pooled]
            else:
                nxt = pooled
            h = engine.dropout(nxt, cfg.dropout_rate, training, rng)

        h = engine.bn_relu(h, self.final_bn, training)
        pooled_feats = engine.global_avgpool(h)
        if cfg.variant == "R":
            early = [engine.global_avgpool(c) for c in carried]
            pooled_feats = engine.concat_channels(early + [pooled_feats])
        logits = engine.linear(pooled_feats, self.classifier_w, self.classifier_b)
        if capture_stage is not None:
            return logits, masks
        return logits


def build(config):
    """Assemble a model from its configuration."""
    return Model(config)


def count_parameters(model):
    """Exact number of trainable scalars (BN running stats excluded)."""
    return sum(p.data.size for p in model.parameters().values())


def parameter_breakdown(model):
    """Per-section parameter totals as (section, params, cumulative) rows."""
    sections = []
    totals = {}
    for name, p in model.parameters().items():
        section = name.split(".unit")[0] if ".unit" in name else name.rsplit(".", 1)[0]
        if section not in totals:
            sections.append(section)
            totals[section] = 0
        totals[section] += p.data.size
    rows, cum = [], 0
    for section in sections:
        cum += totals[section]
        rows.append((section, totals[section], cum))
    return rows


def _pathway_text(config, stage_index):
    mids, widths = config.mids, config.widths
    if config.kind == "bottleneck":
        inner = f"1x1 {mids[stage_index]}, 3x3 {mids[stage_index]}, 1x1 {widths[stage_index]}"
    else:
        inner = f"3x3 {widths[stage_index]}, 3x3 {widths[stage_index]}"
    return f"[{inner}] x{config.k}"


def emit_deployment_table(config):
    """Render the per-stage deployment as CSV text.

    Columns: stage, output spatial size, unit count, pathway layout, output
    channels, parameters in the section, cumulative parameters. The total row
    matches count_parameters(build(config)).
    """
    model = build(config)
    per_section = dict((s, n) for s, n, _ in parameter_breakdown(model))
    units = config.units_per_stage
    size = config.input_size

    buf = io.StringIO()
    buf.write("stage,output_size,units,pathways,out_channels,params,cumulative\n")
    cum = per_section["init_conv"]
    buf.write(f"stem,{size}x{size},1,3x3 conv,{config.widths[0]},{per_section['init_conv']},{cum}\n")
    for s in range(3):
        stage_params = per_section[f"stage{s + 1}"]
        cum += stage_params
        buf.write(f"stage{s + 1},{size}x{size},{units},\"{_pathway_text(config, s)}\","
                  f"{config.widths[s]},{stage_params},{cum}\n")
        if s < 2:
            size //= 2
    head_params = per_section["final_bn"] + per_section["classifier"]
    cum += head_params
    buf.write(f"classifier,1x1,1,\"BN-ReLU, global avgpool, linear\","
              f"{config.num_classes},{head_params},{cum}\n")
    buf.write(f"total,,,,,{count_parameters(model)},{cum}\n")
    return buf.getvalue()
