"""Flat ``key = value`` configuration: the one table of keys.

``KEYS`` names every key once, with its section (``model`` keys build a
``models.NetworkConfig``, ``plan`` keys a ``training.TrainPlan``, ``data``
keys a ``data.DataSpec``), the dataclass field it sets, its parser and how
it is written back. The dataclasses check ranges themselves; this module
imports none of them, so the CLI and the checkpoint code can both use it.
"""

from dataclasses import dataclass

from .errors import ConfigurationError

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _bool(text):
    """Strict boolean: 1/0/true/false/yes/no in any case."""
    if text.lower() not in _BOOLS:
        raise ValueError(f"expected one of {'/'.join(_BOOLS)}")
    return _BOOLS[text.lower()]


def _tuple_of(parse):
    """Comma-separated values; the empty text is the empty tuple."""
    return lambda text: tuple(parse(v) for v in text.split(",")) if text else ()


@dataclass(frozen=True)
class Key:
    name: str
    section: str         # "model", "plan" or "data"
    parse: object        # text -> value; raises ValueError on a bad value
    field: str = None    # dataclass field it sets; defaults to the name
    show: object = None  # dataclass -> value to write, None leaves the key out
    axis: bool = False   # `copanet sweep --axis` may vary it

    @property
    def attr(self):
        return self.field or self.name


KEYS = (
    Key("depth", "model", int, axis=True),
    Key("k", "model", int, axis=True),
    Key("m", "model", int, axis=True),
    Key("variant", "model", str),
    Key("kind", "model", str),
    # written from the derived widths, so checkpoints always spell them out
    Key("widths", "model", _tuple_of(int), field="stage_widths", show=lambda c: c.widths),
    Key("mids", "model", _tuple_of(int), field="mid_widths",
        show=lambda c: c.mids if c.kind == "bottleneck" else None),
    Key("classes", "model", int, field="num_classes"),
    Key("dropout", "model", float, field="dropout_rate"),
    Key("epochs", "plan", int, field="total_epochs"),
    Key("lr", "plan", float, field="base_lr"),
    Key("lr_drop_fractions", "plan", _tuple_of(float)),
    Key("lr_drop_factor", "plan", float),
    Key("momentum", "plan", float),
    Key("weight_decay", "plan", float),
    Key("batch_size", "plan", int),
    Key("augment", "plan", _bool),
    Key("data", "data", str),
    Key("data_dir", "data", str),
    Key("per_class", "data", int),
    Key("test_per_class", "data", int),
    Key("normalize", "data", str),
)
_BY_NAME = {key.name: key for key in KEYS}
SWEEP_AXES = tuple(key.name for key in KEYS if key.axis)


def parse_flat_text(text):
    """Parse 'key = value' lines; '#' starts a comment; blank lines ignored."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def split(mapping):
    """Sort a key -> text mapping into {section: {key: text}} for every
    section; unknown keys are rejected with the list of valid keys."""
    sections = {key.section: {} for key in KEYS}
    for name, text in mapping.items():
        if name not in _BY_NAME:
            raise ConfigurationError(
                f"unknown config key {name!r}; valid keys: {', '.join(_BY_NAME)}")
        sections[_BY_NAME[name].section][name] = text
    return sections


def build(cls, section_mapping, **fixed):
    """Construct ``cls`` from one section's key -> text mapping. Keys left
    out keep the dataclass defaults; ``fixed`` sets fields that have no key."""
    fields = dict(fixed)
    for name, text in section_mapping.items():
        key = _BY_NAME[name]
        try:
            fields[key.attr] = key.parse(text)
        except ValueError as exc:
            raise ConfigurationError(
                f"bad value for config key {name!r}: {text!r} ({exc})") from exc
    return cls(**fields)


def to_text(**objs):
    """Write the keys of each section given, e.g. ``to_text(model=config)``,
    as flat text in table order."""
    lines = []
    for key in KEYS:
        if key.section not in objs:
            continue
        obj = objs[key.section]
        value = key.show(obj) if key.show else getattr(obj, key.attr)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        if value is not None:
            lines.append(f"{key.name} = {value}".rstrip())
    return "\n".join(lines) + "\n"
