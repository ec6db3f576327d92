"""Model hyperparameters."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from ponziscan.errors import ShapeMismatch


@dataclass(frozen=True)
class ModelConfig:
    """Desk-scale defaults; n_layers=12 reproduces the full-scale depth."""

    n_layers: int = 2
    d_h: int = 64
    n_heads: int = 4
    d_ff: int = 256
    code_len: int = 256
    flow_len: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("n_layers", "d_h", "n_heads", "d_ff", "code_len"):
            if getattr(self, name) <= 0:
                raise ShapeMismatch(f"{name} must be positive")
        if self.flow_len < 0:  # 0: no graph nodes, the encoder reads code only
            raise ShapeMismatch("flow_len must not be negative")
        if self.d_h % self.n_heads != 0:
            raise ShapeMismatch(
                f"d_h={self.d_h} must be divisible by n_heads={self.n_heads}")

    @property
    def n_positions(self) -> int:
        # 0 shared by node slots, 1 for [CLS], 2..code_len+1 code, code_len+2 [SEP]
        return self.code_len + 3

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config a decoded JSON object describes. It must name every
        field and no other, each a JSON integer: a missing key raises
        TypeError rather than taking its default, and so do an unknown key
        and a fraction or a boolean, which would otherwise be truncated."""
        missing = sorted(f.name for f in fields(cls) if f.name not in d)
        if missing:
            raise TypeError("config lacks " + ", ".join(missing))
        bad = sorted(k for k, v in d.items() if type(v) is not int)
        if bad:
            raise TypeError("config values must be integers: " + ", ".join(bad))
        return cls(**d)
