"""Model hyperparameters."""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
        for name in ("n_layers", "d_h", "n_heads", "d_ff", "code_len", "flow_len"):
            if getattr(self, name) <= 0:
                raise ShapeMismatch(f"{name} must be positive")
        if self.d_h % self.n_heads != 0:
            raise ShapeMismatch(
                f"d_h={self.d_h} must be divisible by n_heads={self.n_heads}")

    @property
    def d_k(self) -> int:
        return self.d_h // self.n_heads

    @property
    def n_positions(self) -> int:
        # 0 shared by node slots, 1 for [CLS], 2..code_len+1 code, code_len+2 [SEP]
        return self.code_len + 3

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{k: int(v) for k, v in d.items()})
