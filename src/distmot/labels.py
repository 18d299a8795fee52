"""Track labels: ordered (birth step, index) pairs and canonical label sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, order=True)
class Label:
    """Ordered pair (birth step k, per-step index i); total order is lexicographic."""

    birth_time: int
    index: int

    def __post_init__(self):
        if self.birth_time < 0:
            raise ValueError(f"birth_time must be non-negative, got {self.birth_time}")
        if self.index < 1:
            raise ValueError(f"index must be positive, got {self.index}")

    def as_pair(self) -> tuple[int, int]:
        return (self.birth_time, self.index)

    def __repr__(self):
        return f"({self.birth_time},{self.index})"


@dataclass(frozen=True)
class LabelSet:
    """Label set stored as a sorted, duplicate-free tuple, so equality is set
    equality. The tuple is adopted as given: callers pass it sorted and
    duplicate-free, and `densities.check_density` checks it where a density
    enters from outside."""

    labels: tuple[Label, ...]

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: Label) -> bool:
        return label in self.labels

    def __lt__(self, other: "LabelSet") -> bool:
        return self.labels < other.labels

    def __repr__(self):
        return "{" + ",".join(repr(l) for l in self.labels) + "}"


EMPTY_LABEL_SET = LabelSet(())
