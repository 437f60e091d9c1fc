"""Service labels: the observable alphabet ``Σ^obs_T`` of a task.

A :class:`ServiceRef` names one service occurrence: an internal service of
a task, or the opening/closing service of a task.  For a task ``T`` the
observable set ``Σ^obs_T`` consists of T's internal services, ``σ^o_T``,
``σ^c_T``, and ``σ^o_Tc`` / ``σ^c_Tc`` for each child ``Tc``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.has.task import Task


class ServiceKind(enum.Enum):
    INTERNAL = "internal"
    OPENING = "open"
    CLOSING = "close"


@dataclass(frozen=True)
class ServiceRef:
    """A single service: ``kind`` + owning task + (for internal) its name."""

    kind: ServiceKind
    task: str
    name: str | None = None

    def __post_init__(self) -> None:
        if (self.kind is ServiceKind.INTERNAL) != (self.name is not None):
            raise ValueError("internal services (and only those) carry a name")

    @property
    def is_internal(self) -> bool:
        return self.kind is ServiceKind.INTERNAL

    @property
    def is_opening(self) -> bool:
        return self.kind is ServiceKind.OPENING

    @property
    def is_closing(self) -> bool:
        return self.kind is ServiceKind.CLOSING

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_internal:
            return f"{self.task}.{self.name}"
        return f"σ^{'o' if self.is_opening else 'c'}_{self.task}"


def internal(task: str, name: str) -> ServiceRef:
    return ServiceRef(ServiceKind.INTERNAL, task, name)


def opening(task: str) -> ServiceRef:
    return ServiceRef(ServiceKind.OPENING, task)


def closing(task: str) -> ServiceRef:
    return ServiceRef(ServiceKind.CLOSING, task)


def observable_services(task: Task) -> list[ServiceRef]:
    """``Σ^obs_T``: the services observable in local runs of ``task``."""
    refs = [internal(task.name, s.name) for s in task.services]
    refs.append(opening(task.name))
    refs.append(closing(task.name))
    for child in task.children:
        refs.append(opening(child.name))
        refs.append(closing(child.name))
    return refs
