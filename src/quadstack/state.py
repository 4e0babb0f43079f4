"""Shared body-state containers used across controllers and the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def unchecked(cls, **fields):
    """An instance of the dataclass ``cls`` from all of its fields, given in
    the form ``__post_init__`` would bring them to (float arrays of the
    declared shapes), which it then skips: the 1 kHz loops build their
    arrays themselves and need no coercion."""
    if fields.keys() != cls.__dataclass_fields__.keys():
        raise TypeError(f"{cls.__name__} needs exactly the fields "
                        f"{sorted(cls.__dataclass_fields__)}, got {sorted(fields)}")
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass
class RobotState:
    """Body pose/twist plus foot positions, world frame (omega in body frame)."""

    pos: np.ndarray = field(default_factory=lambda: np.zeros(3))
    vel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rot: np.ndarray = field(default_factory=lambda: np.eye(3))
    omega: np.ndarray = field(default_factory=lambda: np.zeros(3))
    feet: np.ndarray = field(default_factory=lambda: np.zeros((4, 3)))

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float).reshape(3)
        self.vel = np.asarray(self.vel, dtype=float).reshape(3)
        self.rot = np.asarray(self.rot, dtype=float).reshape(3, 3)
        self.omega = np.asarray(self.omega, dtype=float).reshape(3)
        self.feet = np.asarray(self.feet, dtype=float).reshape(4, 3)

    def omega_world(self) -> np.ndarray:
        return self.rot.dot(self.omega)

    def copy(self) -> "RobotState":
        return RobotState(self.pos.copy(), self.vel.copy(), self.rot.copy(),
                          self.omega.copy(), self.feet.copy())


@dataclass
class DesiredState:
    """Pose and velocity targets for the balance-style controllers (world
    frame); the target body rate is zero."""

    pos: np.ndarray = field(default_factory=lambda: np.zeros(3))
    vel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rot: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float).reshape(3)
        self.vel = np.asarray(self.vel, dtype=float).reshape(3)
        self.rot = np.asarray(self.rot, dtype=float).reshape(3, 3)
