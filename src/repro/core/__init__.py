"""DCTCP+ — slow_time regulation and sender desynchronization (the paper's
primary contribution)."""

from .config import DctcpPlusConfig
from .dctcp_plus import DctcpPlusSender
from .pacer import SlowTimePacer
from .reno_plus import RenoPlusSender
from .slow_time import SlowTimeMixin
from .state_machine import SlowTimeStateMachine
from .states import DctcpPlusState

__all__ = [
    "DctcpPlusConfig",
    "DctcpPlusSender",
    "RenoPlusSender",
    "SlowTimeMixin",
    "SlowTimePacer",
    "SlowTimeStateMachine",
    "DctcpPlusState",
]
