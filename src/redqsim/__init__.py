"""Queue-management experiment kit: drop policies, transport, simulator."""

from .red import (
    DropDecision,
    RedParams,
    RedState,
    RedVariant,
    Verdict,
    compute_pb,
    on_packet_arrival,
)
from .droplaw import (
    InterdropLaw,
    SizeStream,
    fairness_gap,
    interdrop_pmf_exact,
    interdrop_pmf_red1,
    interdrop_pmf_weighted,
    mathis_goodput_bound,
    montecarlo_interdrop,
    tv_distance,
)
from .tcp import Segment, TcpConfig, TcpReceiver, TcpSender, TcpVariant
from .engine import (
    ConfigError,
    DumbbellSim,
    FlowGroup,
    Scenario,
    run_scenario,
)
from .metrics import BottleneckAudit, GroupStats, RunReport

__all__ = [
    "BottleneckAudit",
    "ConfigError",
    "DropDecision",
    "DumbbellSim",
    "FlowGroup",
    "GroupStats",
    "InterdropLaw",
    "RedParams",
    "RedState",
    "RedVariant",
    "RunReport",
    "Scenario",
    "Segment",
    "SizeStream",
    "TcpConfig",
    "TcpReceiver",
    "TcpSender",
    "TcpVariant",
    "Verdict",
    "compute_pb",
    "fairness_gap",
    "interdrop_pmf_exact",
    "interdrop_pmf_red1",
    "interdrop_pmf_weighted",
    "mathis_goodput_bound",
    "montecarlo_interdrop",
    "on_packet_arrival",
    "run_scenario",
    "tv_distance",
]
