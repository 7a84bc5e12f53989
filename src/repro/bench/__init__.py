"""Benchmark harness regenerating every table and figure of the evaluation."""

from .table2 import (
    MEASURED_APPS,
    SETTINGS,
    Table2Block,
    Table2Cell,
    paper_device_rate,
    paper_total,
    run_block,
    run_cell,
    run_table2,
)
from .latency import LatencyPoint, batch_size_sweep, ideal_throughput
from .comparison import (
    ComparisonRow,
    cores_needed_to_match,
    device_vs_server,
    single_core_rate,
)
from .ablations import (
    failure_recovery_ablation,
    ordering_ablation,
    transport_ablation,
)
from .reporting import (
    format_comparison,
    format_latency_sweep,
    format_table,
    format_table2_block,
    format_table2_cell,
)

__all__ = [
    "MEASURED_APPS",
    "SETTINGS",
    "Table2Block",
    "Table2Cell",
    "paper_device_rate",
    "paper_total",
    "run_block",
    "run_cell",
    "run_table2",
    "LatencyPoint",
    "batch_size_sweep",
    "ideal_throughput",
    "ComparisonRow",
    "cores_needed_to_match",
    "device_vs_server",
    "single_core_rate",
    "failure_recovery_ablation",
    "ordering_ablation",
    "transport_ablation",
    "format_comparison",
    "format_latency_sweep",
    "format_table",
    "format_table2_block",
    "format_table2_cell",
]
