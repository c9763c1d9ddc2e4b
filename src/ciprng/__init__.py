"""Chaotic-iteration pseudo-random number generators.

Build a generator from any balanced Boolean iteration function, decide
whether it is chaotic (strong connectivity of its iteration graph),
search for new balanced functions by paired edits of the negation, and
evaluate output streams with a statistical battery.
"""

from .errors import (
    CiprngError,
    FunctionFormatError,
    MutationError,
    ResourceLimitError,
    ScriptExhaustedError,
    StreamTooShortError,
)
from .func import (
    BalanceVerdict,
    VectorOfImages,
    balance_rule_check,
    identity,
    is_balanced,
    mapping_matrix,
    mutate_pair,
    negation,
    parse_function,
    format_function,
    read_function,
    search_functions,
    write_function,
)
from .generator import CiGenerator, GeneratorConfig
from .graph import (
    ChaosVerdict,
    IterationGraph,
    build_graph,
    export_dot,
    is_strongly_connected,
    strongly_connected_components,
)
from .sources import (
    DEFAULT_BIT_SEED,
    DEFAULT_COORD_SEED,
    EntropySource,
    ScriptedSource,
    Xorshift64,
)
from .stats import (
    BatteryConfig,
    TestReport,
    TestResult,
    approximate_entropy,
    block_frequency,
    chi_square_symbols,
    cumulative_sums,
    export_stream,
    frequency_monobit,
    longest_run_of_ones,
    read_stream,
    run_battery,
    runs,
    serial,
)

__version__ = "0.1.0"
