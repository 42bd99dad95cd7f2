"""persistcheck: bounded model checking for persistent concurrent libraries.

Crash-aware histories and pomset executions, pluggable library
specifications with tags, reference persistency models (Px86, durable
linearizability, weak persistent registers, Flit, Mirror, persistent
transactions), a small concurrent language with crash-restart semantics,
and substitution-based bounded verification of implementations.
"""

from .framework import (
    BudgetExceeded,
    Collection,
    DuplicateMethod,
    LibraryInterface,
    LibrarySpec,
    SpecError,
    UnknownMethod,
    Verdict,
    check_consistent,
    check_encapsulated,
    check_hereditarily_consistent,
    check_immediately_wellformed,
    check_wellformed,
)
from .model import (
    BOT,
    CRASH,
    CRASH_EV,
    Execution,
    History,
    Inv,
    Label,
    PlainExecution,
    Pomset,
    Ret,
    anonymize,
    history_to_execution,
    iso_eq,
    prefixes,
    restrict,
    seq_compose,
    tag_set,
)
from .sc import (
    S_QUEUE,
    S_WEAKREG,
    SequentialSpec,
    check_durably_linearizable,
    check_linearizable,
    check_weakreg_consistent,
    completions_and_truncations,
    happens_before,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
