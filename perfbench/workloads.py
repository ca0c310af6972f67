"""The benchmark's three workloads and the answers each must reproduce.

A workload is a pair of steps run inside one fresh interpreter:

* ``setup(seed)`` builds what a user needs before asking for a verdict:
  the protocol bundles (formula parsing and program typechecking) and the
  decidability preflight ``repro check`` runs before solving.  Its result
  is the context handed to ``run``.
* ``run(context)`` asks for the verdicts and returns a :class:`Pass`:
  the per-request latencies, how many obligations were attempted and
  decided, and the answers the known-answer gate compares.

Engine entry points are called through their modules (``induction.
check_inductive``, not a name imported here) so the traced run's
wrappers, installed on those modules after this file is imported, see
the calls.

The seed orders the protocols; ``run.py`` also derives the child's
``PYTHONHASHSEED`` from it.  Every ordering must reach the same answers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.analysis import preflight
from repro.core import bounded, induction
from repro.core.policy import OraclePolicy
from repro.core.session import Session
from repro.proof.ledger import default_ledger
from repro.protocols import ALL_PROTOCOLS
from repro.solver import SolverStats

FIG14_PROTOCOLS = (
    "leader_election",
    "lock_server",
    "distributed_lock",
    "learning_switch",
    "db_chain",
    "chord",
)
CTI_PROTOCOLS = ("leader_election", "lock_server", "db_chain")
BMC_PROTOCOL = "leader_election"
BMC_DEPTH = 3
BMC_JOBS = 2

#: Known answers.  fig14-check: obligations per protocol, all discharged.
FIG14_OBLIGATIONS = {
    "leader_election": 9,
    "lock_server": 19,
    "distributed_lock": 19,
    "learning_switch": 19,
    "db_chain": 15,
    "chord": 19,
}
#: cti-search: the conjectures the oracle adds, in order (one per CTI).
CTI_ADDED = {
    "leader_election": ("C2", "C1", "C3"),
    "lock_server": ("C3", "C7", "C1", "C5", "C6", "C4", "C8", "C2"),
    "db_chain": ("C6", "C3"),
}
#: bmc-pool: one dispatched task per depth 0..k.
BMC_TASKS = BMC_DEPTH + 1


@dataclass
class Pass:
    """What one ``run`` produced."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    decided: int = 0
    answers: dict = field(default_factory=dict)


def _ordered(names: tuple[str, ...], seed: int) -> list[str]:
    order = list(names)
    random.Random(seed).shuffle(order)
    return order


def _decided(stats: SolverStats) -> int:
    return stats.sat_answers + stats.unsat_answers


# ---------------------------------------------------------------- fig14-check


def setup_fig14(seed: int):
    order = _ordered(FIG14_PROTOCOLS, seed)
    bundles = {name: ALL_PROTOCOLS[name].build() for name in order}
    for name, bundle in bundles.items():
        preflight.preflight_program(
            bundle.program,
            tuple(bundle.safety) + tuple(bundle.invariant),
            origin=name,
        )
    return bundles


def run_fig14(bundles) -> Pass:
    out = Pass()
    ledger = default_ledger()
    for name, bundle in bundles.items():
        stats = SolverStats()
        started = time.perf_counter()
        result = induction.check_inductive(
            bundle.program, list(bundle.invariant), jobs=1, stats=stats,
            ledger=ledger,
        )
        out.latencies.append(time.perf_counter() - started)
        out.attempted += stats.queries
        out.decided += _decided(stats)
        out.answers[name] = {
            "holds": result.holds,
            "obligations": stats.queries,
            "ledger_hits": result.statistics.get("ledger_hits"),
        }
    return out


def expected_fig14() -> dict:
    return {
        name: {"holds": True, "obligations": count, "ledger_hits": 0}
        for name, count in FIG14_OBLIGATIONS.items()
    }


# ----------------------------------------------------------------- cti-search


class _TimedSession(Session):
    """A session that records how long each ``find_cti`` answer took."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.latencies: list[float] = []

    def find_cti(self):
        started = time.perf_counter()
        result = super().find_cti()
        self.latencies.append(time.perf_counter() - started)
        return result


def setup_cti(seed: int):
    order = _ordered(CTI_PROTOCOLS, seed)
    bundles = {name: ALL_PROTOCOLS[name].build() for name in order}
    for name, bundle in bundles.items():
        preflight.preflight_program(bundle.program, bundle.safety, origin=name)
    return bundles


def run_cti(bundles) -> Pass:
    out = Pass()
    for name, bundle in bundles.items():
        session = _TimedSession(bundle.program, initial=bundle.safety)
        outcome = session.run(OraclePolicy(bundle.invariant))
        initial = {conjecture.name for conjecture in bundle.safety}
        out.latencies.extend(session.latencies)
        # A find_cti call that returns answered its request; one that
        # raises aborts the pass and the run reports it as failed.
        out.attempted += len(session.latencies)
        out.decided += len(session.latencies)
        out.answers[name] = {
            "success": outcome.success,
            "ctis": outcome.cti_count,
            "added": [
                c.name for c in outcome.conjectures if c.name not in initial
            ],
        }
    return out


def expected_cti() -> dict:
    return {
        name: {"success": True, "ctis": len(added), "added": list(added)}
        for name, added in CTI_ADDED.items()
    }


# ------------------------------------------------------------------- bmc-pool


def setup_bmc(seed: int):
    bundle = ALL_PROTOCOLS[BMC_PROTOCOL].build()
    preflight.preflight_program(bundle.program, bundle.safety, origin=BMC_PROTOCOL)
    return bundle


def run_bmc(bundle) -> Pass:
    out = Pass()
    stats = SolverStats()
    started = time.perf_counter()
    result = bounded.check_k_invariance(
        bundle.program, bundle.safety[0].formula, k=BMC_DEPTH, jobs=BMC_JOBS,
        stats=stats,
    )
    out.latencies.append(time.perf_counter() - started)
    out.attempted = stats.queries
    out.decided = _decided(stats)
    out.answers[BMC_PROTOCOL] = {
        "holds": result.holds,
        "depth": result.bound,
        "dispatched": stats.dispatched,
    }
    return out


def expected_bmc() -> dict:
    return {
        BMC_PROTOCOL: {"holds": True, "depth": BMC_DEPTH, "dispatched": BMC_TASKS}
    }


WORKLOADS = {
    "fig14-check": (setup_fig14, run_fig14, expected_fig14),
    "cti-search": (setup_cti, run_cti, expected_cti),
    "bmc-pool": (setup_bmc, run_bmc, expected_bmc),
}
