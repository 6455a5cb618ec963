"""Pluggable executors that drain the task graph, plus the Engine facade.

Two executors ship:

- :class:`SerialExecutor` drains each group's task tree depth-first,
  children in expansion order -- exactly the call order of the historical
  recursion, so the mapped network (LUT names included) is bit-identical
  to the pre-engine flow.
- :class:`ProcessExecutor` fans independent groups out to a process pool.
  Each worker maps its group with the serial engine on a **private BDD
  manager** (:func:`repro.engine.worker.run_group`); the parent submits
  every group first, then collects and re-imports the mapped sub-networks
  *sequentially in group order*, renaming worker-local signals through the
  parent network's ``fresh_name`` counter.  Because each worker replays
  the serial emission order for its group and groups re-import in the
  serial group order, the resulting network is again identical to the
  serial one -- only wall-clock differs.

The process executor is **fault-tolerant** (see ``docs/RELIABILITY.md``).
Each uncached group is a list of candidate submissions -- one for a
plain group, one per policy of a ``race:`` spec -- and every candidate
takes the same path: a failed attempt (worker crash, exceeded
``FlowConfig.task_timeout``, or any exception crossing the pool) is
retried up to ``FlowConfig.task_retries`` times with exponential
backoff, rebuilding the pool after a crash.  A race keeps its cheapest
surviving candidate; a group with no survivor degrades to the in-parent
serial path, which still yields the identical network because emission
order is preserved.  Every failure is recorded as a structured record via
:func:`repro.observe.failure` and counted in
:class:`repro.engine.tasks.EngineStats`.  With
``FlowConfig.checkpoint_path`` set, merged group results are also
serialized to a versioned checkpoint file
(:mod:`repro.engine.checkpoint`) so an interrupted run can resume with
``FlowConfig.resume_from`` and produce byte-identical output.

The :class:`Engine` facade bundles context + policy + graph + executor
behind the two calls the flows need: ``run_groups`` and ``stats``.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace as dc_replace
from typing import TYPE_CHECKING, Protocol

from repro import observe
from repro.bdd.manager import BDD
from repro.bdd.transfer import export_dag
from repro.boolfunc.sop import Cube, Sop
from repro.engine.checkpoint import (
    Checkpointer,
    ResumeState,
    config_digest,
    load_checkpoint,
    payload_fingerprint,
)
from repro.engine.emitter import EmitContext, VectorEmitter
from repro.engine.faults import NO_FAULTS, ResolvedFaults, perform_fault
from repro.engine.policies import make_policy, parse_policy_spec
from repro.engine.tasks import EngineStats, TaskGraph
from repro.engine.worker import GroupPayload, GroupResult, run_group
from repro.errors import FaultInjected, GroupFailedError, RunInterrupted

if TYPE_CHECKING:  # pragma: no cover - type-only (flow imports engine)
    from repro.mapping.flow import FlowConfig

#: Hard ceiling on one backoff sleep, whatever the retry count.
MAX_BACKOFF_SECONDS = 2.0

#: Seconds between cancel-event checks while waiting on a pool future.
CANCEL_POLL_SECONDS = 0.1


# Process-wide cancellation flag.  Signal handlers (CLI) and the server's
# drain set it from another context; the executors check it at safe
# boundaries -- task pops in the serial drain, future waits in the process
# drain -- and unwind with RunInterrupted, flushing checkpoints and
# cancelling outstanding futures on the way out.
_CANCEL = threading.Event()


def request_cancel() -> None:
    """Ask every in-flight drain to stop at its next safe boundary.

    Safe to call from signal handlers and other threads.  The drains
    raise :class:`repro.errors.RunInterrupted` once they notice; configured
    checkpoints are flushed before the exception escapes, so an
    interrupted run can be resumed to byte-identical output.
    """
    _CANCEL.set()


def cancel_requested() -> bool:
    """Whether a cancellation has been requested and not yet cleared."""
    return _CANCEL.is_set()


def reset_cancel() -> None:
    """Clear the cancellation flag (call before starting a fresh run)."""
    _CANCEL.clear()


class Executor(Protocol):
    """Drains group task trees against an :class:`Engine`."""

    name: str
    workers: int

    def run_groups(
        self, engine: "Engine", groups: list[list[int]]
    ) -> list[list[str]]:
        """Map each group (a list of BDD roots) to its output signals."""
        ...


class SerialExecutor:
    """Depth-first drain replaying the historical recursion order."""

    name = "serial"
    workers = 1

    def run_groups(
        self, engine: "Engine", groups: list[list[int]]
    ) -> list[list[str]]:
        """Drain every group in order on the engine's own context.

        With ``config.cache_db`` or a ``race:`` policy each group runs
        through the in-process worker path instead (see
        :meth:`_drain_via_worker`).  With ``config.auto_reorder`` the
        manager's growth is checked at every group boundary and a growth
        past ``config.reorder_factor`` times the post-build size triggers
        a sifting pass over the pending roots (see
        :func:`repro.bdd.reorder.sift_groups`).
        """
        if engine.racing or engine.group_cache is not None:
            return self._drain_via_worker(engine, groups)
        if not engine.config.auto_reorder:
            return self.drain_groups(engine.emitter, engine.graph, groups)
        return self._drain_with_reorder(engine, groups)

    def _drain_via_worker(
        self, engine: "Engine", groups: list[list[int]]
    ) -> list[list[str]]:
        """Group-at-a-time drain through the in-process worker path.

        A configured result cache is consulted first; a verified hit
        merges like a worker result.  A miss runs the group through
        :func:`repro.engine.worker.run_group` *in process* -- the same
        portable path the process executor uses, which the executor
        equivalence guarantee makes byte-identical to the plain serial
        drain -- or, under a ``race:`` policy, through
        :func:`run_race_serial`, which merges only the winner (the same
        winner the process executor's race picks from the same
        deterministic candidates).  Either way the result exists in
        storable form and is recorded after the merge, with the winning
        policy as provenance when raced.
        """
        cache = engine.group_cache
        results: list[list[str]] = []
        for f_nodes in groups:
            engine.graph.note_queue_depth(len(groups) - len(results))
            if cache is not None:
                with observe.span("cache-lookup"):
                    hit, form = cache.lookup(engine.context, f_nodes)
                if hit is not None:
                    results.append(merge_group_result(engine, hit))
                    continue
            payload = group_payload(engine.context, f_nodes)
            winner = None
            if engine.racing:
                winner, result = run_race_serial(engine, payload)
            else:
                result = run_group(payload)
            signals = merge_group_result(engine, result)
            if cache is not None:
                with observe.span("cache-record"):
                    cache.record(
                        engine.context, form, f_nodes, result, policy=winner
                    )
            results.append(signals)
        return results

    def _drain_with_reorder(
        self, engine: "Engine", groups: list[list[int]]
    ) -> list[list[str]]:
        """Group-at-a-time drain with the growth-triggered reorder hook."""
        from repro.bdd.reorder import GrowthTrigger

        ctx = engine.context
        trigger = GrowthTrigger(engine.config.reorder_factor)
        trigger.arm(ctx.bdd.num_nodes)
        remaining = [list(g) for g in groups]
        results: list[list[str]] = []
        for gi in range(len(remaining)):
            if gi and trigger.should_fire(ctx.bdd.num_nodes):
                self._reorder_pending(engine, remaining, gi)
                trigger.arm(ctx.bdd.num_nodes)
            (signals,) = self.drain_groups(
                engine.emitter, engine.graph, [remaining[gi]], first_index=gi
            )
            results.append(signals)
        return results

    @staticmethod
    def _reorder_pending(
        engine: "Engine", remaining: list[list[int]], gi: int
    ) -> None:
        """Sift the pending groups' roots and swap the reordered manager in.

        The emit context's manager reference, the pending root lists and the
        level-to-signal map are all rewritten consistently; already-emitted
        groups live only in the LUT network, so dropping their old manager
        is safe.  A no-improvement sift keeps the current manager.
        """
        from repro.bdd.reorder import sift_groups

        ctx = engine.context
        with observe.span("reorder"):
            observe.add("reorder_triggers")
            observe.gauge("reorder_nodes_before", ctx.bdd.num_nodes)
            sifted = sift_groups(ctx.bdd, remaining[gi:], max_passes=1)
            if sifted is None:
                observe.add("reorder_noops")
                return
            new_bdd, new_groups, level_map = sifted
            remaining[gi:] = new_groups
            remapped = {
                level_map[lvl]: sig for lvl, sig in ctx.signal_of_level.items()
            }
            ctx.signal_of_level.clear()
            ctx.signal_of_level.update(remapped)
            ctx.bdd = new_bdd
            observe.watch(new_bdd)
            observe.gauge("reorder_nodes_after", new_bdd.num_nodes)

    def drain_groups(
        self,
        emitter: VectorEmitter,
        graph: TaskGraph,
        groups: list[list[int]],
        first_index: int = 0,
    ) -> list[list[str]]:
        """Static entry point shared with worker processes (no Engine).

        ``first_index`` offsets the ``group<N>`` task labels so a
        group-at-a-time caller (the auto-reorder drain) keeps the same
        labels as one whole-list call.
        """
        results: list[list[str]] = []
        for gi, f_nodes in enumerate(groups, first_index):
            cache: dict[int, str] = {}
            sink: list = [None] * len(f_nodes)
            root = emitter.vector_task(
                f_nodes, cache, sink, list(range(len(f_nodes))),
                label=f"group{gi}",
            )
            self._drain(graph, [root])
            results.append(list(sink))
        return results

    @staticmethod
    def _drain(graph: TaskGraph, roots: list) -> None:
        # Children are pushed in reverse so they pop in expansion order:
        # a task's whole subtree completes before its next sibling runs,
        # which is the depth-first order of the recursion it replaces.
        stack = list(reversed(roots))
        while stack:
            if cancel_requested():
                raise RunInterrupted(
                    "serial drain cancelled (signal or server drain)"
                )
            graph.note_queue_depth(len(stack))
            task = stack.pop()
            with observe.span(task.kind):
                children = graph.execute(task)
            stack.extend(reversed(children))


def group_payload(ctx: EmitContext, f_nodes: list[int]) -> GroupPayload:
    """Export one group as a picklable worker subproblem."""
    support = sorted(set().union(*(ctx.bdd.support(f) for f in f_nodes)))
    return GroupPayload(
        dag=export_dag(ctx.bdd, f_nodes),
        level_signals={
            lvl: ctx.signal_of_level[lvl] for lvl in support
        },
        config=ctx.config,
    )


@dataclass
class Candidate:
    """One submission of one group: its only one, or one racing policy.

    Attributes:
        policy: the candidate's concrete policy name (the configured
            policy of an unraced group).
        index: position in the race spec (the deterministic tie-break).
        payload: the subproblem this candidate maps (resubmitted on retry).
        future: the pending pool future (None until submitted).
        attempt: current retry attempt (0 = first submission).
    """

    policy: str
    index: int
    payload: GroupPayload
    future: object | None = None
    attempt: int = 0


def group_candidates(
    engine: "Engine", payload: GroupPayload
) -> list[Candidate]:
    """One group's candidate submissions, in spec order.

    An unraced group is a race of one: its payload as configured.  A
    raced group gets the payload re-pinned to each racing policy --
    candidate workers must never see the ``race:`` spec itself; each
    runs exactly one named policy, and everything else about the
    subproblem (functions, frontier signals, knobs) is shared -- and is
    counted in ``race_groups`` / ``race_candidates``.
    """
    if not engine.racing:
        return [Candidate(payload.config.policy, 0, payload)]
    engine.race_counts["race_groups"] += 1
    engine.race_counts["race_candidates"] += len(engine.race_policies)
    return [
        Candidate(
            policy,
            index,
            dc_replace(
                payload, config=dc_replace(payload.config, policy=policy)
            ),
        )
        for index, policy in enumerate(engine.race_policies)
    ]


def pick_winner(
    engine: "Engine", outcomes: list[tuple[Candidate, GroupResult]]
) -> tuple[str, GroupResult]:
    """Decide one race among its surviving candidates.

    The winner minimizes ``(target.group_cost(nodes), spec_index)`` --
    timing-independent, so every executor picks the same one -- and is
    counted in the engine's per-policy win tally.
    """
    cost = engine.context.target.group_cost
    winner, result = min(
        outcomes, key=lambda o: (cost(o[1].nodes), o[0].index)
    )
    engine.note_race_winner(winner.policy)
    return winner.policy, result


def run_race_serial(
    engine: "Engine", payload: GroupPayload
) -> tuple[str, GroupResult]:
    """Race the policy portfolio over one group, in process, in spec order.

    Every candidate runs to completion (best-cost semantics need every
    cost); a candidate that dies is excluded (``race_failures``) as long
    as at least one survives -- when all die, the last error propagates.
    Returns ``(winner_policy, winner_result)`` (see :func:`pick_winner`).
    """
    outcomes: list[tuple[Candidate, GroupResult]] = []
    last_error: Exception | None = None
    for cand in group_candidates(engine, payload):
        if cancel_requested():
            raise RunInterrupted(
                "serial race cancelled (signal or server drain)"
            )
        try:
            with observe.span("race-candidate"):
                outcomes.append((cand, run_group(cand.payload)))
        except RunInterrupted:
            raise
        except Exception as exc:  # noqa: BLE001 - candidate is expendable
            engine.race_counts["race_failures"] += 1
            observe.failure(
                kind="race-candidate", policy=cand.policy,
                error=f"{type(exc).__name__}: {exc}",
            )
            last_error = exc
    if not outcomes:
        raise last_error  # type: ignore[misc] - at least one candidate ran
    return pick_winner(engine, outcomes)


@dataclass
class Submission:
    """Book-keeping of one group on the process pool.

    Attributes:
        ordinal: submission ordinal (dispatch order, batch-wide).
        f_nodes: the group's BDD roots in the parent manager (kept so the
            degraded serial fallback can re-run the group in-parent).
        fingerprint: checkpoint identity of the payload (None when
            neither checkpointing nor resume is configured).
        cached: result replayed from a resume checkpoint, if any.
        candidates: the group's pool submissions -- one for an unraced
            group, one per policy for a raced one (empty when ``cached``).
        failures: structured records of every failed attempt so far.
        degraded_signals: output signals produced by the in-parent serial
            fallback (None unless the group degraded).
        cache_form: canonical form computed by the result-cache lookup
            (kept so a miss can be recorded after the merge without
            canonicalizing twice; None when no cache is configured or
            the group replayed from a checkpoint instead).
        cache_hit: True when ``cached`` came from the result cache
            rather than a resume checkpoint.
        winner_policy: the racing policy whose result was merged (cache
            provenance; None for unraced or replayed groups).
    """

    ordinal: int
    f_nodes: list[int]
    fingerprint: str | None = None
    cached: GroupResult | None = None
    candidates: list[Candidate] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    degraded_signals: list[str] | None = None
    cache_form: object | None = None
    cache_hit: bool = False
    winner_policy: str | None = None


class ProcessExecutor:
    """Fan independent groups out to worker processes, re-import in order."""

    name = "process"

    def __init__(self, jobs: int) -> None:
        """Use up to ``jobs`` worker processes; reliability counters start at zero."""
        self.workers = max(1, jobs)
        self._counts = {
            "tasks_retried": 0,
            "task_timeouts": 0,
            "worker_crashes": 0,
            "groups_degraded": 0,
            "faults_injected": 0,
            "checkpoint_saved": 0,
            "checkpoint_replayed": 0,
            "checkpoint_stale_entries": 0,
        }

    def reliability(self) -> dict[str, int]:
        """Snapshot of the retry/timeout/degradation/checkpoint counters."""
        return dict(self._counts)

    # ------------------------------------------------------------------
    # the drain
    # ------------------------------------------------------------------

    def run_groups(
        self, engine: "Engine", groups: list[list[int]]
    ) -> list[list[str]]:
        """Map every group, with retries, degradation and checkpointing."""
        config = engine.config
        if len(groups) <= 1:
            # Nothing to overlap; skip the pickling round-trip.  (Fault
            # injection and checkpointing only apply to pooled groups, but
            # an incompatible --resume file must still be rejected.)
            self._load_resume(config)
            return SerialExecutor().run_groups(engine, groups)
        faults = self._resolve_faults(config, len(groups))
        resume = self._load_resume(config)
        ckpt = self._make_checkpointer(config)
        with observe.span("engine-dispatch"):
            subs = self.submit_groups(
                engine, groups, faults=faults, resume=resume,
                fingerprints=ckpt is not None,
            )
        with observe.span("engine-collect"):
            return self.collect_groups(engine, subs, faults=faults, ckpt=ckpt)

    @staticmethod
    def _resolve_faults(config: "FlowConfig", num_groups: int) -> ResolvedFaults:
        """Pin the configured fault plan (if any) to the group count."""
        if config.fault_plan is None:
            return NO_FAULTS
        return config.fault_plan.resolve(num_groups)

    @staticmethod
    def _load_resume(config: "FlowConfig") -> ResumeState | None:
        """Load the resume checkpoint named by the configuration, if any."""
        if config.resume_from is None:
            return None
        state = load_checkpoint(config.resume_from, config)
        observe.add("resume_groups_available", len(state))
        return state

    @staticmethod
    def _make_checkpointer(config: "FlowConfig") -> Checkpointer | None:
        """Build the checkpoint writer named by the configuration, if any."""
        if config.checkpoint_path is None:
            return None
        return Checkpointer(
            config.checkpoint_path,
            config_digest(config),
            every=config.checkpoint_every,
        )

    def submit_groups(
        self,
        engine: "Engine",
        groups: list[list[int]],
        first_ordinal: int = 0,
        faults: ResolvedFaults = NO_FAULTS,
        resume: ResumeState | None = None,
        fingerprints: bool = False,
    ) -> list[Submission]:
        """Queue every group on the shared pool; returns submissions in order.

        Split from :meth:`collect_groups` so batch mode can enqueue the
        groups of *many* networks before collecting any of them
        (``first_ordinal`` offsets the batch-wide submission ordinals).
        Groups found in ``resume`` or in the persistent result cache are
        not submitted at all -- their stored result replays at collect
        time (resume wins over the cache: it is keyed by position and
        exact payload, so its replay semantics are stricter).
        """
        ctx = engine.context
        subs: list[Submission] = []
        for i, f_nodes in enumerate(groups):
            ordinal = first_ordinal + i
            payload = group_payload(ctx, f_nodes)
            fingerprint = (
                payload_fingerprint(payload)
                if fingerprints or resume is not None
                else None
            )
            sub = Submission(ordinal, list(f_nodes), fingerprint)
            if resume is not None and fingerprint is not None:
                sub.cached = resume.lookup(ordinal, fingerprint)
            if sub.cached is None and engine.group_cache is not None:
                with observe.span("cache-lookup"):
                    hit, form = engine.group_cache.lookup(ctx, f_nodes)
                sub.cache_form = form
                if hit is not None:
                    sub.cached = hit
                    sub.cache_hit = True
            if sub.cached is None:
                sub.candidates = group_candidates(engine, payload)
                for cand in sub.candidates:
                    self._submit(sub, cand, faults)
            subs.append(sub)
        self._note_stale(resume)
        return subs

    def _submit(
        self, sub: Submission, cand: Candidate, faults: ResolvedFaults
    ) -> None:
        """Put one candidate's current attempt on the pool, fault armed."""
        payload = cand.payload
        fault = faults.fault_for(sub.ordinal, cand.attempt)
        if fault is not None:
            self._counts["faults_injected"] += 1
            observe.add("faults_injected")
            payload = dc_replace(payload, fault=fault)
        cand.future = self._pool_submit(payload)

    def _note_stale(self, resume: ResumeState | None) -> None:
        """Surface newly-discovered stale resume entries (counter + stderr)."""
        if resume is None:
            return
        new = resume.stale - self._counts["checkpoint_stale_entries"]
        if new > 0:
            self._counts["checkpoint_stale_entries"] = resume.stale
            observe.add("checkpoint_stale_entries", new)
            print(
                f"repro: {new} stale checkpoint entr"
                f"{'y' if new == 1 else 'ies'} skipped (group inputs "
                "changed since the checkpoint); recomputing",
                file=sys.stderr,
            )

    def _pool_submit(self, payload: GroupPayload):
        """Submit on the shared pool, rebuilding it once if it is broken.

        A killed worker is noticed asynchronously by the pool's management
        thread, so a pool that looked healthy when the last result was
        collected can be broken by the time the next run dispatches.
        """
        try:
            return _get_pool(self.workers).submit(run_group, payload)
        except BrokenExecutor:
            _reset_pool()
            return _get_pool(self.workers).submit(run_group, payload)

    def collect_groups(
        self,
        engine: "Engine",
        subs: list[Submission],
        faults: ResolvedFaults = NO_FAULTS,
        ckpt: Checkpointer | None = None,
    ) -> list[list[str]]:
        """Re-import group results sequentially, in submission order.

        Failed submissions are retried (see :meth:`_decide`); merged
        results are checkpointed; parent-side ``abort`` faults fire
        after the checkpoint flush so resume paths are testable.
        """
        results: list[list[str]] = []
        try:
            for remaining, sub in enumerate(subs):
                if cancel_requested():
                    raise RunInterrupted(
                        "process drain cancelled (signal or server drain)"
                    )
                engine.graph.note_queue_depth(len(subs) - remaining)
                if sub.cached is not None:
                    if not sub.cache_hit:
                        self._counts["checkpoint_replayed"] += 1
                        observe.add("checkpoint_groups_replayed")
                    # (result-cache hits were already counted at lookup)
                    result: GroupResult | None = sub.cached
                else:
                    result = self._decide(engine, sub, faults)
                if result is not None:
                    signals = merge_group_result(engine, result)
                    if ckpt is not None and sub.fingerprint is not None:
                        ckpt.record(sub.ordinal, sub.fingerprint, result)
                        self._counts["checkpoint_saved"] += 1
                    if sub.cache_form is not None and not sub.cache_hit:
                        with observe.span("cache-record"):
                            engine.group_cache.record(
                                engine.context, sub.cache_form,
                                sub.f_nodes, result,
                                policy=sub.winner_policy,
                            )
                else:
                    # Degraded serial fallback already emitted in-parent.
                    signals = sub.degraded_signals
                results.append(signals)
                abort = faults.abort_after(sub.ordinal)
                if abort is not None:
                    self._counts["faults_injected"] += 1
                    if ckpt is not None:
                        ckpt.close()
                    perform_fault(abort, in_worker=False)
        except RunInterrupted:
            # Outstanding futures must not keep pool workers (and the
            # interpreter's exit machinery) busy after the run is dead.
            self._cancel_pending(engine, subs)
            raise
        finally:
            if ckpt is not None:
                ckpt.close()
        return results

    @staticmethod
    def _cancel_pending(engine: "Engine", subs: list[Submission]) -> None:
        """Revoke every candidate future of ``subs`` still pending.

        Runs only when the drain is torn down; a race-candidate future
        revoked before it started counts as a cancelled loser, since
        nobody can win its race anymore.
        """
        for sub in subs:
            for cand in sub.candidates:
                if cand.future.cancel() and engine.racing:
                    engine.race_counts["race_losers_cancelled"] += 1

    # ------------------------------------------------------------------
    # awaiting and deciding
    # ------------------------------------------------------------------

    def _decide(
        self, engine: "Engine", sub: Submission, faults: ResolvedFaults
    ) -> GroupResult | None:
        """Await every candidate of one group and settle its result.

        Candidates are awaited in spec order (see :meth:`_await_candidate`)
        and every survivor is kept, so a race decides by best cost, not
        by timing (:func:`pick_winner`), and matches the serial race
        exactly.  A raced candidate that fails permanently is excluded
        (``race_failures``); when every candidate fails the group
        degrades to the in-parent serial path.  An unraced group takes
        its single result.

        Returns None when the group was degraded (its signals are then
        already bound on ``sub.degraded_signals``).
        """
        outcomes: list[tuple[Candidate, GroupResult]] = []
        for cand in sub.candidates:
            result = self._await_candidate(engine, sub, cand, faults)
            if result is not None:
                outcomes.append((cand, result))
            elif engine.racing:
                engine.race_counts["race_failures"] += 1
        if not outcomes:
            # A raced group retried only its candidates, never itself,
            # so its in-parent fallback is still the group's attempt 0.
            attempt = 0 if engine.racing else sub.candidates[0].attempt
            return self._degrade(engine, sub, faults, attempt)
        if not engine.racing:
            return outcomes[0][1]
        sub.winner_policy, result = pick_winner(engine, outcomes)
        return result

    def _await_candidate(
        self,
        engine: "Engine",
        sub: Submission,
        cand: Candidate,
        faults: ResolvedFaults,
    ) -> GroupResult | None:
        """Wait for one candidate, retrying failures with backoff.

        Every failed attempt is recorded (raced candidates' records
        carry their policy name); a crash also rebuilds the pool.
        Returns the worker's result, or None once the candidate has
        exhausted ``FlowConfig.task_retries``.
        """
        config = engine.config
        while True:
            started = time.perf_counter()
            try:
                return self._wait_interruptible(
                    cand.future, config.task_timeout
                )
            except RunInterrupted:
                # Not a task failure: the whole drain is being torn down
                # (collect_groups cancels the other futures and flushes
                # the checkpoint on the way out).
                raise
            except FutureTimeoutError:
                kind = "timeout"
                error = f"group exceeded task_timeout={config.task_timeout:g}s"
                self._counts["task_timeouts"] += 1
            except BrokenExecutor as exc:
                kind = "worker-crash"
                error = str(exc) or type(exc).__name__
                self._counts["worker_crashes"] += 1
                _reset_pool()
            except FaultInjected as exc:
                kind = "fault"
                error = str(exc)
            except Exception as exc:  # noqa: BLE001 - any worker failure
                kind = "error"
                error = f"{type(exc).__name__}: {exc}"
            self._note_failure(
                sub, kind, error, started, cand.attempt,
                policy=cand.policy if engine.racing else None,
            )
            cand.attempt += 1
            if cand.attempt > config.task_retries:
                return None
            self._counts["tasks_retried"] += 1
            observe.add("tasks_retried")
            time.sleep(
                min(
                    config.retry_backoff * (2 ** (cand.attempt - 1)),
                    MAX_BACKOFF_SECONDS,
                )
            )
            self._submit(sub, cand, faults)

    @staticmethod
    def _wait_interruptible(future, timeout: float | None):
        """Wait on one pool future, polling the cancellation flag.

        ``concurrent.futures`` waits are not interruptible by another
        thread, so the wait is sliced into :data:`CANCEL_POLL_SECONDS`
        chunks: a requested cancel surfaces within one slice as
        :class:`RunInterrupted`, and ``timeout`` (the per-attempt
        ``FlowConfig.task_timeout``) still raises the pool's
        ``TimeoutError`` with unchanged semantics.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if cancel_requested():
                raise RunInterrupted(
                    "process drain cancelled (signal or server drain)"
                )
            wait = CANCEL_POLL_SECONDS
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FutureTimeoutError()
                wait = min(wait, remaining)
            try:
                return future.result(timeout=wait)
            except FutureTimeoutError:
                continue  # poll slice elapsed; re-check cancel/deadline

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    @staticmethod
    def _note_failure(
        sub: Submission,
        kind: str,
        error: str,
        started: float,
        attempt: int,
        policy: str | None = None,
    ) -> None:
        """Record one failed attempt (structured, for the run report)."""
        record = {
            "kind": kind, "group": sub.ordinal, "policy": policy,
            "attempt": attempt, "error": error,
            "seconds": round(time.perf_counter() - started, 6),
        }
        if policy is None:
            del record["policy"]  # only raced candidates name a policy
        sub.failures.append(record)
        observe.failure(**record)

    def _degrade(
        self,
        engine: "Engine",
        sub: Submission,
        faults: ResolvedFaults,
        attempt: int,
    ) -> None:
        """Run a repeatedly-failing group in-parent on the serial path.

        Emission order is unchanged (the group runs at its merge
        position), so the final network stays identical to a fault-free
        run.  ``attempt`` is the group's attempt number for this run
        (planned faults fire on it too).  Raises
        :class:`GroupFailedError` when degradation is disabled or the
        serial path fails too.
        """
        if not engine.config.degrade_to_serial:
            raise GroupFailedError(sub.ordinal, sub.failures)
        self._counts["groups_degraded"] += 1
        observe.add("groups_degraded")
        started = time.perf_counter()
        try:
            fault = faults.fault_for(sub.ordinal, attempt)
            if fault is not None:
                self._counts["faults_injected"] += 1
                perform_fault(fault, in_worker=False)
            (signals,) = SerialExecutor().drain_groups(
                engine.emitter, engine.graph, [sub.f_nodes]
            )
        except RunInterrupted:
            raise  # drain teardown, not a group failure
        except Exception as exc:
            self._note_failure(
                sub, "degraded", f"{type(exc).__name__}: {exc}", started,
                attempt,
            )
            raise GroupFailedError(sub.ordinal, sub.failures) from exc
        sub.degraded_signals = signals


def merge_group_result(engine: "Engine", result: GroupResult) -> list[str]:
    """Re-import one worker's mapped sub-network into the parent.

    Worker-local node names are renamed through the parent network's
    ``fresh_name`` counter in emission order, so the final names match a
    serial run; constants dedup through the shared constant cache.
    Worker task counts fold into the parent graph as offloaded work.
    """
    ctx = engine.context
    rename: dict[str, str] = {}
    for spec in result.nodes:
        if spec.constant is not None:
            rename[spec.name] = ctx.constant_signal(spec.constant)
            continue
        prefix = spec.name.rstrip("0123456789")
        name = ctx.lut.fresh_name(prefix)
        fanins = [rename.get(f, f) for f in spec.fanins]
        cover = Sop(
            spec.num_vars,
            [Cube(spec.num_vars, care, value) for care, value in spec.cubes],
        )
        ctx.lut.add_node(name, fanins, cover)
        rename[spec.name] = name
        observe.add("shannon_splits" if prefix == "M" else "luts_emitted")
    ctx.records.extend(result.records)
    engine.graph.merge_counts(result.kind_counts, offloaded=True)
    return [rename.get(sig, sig) for sig in result.outputs]


# Lazily created, process-wide engine pool (fork-cheap workers reused
# across groups and batch runs; rebuilt only when ``jobs`` changes or a
# worker crash breaks the pool).  The lock makes creation/teardown safe
# when several server threads drain concurrently on the shared pool.
_POOL: ProcessPoolExecutor | None = None
_POOL_JOBS = 0
_POOL_LOCK = threading.Lock()


def _init_worker() -> None:
    """Reset fork-inherited coordinator state in a fresh pool worker.

    Workers fork with the CLI/server's drain signal handlers and with a
    copy of the cancellation event.  Left in place, an inherited SIGTERM
    handler would swallow the ``terminate()`` of a forced shutdown (the
    worker prints "draining" and keeps running instead of dying), and a
    cancel flag that was set at fork time would make every task in the
    fresh worker die with :class:`RunInterrupted`.  SIGINT is ignored
    outright: a terminal Ctrl-C reaches the whole process group, and the
    drain is the coordinator's job alone.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    reset_cancel()


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """The shared worker pool, (re)built for the requested width."""
    global _POOL, _POOL_JOBS
    with _POOL_LOCK:
        if _POOL is None or _POOL_JOBS != jobs:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            _POOL = ProcessPoolExecutor(
                max_workers=jobs, initializer=_init_worker
            )
            _POOL_JOBS = jobs
        return _POOL


def _reset_pool() -> None:
    """Discard a broken pool so the next ``_get_pool`` builds a fresh one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=False)
            _POOL = None


def shutdown_pool(force: bool = False) -> None:
    """Shut the shared worker pool down (next use builds a fresh one).

    With ``force`` pending futures are cancelled and the worker processes
    are terminated outright -- an interrupted run must not leave orphaned
    workers grinding on cancelled groups, nor block interpreter exit on
    the pool's atexit join.  Without ``force`` the pool drains normally.
    """
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is None:
        return
    if not force:
        pool.shutdown(wait=True)
        return
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except (OSError, ValueError):  # already dead / closed handle
            pass


def make_executor(config: "FlowConfig") -> Executor:
    """Resolve ``FlowConfig.executor`` to an executor instance."""
    name = getattr(config, "executor", "serial")
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(config.jobs)
    if name == "remote":
        # Imported lazily: the remote transport is optional machinery
        # that serial/process runs should never pay for.
        from repro.engine.remote.executor import RemoteExecutor

        return RemoteExecutor(config)
    raise ValueError(
        f"unknown executor {name!r} (have: {sorted(EXECUTORS)})"
    )


#: Registry of executor names accepted by ``FlowConfig.executor``.
EXECUTORS = ("serial", "process", "remote")


class Engine:
    """Context + policy + graph + executor, bundled for the flows.

    One Engine maps one synthesis run: the collapsed flow creates one per
    network, the structural flow one per run (batches share it so records
    and counters accumulate).
    """

    def __init__(
        self,
        bdd: BDD,
        config: "FlowConfig",
        lut,
        signal_of_level: dict[int, str],
    ) -> None:
        """Assemble context, task graph, emitter, and executor for one run."""
        self.config = config
        self.context = EmitContext(bdd, config, lut, signal_of_level)
        self.graph = TaskGraph()
        self.emitter = VectorEmitter(
            self.context, make_policy(config), self.graph
        )
        self.executor: Executor = make_executor(config)
        self.race_policies = parse_policy_spec(config.policy)
        self.racing = len(self.race_policies) > 1
        self.race_counts = {
            "race_groups": 0,
            "race_candidates": 0,
            "race_losers_cancelled": 0,
            "race_failures": 0,
        }
        self.race_winners: dict[str, int] = {}
        self.group_cache = None
        if config.cache_db is not None:
            from repro.cache.group import GroupCache

            self.group_cache = GroupCache.open(config.cache_db, config)

    def run_groups(self, groups: list[list[int]]) -> list[list[str]]:
        """Map each group of BDD roots to its emitted output signals."""
        return self.executor.run_groups(self, groups)

    def note_race_winner(self, policy: str) -> None:
        """Count one raced group decided in favour of ``policy``."""
        self.race_winners[policy] = self.race_winners.get(policy, 0) + 1

    def stats(self) -> EngineStats:
        """Report-ready counters for the run's ``engine`` section.

        Folds the executor's reliability counters (retries, timeouts,
        degradations, checkpoint activity), the result-cache counters and
        the portfolio-race counters into the task-graph counts.
        """
        stats = self.graph.stats(self.executor.name, self.executor.workers)
        reliability = getattr(self.executor, "reliability", None)
        if reliability is not None:
            stats = dc_replace(stats, **reliability())
        if self.group_cache is not None:
            stats = dc_replace(stats, **self.group_cache.counters())
        return dc_replace(stats, **self.race_counts)
