"""The benchmark's three workloads: set-up from the seed, and one pass.

Every workload is a closed loop from one client thread: a request is
sent only after the previous reply arrived.  A pass sends each case's
primary request once, in a seed-shuffled order, then repeats requests
the system has already answered ("warm").  Each bug is reported with
its first failing run from seed 0, the input the corpus's ground truth
is checked on; the seed picks the request order of every pass.  The
program under test receives only these generated inputs.

cold    in-process ``SnorlaxServer(module).diagnose(failing_run,
        client)`` on the 11 paper bugs, default settings (no caches,
        serial collection, ten successful traces).  Warm: the same
        evidence re-diagnosed through ``repro.api.diagnose`` with the
        decode and analysis caches the first diagnosis filled.
replay  in-process ``repro.api.diagnose`` over evidence collected in
        set-up, no caches: the server-side half of a cold diagnosis.
        A fixed subset of the corpus holds every bug class.  Warm: the
        same evidence with filled caches.
fleet   a real ``FleetServer`` on localhost TCP with a SQLite
        ``DiagnosisStore`` and batched trace frames; one ``FleetAgent``
        connection at a time reports a paper bug and serves the
        server's trace requests.  Warm: a new server over the same
        store answers the same reports from disk.  Collection stops at
        the fixed ten traces: ``stopping="stable-top"`` stops after four
        samples on httpd-25520 and memcached-127 with a wrong root
        cause, which the ground-truth check rejects.

BENCHMARK.json lists replay and fleet; cold runs the same way by hand.

Every timed request is bracketed by timings of a fixed pure-Python
reference loop (see ``host_loop_seconds``), so its times can be scaled
to one host speed: a shared host can change speed by 2x within seconds.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter, process_time

from repro import api
from repro.bench.harness import measure_tracing_overhead
from repro.core.cache import DiagnosisCaches
from repro.corpus import bug, snorlax_bugs
from repro.fleet import FleetAgent, FleetServer, report_digest
from repro.runtime.client import SnorlaxClient
from repro.runtime.server import SnorlaxServer
from repro.store import DiagnosisStore

# Every class of the 67-bug corpus: mutex deadlock (incl. the 3-lock
# chain), order and atomicity violations on plain memory, and the
# condvar/rwlock/semaphore/barrier classes.  Fixed rather than drawn
# from the seed: a drawn subset moves the latency median by which bugs
# it drew, hiding any change in the code.  derby-4129 is the
# decode-heaviest bug of the corpus.
REPLAY_BUGS = (
    "dbcp-44", "redis-2988", "mysql-169", "groovy-7590", "derby-4129",
    "mysql-12848", "aget-3", "zookeeper-2029", "nginx-2162",
    "zookeeper-3006", "zookeeper-1270",
)

# a request slower than this counts as timed out (and as failed)
REQUEST_TIMEOUT_S = 60.0
# successful executions per bug for the simulated tracing overhead
OVERHEAD_SEEDS = 3
# the reference loop's time at the host speed every scaled time is given at
REFERENCE_LOOP_S = 250e-6


def reference_loop() -> int:
    """Fixed interpreter work much like the program's: dict updates,
    tuple allocation, a sort."""
    table: dict[int, int] = {}
    pairs = []
    for i in range(500):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + i
        pairs.append((key, i))
    pairs.sort()
    return len(table)


def host_loop_seconds() -> float:
    """The reference loop's time now: the median of three, which drops
    one that another thread of this process held the GIL in."""
    times = []
    for _ in range(3):
        started = perf_counter()
        reference_loop()
        times.append(perf_counter() - started)
    return sorted(times)[1]


def host_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference-loop
    timings into a time at the reference host speed."""
    return 2 * REFERENCE_LOOP_S / (before + after)


@dataclass
class SetupClock:
    """Times one set-up a step (one bug's work) at a time, each step
    scaled to the reference host speed like a request."""

    scaled: float = 0.0
    raw: float = 0.0
    host_loops: list[float] = field(default_factory=list)

    def __call__(self, step, *args):
        before = host_loop_seconds()
        started = perf_counter()
        result = step(*args)
        elapsed = perf_counter() - started
        after = host_loop_seconds()
        self.scaled += elapsed * host_scale(before, after)
        self.raw += elapsed
        self.host_loops += (before, after)
        return result


@dataclass
class Case:
    """One bug's generated inputs."""

    spec: object
    module: object
    truth: list[int]
    client: SnorlaxClient
    failing: object  # ClientRun
    search_runs: int
    evidence: tuple = ()
    caches: DiagnosisCaches | None = None
    digest: dict | None = None


@dataclass
class Recorder:
    """What the timed loop saw: per-request latency and CPU, failures.

    ``latency``, ``warm`` and ``cpu`` hold times scaled to the reference
    host speed by the reference loop timed just before and just after
    the request; ``raw`` holds the same times as the clock read them."""

    tracer: object = None  # LayerTracer in the traced run
    latency: list[float] = field(default_factory=list)
    warm: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    raw: dict[str, list[float]] = field(
        default_factory=lambda: {"latency": [], "warm": [], "cpu": []})
    host_loops: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def request(self, kind: str, send, check):
        """Time one request; ``check`` returns a problem string or None.
        Returns the reply, or None when the request failed.  ``kind`` is
        "latency" (primary), "warm", or "fill" (checked, not timed)."""
        self.attempted += 1
        before = host_loop_seconds()
        if self.tracer is not None:
            self.tracer.begin_request(kind)
        cpu0, t0 = process_time(), perf_counter()
        try:
            reply = send()
        except Exception as exc:  # a raising request is a failed request
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed, cpu = perf_counter() - t0, process_time() - cpu0
            if self.tracer is not None:
                self.tracer.end_request()
        after = host_loop_seconds()
        problem = check(reply)
        if problem is None and elapsed > REQUEST_TIMEOUT_S:
            problem = f"timed out after {elapsed:.1f}s"
        if problem is not None:
            self._fail(f"{kind}: {problem}")
            return None
        if kind == "fill":
            return reply
        scale = host_scale(before, after)
        self.host_loops += (before, after)
        (self.warm if kind == "warm" else self.latency).append(elapsed * scale)
        self.raw[kind].append(elapsed)
        if kind == "latency":
            self.cpu.append(cpu * scale)
            self.raw["cpu"].append(cpu)
        return reply

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _make_case(spec) -> Case:
    """A fresh module build and the bug's first failing run from seed 0."""
    module = spec.fresh_module()
    client = SnorlaxClient(module, spec.workload, entry=spec.entry)
    failing = client.find_runs(True, 1, start_seed=0)
    if not failing:
        raise RuntimeError(f"{spec.bug_id}: no failing run")
    return Case(
        spec=spec,
        module=module,
        truth=spec.ground_truth.resolve(module),
        client=client,
        failing=failing[0],
        search_runs=failing[0].seed + 1,
    )


def _trace_bytes(case: Case) -> int:
    return sum(len(b) for b in case.failing.snapshot.buffers.values())


def _targets_problem(uids: list[int], case: Case) -> str | None:
    if uids != case.truth:
        return f"{case.spec.bug_id}: diagnosed {uids}, ground truth {case.truth}"
    return None


def _digest_problem(digest: dict, case: Case) -> str | None:
    if digest != case.digest:
        return f"{case.spec.bug_id}: digest differs from its first report's"
    return None


class Workload:
    name = ""
    # set-up runs this often per run; setup_s is the median
    setup_repeats = 5
    # warm requests per primary request in each pass (they are cheap)
    warm_repeats = 5

    def __init__(self, seed: int, tmpdir: Path):
        self.rng = Random(f"perfbench|{self.name}|{seed}")
        self.seed = seed
        self.tmpdir = tmpdir
        self.cases: list[Case] = []

    def bug_specs(self) -> list:
        return snorlax_bugs()

    def setup(self, clock: SetupClock) -> None:
        """Build the modules and find the failing runs, each bug a step
        of ``clock``."""
        self.cases = [clock(_make_case, spec) for spec in self.bug_specs()]

    @property
    def search_runs(self) -> int:
        return sum(c.search_runs for c in self.cases)

    def order(self) -> list[Case]:
        cases = list(self.cases)
        self.rng.shuffle(cases)
        return cases

    def warmup(self) -> None:
        """One untimed request, so first-call costs stay out of timing."""

    def run_pass(self, rec: Recorder) -> None:
        raise NotImplementedError

    def trace_overhead_pct(self) -> float:
        """Figure 8's simulated tracing overhead over this workload's
        bugs: traced vs untraced successful runs on the same seeds."""
        start = 100_000 + 1_000 * (self.seed % 1_000)
        fractions = []
        for case in self.cases:
            fractions += measure_tracing_overhead(
                case.spec, seeds=OVERHEAD_SEEDS, start_seed=start
            ).fractions
        return 100.0 * sum(fractions) / len(fractions)


class _InProcess(Workload):
    """Warm requests re-diagnose the kept evidence with filled caches;
    the first one per bug fills them and is not timed."""

    def _diagnose(self, case: Case):
        raise NotImplementedError

    def warmup(self) -> None:
        self._diagnose(min(self.cases, key=_trace_bytes))

    def run_pass(self, rec: Recorder) -> None:
        order = self.order()
        for case in order:
            def check(result, case=case):
                problem = _targets_problem(result.report.ordered_target_uids(), case)
                if problem is None and case.digest is not None:
                    problem = _digest_problem(report_digest(result.report), case)
                return problem

            result = rec.request("latency", lambda: self._diagnose(case), check)
            if result is not None and case.digest is None:
                case.digest = report_digest(result.report)
                case.evidence = result.request.traces
        for _ in range(self.warm_repeats):
            for case in order:
                if case.digest is None:
                    continue
                kind = "warm" if case.caches is not None else "fill"
                if case.caches is None:
                    case.caches = DiagnosisCaches()
                rec.request(
                    kind,
                    lambda: api.diagnose(
                        case.module, traces=case.evidence, caches=case.caches
                    ),
                    lambda r: _digest_problem(report_digest(r.report), case),
                )


class Cold(_InProcess):
    name = "cold"

    def _diagnose(self, case: Case):
        return SnorlaxServer(case.module).diagnose(case.failing, case.client)


class Replay(_InProcess):
    name = "replay"

    def bug_specs(self) -> list:
        return [bug(bug_id) for bug_id in REPLAY_BUGS]

    def setup(self, clock: SetupClock) -> None:
        super().setup(clock)
        for case in self.cases:
            case.evidence = clock(self._collect_evidence, case)

    @staticmethod
    def _collect_evidence(case: Case) -> tuple:
        server = SnorlaxServer(case.module)
        failing = server.sample_from_run("failure", case.failing)
        successes = server.collect_successful_traces(
            case.client, case.failing.failure.failing_uid, 10_000,
            failing_sample=failing,
        )
        return (failing, *successes)

    def _diagnose(self, case: Case):
        return api.diagnose(case.module, traces=case.evidence)


class Fleet(Workload):
    name = "fleet"
    # a warm report is a sub-millisecond store read: many of them per
    # pass, so a host stall of a few hundred ms cannot move their tail
    warm_repeats = 20

    def __init__(self, seed: int, tmpdir: Path):
        super().__init__(seed, tmpdir)
        self.passes = 0

    def _server(self, store: DiagnosisStore) -> FleetServer:
        modules = {c.spec.bug_id: c.module for c in self.cases}
        return FleetServer(module_resolver=modules.__getitem__, store=store)

    def _report(self, case: Case, address, rec: Recorder | None, kind: str):
        """Connect (untimed), time one report, disconnect."""
        if rec is not None and rec.tracer is not None:
            rec.tracer.kind = kind  # the connect's frames serve this report
        agent = FleetAgent(
            f"bench-{case.spec.bug_id}", case.spec.bug_id, case.module,
            case.spec.workload, *address, entry=case.spec.entry,
        )
        agent.connect()
        try:
            send = lambda: agent.report_failure(  # noqa: E731
                case.failing, max_wait=REQUEST_TIMEOUT_S
            )
            if rec is None:
                return send()

            def check(reply):
                if agent.rejections:
                    return f"{case.spec.bug_id}: rejected {agent.rejections}x"
                uids = [event[0] for event in reply.digest["target_events"]]
                problem = _targets_problem(uids, case)
                if problem is None and kind == "warm":
                    problem = _digest_problem(reply.digest, case)
                return problem

            return rec.request(kind, send, check)
        finally:
            agent.close()

    def warmup(self) -> None:
        directory = self.tmpdir / "warmup"
        directory.mkdir()
        store = DiagnosisStore(str(directory / "store.db"))
        server = self._server(store)
        try:
            address = server.start()
            self._report(min(self.cases, key=_trace_bytes), address, None, "latency")
        finally:
            server.stop()
            store.close()
            shutil.rmtree(directory)

    def run_pass(self, rec: Recorder) -> None:
        self.passes += 1
        directory = self.tmpdir / f"pass-{self.passes}"
        directory.mkdir()
        path = str(directory / "store.db")
        order = self.order()
        try:
            # new signatures: collection, diagnosis, store + provenance writes
            store = DiagnosisStore(path)
            server = self._server(store)
            try:
                address = server.start()
                for case in order:
                    reply = self._report(case, address, rec, "latency")
                    if reply is not None:
                        case.digest = reply.digest
            finally:
                server.stop()
                store.close()
                self._absorb(rec, server, "latency")
            # the same reports again, answered by a new server from disk
            store = DiagnosisStore(path)
            server = self._server(store)
            try:
                address = server.start()
                for _ in range(self.warm_repeats):
                    for case in order:
                        if case.digest is not None:
                            self._report(case, address, rec, "warm")
            finally:
                server.stop()
                store.close()
                self._absorb(rec, server, "warm")
        finally:
            shutil.rmtree(directory, ignore_errors=True)
            for case in self.cases:
                case.digest = None

    @staticmethod
    def _absorb(rec: Recorder, server: FleetServer, kind: str) -> None:
        if rec.tracer is not None:
            rec.tracer.absorb_fleet_server(server.metrics, kind)


WORKLOADS = {w.name: w for w in (Cold, Replay, Fleet)}
