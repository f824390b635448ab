"""One benchmark workload in its own process; ``run.py`` launches it.

Prints ``READY`` on stdout when set-up is done, right before the first
timed operation (the launcher times set-up up to that line), then runs
operations for ``--seconds`` and prints one JSON result as its last
line. With ``--probe`` it exits right after ``READY``.

Every timing is a median over many operations spread across the run,
each scaled by the host-speed probe timed around it (``speed.py``): the
host drifts by tens of percent over minutes, so one long operation per
run does not repeat.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.context import ScenarioContext
from repro.core.pipeline import ModelFreeBackend
from repro.core.snapshot import Snapshot
from repro.corpus.production import production_scenario, scaled_timers
from repro.corpus.routes import RouteInjector, full_table
from repro.gnmi.server import dump_afts, extract_afts
from repro.kube.cluster import KubeCluster
from repro.kube.kne import KneDeployment
from repro.obs import bus
from repro.service import VerificationService
from repro.verify.engine import clear_engine_cache, engine_for
from repro.verify.invariants import verification_summary
from repro.whatif.scenarios import single_link_failures

import oracle
import speed

HERE = Path(__file__).resolve().parent


@dataclasses.dataclass(frozen=True)
class Spec:
    routers: int
    peers: int
    routes: int
    churn: bool


WORKLOADS = {
    "fulltable_cold": Spec(routers=8, peers=2, routes=1000, churn=False),
    "mesh_cold": Spec(routers=20, peers=1, routes=50, churn=False),
    "churn_service": Spec(routers=8, peers=2, routes=500, churn=True),
}
CORPUS_SEED = 7  # wiring and configs; --seed picks routes, kernel and questions
QUIET = 30.0
# The question mix of the repository's service benchmark
# (benchmarks/test_bench_service.py ``_workload``), restricted to the
# three kinds asked here and kept in its proportions and shapes: per
# round, one reachability question between two routers and two over the
# whole network, two traceroutes and three routes tables, each with the
# snapshot it asks about there. Sources and loopback targets are seeded.
# Cold workloads hold one snapshot, so all their questions ask about it.
MIX = (
    ("reachability", "pair", "baseline"),
    ("reachability", "network", "baseline"),
    ("reachability", "network", "current"),
    ("traceroute", "pair", "baseline"),
    ("traceroute", "pair", "current"),
    ("routes", "node", "baseline"),
    ("routes", "node", "baseline"),
    ("routes", "node", "current"),
)
ROUNDS = 3
# An assumption, not taken from a measured workload: the operation's
# first REPEATS router questions about the current snapshot, in MIX
# order, are asked twice; the first half is sent together with the
# original (coalescing onto its in-flight job), the second half after
# all other questions (the result cache answers them). With the draw
# cycles below, every operation of every run answers the same number
# of questions from the cache, whatever the seed.
REPEATS = 4
QUERIES_PER_OP = ROUNDS * len(MIX) + REPEATS
MIN_QUERIES = 200  # latency samples, so that >= 10 lie beyond p95
# Whole operations: every run makes at least MIN_OPS of them and goes on
# until it holds MIN_QUERIES latency samples, whatever the host speed.
MIN_OPS = 8
OP_TIMEOUT = 120.0


class Spans:
    """The benchmark's own spans: name, start, end, parent, operation."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.records)
        record = {"id": sid, "name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None}
        self.records.append(record)
        self._stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str, ops) -> list[float]:
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name and r["op"] in ops]


NULL_SPANS = Spans(False)


# -- inputs ------------------------------------------------------------------


def make_corpus(spec: Spec, seed: int):
    """The production corpus; the seed picks where each peer's table sits.

    Tables keep the corpus generator's shape (consecutive /24s); peer k
    of seed s starts at table slot (s * peers + k) mod 64.
    """
    scenario = production_scenario(
        spec.routers, peers=spec.peers, routes_per_peer=spec.routes,
        seed=CORPUS_SEED,
    )
    scenario.injectors = [
        dataclasses.replace(injector, prefixes=full_table(
            spec.routes, seed=(seed * spec.peers + k) % 64))
        for k, injector in enumerate(scenario.injectors)
    ]
    return scenario


# -- the program's public entry points ---------------------------------------


def engine_builds(service=None) -> int:
    """Cold engine builds so far, from the program's metrics plane: this
    thread's registry plus, for jobs, the service's own."""
    registries = [bus.metrics_registry()]
    if service is not None:
        registries.append(service.metrics)
    return sum(
        child.count
        for registry in registries
        for child in registry.histogram(
            "verify.engine_build_seconds",
            "Wall seconds building one atom-graph engine", ("priority",),
        ).children()
    )


def new_service() -> VerificationService:
    return VerificationService(
        workers=os.cpu_count() or 1, worker_mode="thread"
    ).start()


def pipeline(world, spans: Spans):
    """One cold emulate-converge-extract-verify run.

    Untraced, this is exactly ``ModelFreeBackend.run(verify=True)``.
    Traced, the same public calls are made one by one inside spans.
    Returns (snapshot, deployment, verification summary).
    """
    timers, context = world.timers, world.context
    if not spans.enabled:
        backend = ModelFreeBackend(world.scenario.topology, timers=timers,
                                   quiet_period=QUIET)
        snapshot = backend.run(context, seed=world.seed, verify=True)
        return (snapshot, backend.last_run.deployment,
                snapshot.metadata["verification"])
    with spans.span("kube.deploy"):
        deployment = KneDeployment(world.scenario.topology, cluster=KubeCluster(),
                                   timers=timers, seed=world.seed)
        deployment.deploy()
    with spans.span("protocols.converge"):
        injectors = [RouteInjector(spec, deployment.kernel, deployment.fabric,
                                   timers=timers) for spec in context.injectors]
        for injector in injectors:
            injector.start()
        deployment.wait_converged(quiet_period=QUIET)
    with spans.span("gnmi.extract"):
        extraction = extract_afts(deployment)
    with spans.span("dataplane.build"):
        snapshot = Snapshot(
            name="current", afts=extraction.afts, backend="emulation",
            seed=world.seed,
            startup_seconds=deployment.report.startup_seconds,
            convergence_seconds=deployment.report.convergence_seconds,
        )
        dataplane = snapshot.dataplane
    with spans.span("dataplane.fingerprint"):
        dataplane.fib_fingerprint()
    with spans.span("verify.engine_build"):
        world.atoms = len(engine_for(dataplane).atoms)
    with spans.span("verify.battery"):
        summary = verification_summary(dataplane)
    return snapshot, deployment, summary


def ask(service, sends):
    """One closed-loop client: submit each send's questions together and
    wait for all of them before the next send.

    Returns (question, latency seconds, job) per question; latency runs
    from just before ``submit`` to the job's own finish stamp.
    """
    out = []
    for send in sends:
        sent = []
        for kind, params, snapshot in send:
            started = time.monotonic()
            sent.append(((kind, params, snapshot), started,
                         service.submit(kind, params, snapshot=snapshot)))
        for asked, started, job in sent:
            job.result(timeout=OP_TIMEOUT)
            out.append((asked, job.finished_at - started, job))
    return out


# -- the workload --------------------------------------------------------------


class World:
    """Everything set-up builds and the operations share."""

    def __init__(self, name: str, seed: int, trace: bool) -> None:
        self.seed, self.spec = seed, WORKLOADS[name]
        self.spans = Spans(trace)
        self.rng = random.Random(seed)
        started = time.perf_counter()
        self.scenario = make_corpus(self.spec, seed)
        self.corpus_s = [time.perf_counter() - started]
        self.timers = scaled_timers(self.spec.routes)
        self.context = ScenarioContext(
            name="bench", injectors=tuple(self.scenario.injectors)
        )
        self.net = oracle.Net(self.scenario.topology)
        self.atoms = 0
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        # Raw wall seconds of each timed window, and the host-speed factor
        # measured around it (speed.py).
        self.op_s: list[float] = []
        self.op_speed: list[float] = []
        self.sim_s: list[float] = []
        self.query_s: list[float] = []
        self.query_speed: list[float] = []
        self.builds: list[int] = []
        self.events: dict[int, int] = {}  # operation -> kernel events
        self.delta: list = []
        self.job_ms: dict[int, tuple[float, float]] = {}
        self.checked: dict = {}
        self.first = None
        self.stats = {"result_cache_hits": 0, "coalesced": 0}
        # Sources and targets come from seeded cycles over the routers and
        # the router pairs, so a question recurs only when a cycle wraps.
        nodes = sorted(self.scenario.loopbacks)
        pairs = list(itertools.permutations(nodes, 2))
        self.rng.shuffle(nodes)
        self.rng.shuffle(pairs)
        self.node_draws, self.pair_draws = itertools.cycle(nodes), itertools.cycle(pairs)
        self.service = None
        if self.spec.churn:
            self._churn_setup()

    def expect(self, problems) -> None:
        self.problems.extend(problems)

    def question(self, kind: str, shape: str, snapshot: str):
        """The next question of the given kind and shape."""
        if shape == "network":
            return kind, {}, snapshot
        if kind == "routes":
            return kind, {"nodes": next(self.node_draws)}, snapshot
        src, dst = next(self.pair_draws)
        target = self.scenario.loopbacks[dst] + ("/32" if kind == "reachability" else "")
        return kind, {"startLocation": src, "dst": target}, snapshot

    def queries(self, fibs_of: dict) -> None:
        """ROUNDS rounds of the mix plus REPEATS questions asked twice,
        each answer checked against the oracle."""
        rng = self.rng
        fresh = [
            self.question(kind, shape, snapshot if self.spec.churn else "current")
            for _ in range(ROUNDS)
            for kind, shape, snapshot in MIX
        ]
        twice = [q for q in fresh if q[2] == "current" and q[1]][:REPEATS]
        rng.shuffle(fresh)
        sends = [[asked] for asked in fresh]
        for asked in twice[:REPEATS // 2]:
            sends[fresh.index(asked)].append(asked)
        sends += [[asked] for asked in twice[REPEATS // 2:]]
        self.attempted += QUERIES_PER_OP
        before = speed.probe()
        answers = ask(self.service, sends)
        factor = speed.factor(before, speed.probe())
        for (kind, params, snapshot), latency, job in answers:
            self.query_s.append(latency)
            self.query_speed.append(factor)
            if job.started_at is not None:
                self.job_ms[job.id] = ((job.started_at - job.submitted_at) * 1e3,
                                       (job.finished_at - job.started_at) * 1e3)
            key = (fibs_of[snapshot][0], kind, str(params))
            rows = oracle.digest(job.value.frame().rows)
            if key not in self.checked:
                self.checked[key] = rows
                fibs, net = fibs_of[snapshot][1:]
                self.expect(oracle.check_query(kind, params, job.value, fibs, net))
            elif rows != self.checked[key]:
                self.expect([f"{kind} {params}: answer changed on identical content"])

    def retire_service(self) -> None:
        counters = self.service.stats()["counters"]
        for key in self.stats:
            self.stats[key] += counters[key]
        self.service.stop()
        self.service = None

    # -- cold workloads: one pipeline run, then questions on the result --------

    def cold_op(self) -> None:
        traced = self.spans.enabled and len(self.op_s) % 2 == 1
        spans = self.spans if traced else NULL_SPANS
        self.spans.op = len(self.op_s) + 1
        self.attempted += 1
        clear_engine_cache()
        builds = engine_builds()
        before = speed.probe()
        with spans.span("op"):
            started = time.perf_counter()
            snapshot, deployment, summary = pipeline(self, spans)
            self.op_s.append(time.perf_counter() - started)
        self.op_speed.append(speed.factor(before, speed.probe()))
        self.builds.append(engine_builds() - builds)
        if self.builds[-1] != 1:
            self.expect([f"op {self.spans.op}: {self.builds[-1]} engine builds, not 1"])
        sim = (deployment.kernel.events_processed,
               snapshot.startup_seconds + snapshot.convergence_seconds, summary)
        self.sim_s.append(sim[1])
        self.events[self.spans.op] = sim[0]
        self.layer_counts = {
            "kube.deploy_sim_s": deployment.report.startup_seconds,
            "rib.fib_entries": sum(len(r.rib.fib) for r in deployment.routers.values()),
            "gnmi.aft_entries": sum(len(a) for a in snapshot.afts.values()),
        }
        canon = oracle.canonical(snapshot.afts)
        if self.first is None:
            self.first = (oracle.digest(canon), sim)
            self.fibs = oracle.Fibs(canon)
            self.expect(oracle.check_loopbacks(self.fibs, self.net, self.scenario.loopbacks))
            self.expect(oracle.check_injected(self.fibs, self.net, self.scenario.injectors))
            self.expect(oracle.check_battery(summary, self.spec.routers, self.spec.peers))
        elif (oracle.digest(canon), sim) != self.first:
            self.expect([f"op {self.spans.op}: AFTs or simulated figures differ "
                         "from the first operation"])
        self.service = new_service()
        with spans.span("service.register"):
            self.service.register_snapshot(snapshot, name="current")
        self.queries({"current": (0, self.fibs, self.net)})
        self.retire_service()

    # -- churn_service: warm deployment, one link cut per operation ----------

    def _churn_setup(self) -> None:
        self.spans.op = 0
        with self.spans.span("setup"):
            self.baseline, self.deployment, summary = pipeline(self, self.spans)
        self.expect(oracle.check_battery(summary, self.spec.routers, self.spec.peers))
        self.base_fibs = oracle.Fibs(oracle.canonical(self.baseline.afts))
        self.base_digest = oracle.digest(self.base_fibs.canon)
        self.expect(oracle.check_loopbacks(self.base_fibs, self.net, self.scenario.loopbacks))
        self.expect(oracle.check_injected(self.base_fibs, self.net, self.scenario.injectors))
        # The same cut order in every run: some cuts fall back to a cold
        # engine build and others apply a delta, so a seeded start would
        # change the mix a run's median is taken over.
        self.cuts = [s.links[0] for s in single_link_failures(self.scenario.topology)]
        # Reconvergence of the first MIN_OPS cuts: every run makes them,
        # so the median is the same for every run of one seed.
        self.sim_first_ops: list[float] = []
        self.layer_counts = {
            "kube.deploy_sim_s": self.deployment.report.startup_seconds,
            "rib.fib_entries": sum(len(r.rib.fib) for r in self.deployment.routers.values()),
        }
        self._fresh_service()

    def _fresh_service(self) -> None:
        """A new service with only the baseline resident and warm, so a
        cut seen in an earlier pass is not answered from a cache."""
        if self.service is not None:
            self.retire_service()
            clear_engine_cache()
        self.service = new_service()
        self.service.register_snapshot(self.baseline, name="baseline")
        self.service.store.engine(self.baseline)

    def churn_op(self) -> None:
        index = len(self.op_s)
        cut = self.cuts[index % len(self.cuts)]
        if index and index % len(self.cuts) == 0:
            self._fresh_service()
        # Every other change is traced, shifted by one each pass, so each
        # cut is traced in one pass and untraced in the next.
        traced = self.spans.enabled and (index + index // len(self.cuts)) % 2 == 1
        spans = self.spans if traced else NULL_SPANS
        self.spans.op = index + 1
        deployment, kernel = self.deployment, self.deployment.kernel
        events = kernel.events_processed
        builds = engine_builds(self.service)
        self.attempted += 1
        before = speed.probe()
        with spans.span("op"):
            started = time.perf_counter()
            with spans.span("protocols.converge"):
                deployment.link_down(*cut)
                sim = deployment.wait_converged(quiet_period=QUIET)
            with spans.span("gnmi.extract"):
                afts = dump_afts(deployment)
            with spans.span("dataplane.build"):
                snapshot = Snapshot(name="current", afts=afts, backend="emulation")
                dataplane = snapshot.dataplane
            with spans.span("dataplane.fingerprint"):
                dataplane.fib_fingerprint()
            with spans.span("service.register"):
                self.service.register_snapshot(snapshot, name="current")
            with spans.span("service.differential"):
                answer = self.service.submit(
                    "differentialReachability", {}, snapshot="current",
                    reference_snapshot="baseline",
                ).result(timeout=OP_TIMEOUT).value
            self.op_s.append(time.perf_counter() - started)
        self.op_speed.append(speed.factor(before, speed.probe()))
        if index < MIN_OPS:
            self.sim_first_ops.append(sim)
        self.events[self.spans.op] = kernel.events_processed - events
        self.layer_counts["gnmi.aft_entries"] = sum(len(a) for a in afts.values())
        self.delta.append(self.service.store.engine(snapshot).delta_stats)
        self.builds.append(engine_builds(self.service) - builds)

        fibs = oracle.Fibs(oracle.canonical(afts))
        seen = (oracle.digest(fibs.canon), oracle.digest(answer.frame().rows))
        cut_net = oracle.Net(self.scenario.topology, down=(cut,))
        if cut not in self.checked:
            self.checked[cut] = seen
            self.expect(oracle.check_differential(
                answer, self.base_fibs, self.net, fibs, cut_net, self.scenario.loopbacks))
            self.expect(oracle.check_loopbacks(fibs, cut_net, self.scenario.loopbacks))
        elif seen != self.checked[cut]:
            self.expect([f"cut {cut}: AFTs or differential differ from the last time"])
        self.queries({
            "current": (cut, fibs, cut_net),
            "baseline": (None, self.base_fibs, self.net),
        })
        deployment.link_up(*cut)
        deployment.wait_converged(quiet_period=QUIET)
        if oracle.digest(oracle.canonical(dump_afts(deployment))) != self.base_digest:
            self.expect([f"revert of {cut} did not restore the baseline AFTs"])

    # -- results -------------------------------------------------------------

    def run(self, seconds: float) -> None:
        op = self.churn_op if self.spec.churn else self.cold_op
        started, ops = time.perf_counter(), 0
        while (ops < MIN_OPS or len(self.query_s) < MIN_QUERIES
               or time.perf_counter() - started < seconds):
            ops += 1
            try:
                op()
            except Exception as exc:  # the operation failed: count it, go on
                self.failed += 1
                print(f"operation failed: {exc!r}", file=sys.stderr)
        if self.service is not None:
            self.retire_service()

    def raw(self) -> dict:
        """Medians of the unscaled wall times, and of the speed factor."""
        ms = [q * 1e3 for q in self.query_s]
        return {
            "operation_s": statistics.median(self.op_s),
            "query_p50_ms": statistics.median(ms),
            "query_p95_ms": statistics.quantiles(ms, n=20)[-1],
            "host_speed_factor": statistics.median(self.op_speed + self.query_speed),
        }

    def end_to_end(self) -> dict:
        """Every time is scaled to the reference host speed (speed.py)."""
        op_s = statistics.median(t / f for t, f in zip(self.op_s, self.op_speed))
        sim = self.sim_first_ops if self.spec.churn else self.sim_s
        ms = sorted(q / f * 1e3 for q, f in zip(self.query_s, self.query_speed))
        return {
            # On cold workloads the change is the whole configuration; on
            # churn_service the pipeline is the warm one. Both names
            # therefore read the workload's one operation.
            "pipeline_s": (op_s, "s"),
            "change_to_answer_s": (op_s, "s"),
            "query_p50_ms": (statistics.median(ms), "ms"),
            "query_p95_ms": (statistics.quantiles(ms, n=20)[-1], "ms"),
            "sim_converge_s": (statistics.median(sim), "sim_s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        spans = self.spans
        traced = {r["op"] for r in spans.records if r["name"] == "op"}
        # Overhead: scaled times of traced against untraced operations,
        # on churn_service only for cuts the run made both ways.
        scaled = {op: t / f for op, (t, f) in enumerate(zip(self.op_s, self.op_speed), 1)}
        same = ((lambda op: self.cuts[(op - 1) % len(self.cuts)]) if self.spec.churn
                else (lambda op: None))
        both = {same(op) for op in traced} & {same(op) for op in scaled if op not in traced}
        on = [t for op, t in scaled.items() if op in traced and same(op) in both]
        off = [t for op, t in scaled.items() if op not in traced and same(op) in both]
        setup = {0} if self.spec.churn else traced

        def med(name, ops=traced):
            values = spans.seconds(name, ops)
            return statistics.median(values) if values else 0.0

        coverage = []
        for op in traced:
            root = next(r for r in spans.records if r["op"] == op and r["name"] == "op")
            inside = sum(r["end"] - r["start"] for r in spans.records
                         if r["parent"] == root["id"])
            coverage.append(inside / (root["end"] - root["start"]))
        if min(coverage) < 0.9:
            self.expect([f"layer spans cover only {min(coverage):.1%} of an operation"])
        waits, execs = zip(*self.job_ms.values())
        applied = [d for d in self.delta if d is not None and d.fallback is None]
        ops = len(self.op_s)
        # Host time per kernel event: the deploy and converge spans of a
        # cold operation, the converge span of a change.
        kernel_spans = ("protocols.converge",) if self.spec.churn else (
            "kube.deploy", "protocols.converge")
        us_per_event = [
            sum(r["end"] - r["start"] for r in spans.records
                if r["op"] == op and r["name"] in kernel_spans) / self.events[op] * 1e6
            for op in traced
        ]
        counts = self.layer_counts
        return {
            "corpus.generate_s": (statistics.median(self.corpus_s), "s"),
            "kube.deploy_s": (med("kube.deploy", setup), "s"),
            "kube.deploy_sim_s": (counts["kube.deploy_sim_s"], "sim_s"),
            "protocols.converge_s": (med("protocols.converge"), "s"),
            "sim.events": (statistics.median(self.events.values()), "count"),
            "sim.host_us_per_event": (statistics.median(us_per_event), "us"),
            "rib.fib_entries": (counts["rib.fib_entries"], "count"),
            "gnmi.extract_s": (med("gnmi.extract"), "s"),
            "gnmi.aft_entries": (counts["gnmi.aft_entries"], "count"),
            "dataplane.build_s": (med("dataplane.build"), "s"),
            "dataplane.fingerprint_s": (med("dataplane.fingerprint"), "s"),
            "verify.engine_build_s": (med("verify.engine_build", setup), "s"),
            "verify.battery_s": (med("verify.battery", setup), "s"),
            "verify.engine_builds": (statistics.median(self.builds), "count"),
            "verify.atoms": (self.atoms, "count"),
            "verify.delta_apply_s": (
                statistics.median(d.apply_seconds for d in applied) if applied else 0.0, "s"),
            "verify.delta_dirty_atoms": (
                statistics.median(d.dirty_atoms for d in applied) if applied else 0, "count"),
            "verify.delta_fallbacks": (
                sum(d is not None and d.fallback is not None for d in self.delta) / ops, "1/op"),
            "service.register_s": (med("service.register"), "s"),
            "service.queue_wait_ms": (statistics.median(waits), "ms"),
            "service.exec_ms": (statistics.median(execs), "ms"),
            "service.result_cache_hits": (self.stats["result_cache_hits"] / ops, "1/op"),
            "service.coalesced": (self.stats["coalesced"] / ops, "1/op"),
            "trace.coverage_pct": (min(coverage) * 100, "%"),
            "trace.overhead_pct": (
                (statistics.median(on) / statistics.median(off) - 1) * 100, "%"),
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    world = World(args.workload, args.seed, bool(args.trace))
    print("READY", flush=True)
    if args.probe:
        if world.service is not None:
            world.retire_service()
        return 0
    world.run(args.seconds)
    if args.trace:
        metrics = world.per_layer()
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with path.open("w") as handle:
            for record in world.spans.records:
                handle.write(json.dumps(record) + "\n")
        print(f"per-layer ({args.workload}, seed {args.seed}; spans in {path.relative_to(HERE.parent)})")
        for name, (value, unit) in metrics.items():
            print(f"  {name:28s} {value:14.6g} {unit}")
    else:
        metrics = world.end_to_end()
    if world.problems:
        print(f"{len(world.problems)} check(s) failed:", file=sys.stderr)
        for problem in world.problems[:20]:
            print("  " + problem, file=sys.stderr)
    print(json.dumps({"samples": {"operations": len(world.op_s),
                                  "query_latencies": len(world.query_s)},
                      "unscaled": world.raw()}))
    print(json.dumps({
        "correct": not world.problems,
        "attempted": world.attempted,
        "failed": world.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
