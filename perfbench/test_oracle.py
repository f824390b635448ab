"""The oracle accepts the program's real output and rejects corrupted
copies of it: a dropped FIB entry, a bent next hop, wrong answers.

    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import oracle  # noqa: E402
from repro.core.context import ScenarioContext  # noqa: E402
from repro.core.pipeline import ModelFreeBackend  # noqa: E402
from repro.core.snapshot import Snapshot  # noqa: E402
from repro.corpus.production import production_scenario, scaled_timers  # noqa: E402
from repro.gnmi.server import dump_afts  # noqa: E402
from repro.pybf.session import Session  # noqa: E402
from repro.whatif.scenarios import single_link_failures  # noqa: E402


@pytest.fixture(scope="module")
def converged():
    scenario = production_scenario(6, peers=2, routes_per_peer=20, seed=7)
    backend = ModelFreeBackend(
        scenario.topology, timers=scaled_timers(20), quiet_period=30.0
    )
    snapshot = backend.run(
        ScenarioContext(name="t", injectors=tuple(scenario.injectors)), verify=True
    )
    return scenario, snapshot, oracle.canonical(snapshot.afts), backend.last_run.deployment


@pytest.fixture(scope="module")
def session_after_cut(converged):
    """A session holding the baseline and the network with one link cut."""
    scenario, snapshot, _, deployment = converged
    cut = next(single_link_failures(scenario.topology)).links[0]
    deployment.link_down(*cut)
    deployment.wait_converged(quiet_period=30.0)
    after = Snapshot(name="cut", afts=dump_afts(deployment), backend="emulation")
    deployment.link_up(*cut)
    deployment.wait_converged(quiet_period=30.0)
    session = Session()
    session.init_snapshot(snapshot, name="base")
    session.init_snapshot(after, name="cut")
    return cut, after, session


def checks(scenario, canon, summary):
    fibs, net = oracle.Fibs(canon), oracle.Net(scenario.topology)
    return (oracle.check_loopbacks(fibs, net, scenario.loopbacks)
            + oracle.check_injected(fibs, net, scenario.injectors)
            + oracle.check_battery(summary, 6, 2))


def test_real_output_passes(converged):
    scenario, snapshot, canon, _ = converged
    assert checks(scenario, canon, snapshot.metadata["verification"]) == []


def test_dropped_fib_entry_fails(converged):
    scenario, snapshot, canon, _ = converged
    broken = copy.deepcopy(canon)
    prefix = str(scenario.injectors[0].prefixes[3])
    del broken["r4"][prefix]
    problems = checks(scenario, broken, snapshot.metadata["verification"])
    assert problems == [f"r4: injected {prefix} missing"]


def test_dropped_loopback_route_fails(converged):
    scenario, snapshot, canon, _ = converged
    broken = copy.deepcopy(canon)
    del broken["r2"][scenario.loopbacks["r5"] + "/32"]
    problems = checks(scenario, broken, snapshot.metadata["verification"])
    assert any(p.startswith("r2->r5: no-route") for p in problems)


def test_bent_next_hop_fails(converged):
    scenario, snapshot, canon, _ = converged
    net = oracle.Net(scenario.topology)
    # Point src's route to dst's loopback at a neighbour no closer to dst:
    # the walk then takes more hops than BFS allows, or loops.
    for (src, interface), neighbour in sorted(net.peer.items()):
        for dst in net.nodes:
            dist = net.distances(dst)
            if dst != src and dist[neighbour] >= dist[src]:
                broken = copy.deepcopy(canon)
                prefix = scenario.loopbacks[dst] + "/32"
                broken[src][prefix] = ("forward", ((interface, None),))
                problems = checks(scenario, broken, snapshot.metadata["verification"])
                assert any(p.startswith(f"{src}->{dst}:") for p in problems)
                return
    pytest.fail("no neighbour to bend a route toward")


def test_battery_miscount_fails(converged):
    scenario, snapshot, canon, _ = converged
    summary = dict(snapshot.metadata["verification"], loops=1)
    assert checks(scenario, canon, summary) == ["battery reports 1 loops"]


class _Answer:
    def __init__(self, rows):
        self.rows = rows

    def frame(self):
        return self


def _differential(converged, session_after_cut):
    """The program's differential answer, and the oracle's check of rows."""
    scenario, _, canon, _ = converged
    cut, after, session = session_after_cut
    answer = session.q.differentialReachability().answer(
        snapshot="cut", reference_snapshot="base")
    return answer, lambda rows: oracle.check_differential(
        _Answer(rows), oracle.Fibs(canon), oracle.Net(scenario.topology),
        oracle.Fibs(oracle.canonical(after.afts)),
        oracle.Net(scenario.topology, down=(cut,)), scenario.loopbacks)


def test_real_differential_passes(converged, session_after_cut):
    answer, check = _differential(converged, session_after_cut)
    rows = answer.frame().rows
    assert any(row["Regressed"] for row in rows)
    assert check(rows) == []


def test_wrong_differential_fails(converged, session_after_cut):
    answer, check = _differential(converged, session_after_cut)
    rows = [dict(row) for row in answer.frame().rows]
    index = next(i for i, row in enumerate(rows) if row["Regressed"])
    # The same count of lost addresses, reported for a destination the
    # cut does not touch.
    moved = rows[:index] + [dict(rows[index], Destination="255.255.255.254")] + rows[index + 1:]
    assert any("outside the walk's ranges" in p for p in check(moved))
    # The same addresses, with the wrong outcome after the cut.
    text = "loop" if rows[index]["Snapshot_Dispositions"] != "loop" else "no-route"
    swapped = rows[:index] + [dict(rows[index], Snapshot_Dispositions=text)] + rows[index + 1:]
    assert check(swapped)


def test_wrong_query_answers_fail(converged, session_after_cut):
    scenario, _, canon, _ = converged
    session = session_after_cut[2]
    fibs, net = oracle.Fibs(canon), oracle.Net(scenario.topology)
    far = max(net.nodes, key=net.distances("r1").get)
    trace = {"startLocation": "r1", "dst": scenario.loopbacks[far]}
    right = session.q.traceroute(**trace).answer(snapshot="base").frame().rows
    assert oracle.check_query("traceroute", trace, _Answer(right), fibs, net) == []
    first = right[0]
    # A path of the same length that ends at a node the walk does not reach.
    head, tail = first["Trace"].rsplit(" >> ", 1)
    stranger = next(n for n in net.nodes if n not in first["Trace"])
    bent = f"{head} >> {stranger} :: {tail.split(' :: ')[1]}"
    wrong_path = [dict(first, Trace=bent), *right[1:]]
    assert oracle.check_query("traceroute", trace, _Answer(wrong_path), fibs, net)
    wrong_outcome = [dict(first, Disposition="no-route"), *right[1:]]
    assert oracle.check_query("traceroute", trace, _Answer(wrong_outcome), fibs, net)
    reach = {"startLocation": "r1", "dst": scenario.loopbacks[far] + "/32"}
    lost = [{"Ingress": "r1", "Covered_Addresses": 0}]
    assert oracle.check_query("reachability", reach, _Answer(lost), fibs, net)
