"""The benchmark's own answers, computed from the corpus inputs.

Nothing here calls the program's forwarding walker, its LPM index or
``fib_fingerprint``: extracted AFTs are read as plain data, addresses
are parsed with this module's own parser, longest-prefix match is a
per-length dict probe, and hop distances come from a BFS over the
topology's links. Every ``check_*`` function returns a list of problem
strings; an empty list means the program's output agrees.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import deque

SUCCESS = frozenset({"accepted", "exits"})
# The program's dispositions as the walk's outcomes: the walk does not
# tell delivery to an attached subnet from leaving the network.
OUTCOME = {
    "accepted": "accepted",
    "delivered-to-subnet": "exits",
    "exits-network": "exits",
    "no-route": "no-route",
    "null-routed": "dropped",
    "loop": "loop",
}
_MAX_DEPTH = 64


def parse_ip(text: str) -> int:
    a, b, c, d = (int(part) for part in text.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def parse_prefix(text: str) -> tuple[int, int]:
    """``"a.b.c.d/len"`` -> (first address, length)."""
    address, length = text.split("/")
    length = int(length)
    mask = ((1 << length) - 1) << (32 - length) if length else 0
    return parse_ip(address) & mask, length


class Net:
    """Topology facts from the corpus: link ends and adjacency."""

    def __init__(self, topology, down: tuple = ()) -> None:
        cut = {frozenset(pair) for pair in down}
        self.nodes = sorted(spec.name for spec in topology.nodes)
        self.peer: dict[tuple[str, str], str] = {}
        self.adjacent: dict[str, set[str]] = {n: set() for n in self.nodes}
        self.down_ends: set[tuple[str, str]] = set()
        for link in topology.links:
            a, z = link.a, link.z
            self.peer[(a.node, a.interface)] = z.node
            self.peer[(z.node, z.interface)] = a.node
            if frozenset((a.node, z.node)) in cut:
                self.down_ends |= {(a.node, a.interface), (z.node, z.interface)}
            else:
                self.adjacent[a.node].add(z.node)
                self.adjacent[z.node].add(a.node)

    def distances(self, source: str) -> dict[str, int]:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for nxt in self.adjacent[node]:
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        return dist


def canonical(afts) -> dict[str, dict[str, tuple]]:
    """device -> prefix -> (entry type, sorted (interface, gateway) hops)."""
    out = {}
    for device, snap in afts.items():
        table = {}
        for entry in snap.entries:
            hops = ()
            if entry.next_hop_group is not None:
                group = snap.next_hop_groups[entry.next_hop_group]
                hops = tuple(sorted(
                    ((snap.next_hops[i].interface, snap.next_hops[i].ip_address)
                     for i in group.next_hop_indices),
                    key=str,
                ))
            table[entry.prefix] = (entry.entry_type, hops)
        out[device] = table
    return out


def digest(value) -> str:
    """A short stable digest of canonical AFTs or an answer's rows."""
    if isinstance(value, dict):
        value = sorted((k, sorted(v.items())) for k, v in value.items())
    return hashlib.sha1(repr(value).encode()).hexdigest()


class Fibs:
    """Longest-prefix match over canonical AFTs."""

    def __init__(self, canon: dict[str, dict[str, tuple]]) -> None:
        self.canon = canon
        self.tables: dict[str, list[tuple[int, int, dict]]] = {}
        bounds = set()
        for device, table in canon.items():
            by_length: dict[int, dict[int, tuple]] = {}
            for prefix, value in table.items():
                first, length = parse_prefix(prefix)
                by_length.setdefault(length, {})[first] = (prefix, *value)
                bounds.add(first)
                bounds.add(first + (1 << (32 - length)))
            self.tables[device] = [
                (length, ((1 << length) - 1) << (32 - length), by_length[length])
                for length in sorted(by_length, reverse=True)
            ]
        self.bounds = sorted(bounds)

    def lookup(self, device: str, address: int):
        for _, mask, table in self.tables[device]:
            hit = table.get(address & mask)
            if hit is not None:
                return hit
        return None

    def intervals(self, lo: int, hi: int):
        """Sub-ranges of [lo, hi) on which every device's match is fixed."""
        start = bisect.bisect_right(self.bounds, lo)
        end = bisect.bisect_left(self.bounds, hi)
        cuts = [lo, *self.bounds[start:end], hi]
        return list(zip(cuts, cuts[1:]))


def walk(fibs: Fibs, net: Net, source: str, address: int) -> list[tuple]:
    """Every ECMP branch from ``source``: (outcome, node path, last hop)."""
    branches = []

    def step(node: str, path: tuple, via) -> None:
        path = path + (node,)
        hit = fibs.lookup(node, address)
        if hit is None:
            branches.append(("no-route", path, via))
            return
        _, entry_type, hops = hit
        if entry_type == "receive":
            branches.append(("accepted", path, via))
            return
        if entry_type != "forward" or not hops:
            branches.append(("dropped", path, via))
            return
        for interface, gateway in hops:
            hop = (node, interface, gateway)
            if (node, interface) in net.down_ends:
                branches.append(("down-link", path, hop))
                continue
            nxt = net.peer.get((node, interface))
            if nxt is None:
                branches.append(("exits", path, hop))
            elif nxt in path or len(path) > _MAX_DEPTH:
                branches.append(("loop", path + (nxt,), hop))
            else:
                step(nxt, path, hop)

    step(source, (), None)
    return branches


def outcome_map(fibs: Fibs, net: Net, address: int) -> dict[str, frozenset]:
    """node -> the outcomes of every branch from it for ``address``."""
    memo: dict[str, frozenset] = {}
    active: list[str] = []

    def visit(node: str) -> tuple[frozenset, set]:
        """(outcomes, the nodes on the current path a branch looped back to)."""
        if node in memo:
            return memo[node], set()
        if node in active:
            return frozenset({"loop"}), {node}
        hit = fibs.lookup(node, address)
        back: set[str] = set()
        if hit is None:
            found = {"no-route"}
        elif hit[1] == "receive":
            found = {"accepted"}
        elif hit[1] != "forward" or not hit[2]:
            found = {"dropped"}
        else:
            found = set()
            active.append(node)
            for interface, _ in hit[2]:
                nxt = net.peer.get((node, interface))
                if (node, interface) in net.down_ends:
                    found.add("down-link")
                elif nxt is None:
                    found.add("exits")
                else:
                    sub, looped = visit(nxt)
                    found |= sub
                    back |= looped
            active.pop()
            back.discard(node)
        found = frozenset(found)
        # A branch that looped back to an ancestor saw only part of what
        # this node reaches; cache only what is complete.
        if not back:
            memo[node] = found
        return found, back

    return {node: visit(node)[0] for node in net.nodes}


def delivers(outcomes: frozenset) -> bool:
    return outcomes <= SUCCESS


def success_counts(fibs: Fibs, net: Net, lo: int, hi: int) -> dict[str, int]:
    """node -> how many addresses in [lo, hi) it delivers."""
    counts = dict.fromkeys(net.nodes, 0)
    for start, end in fibs.intervals(lo, hi):
        for node, outcomes in outcome_map(fibs, net, start).items():
            if delivers(outcomes):
                counts[node] += end - start
    return counts


def changes(before: Fibs, b_net: Net, after: Fibs, a_net: Net):
    """(ingress, outcomes before, outcomes after) -> the destination
    ranges [start, end) whose outcomes differ, over the whole space."""
    bounds = sorted({0, 1 << 32} | set(before.bounds) | set(after.bounds))
    out: dict[tuple, list[tuple[int, int]]] = {}
    for start, end in zip(bounds, bounds[1:]):
        was = outcome_map(before, b_net, start)
        now = outcome_map(after, a_net, start)
        for node in b_net.nodes:
            if was[node] != now[node]:
                out.setdefault((node, was[node], now[node]), []).append((start, end))
    return out


# -- checks ----------------------------------------------------------------


def check_loopbacks(fibs: Fibs, net: Net, loopbacks: dict[str, str]) -> list[str]:
    """Every ECMP branch to every loopback lands at its owner in exactly
    the BFS hop distance; BFS-disconnected pairs are not delivered."""
    problems = []
    for src in net.nodes:
        dist = net.distances(src)
        for dst in net.nodes:
            if dst == src:
                continue
            branches = walk(fibs, net, src, parse_ip(loopbacks[dst]))
            if dst not in dist:
                if any(b[0] == "accepted" for b in branches):
                    problems.append(f"{src}->{dst}: delivered across a partition")
                continue
            for outcome, path, _ in branches:
                if outcome != "accepted" or path[-1] != dst:
                    problems.append(f"{src}->{dst}: {outcome} via {path}")
                elif len(path) - 1 != dist[dst]:
                    problems.append(
                        f"{src}->{dst}: {len(path) - 1} hops, BFS says {dist[dst]}"
                    )
    return problems


def check_injected(fibs: Fibs, net: Net, injectors) -> list[str]:
    """Every injected prefix is in every router's AFT and every branch
    leaves through a gateway port toward a peer that injected it."""
    exits: dict[str, set] = {}
    for spec in injectors:
        for prefix in spec.prefixes:
            exits.setdefault(str(prefix), set()).add(
                (spec.gateway_node, spec.gateway_port, spec.ip)
            )
    problems = []
    for prefix, allowed in sorted(exits.items()):
        address = parse_prefix(prefix)[0]
        memo: dict[str, bool] = {}
        for node in net.nodes:
            if prefix not in fibs.canon[node]:
                problems.append(f"{node}: injected {prefix} missing")
                continue
            if node not in memo:
                branches = walk(fibs, net, node, address)
                good = all(o == "exits" and hop in allowed for o, _, hop in branches)
                memo[node] = good
                if good:
                    # The walk enumerated every branch from every node it
                    # visited, so each of them leaves correctly too.
                    for _, path, _ in branches:
                        memo.update(dict.fromkeys(path, True))
            if not memo[node]:
                problems.append(f"{node}: {prefix} does not exit toward its injector")
    return problems


def check_battery(summary: dict, routers: int, peers: int) -> list[str]:
    """0 loops; unreachable pairs = (routers - 1) x peers, since the
    eBGP peering /31s stay out of IS-IS."""
    problems = []
    if summary.get("loops") != 0:
        problems.append(f"battery reports {summary.get('loops')} loops")
    expected = (routers - 1) * peers
    if summary.get("unreachable_pairs") != expected:
        problems.append(
            f"battery unreachable_pairs {summary.get('unreachable_pairs')} != {expected}"
        )
    return problems


def check_differential(answer, before: Fibs, b_net: Net, after: Fibs, a_net: Net,
                       loopbacks: dict[str, str]) -> list[str]:
    """Every behaviour change matches the bench's walk: per ingress and
    (outcomes before, outcomes after), the same number of addresses, each
    row's sample destination inside the ranges the walk finds for that
    change, and the right regression flag. The router pairs that lose
    reachability are exactly those the BFS finds disconnected."""
    problems = []
    want = changes(before, b_net, after, a_net)
    got: dict[tuple, int] = {}
    for row in answer.frame().rows:
        key = (row["Ingress"], _outcomes(row["Reference_Dispositions"]),
               _outcomes(row["Snapshot_Dispositions"]))
        got[key] = got.get(key, 0) + row["Covered_Addresses"]
        address = parse_ip(row["Destination"])
        if not any(lo <= address < hi for lo, hi in want.get(key, ())):
            problems.append(f"differential row {_show(key)} samples {row['Destination']},"
                            " outside the walk's ranges for that change")
        if row["Regressed"] != (delivers(key[1]) and not delivers(key[2])):
            problems.append(f"differential row {_show(key)}: Regressed={row['Regressed']}")
    counts = {key: sum(hi - lo for lo, hi in ranges) for key, ranges in want.items()}
    for key in sorted(set(got) | set(counts), key=str):
        if got.get(key, 0) != counts.get(key, 0):
            problems.append(f"differential {_show(key)}: {got.get(key, 0)} addresses,"
                            f" walk {counts.get(key, 0)}")
    for dst in a_net.nodes:
        outcomes = outcome_map(after, a_net, parse_ip(loopbacks[dst]))
        for src in a_net.nodes:
            connected = dst in a_net.distances(src)
            if delivers(outcomes[src]) != connected:
                problems.append(f"{src}->{dst}: delivered={not connected},"
                                f" BFS connected={connected}")
    return problems


def check_query(kind: str, params: dict, answer, fibs: Fibs, net: Net) -> list[str]:
    """One interactive answer against the bench's own walk."""
    rows = answer.frame().rows
    if kind == "routes":
        node = params["nodes"]
        got = {
            (r["Prefix"], r["Entry_Type"], _parse_hops(r["Next_Hops"])) for r in rows
        }
        want = {(p, t, frozenset(hops)) for p, (t, hops) in fibs.canon[node].items()}
        return [] if got == want else [f"routes {node}: {len(got ^ want)} rows differ"]
    src = params.get("startLocation")
    if kind == "traceroute":
        # Every branch: its outcome and the nodes it visits. The program
        # ends a looping branch before the node it revisits.
        got = sorted(
            (OUTCOME.get(r["Disposition"], r["Disposition"]), _trace_nodes(r["Trace"]),
             r["Hops"])
            for r in rows
        )
        want = sorted(
            (o, path[:-1] if o == "loop" else path, len(path) - (o == "loop"))
            for o, path, _ in walk(fibs, net, src, parse_ip(params["dst"]))
        )
        return [] if got == want else [f"traceroute {params}: {got} != {want}"]
    # Reachability: the delivered addresses per ingress, for one router
    # and a prefix, or for every router and the whole space.
    first, length = parse_prefix(params.get("dst", "0.0.0.0/0"))
    want = success_counts(fibs, net, first, first + (1 << (32 - length)))
    if src is not None:
        want = {src: want[src]}
    got = dict.fromkeys(want, 0)
    for r in rows:
        got[r["Ingress"]] = got.get(r["Ingress"], 0) + r["Covered_Addresses"]
    return [] if got == want else [f"reachability {params}: {got} != {want}"]


def _outcomes(text: str) -> frozenset:
    return frozenset(OUTCOME.get(d, d) for d in filter(None, text.split(",")))


def _show(key: tuple) -> str:
    ingress, was, now = key
    return f"{ingress} {sorted(was)}->{sorted(now)}"


def _trace_nodes(text: str) -> tuple:
    hops = text.rsplit(" :: ", 1)[0]
    return tuple(part.split("[")[0] for part in hops.split(" >> "))


def _parse_hops(text: str) -> frozenset:
    hops = set()
    for part in filter(None, text.split("; ")):
        gateway, interface = part.split(" via ")
        hops.add((interface, None if gateway == "attached" else gateway))
    return frozenset(hops)
