"""Reference evaluators, written as plain nested loops on purpose.

These recompute every quantity the cost engine produces, independently and
slowly, so the fast implementations can be checked against them on small
randomized instances.  They read dataclass fields only; none of the library's
arithmetic helpers are called here.
"""

from __future__ import annotations


def layer_weights(layer) -> int:
    if layer.kind == "pool":
        return 0
    return layer.kernel_side * layer.kernel_side * layer.in_channels * layer.out_channels


def layer_mults(layer) -> int:
    if layer.kind == "pool":
        return 0
    return (
        layer.in_channels
        * layer.kernel_side
        * layer.kernel_side
        * layer.out_channels
        * layer.out_spatial
        * layer.out_spatial
    )


def block_layers(block):
    layers = list(block.layers)
    if block.shortcut is not None:
        layers.append(block.shortcut)
    return layers


def block_memory(block, mode: str, b: int) -> int:
    total = 0
    for layer in block_layers(block):
        if mode in ("inputs", "both"):
            total += layer.in_elements
        if mode in ("weights", "both"):
            total += layer_weights(layer)
    return b * total


def block_compute(block) -> int:
    return sum(layer_mults(layer) for layer in block_layers(block))


def block_bits(block, b: int) -> int:
    return block.out_elements * b * 8


def edge_set(graph, keep):
    """All effective (src, dst, kind) transfers for one keep vector, or None
    when some kept block is left without input."""
    m = len(graph.blocks)
    edges = []
    for j in range(1, m):
        if keep[j - 1] and keep[j]:
            edges.append((j, j + 1, "direct"))
    for dst, src in graph.skip.edges:
        if not keep[dst - 1] or not keep[src - 1]:
            continue
        between_all_dropped = True
        for k in range(src + 1, dst):
            if keep[k - 1]:
                between_all_dropped = False
        if between_all_dropped:
            edges.append((src, dst, "skip"))
    for j in range(2, m + 1):
        if keep[j - 1] and not any(dst == j for _s, dst, _k in edges):
            return None
    return edges


def request_transfer_latency(graph, keep, hosts, rho, b) -> float:
    """Sum over kept blocks of the max incoming-edge cost for one request."""
    edges = edge_set(graph, keep)
    assert edges is not None, "oracle asked to cost an unbridgeable drop set"
    total = 0.0
    m = len(graph.blocks)
    for j in range(2, m + 1):
        worst = None
        for src, dst, _kind in edges:
            if dst != j:
                continue
            if hosts[src - 1] == hosts[dst - 1]:
                cost = 0.0
            else:
                cost = block_bits(graph.blocks[src - 1], b) / rho[hosts[src - 1]][hosts[dst - 1]]
            if worst is None or cost > worst:
                worst = cost
        if worst is not None:
            total += worst
    return total


def physical_transfers(graph, keep, hosts):
    """Deduplicated (src, dst) transfer endpoints for one request."""
    edges = edge_set(graph, keep)
    assert edges is not None
    seen = []
    for src, dst, _kind in edges:
        if (src, dst) not in seen:
            seen.append((src, dst))
    return seen


def total_latency(graph, fleet, rho, x, y, b) -> float:
    n_req = len(x)
    n_dev = len(fleet.devices)
    m = len(graph.blocks)
    comp = 0.0
    for r in range(n_req):
        for i in range(n_dev):
            for j in range(m):
                if x[r][i][j] and y[r][j]:
                    comp += block_compute(graph.blocks[j]) / fleet.devices[i].mult_rate
    tx = 0.0
    for r in range(n_req):
        hosts = hosts_of(x[r], m, n_dev)
        tx += request_transfer_latency(graph, y[r], hosts, rho, b)
    return comp + tx


def forward_repair(x_r, keep, rho, mult_rates, fix_device):
    """Host per block for one request's offers x_r[device][block], by the
    forward repair rule: a kept block stays on the previous kept block's
    device when it is offered; otherwise it takes the offered device with
    the fastest link from that device, or the fastest device when no block
    came before, the lowest id winning a tie; with no offer at all it goes
    to fix_device.  A dropped block repeats the previous kept block's host
    (None before the first kept block)."""
    n_dev = len(mult_rates)
    hosts = []
    prev = None
    for j in range(len(keep)):
        if keep[j]:
            offered = [i for i in range(n_dev) if x_r[i][j]]
            if not offered:
                prev = fix_device
            elif prev is None or prev not in offered:
                best = None
                for i in offered:
                    speed = mult_rates[i] if prev is None else rho[prev][i]
                    if best is None or speed > best[0]:
                        best = (speed, i)
                prev = best[1]
        hosts.append(prev)
    return hosts


def hosts_of(x_r, m, n_dev):
    """Host index per block for one request (first set bit wins)."""
    hosts = []
    for j in range(m):
        host = 0
        for i in range(n_dev):
            if x_r[i][j]:
                host = i
                break
        hosts.append(host)
    return hosts


def device_energy(graph, fleet, rho, x, y, b, device_index, p_compute, p_transmit) -> float:
    n_req = len(x)
    n_dev = len(fleet.devices)
    m = len(graph.blocks)
    comp_secs = 0.0
    for r in range(n_req):
        for j in range(m):
            if x[r][device_index][j] and y[r][j]:
                comp_secs += block_compute(graph.blocks[j]) / fleet.devices[device_index].mult_rate
    tx_secs = 0.0
    for r in range(n_req):
        hosts = hosts_of(x[r], m, n_dev)
        for src, dst in physical_transfers(graph, y[r], hosts):
            if hosts[src - 1] == device_index and hosts[dst - 1] != device_index:
                tx_secs += block_bits(graph.blocks[src - 1], b) / rho[device_index][hosts[dst - 1]]
    return p_compute * comp_secs + p_transmit * tx_secs


def shared_data(graph, x, y, b, n_dev) -> float:
    total = 0.0
    m = len(graph.blocks)
    for r in range(len(x)):
        hosts = hosts_of(x[r], m, n_dev)
        for src, dst in physical_transfers(graph, y[r], hosts):
            if hosts[src - 1] != hosts[dst - 1]:
                total += block_bits(graph.blocks[src - 1], b)
    return total


def total_computation(graph, x, y) -> float:
    total = 0.0
    for r in range(len(x)):
        for i in range(len(x[r])):
            for j in range(len(graph.blocks)):
                if x[r][i][j] and y[r][j]:
                    total += block_compute(graph.blocks[j])
    return total


def mean_accuracy(profile, y) -> float:
    if not y:
        return profile.baseline
    total = 0.0
    for y_r in y:
        dropped = tuple(sorted(j + 1 for j, kept in enumerate(y_r) if not kept))
        acc = None
        for ds, entry in profile.entries.items():
            if tuple(sorted(ds)) == dropped:
                acc = entry.accuracy
        assert acc is not None, f"oracle has no accuracy for drop set {dropped}"
        total += acc
    return total / len(y)


def objective(graph, fleet, rho, x, y, b, profile, alpha, beta, latency_ref) -> float:
    acc = mean_accuracy(profile, y)
    if not x:
        return beta * (1.0 - acc)
    lat = total_latency(graph, fleet, rho, x, y, b)
    return alpha * lat / (len(x) * latency_ref) + beta * (1.0 - acc)


def device_budgets(graph, fleet, rho, x, y, b, memory_mode, p_compute, p_transmit):
    """Per-device (memory_use, compute_use, energy_use) triples."""
    n_dev = len(fleet.devices)
    m = len(graph.blocks)
    out = []
    for i in range(n_dev):
        mem = 0.0
        mults = 0.0
        for r in range(len(x)):
            for j in range(m):
                if x[r][i][j] and y[r][j]:
                    mem += block_memory(graph.blocks[j], memory_mode, b)
                    mults += block_compute(graph.blocks[j])
        joules = device_energy(graph, fleet, rho, x, y, b, i, p_compute, p_transmit)
        out.append((mem, mults, joules))
    return out


def brute_force_best(graph, fleet, rho, b, profile, alpha, beta, latency_ref,
                     threshold, caps, energy_params, n_requests, drop_sets,
                     memory_mode="inputs"):
    """Exhaustive search over per-request drop sets and single-host placements.

    Each request independently picks one drop set from drop_sets and one host
    per kept block.  Returns (objective, y, hosts_per_request) for the best
    feasible candidate or None when nothing is feasible.
    """
    import itertools

    n_dev = len(fleet.devices)
    m = len(graph.blocks)

    per_request = []
    for drop in drop_sets:
        y_r = [0 if (j + 1) in drop else 1 for j in range(m)]
        if edge_set(graph, y_r) is None:
            continue
        kept = [j for j in range(m) if y_r[j]]
        for combo in itertools.product(range(n_dev), repeat=len(kept)):
            x_r = [[0] * m for _ in range(n_dev)]
            for pos, j in enumerate(kept):
                x_r[combo[pos]][j] = 1
            per_request.append((y_r, x_r))

    best = None
    for picks in itertools.product(per_request, repeat=n_requests):
        y = [list(p[0]) for p in picks]
        x = [[row[:] for row in p[1]] for p in picks]
        budgets = device_budgets(graph, fleet, rho, x, y, b, memory_mode,
                                 energy_params[0], energy_params[1])
        ok = True
        for i, (mem, mults, joules) in enumerate(budgets):
            if mem > caps[i][0] or mults > caps[i][1] or joules > caps[i][2]:
                ok = False
        if mean_accuracy(profile, y) < threshold:
            ok = False
        if not ok:
            continue
        score = objective(graph, fleet, rho, x, y, b, profile, alpha, beta, latency_ref)
        if best is None or score < best[0] - 1e-12:
            best = (score, y, [hosts_of(x[r], m, n_dev) for r in range(n_requests)])
    return best
