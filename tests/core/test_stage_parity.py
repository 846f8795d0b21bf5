"""The node-parallel stages reproduce the per-task code they replaced.

Each reference below is the earlier form of a driver's quantum stage:
every task builds its own oracle and runs its own search against a scratch
recorder, one ledger entry per attempt (per run, for ApproxCount), and
``_run_in_parallel`` folds the scratch costs into the trial's recorder.
The stage loops must give the same results, messages, rounds, messages per
label and final generator state, with and without forced false negatives
at each of the three fault sites.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest

from repro.core.agreement.quantum_agreement import (
    default_epsilon,
    default_gamma,
    quantum_agreement,
)
from repro.core.candidates import draw_candidates
from repro.core.leader_election.clusters import ClusterState, log_star, maximal_matching
from repro.core.leader_election.complete import default_k_complete, quantum_le_complete
from repro.core.leader_election.general import quantum_general_le
from repro.core.leader_election.mixing import (
    EPSILON_SLACK,
    default_k_mixing,
    quantum_rwle,
)
from repro.core.leader_election.mst import edge_key, quantum_mst
from repro.core.minimum import DURR_HOYER_BUDGET
from repro.core.procedures import CountOracle, uniform_charge
from repro.network import graphs
from repro.network.batch import STATUS_ELECTED, STATUS_NON_ELECTED
from repro.network.message import messages_for_bits
from repro.network.metrics import MetricsRecorder
from repro.network.random_walk import RandomWalk, hit_mass
from repro.quantum.amplitude import attempts_for_confidence, worst_case_iterations
from repro.quantum.grover_dynamics import sample_attempt
from repro.quantum.phase_estimation import sample_counting_estimates
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource, SharedCoin

# -- the per-task subroutines ----------------------------------------------------


def _run_in_parallel(metrics, label, tasks):
    results = []
    longest = 0
    for task in tasks:
        scratch = MetricsRecorder()
        results.append(task(scratch))
        for entry in scratch.ledger.entries:
            metrics.charge_messages(entry.label, entry.messages)
        longest = max(longest, scratch.rounds)
    if longest:
        metrics.advance_rounds(label, longest)
    return results


def _grover(oracle, epsilon, alpha, metrics, rng, faults=None,
            fault_site="grover.false_negative"):
    iteration_cap = worst_case_iterations(epsilon)
    attempts = attempts_for_confidence(alpha)
    marked_fraction = oracle.marked_fraction()
    probe = MetricsRecorder()
    oracle.charge_checking(probe, 1)
    schedule_calls = attempts * (iteration_cap * 2 + 1)
    charged_calls = 0
    found = None
    attempts_run = 0
    while found is None and attempts_run < attempts:
        attempts_run += 1
        iterations = rng.uniform_int(0, iteration_cap - 1)
        calls = iterations * 2 + 1
        oracle.charge_checking(metrics, calls)
        charged_calls += calls
        outcome = sample_attempt(
            marked_fraction, iterations, rng, faults=faults, fault_site=fault_site
        )
        if outcome.measured_marked and oracle.marked_count() > 0:
            found = oracle.sample_marked(rng)
    rng.uniform_ints(0, iteration_cap - 1, attempts - attempts_run)
    skipped_calls = schedule_calls - charged_calls
    if skipped_calls > 0 and probe.rounds > 0:
        metrics.advance_rounds(
            "grover.synchronized-idle", skipped_calls * probe.rounds
        )
    return found


def _minimum(keyed, domain, key, charge_checking, alpha, metrics, rng, faults):
    budget = math.ceil(DURR_HOYER_BUDGET * math.sqrt(domain)) * attempts_for_confidence(
        alpha
    )

    def sample_below(threshold):
        pool = keyed if threshold is None else [w for w in keyed if key(w) < threshold]
        return pool[rng.uniform_int(0, len(pool) - 1)]

    current = sample_below(None)
    spent = 0
    base = 1
    while spent < budget:
        below = sum(1 for w in keyed if key(w) < key(current))
        if below == 0:
            break
        fraction = below / domain
        cap = min(
            worst_case_iterations(max(fraction, 1.0 / domain)), max(1, budget - spent)
        )
        cap = max(cap, base)
        iterations = rng.uniform_int(0, cap - 1)
        spent += max(iterations, 1)
        outcome = sample_attempt(
            fraction, iterations, rng, faults=faults,
            fault_site="minimum.false_negative",
        )
        if outcome.measured_marked:
            current = sample_below(key(current))
            base = 1
        else:
            base = min(2 * base, cap + 1)
    charge_checking(metrics, max(1, spent) * 2)
    idle = (budget - spent) * 2
    if idle > 0:
        probe = MetricsRecorder()
        charge_checking(probe, 1)
        if probe.rounds > 0:
            metrics.advance_rounds("minimum.synchronized-idle", idle * probe.rounds)
    return current


def _approx_count(oracle, accuracy, alpha, metrics, rng):
    from repro.core.counting import runs_for_confidence

    steps = max(4, math.ceil(4.0 * math.pi / accuracy))
    runs = runs_for_confidence(alpha)
    for _ in range(runs):
        oracle.charge_checking(metrics, steps * 2)
    estimates = sample_counting_estimates(
        oracle.marked_count(), 2 * oracle.domain_size, steps, rng, runs
    )
    return float(statistics.median(estimates))


# -- the per-task drivers ------------------------------------------------------


def _complete(n, rng, faults):
    k = default_k_complete(n)
    alpha = 1.0 / n**2
    metrics = MetricsRecorder()
    status = np.full(n, STATUS_NON_ELECTED, dtype=np.int8)
    draw = draw_candidates(n, rng, faults=faults)
    metrics.advance_rounds("quantum-le.candidate-selection", 1)
    received: dict[int, int] = {}
    for v in draw.candidates:
        for offset in range(1, k + 1):
            w = (v + offset) % n
            if received.get(w, 0) < draw.ranks[v]:
                received[w] = draw.ranks[v]
    metrics.charge("quantum-le.referees", messages=len(draw.candidates) * k, rounds=1)

    def make_task(v):
        marked = [w for w, r in received.items() if r > draw.ranks[v]]
        oracle = CountOracle(
            n, len(marked), uniform_charge(2, 2, "quantum-le.grover.checking"),
            lambda r: marked[r.uniform_int(0, len(marked) - 1)],
        )
        return lambda scratch: _grover(oracle, k / n, alpha, scratch, rng, faults)

    found = _run_in_parallel(
        metrics, "quantum-le.grover", [make_task(v) for v in draw.candidates]
    )
    for v, w in zip(draw.candidates, found):
        if w is None:
            status[v] = STATUS_ELECTED
    return status, metrics


def _mixing(topology, rng, tau, faults):
    n = topology.n
    k = default_k_mixing(n, tau)
    alpha = 1.0 / n**2
    metrics = MetricsRecorder()
    status = np.full(n, STATUS_NON_ELECTED, dtype=np.int8)
    walk = RandomWalk(topology)
    draw = draw_candidates(n, rng, faults=faults)
    metrics.advance_rounds("quantum-rwle.candidate-selection", 1)
    levels = draw.rank_levels()
    endpoints = walk.endpoints(np.repeat(draw.candidates, k), tau, rng.spawn())
    held = np.zeros(n, dtype=np.int64)
    np.maximum.at(held, endpoints, np.repeat(levels, k))
    metrics.charge(
        "quantum-rwle.referee-walks",
        messages=len(draw.candidates) * k * tau,
        rounds=tau,
    )
    bits_per_step = 1 + max(1, math.ceil(math.log2(max(2, n))))
    checking_messages = tau * messages_for_bits(tau * bits_per_step, n) + tau
    epsilon = k / (EPSILON_SLACK * n)
    holder_sets = [np.flatnonzero(held > level) for level in levels.tolist()]
    fractions = [
        hit_mass(column, holders)
        for column, holders in zip(
            walk.distributions_after(draw.candidates, tau), holder_sets
        )
    ]

    def make_task(holders, fraction):
        resolution = max(n * k, 1024)
        marked = max(1, round(fraction * resolution)) if fraction > 0.0 else 0
        oracle = CountOracle(
            resolution, marked,
            uniform_charge(checking_messages, 2 * tau, "quantum-rwle.grover.checking"),
            lambda r: int(holders[r.uniform_int(0, holders.size - 1)])
            if holders.size else None,
        )
        return lambda scratch: _grover(oracle, epsilon, alpha, scratch, rng, faults)

    found = _run_in_parallel(
        metrics,
        "quantum-rwle.grover",
        [make_task(h, f) for h, f in zip(holder_sets, fractions)],
    )
    for v, w in zip(draw.candidates, found):
        if w is None:
            status[v] = STATUS_ELECTED
    return status, metrics


def _general(topology, rng, faults):
    n = topology.n
    alpha = 1.0 / n**3
    metrics = MetricsRecorder()
    state = ClusterState(n)
    phase_limit = 4 * max(1, math.ceil(math.log2(n))) + 8
    phases = 0
    while state.count > 1 and phases < phase_limit:
        phases += 1

        def make_task(v):
            neighbours = list(topology.neighbors(v))
            outgoing = [w for w in neighbours if not state.same_cluster(v, w)]
            oracle = CountOracle(
                len(neighbours), len(outgoing),
                uniform_charge(2, 2, "general-le.grover.checking"),
                lambda r: outgoing[r.uniform_int(0, len(outgoing) - 1)],
            )
            return lambda scratch: _grover(
                oracle, 1.0 / len(neighbours), alpha, scratch, rng, faults
            )

        nodes = [v for v in range(n) if topology.degree(v) > 0]
        found = _run_in_parallel(
            metrics, "general-le.outgoing-search", [make_task(v) for v in nodes]
        )
        found_per_cluster = {}
        for v, w in zip(nodes, found):
            if w is not None and state.cluster_id(v) not in found_per_cluster:
                found_per_cluster[state.cluster_id(v)] = (v, w)
        metrics.charge(
            "general-le.convergecast",
            messages=state.total_tree_edges(),
            rounds=max(1, state.max_height()),
        )
        proposals = {
            cid: (state.cluster_id(w), (v, w))
            for cid, (v, w) in found_per_cluster.items()
        }
        if not proposals:
            continue
        metrics.charge("general-le.matching", messages=n * log_star(n), rounds=n * log_star(n))
        pairs, attachments = maximal_matching(proposals)
        id_map = {cid: cid for cid in state.clusters}
        for cid_a, cid_b, edge in pairs:
            id_map[cid_a] = id_map[cid_b] = state.merge(id_map[cid_a], id_map[cid_b], edge)
        for cid, target in attachments.items():
            source, destination = id_map[cid], id_map[target]
            if source == destination:
                continue
            survivor = state.merge(source, destination, proposals[cid][1])
            for key, value in list(id_map.items()):
                if value in (source, destination):
                    id_map[key] = survivor
        metrics.charge(
            "general-le.merge-broadcast", messages=n, rounds=max(1, state.max_height())
        )
    status = np.full(n, STATUS_NON_ELECTED, dtype=np.int8)
    if state.count == 1:
        final = next(iter(state.clusters.values()))
        status[final.center] = STATUS_ELECTED
        metrics.charge(
            "general-le.leader-broadcast", messages=n - 1, rounds=max(1, final.height())
        )
    return status, metrics, phases


def _mst(topology, weights, rng, faults):
    n = topology.n
    alpha = 1.0 / n**3
    metrics = MetricsRecorder()
    state = ClusterState(n)
    mst_edges = []
    phase_limit = 4 * max(1, math.ceil(math.log2(n))) + 8
    phases = 0
    checking = uniform_charge(2, 2, "mst.durr-hoyer.checking")
    while state.count > 1 and phases < phase_limit:
        phases += 1

        def make_task(v):
            outgoing = [w for w in topology.neighbors(v) if not state.same_cluster(v, w)]
            if not outgoing:
                return lambda scratch: None

            def key(w):
                return edge_key(weights, v, w)

            keyed = sorted(outgoing, key=key)
            return lambda scratch: _minimum(
                keyed, topology.degree(v), key, checking, alpha, scratch, rng, faults
            )

        nodes = [v for v in range(n) if topology.degree(v) > 0]
        found = _run_in_parallel(
            metrics, "mst.minimum-search", [make_task(v) for v in nodes]
        )
        metrics.charge(
            "mst.convergecast",
            messages=state.total_tree_edges(),
            rounds=max(1, state.max_height()),
        )
        best_edge = {}
        for v, w in zip(nodes, found):
            if w is None:
                continue
            cid = state.cluster_id(v)
            current = best_edge.get(cid)
            if current is None or edge_key(weights, v, w) < edge_key(weights, *current):
                best_edge[cid] = (v, w)
        if not best_edge:
            continue
        merged_any = False
        for cid in sorted(best_edge):
            v, w = best_edge[cid]
            ca, cb = state.cluster_id(v), state.cluster_id(w)
            if ca == cb:
                continue
            state.merge(ca, cb, (v, w))
            mst_edges.append((min(v, w), max(v, w)))
            merged_any = True
        metrics.charge("mst.merge-broadcast", messages=n, rounds=max(1, state.max_height()))
        if not merged_any:
            break
    return mst_edges, metrics, phases


def _agreement(inputs, rng, faults):
    n = len(inputs)
    epsilon, gamma = default_epsilon(n), default_gamma()
    estimation_alpha, detection_alpha = 1.0 / (2.0 * n**2), 1.0 / (4.0 * n**3)
    shared_coin = SharedCoin(rng.spawn())
    metrics = MetricsRecorder()
    decisions = {v: None for v in range(n)}
    draw = draw_candidates(n, rng, faults=faults)
    metrics.advance_rounds("agreement.candidate-selection", 1)
    ones = CountOracle(
        n, sum(inputs), uniform_charge(2, 2, "agreement.counting.checking"),
        lambda r: None,
    )
    estimates = _run_in_parallel(
        metrics,
        "agreement.estimation",
        [
            lambda scratch: min(
                1.0,
                max(0.0, _approx_count(ones, epsilon, estimation_alpha, scratch, rng) / n),
            )
            for _ in draw.candidates
        ],
    )
    q_estimate = dict(zip(draw.candidates, estimates))
    iterations = max(1, math.ceil(math.log(4.0 * n) / math.log(5.0)))
    inform_width = max(1, round(n ** (1.0 / 3.0 - gamma)))
    detection_epsilon = min(n ** (-2.0 / 3.0 - gamma), inform_width / n)
    remaining = list(draw.candidates)
    for _ in range(iterations):
        if not remaining:
            break
        r = shared_coin.next_uniform()
        decided_now, undecided_now = {}, []
        for v in remaining:
            if q_estimate[v] < r - epsilon:
                decided_now[v] = 0
            elif q_estimate[v] > r + epsilon:
                decided_now[v] = 1
            else:
                undecided_now.append(v)
        informed = {}
        for v, value in decided_now.items():
            for offset in range(1, inform_width + 1):
                informed[(v + offset) % n] = value
        metrics.charge(
            "agreement.inform", messages=len(decided_now) * inform_width, rounds=1
        )
        informed_list = sorted(informed)

        def detection_task(scratch):
            oracle = CountOracle(
                n, len(informed_list), uniform_charge(2, 2, "agreement.detect.checking"),
                lambda rr: informed_list[rr.uniform_int(0, len(informed_list) - 1)],
            )
            return _grover(
                oracle, detection_epsilon, detection_alpha, scratch, rng, faults,
                fault_site="agreement.detect.false_negative",
            )

        found = _run_in_parallel(
            metrics, "agreement.detection", [detection_task for _ in undecided_now]
        )
        next_remaining = []
        for v, value in decided_now.items():
            decisions[v] = value
        for v, w in zip(undecided_now, found):
            if w is not None:
                decisions[v] = informed[w]
            else:
                next_remaining.append(v)
        remaining = next_remaining
    return decisions, metrics


# -- parity ----------------------------------------------------------------------


def _faults(site, times):
    faults = FaultInjector()
    if times:
        faults.force(site, times=times)
    return faults


def _costs(metrics, rng, faults):
    """Everything a stage may change besides its results; forced faults
    must all have fired."""
    assert not faults.armed_sites
    return (
        metrics.messages,
        metrics.rounds,
        metrics.ledger.messages_by_label(),
        rng.generator.bit_generator.state,
        dict(faults.triggered),
    )


SEEDS = range(4)
#: Seeds whose agreement loop runs a detection stage, so a forced false
#: negative fires.
DETECTING_SEEDS = (9, 23, 24, 27)


class TestGroverStages:
    @pytest.mark.parametrize("forced", [0, 9])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_quantum_le_on_k_n(self, seed, forced):
        expected_faults = _faults("grover.false_negative", forced)
        expected_rng = RandomSource(seed)
        status, metrics = _complete(300, expected_rng, expected_faults)
        faults, rng = _faults("grover.false_negative", forced), RandomSource(seed)
        result = quantum_le_complete(300, rng, faults=faults)
        assert result.status_codes.tolist() == status.tolist()
        assert _costs(result.metrics, rng, faults) == _costs(
            metrics, expected_rng, expected_faults
        )

    @pytest.mark.parametrize("forced", [0, 5])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_quantum_rwle_on_a_hypercube(self, seed, forced):
        topology = graphs.hypercube(6)
        expected_faults = _faults("grover.false_negative", forced)
        expected_rng = RandomSource(seed)
        status, metrics = _mixing(topology, expected_rng, 12, expected_faults)
        faults, rng = _faults("grover.false_negative", forced), RandomSource(seed)
        result = quantum_rwle(topology, rng, tau=12, faults=faults)
        assert result.status_codes.tolist() == status.tolist()
        assert _costs(result.metrics, rng, faults) == _costs(
            metrics, expected_rng, expected_faults
        )

    @pytest.mark.parametrize(
        "topology",
        [
            pytest.param(lambda: graphs.erdos_renyi(60, 0.15, RandomSource(8)), id="gnp"),
            pytest.param(lambda: graphs.cycle(24), id="cycle"),
        ],
    )
    @pytest.mark.parametrize("forced", [0, 40])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_quantum_general_le(self, topology, seed, forced):
        topology = topology()
        expected_faults = _faults("grover.false_negative", forced)
        expected_rng = RandomSource(seed)
        status, metrics, phases = _general(topology, expected_rng, expected_faults)
        faults, rng = _faults("grover.false_negative", forced), RandomSource(seed)
        result = quantum_general_le(topology, rng, faults=faults)
        assert result.status_codes.tolist() == status.tolist()
        assert result.meta["phases"] == phases
        assert _costs(result.metrics, rng, faults) == _costs(
            metrics, expected_rng, expected_faults
        )

    @pytest.mark.parametrize("forced", [0, 6])
    @pytest.mark.parametrize("seed", DETECTING_SEEDS)
    def test_quantum_agreement(self, seed, forced):
        inputs = [int(v % 10 < 3) for v in range(256)]
        site = "agreement.detect.false_negative"
        expected_faults, expected_rng = _faults(site, forced), RandomSource(seed)
        decisions, metrics = _agreement(inputs, expected_rng, expected_faults)
        faults, rng = _faults(site, forced), RandomSource(seed)
        result = quantum_agreement(inputs, rng, faults=faults)
        assert result.decisions == decisions
        assert _costs(result.metrics, rng, faults) == _costs(
            metrics, expected_rng, expected_faults
        )


class TestMinimumStage:
    @pytest.mark.parametrize("forced", [0, 30])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_quantum_mst_on_random_regular(self, seed, forced):
        setup = RandomSource(100 + seed)
        topology = graphs.random_regular(48, 4, setup)
        weights = {edge: setup.uniform() for edge in topology.edges()}
        expected_faults = _faults("minimum.false_negative", forced)
        expected_rng = RandomSource(seed)
        edges, metrics, phases = _mst(topology, weights, expected_rng, expected_faults)
        faults, rng = _faults("minimum.false_negative", forced), RandomSource(seed)
        result = quantum_mst(topology, weights, rng, faults=faults)
        assert result.edges == edges
        assert result.meta["phases"] == phases
        assert _costs(result.metrics, rng, faults) == _costs(
            metrics, expected_rng, expected_faults
        )
