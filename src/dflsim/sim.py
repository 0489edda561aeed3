"""Experiment orchestration: topology, partitions, synchronous learning rounds,
attacks, metric recording, and run artifacts.

A round is: benign clients take local SGD steps, malicious clients fabricate
payloads, every benign client aggregates its closed neighborhood (reweighting
or a baseline aggregator) and adopts the result. Rounds are bulk-synchronous;
all randomness is drawn from streams keyed (seed, node, round, purpose), so a
run is a pure function of its config regardless of worker count.
"""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import rng
from .analysis import accuracy_variance, mean_accuracy, summarize
from .attacks import ALIE, AdversaryView, Gaussian, SignFlip, alie_update, gaussian_update, sign_flip_update
from .baselines import DFedAvg, Median, TrimmedMean, dfedavg, median_agg, trimmed_mean
from .config import ConfigError, DFedReweightingSpec, RunConfig, SyntheticSpec, config_to_json_dict
from .core_learning import (
    Dataset,
    ParamVector,
    batch_gradient,
    pair_logits,
    pairs_accuracy,
    pairs_mean_loss,
    sgd_step,
    stacked_sgd_step,
)
from .data import (
    IID,
    ClientState,
    Dirichlet,
    LabelSkew,
    gen_synthetic_blobs,
    load_idx,
    partition_dirichlet,
    partition_iid,
    partition_label_skew,
    split_auxiliary,
)
from .plan import RoundPlan, plan_rounds
from .reweight import (MixingWeights, dfedreweighting_round_weights, mix, reweight_aggregate,
                       reweight_round, scoring_is_stock)
from .topology import TopologyGraph, generate

log = logging.getLogger(__name__)

METRICS_COLUMNS = ["round", "seed", "client", "acc", "loss", "mean_acc", "var"]


class SimulationError(RuntimeError):
    """A run failed mid-flight; the message carries seed/round/node context."""


@dataclass
class NetworkState:
    """One seed's mutable world: graph, benign clients' data, and models (row i: node i).

    clients[k] is benign client k's ClientState, whose index arrays are rows
    of train_data; malicious nodes hold no data. test_data is the
    held-out test set under global evaluation and None under local
    evaluation, which scores on the clients' aux sets. round_plan is built
    from the graph and the clients' data at the first round that needs it,
    and kept: neither may change once it is built.
    """

    config: RunConfig
    seed: int
    graph: TopologyGraph
    clients: tuple
    models: np.ndarray
    train_data: Dataset
    test_data: Dataset | None
    # The last round's MixingWeights, which holds its mixing matrix W; {} before
    # round 1 and under DFedAvg, median and trimmed mean.
    last_weights: MixingWeights | dict = field(default_factory=dict)
    round_plan: RoundPlan | None = field(default=None, repr=False)

    def plan(self) -> RoundPlan:
        if self.round_plan is None:
            self.round_plan = plan_rounds(self, type(self.config.aggregator) is DFedReweightingSpec)
        return self.round_plan

    def benign_ids(self) -> list:
        return list(self.graph.benign)

    def malicious_ids(self) -> list:
        return list(self.graph.malicious)


def build_dataset(config: RunConfig) -> tuple:
    """Materialize (train, test-or-None) from the config's dataset source.

    The held-out test set is built (synthetic) or read (IDX) only when the
    config's evaluation resolves to global, the only mode that scores on it;
    under local evaluation test is None and no IDX test file is opened.
    """
    ds, wants_test = config.dataset, config.resolved_eval_mode() == "global"
    if isinstance(ds, SyntheticSpec):
        train = gen_synthetic_blobs(
            ds.num_classes, ds.feature_dim, ds.n_per_class, ds.spread, ds.seed
        )
        if not wants_test:
            return train, None
        # Held-out test blobs share the class means; seed+1 keeps draws disjoint.
        test = gen_synthetic_blobs(
            ds.num_classes, ds.feature_dim, ds.test_n_per_class, ds.spread, ds.seed + 1
        )
        return train, test
    train = load_idx(ds.train_images, ds.train_labels)
    if ds.subsample_fraction is not None:
        train = _stratified_subsample(train, ds.subsample_fraction, ds.subsample_seed)
    if not wants_test:
        return train, None
    return train, load_idx(ds.test_images, ds.test_labels, num_classes=train.num_classes)


def _stratified_subsample(data: Dataset, fraction: float, seed: int) -> Dataset:
    gen = rng.stream(seed, purpose="idx-subsample")
    keep = []
    for c in range(data.num_classes):
        idx = np.flatnonzero(data.labels == c)
        if len(idx):
            keep.append(gen.permutation(idx)[: max(1, int(round(fraction * len(idx))))])
    return data.subset(np.sort(np.concatenate(keep)))


# The dispatch tables below are keyed by spec class. Each row names its
# function at call time, so a replaced module attribute (a layer tracer's
# wrapper, for instance) is the one that runs.
_PARTITIONS = {
    IID: lambda data, n, scheme, seed: partition_iid(data, n, seed),
    Dirichlet: lambda data, n, scheme, seed: partition_dirichlet(data, n, scheme.alpha, seed),
    LabelSkew: lambda data, n, scheme, seed: partition_label_skew(data, n, scheme.h, seed),
}


def build_network(config: RunConfig, seed: int) -> NetworkState:
    """Topology, partition, aux split, and zero-initialized models.

    Benign client k holds the k-th ClientState split_auxiliary made: rows of
    the training set, not a copy of its examples.
    """
    train, test = build_dataset(config)
    graph = generate(config.topology, seed)
    plan = _PARTITIONS[type(config.scheme)](train, config.topology.num_benign, config.scheme, seed)
    clients = split_auxiliary(train, plan, config.aux_fraction, seed)
    models = np.zeros((graph.n, train.num_classes * train.feature_dim + train.num_classes))
    return NetworkState(config, seed, graph, clients, models, train, test)


def _visible_benign(graph: TopologyGraph, knowledge: str, node: int) -> np.ndarray:
    """The benign ids node sees, ascending: all, or its neighbors under "neighborhood" knowledge."""
    if knowledge == "neighborhood":
        return np.flatnonzero(graph.adjacency[node, :graph.num_benign])
    return np.arange(graph.num_benign)


def check_neighborhoods(config: RunConfig, seed: int, graph: TopologyGraph) -> None:
    """Raise ConfigError if the configured baseline cannot aggregate some
    benign client's closed neighborhood (the client and its neighbors) in
    graph, or the configured attack cannot be made from the benign models
    some malicious node sees. A kind that cannot work on every graph declares
    the fewest models it needs and its rule; the lowest node that fails is named."""
    attack = config.attack
    checks = [(config.aggregator, graph.benign, graph.adjacency.sum(axis=1) + 1,
               "node {} has a closed neighborhood of {} models")]
    if attack:
        seen = {m: len(_visible_benign(graph, attack.knowledge, m)) for m in graph.malicious}
        checks.append((attack, graph.malicious, seen, "malicious node {} sees {} benign models"))
    for spec, nodes, counts, what in checks:
        for node in nodes:
            if hasattr(spec, "rule") and counts[node] < spec.fewest:
                raise ConfigError(f"seed {seed}: {what.format(node, counts[node])}, "
                                  f"but {spec} needs {spec.rule} (at least {spec.fewest})")


def setup_seed(config: RunConfig, seed: int) -> NetworkState:
    """build_network and its round plan for one seed, checked by check_neighborhoods.

    Everything a seed needs before its round 1; dflsim validate, sweep and run
    all set a seed up here. Any failure raises ConfigError naming the seed.
    """
    try:
        state = build_network(config, seed)
        state.plan()
    except Exception as exc:
        raise ConfigError(f"seed {seed}: {exc}") from exc
    check_neighborhoods(config, seed, state.graph)
    return state


def _local_half_steps(state: NetworkState, t: int) -> np.ndarray:
    """Local SGD of the benign clients; row k is benign client k's model.

    Each client draws its minibatches from its own (seed, node, round,
    "minibatch") stream, exactly as it would alone: its step group's
    RoundStreams seeds each generator with the state rng.stream would give
    it. The clients of a step group take each step as one stacked batch,
    gathered from the training set through the plan's train_rows in one
    index, bit-identical to batch_gradient + sgd_step per client.
    """
    config, plan, data = state.config, state.plan(), state.train_data
    params = state.models[:state.graph.num_benign].copy()
    for step in plan.steps:
        gens = step.streams.generators(t)
        models = params[step.nodes]
        for _ in range(config.local_steps):
            rows = plan.train_rows[step.starts + np.array([
                gen.choice(n, size=step.size, replace=False) for gen, n in zip(gens, step.lengths)
            ])]
            models = stacked_sgd_step(models, data.features[rows], data.labels[rows],
                                      data.num_classes, config.learning_rate)
        params[step.nodes] = models
    return params


# _local_half_steps computes what batch_gradient + sgd_step compute, so it
# stands in for them only while they are the library's own. A caller that
# replaces one (to instrument or to change the step) gets it called per client.
_STOCK_LOCAL_STEP = (batch_gradient, sgd_step)


def _local_half_step(state: NetworkState, node_id: int, t: int) -> ParamVector:
    """One client's local SGD through batch_gradient + sgd_step."""
    rows, data = state.clients[node_id].train, state.train_data
    gen = rng.stream(state.seed, node_id, t, "minibatch")
    model = ParamVector(state.models[node_id], data.num_classes, data.feature_dim)
    n = len(rows)
    batch_size = min(state.config.batch_size, n)
    for _ in range(state.config.local_steps):
        grad = batch_gradient(model, data, rows[gen.choice(n, size=batch_size, replace=False)])
        model = sgd_step(model, grad, state.config.learning_rate)
    return model


# A dataless Byzantine node has no trained local model to flip, so sign
# flipping flips its running estimate of the benign consensus.
def _benign_consensus(view: AdversaryView) -> np.ndarray:
    """The mean of the visible benign models, or the node's own model if none."""
    if not len(view.benign_models):
        return view.own_model
    return view.benign_models.mean(axis=0)


# Rows take (attack kind, adversary view, (seed, node, round)); only the
# Gaussian row draws randomness.
_ATTACKS = {
    Gaussian: lambda kind, view, key: gaussian_update(
        view.own_model.size, kind.sigma, rng.stream(*key, "attack")),
    SignFlip: lambda kind, view, key: sign_flip_update(_benign_consensus(view), kind.factor),
    ALIE: lambda kind, view, key: alie_update(view, kind.z),
}


def _attack_payload(state: NetworkState, node_id: int, broadcast: np.ndarray, t: int) -> np.ndarray:
    """Malicious node_id's payload, made from the benign rows of broadcast it may see."""
    attack = state.config.attack
    view = AdversaryView(
        benign_models=broadcast[_visible_benign(state.graph, attack.knowledge, node_id)],
        own_model=state.models[node_id],
        num_nodes=state.graph.n,
        num_malicious=len(state.graph.malicious),
    )
    return _ATTACKS[type(attack)](attack, view, (state.seed, node_id, t))


# Rows take (baseline spec, the (g, k, C*d+C) rows of a group's closed
# neighborhoods, each in node id order) and return the group's (g, C*d+C)
# aggregates, reducing all g neighborhoods at once. A baseline with no row
# weighs members: it has weights(params, own) instead.
_BASELINES = {
    DFedAvg: lambda agg, params: dfedavg(params),
    Median: lambda agg, params: median_agg(params),
    TrimmedMean: lambda agg, params: trimmed_mean(params, agg.f),
}


def _baseline_round(state: NetworkState, broadcast: np.ndarray) -> tuple:
    """The configured baseline for every benign client, one aggregation group at a time.

    Returns (rows, weights, failures) as reweight_round does; a group that
    fails records its lowest node. A baseline with weights() fills U as
    reweight_round fills W: rows are mix(U, broadcast) and W is U, each row
    divided by its client's weight sum. The others' weights are empty.
    """
    agg, plan, b = state.config.aggregator, state.plan(), state.graph.num_benign
    weighted = hasattr(agg, "weights")
    # U under a weighted baseline, else the rows. totals sums each client's k weights
    # alone: numpy's pairwise sum over a row of U would group its zeros in and can move
    # the last bit. A failed group's rows stay 0 and its totals 1.
    out = np.zeros((b, broadcast.shape[0] if weighted else broadcast.shape[1]))
    totals, failures = np.ones((b, 1)) if weighted else None, {}
    for group in plan.groups:
        try:
            if weighted:
                u = agg.weights(broadcast[group.members], group.own)
                out[group.nodes[:, None], group.members] = u
                totals[group.nodes, 0] = u.sum(axis=1)
            else:
                out[group.nodes] = _BASELINES[type(agg)](agg, broadcast[group.members])
        except Exception as exc:
            failures[group.nodes[0]] = exc
    if not weighted:
        return out, {}, failures
    return mix(out, broadcast) / totals, MixingWeights(out / totals, plan), failures


def _aggregate_one(state: NetworkState, node_id: int, members: np.ndarray, broadcast: np.ndarray):
    """DFedReweighting of one benign client's closed neighborhood, the ascending
    node ids members, from their rows of broadcast. Returns (new row, weight row).
    """
    agg = state.config.aggregator
    params = broadcast[members]
    aux = state.train_data.subset(state.clients[node_id].aux)
    weights = dfedreweighting_round_weights(agg.tpm, agg.crs, params, aux)
    return reweight_aggregate(params, weights), weights


def _aggregate_each(state: NetworkState, broadcast: np.ndarray) -> tuple:
    """_aggregate_one for each benign client in turn, up to the first that fails,
    each filling its row of the mixing matrix W.

    Returns (rows, weights, failures) as reweight_round does.
    """
    plan = state.plan()
    rows, matrix = np.zeros((len(plan.closed), broadcast.shape[1])), np.zeros(plan.closed.shape)
    for k in state.graph.benign:
        members = np.flatnonzero(plan.closed[k])
        try:
            rows[k], matrix[k, members] = _aggregate_one(state, k, members, broadcast)
        except Exception as exc:
            return rows, MixingWeights(matrix, plan), {k: exc}
    return rows, MixingWeights(matrix, plan), {}


def _node_failure(state: NetworkState, t: int, node_id: int, exc: Exception) -> SimulationError:
    return SimulationError(f"round {t} failed for seed {state.seed} at node {node_id}: {exc}")


def run_round(state: NetworkState, t: int) -> NetworkState:
    """Advance the network one synchronous learning round.

    Row i of the round's broadcast matrix is what node i sends: a benign
    client's local half-step, or a malicious node's payload (its zero row if
    no attack is configured). Local SGD runs as one stacked step per step
    group of the network's plan, or client by client if batch_gradient or
    sgd_step has been replaced. Then every benign client aggregates its
    closed neighborhood's rows into its row of state.models: reweight_round
    mixes the round's DFedReweighting matrix W with broadcast (a client that
    weighs a non-finite row gets a NaN row), or _baseline_round aggregates one
    group of the plan at a time, and Krum, Multi-Krum and FLAME mix their
    weights as W is mixed. DFedReweighting goes client by client, filling
    the same W, if reweight.compute_tpm or a metric it calls has been replaced.
    The first client, in node id order, whose aggregation fails or is
    non-finite is named in the SimulationError raised, with its weights if any.
    """
    plan, b = state.plan(), state.graph.num_benign
    broadcast = state.models.copy()
    if (batch_gradient, sgd_step) == _STOCK_LOCAL_STEP:
        broadcast[:b] = _local_half_steps(state, t)
    else:
        broadcast[:b] = [_local_half_step(state, k, t).values for k in range(b)]
    if state.config.attack:
        for m in state.malicious_ids():
            try:
                broadcast[m] = _attack_payload(state, m, broadcast, t)
            except Exception as exc:
                raise _node_failure(state, t, m, exc) from exc

    agg = state.config.aggregator
    if type(agg) is not DFedReweightingSpec:
        rows, weights, failures = _baseline_round(state, broadcast)
    elif scoring_is_stock():
        rows, weights, failures = reweight_round(agg.tpm, agg.crs, broadcast, plan,
                                                 state.train_data.num_classes)
    else:
        rows, weights, failures = _aggregate_each(state, broadcast)
    for node_id, finite in enumerate(np.isfinite(rows).all(axis=1)):
        if node_id in failures:
            raise _node_failure(state, t, node_id, failures[node_id]) from failures[node_id]
        if not finite:
            shown = f"; weights={weights[node_id]}" if weights else ""
            raise SimulationError(
                f"non-finite aggregate for client {node_id} at round {t} (seed {state.seed}){shown}"
            )
    state.models[:b] = rows
    state.last_weights = weights
    return state


def evaluate_network(state: NetworkState) -> tuple:
    """(accuracies, losses): two lists over the benign clients in node id order,
    scored on the mode's evaluation set.

    One loop scores (ids, features, labels) blocks through the stages a
    reweighting round scores with, pair_logits and then the pairs_ kernels: in
    global mode one block of every benign model, ids (1, B), against the
    shared test set; in local mode one block per aggregation group of the
    plan, ids (g, 1), each model against its client's aux set. Each block's
    logits are computed once: accuracy reads them, then the loss overwrites
    them. Every value equals evaluate_accuracy / evaluate_mean_loss of that model.
    """
    plan, num_classes, b = state.plan(), state.train_data.num_classes, state.graph.num_benign
    if state.config.resolved_eval_mode() == "global":
        test, benign = state.test_data, np.arange(b)
        blocks = [(benign[None], test.features[None, None],
                   np.broadcast_to(test.labels, (len(benign), len(test))))]
    else:
        blocks = [(group.nodes[:, None], group.aux_features, group.aux_labels) for group in plan.groups]
    accs, losses = np.zeros(b), np.zeros(b)
    for ids, features, labels in blocks:
        nodes = ids.reshape(-1)
        logits = pair_logits(state.models, [(features, ids)], num_classes)
        accs[nodes] = pairs_accuracy(logits, labels)
        losses[nodes] = pairs_mean_loss(logits, labels)
    return accs.tolist(), losses.tolist()


@dataclass
class RunSummary:
    """What summary.json records of a run: the blocks analysis.summarize derives
    from its metrics.csv rows, and provenance."""

    config: RunConfig
    per_seed: dict
    cross_seed: dict | None
    wall_clock_sec: float
    source_fingerprint: str

    @property
    def mean_acc(self) -> float:
        return self.cross_seed["mean_acc"]

    @property
    def var_points(self) -> float:
        return self.cross_seed["var_points"]

    def to_json_dict(self) -> dict:
        return {
            "config": config_to_json_dict(self.config),
            "per_seed": self.per_seed,
            "cross_seed": self.cross_seed,
            "wall_clock_sec": self.wall_clock_sec,
            "source_fingerprint": self.source_fingerprint,
        }


def source_fingerprint() -> str:
    """sha256 over the package sources, for run provenance."""
    pkg_dir = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(pkg_dir.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _eval_rounds(config: RunConfig) -> list:
    rounds = {0, config.rounds}
    rounds.update(t for t in range(1, config.rounds + 1) if t % config.eval_every == 0)
    return sorted(rounds)


def _fmt(x: float) -> str:
    return repr(float(x))


def resolve_outdir(config: RunConfig, override: str | None = None) -> Path:
    """The run's directory: config.name under override (--outdir), else the
    config's outdir, else $DFLSIM_OUTDIR, else ./runs."""
    base = override or config.outdir or os.environ.get("DFLSIM_OUTDIR") or "runs"
    return Path(base) / config.name


def _run_seed(config: RunConfig, seed: int) -> tuple:
    """Run one seed from set-up to its last round, writing no file.

    Returns (topology document, metrics.csv rows as numbers, {round: (clients,
    members, weights)}), one entry per closed-neighborhood (client, member) in
    row-major order of W; every round shares the clients and members arrays.
    """
    state = setup_seed(config, seed)
    plan = state.plan()
    pairs = np.nonzero(plan.closed)
    eval_rounds = set(_eval_rounds(config))
    rows, weights = [], {}
    for t in range(0, config.rounds + 1):
        if t > 0:
            try:
                run_round(state, t)
            except SimulationError:
                raise
            except Exception as exc:
                raise SimulationError(f"round {t} failed for seed {seed}: {exc}") from exc
        if t not in eval_rounds:
            continue
        try:
            accs, losses = evaluate_network(state)
        except Exception as exc:
            raise SimulationError(f"evaluation at round {t} failed for seed {seed}: {exc}") from exc
        mean, var = mean_accuracy(accs), accuracy_variance([a * 100.0 for a in accs])
        rows.extend(
            [t, seed, node_id, acc, loss, mean, var]
            for node_id, acc, loss in zip(state.benign_ids(), accs, losses)
        )
        if config.export_weights and state.last_weights:
            weights[t] = (*pairs, state.last_weights.matrix[plan.closed])
    return state.graph.to_json_dict(), rows, weights


# Read by OpenBLAS and OpenMP when a process loads them, so a spawned worker
# takes its BLAS thread count from the environment it starts with.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def _seed_pool(workers: int):
    """A pool of spawned worker processes that each use one BLAS thread.

    Seeds already run in parallel, so worker BLAS threads would only contend
    for the same cores. A thread variable the user has set is passed on as
    it is; the ones set here are removed again when the pool is shut down.
    """
    # Imported here: a serial run never pays for the process pool.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    unset = [var for var in _BLAS_THREAD_VARS if var not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        pool = ProcessPoolExecutor(workers, mp_context=get_context("spawn"))
        try:
            yield pool
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        for var in unset:
            os.environ.pop(var, None)


def _write_run(run_dir: Path, config: RunConfig, results: list, start: float,
               failed_seed: int | None = None) -> RunSummary:
    """Write the artifacts of the seeds whose _run_seed results are given, in
    config order, and return their summary."""
    topo_docs, metrics_rows, weight_files = {}, [], {}
    for seed, (topo_doc, rows, weights) in zip(config.seeds, results):
        topo_docs[str(seed)] = topo_doc
        metrics_rows.extend(rows)
        for t, arrays in weights.items():
            weight_files.setdefault(t, []).append((seed, *arrays))
    summary = RunSummary(
        config, *summarize(metrics_rows), time.perf_counter() - start, source_fingerprint()
    )
    outcome = {"status": "complete"}
    if failed_seed is not None:
        outcome = {"status": "failed", "failed_seed": failed_seed}

    with open(run_dir / "config.json", "w") as f:
        json.dump(config_to_json_dict(config), f, indent=2, sort_keys=True)
    with open(run_dir / "topology.json", "w") as f:
        json.dump({"seeds": topo_docs}, f, indent=2, sort_keys=True)
    with open(run_dir / "metrics.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_COLUMNS)
        writer.writerows([t, seed, client, *map(_fmt, values)]
                         for t, seed, client, *values in metrics_rows)
    for t, seeds in sorted(weight_files.items()):
        # The bytes csv.writer would write: no field needs quoting.
        lines = "".join(f"{seed},{client},{member},{w!r}\r\n" for seed, clients, members, weights in seeds
                        for client, member, w in zip(clients.tolist(), members.tolist(), weights.tolist()))
        (run_dir / f"weights_round_{t}.csv").write_text("seed,client,member,weight\r\n" + lines, newline="")
    with open(run_dir / "summary.json", "w") as f:
        json.dump({**summary.to_json_dict(), **outcome}, f, indent=2, sort_keys=True)
    return summary


def run_experiment(config: RunConfig, parallel: int = 1, outdir: str | None = None) -> RunSummary:
    """Execute the full multi-seed experiment and write run artifacts.

    Seeds run in up to `parallel` worker processes (one after another in this
    process when parallel is 1) and are merged in seed order, so the artifacts
    are byte-identical for any worker count but for summary.json's
    wall_clock_sec. As each seed's rows arrive, in seed order, one progress
    record per evaluated round goes to this module's logger at INFO. Writes
    config.json, topology.json, metrics.csv, summary.json, and (when
    export_weights is set) weights_round_<t>.csv under the run directory, and
    returns the summary. Each seed is set up by setup_seed, which raises
    ConfigError if the seed cannot be built or fails the aggregator's or the
    attack's rules. If a seed fails, in its set-up or in a round, the seeds
    before it in config order are written, summary.json records the failed
    seed, and the ConfigError or SimulationError is raised again.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be at least 1, got {parallel}")
    start = time.perf_counter()
    run_dir = resolve_outdir(config, outdir)
    run_dir.mkdir(parents=True, exist_ok=True)
    workers = min(parallel, len(config.seeds))
    run_seed = partial(_run_seed, config)
    results = []
    try:
        with _seed_pool(workers) if workers > 1 else nullcontext() as pool:
            for result in (pool.map if pool else map)(run_seed, config.seeds):
                # One record per evaluated round, read from the round's last row.
                for t, seed, *_, mean, var in {row[0]: row for row in result[1]}.values():
                    log.info("[seed %d] round %d: mean_acc=%.4f var=%.3f",
                             seed, t, float(mean), float(var))
                results.append(result)
    except (SimulationError, ConfigError):
        _write_run(run_dir, config, results, start, failed_seed=config.seeds[len(results)])
        raise
    return _write_run(run_dir, config, results, start)
