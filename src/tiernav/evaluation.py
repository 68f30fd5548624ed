"""Navigation metrics and benchmark runs.

Four per-episode numbers: final-distance error, success (stopped in
range), oracle success (ever in range), and path-efficiency-weighted
success. Success requires the stop action; drifting through the goal
region only sets the oracle flag. Aggregation uses exact summation so
cell values are independent of episode order.

A benchmark's tiers are an ordered {name: (lo, hi)} mapping of distance
brackets: world.TIERS by default, the resolved eval.tiers from the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .agent import run_episode
from .errors import ContractError
from .teacher import STEP_LOG_COLUMNS, Trajectory
from .util import substream, write_csv
from .world import TIERS, EpisodeSpec, distance_to_goal, sample_episode


@dataclass
class EpisodeResult:
    episode_id: str
    ne_m: float
    success: bool
    oracle: bool
    path_len_m: float
    shortest_m: float

    @property
    def spl_term(self) -> float:
        if not self.success:
            return 0.0
        denom = max(self.shortest_m, self.path_len_m)
        return self.shortest_m / denom if denom > 0 else 1.0

    def validate(self, threshold_m: float):
        if self.success and not self.oracle:
            raise ContractError(f"{self.episode_id}: success without oracle")
        if self.path_len_m < 0:
            raise ContractError(f"{self.episode_id}: negative path length")
        if self.success and self.ne_m > threshold_m:
            raise ContractError(f"{self.episode_id}: success beyond {threshold_m} m")


def episode_metrics(traj: Trajectory, episode: EpisodeSpec, threshold_m: float = 20.0,
                    cell_size: float = 5.0, episode_id: str = "") -> EpisodeResult:
    """Score one trajectory. Distances are horizontal and in meters;
    altitude moves contribute nothing to the path length."""
    if not traj.steps:
        raise ContractError("cannot score an empty trajectory")
    if episode.goal is None or len(episode.goal) != 2:
        raise ContractError(f"episode {episode_id or episode.world_id}: missing goal")
    gx, gy = episode.goal
    pts = [(s.state.x, s.state.y) for s in traj.steps]
    pts.append((traj.final_state.x, traj.final_state.y))
    ne = distance_to_goal(traj.final_state, episode.goal, cell_size)
    closest = min(math.hypot(x - gx, y - gy) for x, y in pts) * cell_size
    path = sum(
        math.hypot(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])
    ) * cell_size
    success = traj.stopped and ne <= threshold_m
    result = EpisodeResult(
        episode_id=episode_id,
        ne_m=ne,
        success=success,
        oracle=closest <= threshold_m,
        path_len_m=path,
        shortest_m=float(episode.shortest_path_length),
    )
    result.validate(threshold_m)
    return result


@dataclass
class BenchmarkCell:
    ne: float  # mean meters
    sr: float  # percent
    osr: float  # percent
    spl: float  # percent
    n: int

    def validate(self):
        if self.spl > self.sr + 1e-9:
            raise ContractError(f"cell invariant broken: SPL {self.spl} > SR {self.sr}")
        if self.osr < self.sr - 1e-9:
            raise ContractError(f"cell invariant broken: OSR {self.osr} < SR {self.sr}")


def aggregate(results) -> BenchmarkCell:
    """Mean NE, percentage SR/OSR, and mean SPL x100 over a result set.

    fsum keeps every cell value independent of input order.
    """
    results = list(results)
    if not results:
        raise ContractError("aggregate of an empty result set")
    n = len(results)
    cell = BenchmarkCell(
        ne=math.fsum(r.ne_m for r in results) / n,
        sr=100.0 * math.fsum(1.0 for r in results if r.success) / n,
        osr=100.0 * math.fsum(1.0 for r in results if r.oracle) / n,
        spl=100.0 * math.fsum(r.spl_term for r in results) / n,
        n=n,
    )
    cell.validate()
    return cell


# ------------------------------------------------------------------ benchmark


@dataclass
class BenchmarkRecord:
    split: str
    tier: str
    seed: int
    index: int
    result: EpisodeResult
    traj: Trajectory


@dataclass
class BenchmarkReport:
    cells: dict  # (split, tier) -> BenchmarkCell
    seeds: list
    threshold_m: float


def run_benchmark(
    policy,
    worlds_by_split: dict,
    episodes_per_tier: int,
    seeds,
    tiers=TIERS,
    threshold_m: float = 20.0,
    mode: str = "greedy",
):
    """Stratified evaluation over splits, tiers, and seeds.

    tiers maps each tier name to its distance bracket, in report order.
    Episode i of (split, tier, seed) draws from its own substream and a
    round-robin world, so reports depend only on the seed list. All
    episodes are played in one lockstep run (agent.run_episode), in
    split, tier, seed, index order. Returns (report, records); records
    keep the trajectories for step logs.
    """
    seeds = list(seeds)
    keys = []
    jobs = []
    for split, worlds in worlds_by_split.items():
        if not worlds:
            continue
        for tier in tiers:
            for seed in seeds:
                for i in range(episodes_per_tier):
                    world = worlds[i % len(worlds)]
                    ep = sample_episode(world, tier, substream(seed, "bench", split, tier, i), tiers=tiers)
                    keys.append((split, tier, seed, i))
                    jobs.append((world, ep, substream(seed, "bench-rng", split, tier, i)))
    trajs = run_episode(policy, jobs, mode=mode)
    records = []
    for (split, tier, seed, i), (world, ep, _), traj in zip(keys, jobs, trajs):
        result = episode_metrics(
            traj, ep, threshold_m=threshold_m, cell_size=world.cell_size,
            episode_id=f"{split}/{tier}/s{seed}/{i}",
        )
        records.append(BenchmarkRecord(split=split, tier=tier, seed=seed,
                                       index=i, result=result, traj=traj))
    cells = {}
    for split in worlds_by_split:
        if not worlds_by_split[split]:
            continue
        for tier in tiers:
            group = [r.result for r in records if r.split == split and r.tier == tier]
            cells[(split, tier)] = aggregate(group)
    return BenchmarkReport(cells=cells, seeds=seeds, threshold_m=threshold_m), records


# ----------------------------------------------------------------- report IO


def write_benchmark_csv(path, report: BenchmarkReport):
    seeds = ";".join(str(s) for s in report.seeds)
    write_csv(path, ("split", "tier", "NE", "SR", "OSR", "SPL", "n", "seeds"),
              ([split, tier, c.ne, c.sr, c.osr, c.spl, c.n, seeds]
               for (split, tier), c in sorted(report.cells.items())))


def render_table(report: BenchmarkReport) -> str:
    header = f"{'split':<8}{'tier':<8}{'NE(m)':>9}{'SR%':>8}{'OSR%':>8}{'SPL%':>8}{'n':>6}"
    rows = [header, "-" * len(header)]
    for (split, tier), c in sorted(report.cells.items()):
        rows.append(f"{split:<8}{tier:<8}{c.ne:>9.2f}{c.sr:>8.2f}{c.osr:>8.2f}{c.spl:>8.2f}{c.n:>6d}")
    rows.append(f"seeds: {', '.join(str(s) for s in report.seeds)}"
                f"  threshold: {report.threshold_m} m")
    return "\n".join(rows) + "\n"


def write_step_log(path, records):
    """All benchmark trajectories, one row per step, log schema columns."""
    write_csv(path, STEP_LOG_COLUMNS,
              ([rec.split, rec.tier, rec.seed, rec.index] + s.log_row()
               for rec in records for s in rec.traj.steps))
