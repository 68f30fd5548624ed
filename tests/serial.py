"""Serial teacher and random evaluation: one episode at a time, one action per step.

This is the episode loop that evaluation ran before episodes were stepped
in lockstep, kept as the reference for `eval --policy teacher|random`.
Neither policy reads an observation or the belief map, so the loop
renders none. The report and step log go through the package's writers,
so the files can be compared byte for byte.
"""

import math
import os

from tiernav.evaluation import (BenchmarkRecord, BenchmarkReport, aggregate, episode_metrics, render_table,
                                write_benchmark_csv, write_step_log)
from tiernav.teacher import TrajStep, Trajectory, advance_waypoint, episode_plan, extract_waypoints
from tiernav.util import atomic_write, substream
from tiernav.world import Action, sample_episode, step


def serial_trajectory(kind, world, episode, rng) -> Trajectory:
    gx, gy = float(episode.goal[0]), float(episode.goal[1])
    if kind == "teacher":
        path = episode_plan(world, episode)
        actions = list(path.actions) + [Action.STOP]
        waypoints = extract_waypoints(path, world)
    state = episode.start
    steps = []
    k = 0
    stopped = False
    for t in range(episode.max_steps):
        if kind == "teacher":
            k = advance_waypoint(k, waypoints, state)
            action = int(actions[t]) if t < len(actions) else int(Action.STOP)
            rec = {"k": k, "waypoint": waypoints[k], "goal_hat": (gx, gy),
                   "progress_hat": min((t + 1) / len(actions), 1.0), "value_hat": 0.0, "log_prob": 0.0}
        else:
            action = int(rng.integers(0, 6))
            rec = {"k": 0, "waypoint": (gx, gy), "goal_hat": (math.nan, math.nan),
                   "progress_hat": math.nan, "value_hat": math.nan, "log_prob": -math.log(6.0)}
        nxt, _, stopped = step(world, state, Action(action))
        dist = math.hypot(state.x - gx, state.y - gy) * world.cell_size
        steps.append(TrajStep(t=t, state=state, action=action, reward=0.0, dist=dist, **rec))
        state = nxt
        if stopped:
            break
    return Trajectory(episode=episode, steps=steps, final_state=state, stopped=stopped)


def serial_eval(kind, worlds_by_split, cfg, out_dir):
    """Write report.csv, report.txt and steps.csv as `eval --policy kind` does."""
    seeds = list(cfg["eval.seeds"])
    tiers = cfg.tiers("eval.tiers")
    threshold_m = cfg["eval.threshold_m"]
    records = []
    for split, worlds in worlds_by_split.items():
        for tier in tiers:
            for seed in seeds:
                for i in range(cfg["eval.episodes_per_tier"]):
                    world = worlds[i % len(worlds)]
                    ep = sample_episode(world, tier, substream(seed, "bench", split, tier, i), tiers=tiers)
                    traj = serial_trajectory(kind, world, ep, substream(seed, "bench-rng", split, tier, i))
                    result = episode_metrics(traj, ep, threshold_m=threshold_m, cell_size=world.cell_size,
                                             episode_id=f"{split}/{tier}/s{seed}/{i}")
                    records.append(BenchmarkRecord(split=split, tier=tier, seed=seed, index=i,
                                                   result=result, traj=traj))
    cells = {(split, tier): aggregate(r.result for r in records if r.split == split and r.tier == tier)
             for split in worlds_by_split for tier in tiers}
    report = BenchmarkReport(cells=cells, seeds=seeds, threshold_m=threshold_m)
    os.makedirs(out_dir, exist_ok=True)
    write_benchmark_csv(os.path.join(out_dir, "report.csv"), report)
    atomic_write(os.path.join(out_dir, "report.txt"), render_table(report))
    write_step_log(os.path.join(out_dir, "steps.csv"), records)
