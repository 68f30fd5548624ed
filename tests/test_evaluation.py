import hashlib

import numpy as np
import pytest

from tiernav import evaluation as ev
from tiernav.agent import NavPolicy, NeuralPolicy, RandomPolicy, TeacherPolicy
from tiernav.errors import ContractError
from tiernav.evaluation import (
    BenchmarkCell,
    EpisodeResult,
    aggregate,
    episode_metrics,
    render_table,
    run_benchmark,
    write_benchmark_csv,
    write_step_log,
)
from tiernav.teacher import TrajStep, Trajectory
from tiernav.util import atomic_write, substream
from tiernav.world import EpisodeSpec, GoalDescriptor, UavState, WorldConfig, generate_world

CELL = 5.0
BRACKETS = {"easy": (6.0, 12.0), "medium": (12.0, 20.0), "hard": (20.0, 30.0)}


def _tiers(*names):
    return {t: BRACKETS[t] for t in names}


def _spec(goal, shortest_m, start=(0.0, 0.0)) -> EpisodeSpec:
    return EpisodeSpec(
        world_id="w0",
        start=UavState(x=start[0], y=start[1], z=3, heading=0),
        goal=goal,
        descriptor=GoalDescriptor(landmark_id=0, sector=0, band="near", tag=0),
        difficulty="easy",
        shortest_path_length=shortest_m,
        max_steps=64,
    )


def _traj(points, stopped, spec) -> Trajectory:
    # points includes the start; the last entry becomes final_state
    steps = []
    for t, (x, y) in enumerate(points[:-1]):
        state = UavState(x=float(x), y=float(y), z=3, heading=0)
        steps.append(TrajStep(t=t, state=state, action=2, k=1, waypoint=(0.0, 0.0),
                              goal_hat=(0.0, 0.0), progress_hat=0.0, value_hat=0.0,
                              log_prob=0.0, reward=0.0, dist=0.0))
    fx, fy = points[-1]
    final = UavState(x=float(fx), y=float(fy), z=3, heading=0)
    return Trajectory(episode=spec, steps=steps, final_state=final, stopped=stopped)


# ----------------------------------------------------------- episode metrics


def test_straight_line_success():
    spec = _spec(goal=(3, 0), shortest_m=15.0)
    traj = _traj([(0, 0), (1, 0), (2, 0), (3, 0)], stopped=True, spec=spec)
    r = episode_metrics(traj, spec, threshold_m=20.0, cell_size=CELL)
    assert r.ne_m == 0.0
    assert r.success and r.oracle
    assert r.path_len_m == 15.0
    assert r.spl_term == 1.0


def test_detour_halves_spl():
    spec = _spec(goal=(2, 0), shortest_m=10.0)
    # path of 4 cells to a goal 2 cells away
    traj = _traj([(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)], stopped=True, spec=spec)
    r = episode_metrics(traj, spec, cell_size=CELL)
    assert r.success
    assert r.path_len_m == 20.0
    assert r.spl_term == pytest.approx(0.5)


def test_flythrough_counts_oracle_only():
    spec = _spec(goal=(2, 0), shortest_m=10.0)
    traj = _traj([(0, 0), (1, 0), (2, 0), (3, 0), (10, 0)], stopped=False, spec=spec)
    r = episode_metrics(traj, spec, cell_size=CELL)
    assert not r.success
    assert r.oracle
    assert r.truncated


def test_sitting_at_goal_without_stop_is_failure():
    spec = _spec(goal=(1, 0), shortest_m=5.0)
    traj = _traj([(0, 0), (1, 0), (1, 0)], stopped=False, spec=spec)
    r = episode_metrics(traj, spec, cell_size=CELL)
    assert not r.success and r.oracle


def test_threshold_is_inclusive():
    spec = _spec(goal=(4, 0), shortest_m=20.0)
    traj = _traj([(0, 0), (0, 0)], stopped=True, spec=spec)  # 4 cells = 20 m away
    r = episode_metrics(traj, spec, threshold_m=20.0, cell_size=CELL)
    assert r.ne_m == pytest.approx(20.0)
    assert r.success
    just_out = episode_metrics(traj, spec, threshold_m=19.999, cell_size=CELL)
    assert not just_out.success


def test_early_stop_in_range_caps_spl_at_one():
    # stops 2 cells short of the goal but inside the radius; path < shortest
    spec = _spec(goal=(5, 0), shortest_m=25.0)
    traj = _traj([(0, 0), (1, 0), (2, 0), (3, 0)], stopped=True, spec=spec)
    r = episode_metrics(traj, spec, threshold_m=20.0, cell_size=CELL)
    assert r.success
    assert r.path_len_m == 15.0
    assert r.spl_term == 1.0


def test_start_counts_for_oracle():
    spec = _spec(goal=(1, 0), shortest_m=5.0)
    traj = _traj([(0, 0), (30, 0)], stopped=False, spec=spec)
    r = episode_metrics(traj, spec, threshold_m=20.0, cell_size=CELL)
    assert r.oracle  # start was 5 m from goal


def test_vertical_moves_add_no_path_length():
    spec = _spec(goal=(1, 0), shortest_m=5.0)
    steps = [TrajStep(t=t, state=UavState(x=0.0, y=0.0, z=z, heading=0), action=0, k=1,
                      waypoint=(0.0, 0.0), goal_hat=(0.0, 0.0), progress_hat=0.0,
                      value_hat=0.0, log_prob=0.0, reward=0.0, dist=0.0)
             for t, z in enumerate((3, 4, 5))]
    traj = Trajectory(episode=spec, steps=steps,
                      final_state=UavState(x=0.0, y=0.0, z=5, heading=0),
                      stopped=True)
    r = episode_metrics(traj, spec, cell_size=CELL)
    assert r.path_len_m == 0.0


def test_empty_trajectory_rejected():
    spec = _spec(goal=(1, 0), shortest_m=5.0)
    traj = Trajectory(episode=spec, steps=[], final_state=spec.start, stopped=False)
    with pytest.raises(ContractError):
        episode_metrics(traj, spec)


def test_missing_goal_rejected():
    spec = _spec(goal=(1, 0), shortest_m=5.0)
    traj = _traj([(0, 0), (1, 0)], stopped=True, spec=spec)
    spec.goal = None
    with pytest.raises(ContractError):
        episode_metrics(traj, spec)


# --------------------------------------------------------------- aggregation


def _result(success, oracle, ne=0.0, spl_path=None, shortest=10.0, tier="easy"):
    return EpisodeResult(episode_id="e", final_pos=(0.0, 0.0), ne_m=ne, success=success,
                         oracle=oracle, path_len_m=spl_path if spl_path is not None else shortest,
                         shortest_m=shortest, steps_used=3, truncated=not success, tier=tier)


def test_aggregate_hand_case():
    cell = aggregate([_result(True, True, ne=2.0), _result(False, False, ne=30.0)])
    assert cell.sr == 50.0
    assert cell.osr == 50.0
    assert cell.spl == 50.0
    assert cell.ne == pytest.approx(16.0)
    assert cell.n == 2


def test_aggregate_empty_rejected():
    with pytest.raises(ContractError):
        aggregate([])


def test_aggregate_order_invariant():
    rng = np.random.default_rng(5)
    results = []
    for _ in range(60):
        ne = float(rng.uniform(0.0, 40.0))
        stopped = bool(rng.random() < 0.6)
        success = stopped and ne <= 20.0
        oracle = success or bool(rng.random() < 0.3)
        results.append(_result(success, oracle, ne=ne,
                               spl_path=float(rng.uniform(10.0, 80.0)), shortest=30.0))
    a = aggregate(results)
    perm = [results[i] for i in rng.permutation(len(results))]
    b = aggregate(perm)
    assert (a.ne, a.sr, a.osr, a.spl) == (b.ne, b.sr, b.osr, b.spl)


def test_cell_invariants_enforced():
    with pytest.raises(ContractError):
        BenchmarkCell(ne=1.0, sr=40.0, osr=20.0, spl=10.0, n=5).validate()
    with pytest.raises(ContractError):
        BenchmarkCell(ne=1.0, sr=40.0, osr=60.0, spl=45.0, n=5).validate()


def test_invariants_on_random_batches():
    rng = np.random.default_rng(9)
    for _ in range(20):
        results = []
        for _ in range(int(rng.integers(1, 30))):
            ne = float(rng.uniform(0.0, 40.0))
            stopped = bool(rng.random() < 0.5)
            success = stopped and ne <= 20.0
            oracle = success or bool(rng.random() < 0.4)
            results.append(_result(success, oracle, ne=ne,
                                   spl_path=float(rng.uniform(5.0, 60.0)), shortest=25.0))
        cell = aggregate(results)
        assert cell.spl <= cell.sr + 1e-9
        assert cell.osr >= cell.sr - 1e-9
        assert 0.0 <= cell.spl and cell.sr <= 100.0 and cell.osr <= 100.0


def test_metrics_match_independent_recomputation():
    # second implementation: vectorized numpy over the raw point arrays
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        pts = rng.uniform(0.0, 30.0, size=(n, 2))
        goal = tuple(float(v) for v in rng.uniform(0.0, 30.0, size=2))
        shortest = float(rng.uniform(5.0, 120.0))
        stopped = bool(rng.random() < 0.5)
        spec = _spec(goal=goal, shortest_m=shortest)
        traj = _traj([tuple(p) for p in pts], stopped=stopped, spec=spec)
        r = episode_metrics(traj, spec, threshold_m=20.0, cell_size=CELL)

        d = np.hypot(pts[:, 0] - goal[0], pts[:, 1] - goal[1]) * CELL
        seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1])) * CELL
        ne = float(d[-1])
        path = float(np.sum(seg))
        success = stopped and ne <= 20.0
        spl = (shortest / max(shortest, path) if max(shortest, path) > 0 else 1.0) if success else 0.0
        assert abs(r.ne_m - ne) < 1e-9
        assert abs(r.path_len_m - path) < 1e-9
        assert r.success == success
        assert r.oracle == bool(np.min(d) <= 20.0)
        assert abs(r.spl_term - spl) < 1e-9


# ----------------------------------------------------------------- benchmark


@pytest.fixture(scope="module")
def bench_worlds():
    cfg = WorldConfig(width=48, height=48, n_landmarks=6)
    seen = [generate_world(410, cfg), generate_world(411, cfg)]
    unseen = [generate_world(420, cfg)]
    return {"seen": seen, "unseen": unseen}


def test_teacher_sr_100_every_cell(bench_worlds):
    report, records = run_benchmark(
        TeacherPolicy(), bench_worlds, episodes_per_tier=3, seeds=[0, 1],
        tiers=BRACKETS,
    )
    assert set(report.cells) == {(s, t) for s in ("seen", "unseen")
                                 for t in ("easy", "medium", "hard")}
    for cell in report.cells.values():
        assert cell.sr == 100.0
        assert cell.n == 6
        assert cell.spl > 0.0
    assert all(rec.result.success for rec in records)


def test_random_policy_fails_hard_tier(bench_worlds):
    report, _ = run_benchmark(
        RandomPolicy(), bench_worlds, episodes_per_tier=4, seeds=[0, 1],
        tiers=_tiers("hard"),
    )
    for cell in report.cells.values():
        assert cell.sr == 0.0


def test_benchmark_deterministic_and_model_untouched(bench_worlds, tmp_path):
    w = bench_worlds["seen"][0]
    model = NavPolicy(substream(77, "evalmodel"), w.width, w.height, w.z_max,
                      len(w.landmarks), w.patch_side)
    policy = NeuralPolicy(model)
    # prime batchnorm stats so encode mode is stable across runs
    run_benchmark(policy, {"seen": bench_worlds["seen"][:1]}, 1, [0],
                  tiers=_tiers("easy"))
    digest_before = _param_digest(model)
    out = []
    for run in range(2):
        report, records = run_benchmark(
            policy, bench_worlds, episodes_per_tier=2, seeds=[3, 4],
            tiers=_tiers("easy", "medium"),
        )
        csv = tmp_path / f"report_{run}.csv"
        table = tmp_path / f"table_{run}.txt"
        steps = tmp_path / f"steps_{run}.csv"
        write_benchmark_csv(csv, report)
        atomic_write(table, render_table(report))
        write_step_log(steps, records)
        out.append((report, csv.read_bytes(), table.read_bytes(), steps.read_bytes()))
    (r0, c0, t0, s0), (r1, c1, t1, s1) = out
    assert r0.cells == r1.cells
    assert c0 == c1 and t0 == t1 and s0 == s1
    assert _param_digest(model) == digest_before


def _param_digest(model):
    h = hashlib.sha256()
    for name, t, _ in model.named_params():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    for name, arr in model.named_state():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_step_log_schema(bench_worlds, tmp_path):
    report, records = run_benchmark(
        TeacherPolicy(), bench_worlds, episodes_per_tier=1, seeds=[0],
        tiers=_tiers("easy"),
    )
    path = tmp_path / "steps.csv"
    write_step_log(path, records)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(ev.STEP_LOG_COLUMNS)
    assert len(lines) == 1 + sum(len(r.traj.steps) for r in records)
    first = lines[1].split(",")
    assert first[0] == "seen" and first[1] == "easy"


def test_benchmark_csv_header(bench_worlds, tmp_path):
    report, _ = run_benchmark(TeacherPolicy(), {"seen": bench_worlds["seen"][:1]}, 1, [0],
                              tiers=_tiers("easy"))
    path = tmp_path / "bench.csv"
    write_benchmark_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "split,tier,NE,SR,OSR,SPL,n,seeds"
    assert lines[1].startswith("seen,easy,")
