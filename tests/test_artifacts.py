"""Every artifact reaches disk through util.atomic_write: a write that
fails before its rename leaves the earlier file (or none) in place, and
no .tmp file behind."""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from tiernav import util
from tiernav.agent import TeacherPolicy, run_episode
from tiernav.checkpoint import save_checkpoint
from tiernav.evaluation import write_step_log
from tiernav.teacher import build_dataset, save_corpus
from tiernav.training import write_curve
from tiernav.world import TIERS, RewardConfig, WorldConfig, generate_world, sample_episode, save_world

SMALL = WorldConfig(width=32, height=32, n_landmarks=4, z_max=3)


def _write_world(target, variant):
    save_world(generate_world(40 + variant, SMALL), target)


def _write_corpus(target, variant):
    worlds = [generate_world(40, SMALL)]
    save_corpus(target, build_dataset(worlds, 1 + variant, {"easy": TIERS["easy"]}, master_seed=5,
                                      reward_cfg=RewardConfig(), gamma=0.99))


def _write_curve(target, variant):
    write_curve(target, [{"update": 1, "L_total": 0.5 + variant}], ("update", "L_total"))


def _write_checkpoint(target, variant):
    save_checkpoint(target, {"w": np.full(3, float(variant))}, {"kind": "test"})


def _write_step_log(target, variant):
    world = generate_world(40, SMALL)
    ep = sample_episode(world, "easy", util.substream(variant, "ep"))
    [traj] = run_episode(TeacherPolicy(), [(world, ep, None)])
    write_step_log(target, [SimpleNamespace(split="seen", tier="easy", seed=variant, index=0, traj=traj)])


WRITERS = {
    "save_world": _write_world,
    "save_corpus": _write_corpus,
    "write_curve": _write_curve,
    "save_checkpoint": _write_checkpoint,
    "write_step_log": _write_step_log,
}


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _final_files(target):
    """name -> bytes of every file target holds, <target>.tmp included."""
    files = {}
    if os.path.isdir(target):
        files = {n: _read(os.path.join(target, n)) for n in sorted(os.listdir(target))}
    elif os.path.exists(target):
        files = {"": _read(target)}
    if os.path.exists(target + ".tmp"):
        files[".tmp"] = _read(target + ".tmp")
    return files


def _refuse(src, dst):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("earlier", [True, False], ids=["over_earlier", "fresh"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_earlier_bytes(tmp_path, monkeypatch, writer, earlier):
    write = WRITERS[writer]
    target = str(tmp_path / "target")
    if earlier:
        write(target, 0)
    before = _final_files(target)
    with monkeypatch.context() as m:
        m.setattr(os, "replace", _refuse)  # the rename inside util.atomic_write
        with pytest.raises(OSError):
            write(target, 1)
    assert _final_files(target) == before
    # the interrupted write would have changed the bytes
    write(target, 1)
    assert _final_files(target) != before
