import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecascade import data
from posecascade.errors import InvalidArgumentError
from posecascade.geometry import MAX_COORD

from conftest import loads_or_is_rejected, make_pose, mutated

MANIFEST = """\
# two-example set
k=3
name 0 head
name 1 left
name 2 right
limb 0 1
limb 0 2
torso 1 2
swap 1 2
a.pgm - 1.0 2.0 1 3.5 4.0 1 5.0 6.0 0
b.pgm 10.0,12.0,20.0,24.0 0.5 0.25 1 2.0 2.0 1 3.0 3.0 1
"""


def test_load_manifest_two_examples(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text(MANIFEST)
    m = data.load_manifest(p)
    assert m.k == 3
    assert len(m.examples) == 2
    assert m.joint_names == ["head", "left", "right"]
    assert m.tree.limbs == [(0, 1), (0, 2)]
    assert m.examples[0].box0 is None
    b = m.examples[1].box0
    assert b.dtype == np.float64 and np.array_equal(b, [10.0, 12.0, 20.0, 24.0])
    assert m.examples[0].pose.mask.tolist() == [True, True, False]


def test_load_manifest_wrong_joint_count(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("k=3\nimg.pgm - 1 2 1 3 4 1\n")
    with pytest.raises(InvalidArgumentError, match="line 2"):
        data.load_manifest(p)


def test_load_manifest_bad_number(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("k=2\nimg.pgm - 1 2 1 x 4 1\n")
    with pytest.raises(InvalidArgumentError, match="line 2"):
        data.load_manifest(p)


def test_load_manifest_bad_visibility(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("k=2\nimg.pgm - 1 2 1 3 4 2\n")
    with pytest.raises(InvalidArgumentError, match="line 2"):
        data.load_manifest(p)


@pytest.mark.parametrize("box", ["10,12,0,24", "10,12,20,-3", "10,12,20", "10,x,20,24",
                                 "1e300,12,20,24", "10,12,2e9,24"])
def test_load_manifest_malformed_box_names_its_line(tmp_path, box):
    p = tmp_path / "m.txt"
    p.write_text(MANIFEST.replace("10.0,12.0,20.0,24.0", box))
    with pytest.raises(InvalidArgumentError, match="line 11: .*box"):
        data.load_manifest(p)


@pytest.mark.parametrize("value", ["1e308", "-1e308", "2e9", "-inf"])
def test_load_manifest_rejects_coordinate_beyond_bound(tmp_path, value):
    p = tmp_path / "m.txt"
    p.write_text(MANIFEST.replace("b.pgm 10.0,12.0,20.0,24.0 0.5", f"b.pgm 10.0,12.0,20.0,24.0 {value}"))
    with pytest.raises(InvalidArgumentError, match="line 11: joint coordinate beyond"):
        data.load_manifest(p)


def test_load_manifest_accepts_coordinates_at_bound(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text(MANIFEST.replace("0.5 0.25 1", f"{-MAX_COORD!r} {MAX_COORD!r} 1"))
    assert np.array_equal(data.load_manifest(p).examples[1].pose.joints[0], [-MAX_COORD, MAX_COORD])


def test_load_manifest_missing_header(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("limb 0 1\n")
    with pytest.raises(InvalidArgumentError, match="line 1"):
        data.load_manifest(p)


def test_load_manifest_rejects_cyclic_tree(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("k=3\nlimb 0 1\nlimb 1 2\nlimb 2 0\nimg.pgm - 1 2 1 3 4 1 5 6 1\n")
    with pytest.raises(InvalidArgumentError, match="cycle"):
        data.load_manifest(p)


@pytest.mark.parametrize("text", ["k=3\n", "k=9\ntorso 1 8\nname 0 head\n", "k=3000000\n"],
                         ids=["header_only", "declarations_only", "huge_k"])
def test_load_manifest_without_records_rejected(tmp_path, text):
    # rejected before any per-joint structure is built, so a huge k costs nothing
    p = tmp_path / "m.txt"
    p.write_text(text)
    with pytest.raises(InvalidArgumentError, match="no records"):
        data.load_manifest(p)


@pytest.mark.parametrize("idx", ["3", "-1", "42"])
def test_load_manifest_rejects_out_of_range_name(tmp_path, idx):
    p = tmp_path / "m.txt"
    p.write_text(MANIFEST.replace("name 2 right", f"name 2 right\nname {idx} ghost"))
    with pytest.raises(InvalidArgumentError, match=f"line 6: joint name index {idx} out of range"):
        data.load_manifest(p)


def test_load_manifest_rejects_torso_pair_of_one_joint(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text(MANIFEST.replace("torso 1 2", "torso 1 1"))
    with pytest.raises(InvalidArgumentError, match="torso pair"):
        data.load_manifest(p)


def test_manifest_round_trip(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text(MANIFEST)
    m = data.load_manifest(p)
    q = tmp_path / "copy.txt"
    data.save_manifest(m, q)
    m2 = data.load_manifest(q)
    assert m2.k == m.k
    assert m2.joint_names == m.joint_names
    assert m2.tree == m.tree
    for a, b in zip(m.examples, m2.examples):
        assert a.image_path == b.image_path
        assert np.array_equal(a.pose.joints, b.pose.joints)
        assert np.array_equal(a.pose.mask, b.pose.mask)
        if a.box0 is None:
            assert b.box0 is None
        else:
            assert b.box0.tobytes() == a.box0.tobytes()


def test_manifest_round_trip_keeps_box_rows_exact(tmp_path):
    rng = np.random.default_rng(5)
    tree = data.default_tree()
    examples = [data.AnnotatedExample(f"f{i}.pgm", make_pose(rng.uniform(0, 64, size=(9, 2))),
                                      None if i == 0 else np.array([*rng.uniform(-50, 50, size=2),
                                                                    *rng.uniform(0.1, 99, size=2)]))
                for i in range(20)]
    m = data.DatasetManifest(9, tree, list(data.JOINT_NAMES), examples)
    data.save_manifest(m, tmp_path / "m.txt")
    loaded = data.load_manifest(tmp_path / "m.txt").examples
    assert loaded[0].box0 is None
    for a, b in zip(examples[1:], loaded[1:]):
        assert b.box0.dtype == np.float64 and b.box0.tobytes() == a.box0.tobytes()


@pytest.mark.parametrize("name, path, message", [
    ("left hip", "a.pgm", "joint name 'left hip' is empty or holds whitespace or '#'"),
    ("#x", "a.pgm", "joint name '#x' is empty or holds whitespace or '#'"),
    ("", "a.pgm", "joint name '' is empty or holds whitespace or '#'"),
    ("left", "fig#1.pgm", "image path 'fig#1.pgm' is empty or holds whitespace or '#'"),
    ("left", "fig 1.pgm", "image path 'fig 1.pgm' is empty or holds whitespace or '#'"),
    ("left", "", "image path '' is empty or holds whitespace or '#'"),
    ("left", "limb", "image path 'limb' is a manifest keyword"),
    ("left", "torso", "image path 'torso' is a manifest keyword"),
    ("left", "swap", "image path 'swap' is a manifest keyword"),
    ("left", "name", "image path 'name' is a manifest keyword"),
])
def test_save_manifest_refuses_what_would_not_read_back(tmp_path, name, path, message):
    # each of these wrote a file that load_manifest rejected or read back changed
    (tmp_path / "m.txt").write_text(MANIFEST)
    m = data.load_manifest(tmp_path / "m.txt")
    m = dataclasses.replace(m, joint_names=["head", name, "right"],
                            examples=[dataclasses.replace(m.examples[0], image_path=path)])
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        data.save_manifest(m, tmp_path / "copy.txt")
    assert not (tmp_path / "copy.txt").exists()


def test_load_manifest_rejects_name_with_extra_tokens(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text(MANIFEST.replace("name 1 left", "name 1 left hip"))
    with pytest.raises(InvalidArgumentError,
                       match=re.escape("line 4: bad name declaration 'name 1 left hip'")):
        data.load_manifest(p)


@settings(max_examples=300, deadline=None)
@given(mutated(MANIFEST.encode()))
def test_mutated_manifest_loads_or_is_rejected(fuzz_dir, content):
    loads_or_is_rejected(data.load_manifest, fuzz_dir / "m.txt", content)


# --- images ---------------------------------------------------------------------


def test_load_pgm_scaling(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 0, 255]))
    img = data.load_image(p)
    assert img.shape == (2, 2, 1)
    assert np.array_equal(img.reshape(-1), [0.0, 1.0, 0.0, 1.0])


def test_load_pgm_with_comment(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([7, 9]))
    img = data.load_image(p)
    assert img.shape == (1, 2, 1)
    assert np.allclose(img.reshape(-1), [7 / 255, 9 / 255])


def test_load_image_bad_magic(tmp_path):
    p = tmp_path / "t.png"
    p.write_bytes(b"\x89PNG....")
    with pytest.raises(InvalidArgumentError):
        data.load_image(p)


def test_load_image_truncated(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(InvalidArgumentError):
        data.load_image(p)


PGM = b"P5\n# a comment\n3 2\n255\n" + bytes([0, 7, 9, 128, 200, 255])
PPM = b"P6\n2 1\n200\n" + bytes([0, 50, 100, 150, 199, 1])


@pytest.mark.parametrize("base", [PGM, PPM], ids=["pgm", "ppm"])
@settings(max_examples=250, deadline=None)
@given(data_=st.data())
def test_mutated_image_loads_or_is_rejected(fuzz_dir, base, data_):
    loads_or_is_rejected(data.load_image, fuzz_dir / "t.img", data_.draw(mutated(base)))


def test_image_round_trip_8bit(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, size=(5, 7, 1), dtype=np.uint8)
    img = raw.astype(np.float64) / 255
    p = tmp_path / "t.pgm"
    data.save_image(img, p)
    back = data.load_image(p)
    assert np.array_equal(back, img)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(4, 3, 3)).astype(np.float64) / 255
    p = tmp_path / "t.ppm"
    data.save_image(img, p)
    back = data.load_image(p)
    assert back.shape == (4, 3, 3)
    assert np.array_equal(back, img)


# --- mirroring -------------------------------------------------------------------


def test_mirror_maps_edge_pixel(tiny_tree):
    img = np.zeros((4, 100, 1))
    pose = make_pose([(0, 1), (10, 2), (20, 3), (30, 4)])
    mpose, _, _ = data.mirror_example(pose, img, tiny_tree)
    # joint 0 swaps with joint 1 after reflection
    assert mpose.joints[1][0] == 99.0
    assert mpose.joints[0][0] == 89.0


def test_mirror_swaps_labels_onto_reflected_positions(tiny_tree):
    img = np.zeros((4, 50, 1))
    pose = make_pose([(10, 5), (40, 6), (1, 1), (2, 2)], mask=[True, False, True, True])
    mpose, _, _ = data.mirror_example(pose, img, tiny_tree)
    # left joint 0 lands at the reflected position of the old right joint 1
    assert np.array_equal(mpose.joints[0], [49 - 40, 6])
    assert mpose.mask.tolist() == [False, True, True, True]


def test_mirror_involution(tiny_tree):
    rng = np.random.default_rng(3)
    img = rng.random((6, 9, 1))
    pose = make_pose(rng.uniform(0, 8, size=(4, 2)), mask=[True, False, True, True])
    box = np.array([4.0, 3.0, 5.0, 4.0])
    p1, i1, b1 = data.mirror_example(pose, img, tiny_tree, box)
    p2, i2, b2 = data.mirror_example(p1, i1, tiny_tree, b1)
    assert np.array_equal(i2, img)
    assert np.allclose(p2.joints, pose.joints)
    assert np.array_equal(p2.mask, pose.mask)
    assert np.array_equal(b1, [(9 - 1) - 4.0, 3.0, 5.0, 4.0])
    assert np.array_equal(b2, box)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_mirror_involution_property(seed):
    tree = data.default_tree()
    rng = np.random.default_rng(seed)
    img = rng.random((5, 8, 1))
    pose = make_pose(rng.uniform(0, 7, size=(9, 2)), mask=rng.random(9) < 0.8)
    p1, i1, _ = data.mirror_example(pose, img, tree)
    p2, i2, _ = data.mirror_example(p1, i1, tree)
    assert np.array_equal(i2, img)
    assert np.allclose(p2.joints, pose.joints)
    assert np.array_equal(p2.mask, pose.mask)


# --- synthetic generator -----------------------------------------------------------


def test_synth_deterministic(tmp_path):
    cfg = data.SynthConfig(count=4, seed=11, image_size=(40, 40))
    data.synth_generate(cfg, tmp_path / "a")
    data.synth_generate(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "manifest.txt").read_bytes() == (
        tmp_path / "b" / "manifest.txt"
    ).read_bytes()
    for i in range(4):
        name = f"fig_{i:05d}.pgm"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_count_and_bounds(tmp_path):
    cfg = data.SynthConfig(count=25, seed=3, image_size=(48, 40))
    m = data.synth_generate(cfg, tmp_path)
    assert len(m.examples) == 25
    for ex in m.examples:
        assert np.all(ex.pose.joints[:, 0] >= 0) and np.all(ex.pose.joints[:, 0] <= 47)
        assert np.all(ex.pose.joints[:, 1] >= 0) and np.all(ex.pose.joints[:, 1] <= 39)
        assert ex.pose.mask.all()


def test_synth_rerender_from_stored_joints_is_bitwise(tmp_path):
    cfg = data.SynthConfig(count=3, seed=7, image_size=(32, 32))
    data.synth_generate(cfg, tmp_path)
    m = data.load_manifest(tmp_path / "manifest.txt")
    for i, ex in enumerate(m.examples):
        img = data.render_example(cfg, ex.pose.joints, i)
        stored = (tmp_path / ex.image_path).read_bytes()
        redrawn = np.rint(np.clip(img, 0, 1) * 255).astype(np.uint8)
        assert stored.endswith(redrawn.tobytes())


def test_synth_images_have_contrast(tmp_path):
    cfg = data.SynthConfig(count=2, seed=5, image_size=(40, 40))
    m = data.synth_generate(cfg, tmp_path)
    for ex in data.load_examples(m):
        assert ex.image.min() < 0.5 < ex.image.max()


def test_synth_rejects_bad_config():
    bad = [
        {"count": 0},
        {"count": 1, "noise_level": -1.0},
        {"count": 1, "noise_level": float("nan")},
        {"count": 1, "noise_level": float("inf")},
        {"count": 1, "image_size": (0, 0)},
        {"count": 1, "image_size": (-4, -4)},
        {"count": 1, "image_size": (64, 0)},
        {"count": 1, "image_size": (6, 64)},  # every joint would fall on one point
    ]
    for kwargs in bad:
        with pytest.raises(InvalidArgumentError):
            data.SynthConfig(**kwargs)
    data.SynthConfig(count=1, image_size=(7, 7), noise_level=0.0)  # the smallest valid settings
