import csv
import hashlib
import json
import os
import shlex
import shutil
import struct

import numpy as np
import pytest

from nestslice import bounds
from nestslice.cli import (_make_parser, build_dataset, cmd_switch_sim,
                           load_config, main)
from nestslice.errors import ConfigError
from nestslice.finetune import evaluate_rows
from nestslice.nest import load_bundle
from nestslice.tensor import read_blobs, store, write_blob

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")

SMALL_CONFIG = {
    "seed": 3,
    "arch": "dnn",
    "size": "S",
    "capacities_percent": [100, 75, 50, 25],
    "heuristic": "bu",
    "importance_batches": 10,
    "dataset": {"kind": "synthetic", "classes": 5, "per_class": 40,
                "dims": 12, "separation": 5.0},
    "pretrain": {"batch_size": 32, "epochs": 3,
                 "learning_rate_schedule": [[0, 0.003]]},
    "finetune": {"batch_size": 32, "epochs": 2,
                 "learning_rate_schedule": [[0, 0.001]]},
}


# a small net with batchnorm; the whole pipeline takes about half a second
CONV_CONFIG = {
    "arch": "cnn",
    "capacities_percent": [100, 50],
    "importance_batches": 4,
    "dataset": {"kind": "synthetic", "classes": 10, "per_class": 40,
                "dims": [6, 6, 1], "separation": 4.0},
    "pretrain": {"batch_size": 32, "epochs": 2,
                 "learning_rate_schedule": [[0, 0.003]]},
    "finetune": {"batch_size": 32, "epochs": 1,
                 "learning_rate_schedule": [[0, 0.001]]},
}


def write_config(tmp_path, extra=None):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_json(*parts):
    with open(os.path.join(*parts)) as fh:
        return json.load(fh)


def _read_bytes(*parts):
    with open(os.path.join(*parts), "rb") as fh:
        return fh.read()


def _read_csv(*parts):
    with open(os.path.join(*parts), newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    cfg = write_config(tmp)
    out = str(tmp / "out")
    rc = main(["--config", cfg, "--out", out, "pipeline"])
    assert rc == 0
    return tmp, cfg, out


def test_pipeline_produces_all_artifacts(pipeline_out):
    _, _, out = pipeline_out
    for art in ["model.json", "scores.csv", "plan.json", "finetune_log.csv",
                "manifest.json", "bundle"]:
        assert os.path.exists(os.path.join(out, art)), art
    manifest = _read_json(out, "manifest.json")
    assert "config_hash" in manifest
    stages = [s["stage"] for s in manifest["stages"]]
    assert stages == ["dataset", "train", "score", "plan", "finetune",
                      "bundle"]
    plan = _read_json(out, "plan.json")
    assert len(plan["points"]) == 4


def test_pipeline_plan_reproducible(pipeline_out, tmp_path):
    tmp, cfg, out = pipeline_out
    out2 = str(tmp_path / "out2")
    assert main(["--config", cfg, "--out", out2, "pipeline"]) == 0
    a = _read_bytes(out, "plan.json")
    b = _read_bytes(out2, "plan.json")
    assert a == b  # byte-identical plan under same seed and config
    # the fine-tuned bundle reproduces byte for byte as well
    for fn in sorted(os.listdir(os.path.join(out, "bundle"))):
        x = _read_bytes(out, "bundle", fn)
        y = _read_bytes(out2, "bundle", fn)
        assert x == y, fn


def test_single_capacity_bundle_is_plain_model(tmp_path):
    cfg = write_config(tmp_path, {"capacities_percent": [100],
                                  "finetune": {"batch_size": 32, "epochs": 0,
                                               "learning_rate_schedule":
                                               [[0, 0.001]]}})
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "pipeline"]) == 0
    plan = _read_json(out, "plan.json")
    assert plan["points"] == [[144, 144]]


def test_eval_outputs_per_row_accuracy(pipeline_out, tmp_path):
    tmp, cfg, out = pipeline_out
    ev = str(tmp_path / "ev")
    rc = main(["--config", cfg, "--out", ev, "eval", "--bundle",
               os.path.join(out, "bundle")])
    assert rc == 0
    rows = _read_csv(ev, "eval.csv")
    assert len(rows) == 4
    assert set(rows[0]) == {"row", "capacity_pct", "capacity_macs", "macs",
                            "macs_pct", "params", "accuracy"}
    # params column equals an independent weight-count audit
    import nestslice.netgraph as ng
    from nestslice.nest import load_bundle
    model = load_bundle(os.path.join(out, "bundle"))
    for r in rows:
        widths = model.plan.row_widths(int(r["row"]))
        assert int(r["params"]) == ng.param_counts(model.graph, widths)
        # the row's own MAC share, which stays within its budget share
        assert float(r["macs_pct"]) == round(
            100.0 * int(r["macs"]) / ng.full_macs(model.graph), 2)
        assert float(r["macs_pct"]) <= float(r["capacity_pct"])


def test_untrained_model_chance_accuracy(tmp_path):
    cfg = write_config(tmp_path, {
        "pretrain": {"batch_size": 32, "epochs": 0,
                     "learning_rate_schedule": [[0, 0.001]]},
        "finetune": {"batch_size": 32, "epochs": 0,
                     "learning_rate_schedule": [[0, 0.001]]},
        "dataset": {"kind": "synthetic", "classes": 10, "per_class": 300,
                    "dims": 12, "separation": 5.0},
    })
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "pipeline"]) == 0
    ev = str(tmp_path / "ev")
    assert main(["--config", cfg, "--out", ev, "eval", "--bundle",
                 os.path.join(out, "bundle")]) == 0
    rows = _read_csv(ev, "eval.csv")
    acc = float(rows[0]["accuracy"])
    assert 0.05 <= acc <= 0.15  # ten classes, random weights


def test_switch_sim(pipeline_out, tmp_path):
    _, cfg, out = pipeline_out
    schedule = [[t, t % 2 * 3] for t in range(200)]  # alternate 100% and 25%
    spath = tmp_path / "schedule.json"
    spath.write_text(json.dumps(schedule))
    rc = main(["--config", cfg, "--out", str(tmp_path), "switch-sim",
               "--bundle", os.path.join(out, "bundle"),
               "--schedule", str(spath)])
    assert rc == 0
    log = _read_json(tmp_path, "switch_log.json")
    assert len(log["events"]) == 200
    assert log["total_weights_copied"] == 0
    assert all(e["integers_updated"] == 2 for e in log["events"])
    import nestslice.netgraph as ng
    from nestslice.nest import load_bundle
    model = load_bundle(os.path.join(out, "bundle"))
    for row in log["per_row_macs"]:
        assert row["inference_macs"] == ng.plan_macs(
            model.graph, model.plan.row_widths(row["row"]))


def test_switch_sim_invalid_row_exit_code(pipeline_out, tmp_path):
    _, cfg, out = pipeline_out
    spath = tmp_path / "bad.json"
    spath.write_text("[[0, 99]]")
    rc = main(["--config", cfg, "--out", str(tmp_path), "switch-sim",
               "--bundle", os.path.join(out, "bundle"),
               "--schedule", str(spath)])
    assert rc == 2


@pytest.mark.parametrize("text", [None, "[[0, 1]", "{}", "[5]", "[[0]]",
                                  '[[0, 1, 2]]', '[[0, "a"]]', "[[0, 1.7]]",
                                  "[[0, true]]"],
                         ids=["missing", "not_json", "not_a_list",
                              "entry_not_a_pair", "entry_too_short",
                              "entry_too_long", "row_not_a_number",
                              "row_not_an_integer", "row_bool"])
def test_switch_sim_malformed_schedule(pipeline_out, tmp_path, capsys, text):
    _, cfg, out = pipeline_out
    bundle = os.path.join(out, "bundle")
    spath = tmp_path / "schedule.json"
    if text is not None:
        spath.write_text(text)
    with pytest.raises(ConfigError):
        cmd_switch_sim(bundle, str(spath), str(tmp_path / "direct"))
    capsys.readouterr()
    rep = tmp_path / "rep"
    rc = main(["--config", cfg, "--out", str(rep), "switch-sim",
               "--bundle", bundle, "--schedule", str(spath)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not rep.exists()


def test_switch_sim_empty_schedule(pipeline_out, tmp_path):
    _, cfg, out = pipeline_out
    spath = tmp_path / "empty.json"
    spath.write_text("[]")
    rc = main(["--config", cfg, "--out", str(tmp_path), "switch-sim",
               "--bundle", os.path.join(out, "bundle"),
               "--schedule", str(spath)])
    assert rc == 0
    log = _read_json(tmp_path, "switch_log.json")
    assert log["events"] == []


def test_eval_and_switch_sim_leave_bundle_unchanged(pipeline_out,
                                                    tmp_path):
    _, cfg, out = pipeline_out
    bundle = os.path.join(out, "bundle")

    def contents():
        return {fn: _read_bytes(bundle, fn)
                for fn in sorted(os.listdir(bundle))}

    before = contents()
    spath = tmp_path / "schedule.json"
    spath.write_text("[[0, 1], [1, 0]]")
    rep = str(tmp_path / "rep")
    assert main(["--config", cfg, "--out", rep, "eval",
                 "--bundle", bundle]) == 0
    assert main(["--config", cfg, "--out", rep, "switch-sim",
                 "--bundle", bundle, "--schedule", str(spath)]) == 0
    assert contents() == before
    assert sorted(os.listdir(rep)) == ["eval.csv", "switch_log.json"]


def test_bench_cache_command(tmp_path):
    out = str(tmp_path / "bench")
    rc = main(["--out", out, "bench-cache"])
    assert rc == 0
    rows = _read_csv(out, "cache_report.csv")
    assert rows and set(rows[0]) >= {"mode", "hit_rate", "cost"}


def test_bench_cache_rejects_negative_miss_penalty(tmp_path):
    out = str(tmp_path / "bench")
    assert main(["--out", out, "bench-cache", "--miss-penalty", "-5"]) == 2
    assert not os.path.exists(os.path.join(out, "cache_report.csv"))


def test_verify_bounds_command(tmp_path):
    out = str(tmp_path / "bounds")
    rc = main(["--out", out, "verify-bounds", "--instances", "50"])
    assert rc == 0
    reports = _read_json(out, "bounds_report.json")
    assert len(reports) >= 100  # bu + td per instance plus tight cases
    assert all(r["passed"] for r in reports)


def test_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"capacities_percent": [25, 50]})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "pipeline"]) == 2


@pytest.mark.parametrize("flag, config, command", [
    (["--seed", "-1"], None, ["verify-bounds", "--instances", "2"]),
    ([], {"seed": -5}, ["train"])], ids=["seed_flag", "seed_in_config"])
def test_negative_seed_exit_code(tmp_path, capsys, flag, config, command):
    if config is not None:
        flag = ["--config", write_config(tmp_path, config)]
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main(flag + ["--out", str(out)] + command)
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and "seed must be >= 0" in err, err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    None, "{not json", "[1, 2]", '{"pretrain": 5}', '{"dataset": [1]}',
    '{"capacities_percent": []}', '{"capacities_percent": "abc"}',
    '{"capacities_percent": [50, "a"]}', '{"capacities_percent": [true]}',
    '{"capacities_percent": 50}', '{"seed": "x"}',
    '{"importance_batches": "a"}', '{"pretrain": {"epochs": "two"}}',
    '{"arch": 5}', '{"seed": true}', '{"dataset": {"dims": [8, 0, 1]}}',
    '{"pretrain": {"learning_rate_schedule": [[0, -1.0]]}}',
    '{"pretrain": {"loss": "mse"}}', '{"pretrain": {"foo": 1}}',
    '{"pretrain": {"learning_rate_schedule": [[0]]}}',
    '{"pretrain": {"batch_size": 0}}', '{"finetune": {"epochs": -1}}',
    '{"dataset": {"per_class": 0}}', '{"dataset": {"classes": 1}}',
    '{"dataset": {"dims": 0}}', '{"importance_batches": 0}',
    '{"importance_batches": -1}', '{"heuristc": "td"}',
    '{"dataset": {"foo": 1}}', '{"input_shape": -3}', '{"input_shape": 0}',
    '{"arch": "cnn", "input_shape": [4, 4, 1]}',
    '{"classes": 3, "dataset": {"classes": 4}}', '{"classes": 1}',
    '{"dataset": {"kind": "idx", "images": 5, "labels": "x"}}',
    '{"dataset": {"kind": "idx", "images": "i", "labels": "l", '
    '"normalize": 1}}'],
    ids=["missing", "not_json", "not_an_object", "section_not_object",
         "dataset_not_object", "capacities_empty", "capacities_string",
         "capacities_non_number", "capacities_bool", "capacities_scalar",
         "seed_string", "batches_string", "epochs_string", "arch_int",
         "seed_bool", "dims_zero", "rate_negative", "loss_unknown",
         "train_key_unknown", "schedule_entry_short", "batch_size_zero",
         "epochs_negative", "per_class_zero", "classes_one",
         "dims_int_zero", "batches_zero", "batches_negative", "key_typo",
         "dataset_key_unknown", "input_shape_negative", "input_shape_zero",
         "input_shape_not_data", "classes_not_data", "top_classes_one",
         "idx_images_int", "idx_normalize_int"])
def test_malformed_config_exit_code(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(str(path))
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main(["--config", str(path), "--out", str(out), "pipeline"])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not out.exists()  # rejected before any stage ran


def test_infeasible_plan_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"capacities_percent": [100, 0.00001]})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "pipeline"]) == 3


def test_data_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": {"kind": "idx", "images": "/nonexistent/i.idx",
                    "labels": "/nonexistent/l.idx"}})
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "pipeline"])
    assert rc == 4


def test_empty_validation_split_exit_code(tmp_path):
    # 8 samples split 80:10:10 leave no validation sample to score
    cfg = write_config(tmp_path, {
        "classes": 2,
        "dataset": {"kind": "synthetic", "classes": 2, "per_class": 4,
                    "dims": 12, "separation": 5.0}})
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out, "pipeline"]) == 4
    stages = _read_json(out, "manifest.json")["stages"]
    assert stages[-1] == {"stage": "failed:train",
                          "error": "empty evaluation set"}


def test_unknown_heuristic_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"heuristic": "xx"})
    out = str(tmp_path / "o")
    capsys.readouterr()
    assert main(["--config", cfg, "--out", out, "pipeline"]) == 2
    halted, error = capsys.readouterr().err.splitlines()
    assert halted.startswith("pipeline halted at stage 'plan': ")
    assert error == "error: unknown heuristic 'xx'"
    assert not os.path.exists(os.path.join(out, "plan.json"))


def test_plan_command_baselines(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "planout")
    rc = main(["--config", cfg, "--out", out, "plan", "--heuristic",
               "random"])
    assert rc == 0
    plan = _read_json(out, "plan.json")
    assert plan["heuristic"] == "random"


def write_idx(tmp_path):
    """IDX image and label files of 120 4x4 images in 3 classes."""
    from nestslice.datasets import write_idx_images, write_idx_labels
    rng = np.random.default_rng(0)
    n, classes = 120, 3
    labels = rng.integers(0, classes, n).astype(np.uint8)
    images = (rng.random((n, 4, 4)) * 255).astype(np.uint8)
    images += (labels * 60)[:, None, None].astype(np.uint8)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp


@pytest.mark.parametrize("extra", [
    {"input_shape": 15}, {"arch": "cnn", "input_shape": [4, 4, 2]},
    {"classes": 4}])
def test_idx_data_that_misfits_the_config_exit_code(tmp_path, capsys, extra):
    # IDX data is checked against the config once loaded, in the train
    # stage; synthetic data is checked before any stage
    ip, lp = write_idx(tmp_path)
    cfg = write_config(tmp_path, extra)
    capsys.readouterr()
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "--images", ip,
               "--labels", lp, "train"])
    assert rc == 2
    halted, error = capsys.readouterr().err.splitlines()
    assert halted.startswith("train halted at stage 'train': ")
    assert error.startswith("error: ")


def test_idx_dataset_flags(tmp_path):
    ip, lp = write_idx(tmp_path)
    cfg = write_config(tmp_path, {
        "dataset": {"kind": "synthetic"},  # overridden by the flags
        "pretrain": {"batch_size": 16, "epochs": 1,
                     "learning_rate_schedule": [[0, 0.001]]},
        "finetune": {"batch_size": 16, "epochs": 1,
                     "learning_rate_schedule": [[0, 0.001]]},
        "importance_batches": 5,
    })
    out = str(tmp_path / "idxout")
    rc = main(["--config", cfg, "--out", out, "--images", ip,
               "--labels", lp, "pipeline"])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "bundle", "plan.json"))


def test_unsupported_split_rejected(tmp_path):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as e:  # the split is always 80:10:10
        main(["--config", cfg, "--out", str(tmp_path / "o"),
              "--split", "70:20:10", "pipeline"])
    assert e.value.code == 2


def test_verify_bounds_uses_global_seed(tmp_path):
    docs = {}
    for seed in (0, 3):
        out = str(tmp_path / f"seed{seed}")
        assert main(["--seed", str(seed), "--out", out, "verify-bounds",
                     "--instances", "20"]) == 0
        with open(os.path.join(out, "bounds_report.json")) as fh:
            docs[seed] = json.load(fh)
    assert docs[3] != docs[0]
    want = [r.to_json() for r in bounds.verify_bounds(n_instances=20, seed=3)]
    assert docs[3] == json.loads(json.dumps(want))


def test_verify_bounds_report_bytes_are_pinned(tmp_path):
    # the sha256 of this report as written before the bound lab was
    # rebuilt on one subset enumeration per instance
    out = str(tmp_path / "b")
    assert main(["--seed", "3", "--out", out, "verify-bounds",
                 "--instances", "200"]) == 0
    digest = hashlib.sha256(_read_bytes(out, "bounds_report.json")).hexdigest()
    assert digest == ("4b9483dfb377fe840abb4eb03b6fa100"
                      "2d80b540fce8200be41c822e86fb06c7")


@pytest.mark.parametrize("flags", [["--max-items", "3"],
                                   ["--max-items", "21"],
                                   ["--instances", "-3"]])
def test_verify_bounds_rejects_counts_out_of_range(tmp_path, flags):
    out = str(tmp_path / "b")
    assert main(["--out", out, "verify-bounds", *flags]) == 2
    assert not os.path.exists(os.path.join(out, "bounds_report.json"))


@pytest.fixture(scope="module")
def conv_pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("conv")
    cfg = write_config(tmp, CONV_CONFIG)
    out = str(tmp / "pipeline")
    assert main(["--config", cfg, "--out", out, "pipeline"]) == 0
    return tmp, cfg, out


def _manifest_stages(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return [s["stage"] for s in json.load(fh)["stages"]]


def test_bundle_ships_validated_bn_statistics(conv_pipeline):
    _, cfg, out = conv_pipeline
    model = load_bundle(os.path.join(out, "bundle"))
    assert model.bn_stats[0]  # the net has batchnorm layers
    logged = {}
    with open(os.path.join(out, "finetune_log.csv"), newline="") as fh:
        for r in csv.DictReader(fh):
            logged[int(r["row"])] = float(r["val_accuracy"])  # last epoch
    val_x, val_y = build_dataset(load_config(cfg)).split("val")
    assert evaluate_rows(model, val_x, val_y) == [logged[k]
                                                  for k in sorted(logged)]


def _truncate_bn_stats(bundle):
    path = os.path.join(bundle, "bn_stats.bin")
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:-3])  # cuts the last blob's data short


def _extra_row(bundle):
    path = os.path.join(bundle, "bundle.json")
    with open(path) as fh:
        meta = json.load(fh)
    meta["n_rows"] += 1
    with open(path, "w") as fh:
        json.dump(meta, fh)


def _drop_bn_stats(bundle):
    os.remove(os.path.join(bundle, "bn_stats.bin"))


def _garble_bundle_json(bundle):
    with open(os.path.join(bundle, "bundle.json"), "a") as fh:
        fh.write("}")  # trailing garbage: the JSON no longer parses


def _drop_layout_key(bundle):
    path = os.path.join(bundle, "bundle.json")
    with open(path) as fh:
        meta = json.load(fh)
    del meta["layout"]
    with open(path, "w") as fh:
        json.dump(meta, fh)


def _bundle_json_list(bundle):
    with open(os.path.join(bundle, "bundle.json"), "w") as fh:
        json.dump(["layout", "active"], fh)  # parses, but not an object


def _set_bundle_key(key, value):
    def corrupt(bundle):
        path = os.path.join(bundle, "bundle.json")
        with open(path) as fh:
            meta = json.load(fh)
        meta[key] = value
        with open(path, "w") as fh:
            json.dump(meta, fh)
    return corrupt


def _non_utf8_plan(bundle):
    path = os.path.join(bundle, "plan.json")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] = 0xFF  # never valid in UTF-8
    with open(path, "wb") as fh:
        fh.write(data)


def _empty_plan(bundle):
    with open(os.path.join(bundle, "plan.json"), "w") as fh:
        json.dump({}, fh)  # an object, but without capacities or points


_DELETE = object()


def _edit_manifest(key, value=_DELETE, layer=None):
    """Set ``key`` of model.json, or of its layer ``layer``, to ``value``
    (None writes null); without a value, delete the key."""
    def corrupt(bundle):
        path = os.path.join(bundle, "model.json")
        with open(path) as fh:
            doc = json.load(fh)
        obj = doc if layer is None else doc["layers"][layer]
        if value is _DELETE:
            del obj[key]
        else:
            obj[key] = value
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return corrupt


def _blob_order(order):
    def corrupt(bundle):
        path = os.path.join(bundle, "bn_stats.bin")
        with open(path, "r+b") as fh:
            fh.seek(4)  # the first blob's order word
            fh.write(struct.pack("<I", order))
    return corrupt


def _blob_header(*words):
    """Overwrite the start of the first blob in bn_stats.bin with these
    u32 words: its ndim, order and extents."""
    def corrupt(bundle):
        path = os.path.join(bundle, "bn_stats.bin")
        with open(path, "r+b") as fh:
            fh.write(struct.pack(f"<{len(words)}I", *words))
    return corrupt


def _shorten_blob(layer, index):
    """Rewrite layer ``layer``'s weight file with its ``index``-th tensor
    cut to one element."""
    def corrupt(bundle):
        path = os.path.join(bundle, f"model_layer{layer:02d}.bin")
        with open(path, "rb") as fh:
            blobs = read_blobs(fh)
        blobs[index] = store(blobs[index][:1])
        with open(path, "wb") as fh:
            for t in blobs:
                write_blob(t, fh)
    return corrupt


@pytest.mark.parametrize("command", ["eval", "switch-sim"])
@pytest.mark.parametrize("corrupt, code", [(_truncate_bn_stats, 7),
                                           (_extra_row, 6),
                                           (_drop_bn_stats, 6),
                                           (_garble_bundle_json, 6),
                                           (_drop_layout_key, 6),
                                           (_bundle_json_list, 6),
                                           (_non_utf8_plan, 6),
                                           (_set_bundle_key("n_rows", "x"), 6),
                                           (_set_bundle_key("bn_layers", 3), 6),
                                           (_blob_order(32768), 6),
                                           (_blob_order(1), 6),
                                           (_blob_header(0xFFFFFFF0, 0), 7),
                                           (_blob_header(2, 0, 0xFFFF0000,
                                                         0xFFFF0000), 7),
                                           (_empty_plan, 6),
                                           # layer 0 has a weights file
                                           (_edit_manifest("kind", "bogus",
                                                           layer=0), 6),
                                           (_edit_manifest("units", layer=0),
                                            6),
                                           (_edit_manifest("kind", layer=0),
                                            6),
                                           (_edit_manifest("units", "x",
                                                           layer=0), 6),
                                           (_edit_manifest("kind", [1],
                                                           layer=0), 6),
                                           (_edit_manifest("weights_file", 3,
                                                           layer=0), 6),
                                           (_edit_manifest("layers"), 6),
                                           (_edit_manifest("input_shape"), 6),
                                           (_edit_manifest("encoder_end"), 6),
                                           # conv layers 0 and 2
                                           (_edit_manifest("kernel", None,
                                                           layer=0), 6),
                                           (_edit_manifest("stride", [0, 0],
                                                           layer=2), 6),
                                           # conv layer 0: kernel, bias;
                                           # batchnorm layer 1: gamma first
                                           (_shorten_blob(0, 1), 6),
                                           (_shorten_blob(1, 0), 6)],
                         ids=["truncated_bn_stats", "n_rows_mismatch",
                              "missing_bn_stats", "bad_bundle_json",
                              "missing_layout_key", "bundle_json_not_object",
                              "non_utf8_json", "n_rows_not_int",
                              "bn_layers_not_list", "unknown_blob_order",
                              "column_major_blob", "blob_ndim_past_end",
                              "blob_extents_past_end",
                              "empty_plan", "unknown_layer_kind",
                              "layer_without_units", "layer_without_kind",
                              "units_not_int", "kind_not_string",
                              "weights_file_not_string",
                              "manifest_without_layers",
                              "manifest_without_input_shape",
                              "manifest_without_encoder_end",
                              "conv_kernel_null", "conv_stride_zero",
                              "bias_wrong_length", "gamma_wrong_length"])
def test_corrupt_bundle_exit_code(conv_pipeline, tmp_path, capsys, command,
                                  corrupt, code):
    _, cfg, out = conv_pipeline
    bundle = str(tmp_path / "bundle")
    shutil.copytree(os.path.join(out, "bundle"), bundle)
    corrupt(bundle)
    spath = tmp_path / "schedule.json"
    spath.write_text("[[0, 0]]")
    extra = ["--schedule", str(spath)] if command == "switch-sim" else []
    capsys.readouterr()
    rc = main(["--config", cfg, "--out", str(tmp_path / "rep"), command,
               "--bundle", bundle] + extra)
    err = capsys.readouterr().err
    assert rc == code
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err


def test_stage_failure_is_logged_to_stderr(tmp_path, capsys):
    cfg = write_config(tmp_path, {"capacities_percent": [100, 0.00001]})
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "pipeline"])
    captured = capsys.readouterr()
    assert rc == 3
    halted, error = captured.err.splitlines()
    assert halted.startswith("pipeline halted at stage 'plan': ")
    assert error.startswith("error: ")
    assert "halted" not in captured.out and "error:" not in captured.out


def test_subcommands_compose_into_pipeline(conv_pipeline):
    tmp, cfg, out = conv_pipeline
    planned, tuned = str(tmp / "plan"), str(tmp / "finetune")
    assert main(["--config", cfg, "--out", planned, "plan"]) == 0
    assert main(["--config", cfg, "--out", tuned, "finetune",
                 "--model", os.path.join(planned, "permuted.json"),
                 "--plan", os.path.join(planned, "plan.json")]) == 0
    assert _manifest_stages(out) == ["dataset", "train", "score", "plan",
                                     "finetune", "bundle"]
    assert _manifest_stages(planned) == ["dataset", "train", "score", "plan"]
    assert _manifest_stages(tuned) == ["dataset", "finetune", "bundle"]
    names = sorted(os.listdir(os.path.join(out, "bundle")))
    assert sorted(os.listdir(os.path.join(tuned, "bundle"))) == names
    for fn in names:
        with open(os.path.join(out, "bundle", fn), "rb") as a, \
                open(os.path.join(tuned, "bundle", fn), "rb") as b:
            assert a.read() == b.read(), fn


@pytest.mark.parametrize("command", ["train", "score"])
def test_stage_subcommand_manifest(conv_pipeline, command):
    tmp, cfg, _ = conv_pipeline
    out = str(tmp / command)
    assert main(["--config", cfg, "--out", out, command]) == 0
    want = ["dataset", "train", "score"]
    assert _manifest_stages(out) == want[:want.index(command) + 1]


def test_readme_cli_lines_parse():
    with open(README) as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```bash", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines()
             if ln.startswith("nestslice ")]
    assert len(lines) >= 5
    parser = _make_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
