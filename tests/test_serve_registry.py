"""Model-registry round trips and manifest handling."""

import json

import numpy as np
import pytest

from repro.cnn.datasets import N_CLASSES, generate_dataset
from repro.cnn.inference import QuantizedModel
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.serve import ModelRegistry
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def tiny_qmodel():
    rng = make_rng(0)
    model = Sequential(
        Conv2d(3, 5, 3, padding=1, rng=rng), ReLU(), MaxPool2d(4),
        Flatten(), Linear(5 * 6 * 6, N_CLASSES, rng=rng),
    )
    ds = generate_dataset(4, seed=1)
    return QuantizedModel.from_trained(model, ds.images[:16]), ds


class TestRegistry:
    def test_save_load_round_trip(self, tiny_qmodel, tmp_path):
        qm, ds = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        entry = reg.save("tiny", qm, arch_model="ShuffleNet_V2",
                         metadata={"note": "unit test"})
        assert entry.precision_bits == 8
        assert "tiny" in reg and reg.names() == ["tiny"]
        loaded = reg.load("tiny")
        assert np.array_equal(
            qm.forward(ds.images[:4], mode="int8"),
            loaded.forward(ds.images[:4], mode="int8"),
        )

    def test_manifest_fields(self, tiny_qmodel, tmp_path):
        qm, _ = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        reg.save("m1", qm, arch_model="GoogleNet")
        entry = reg.entry("m1")
        assert entry.arch_model == "GoogleNet"
        assert entry.path.exists()
        assert entry.created_at > 0

    def test_unknown_arch_model_rejected(self, tiny_qmodel, tmp_path):
        qm, _ = tiny_qmodel
        with pytest.raises(ValueError, match="arch_model"):
            ModelRegistry(tmp_path).save("m", qm, arch_model="AlexNet")

    def test_invalid_names_rejected(self, tiny_qmodel, tmp_path):
        qm, _ = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        for bad in ("../escape", "a/b", "", ".hidden"):
            with pytest.raises(ValueError):
                reg.save(bad, qm)

    def test_missing_model_raises_keyerror(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(KeyError):
            reg.entry("ghost")
        with pytest.raises(KeyError):
            reg.delete("ghost")

    def test_delete_removes_entry(self, tiny_qmodel, tmp_path):
        qm, _ = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        reg.save("gone", qm)
        reg.delete("gone")
        assert "gone" not in reg and len(reg) == 0

    def test_overwrite_updates_entry(self, tiny_qmodel, tmp_path):
        qm, _ = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        reg.save("m", qm)
        reg.save("m", qm, metadata={"v": 2})
        assert reg.entry("m").metadata == {"v": 2}
        assert len(reg) == 1


class TestLegacyKernelChoiceEntry:
    """Older versions persisted per-stage kernel choices under an
    ``autotune`` key in both the archive meta and the manifest.  Such a
    model still loads, the key is ignored, and it serves the same
    logits as a model saved without it."""

    CHOICES = {"0:sconna": {"q": 27, "p": 576, "matmul": "einsum",
                            "remainder": "native"}}

    def test_archive_and_manifest_entries_ignored(self, tiny_qmodel, tmp_path):
        from repro.stochastic.error_models import SconnaErrorModel

        qm, ds = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        reg.save("plain", qm)
        reg.save("legacy", qm)
        manifest_path = tmp_path / "legacy.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["autotune"] = self.CHOICES
        manifest_path.write_text(json.dumps(manifest))
        archive_path = tmp_path / "legacy.npz"
        with np.load(archive_path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(str(arrays.pop("__meta__")))
        meta["autotune"] = self.CHOICES
        np.savez_compressed(
            archive_path, __meta__=np.array(json.dumps(meta)), **arrays
        )

        assert reg.entry("legacy").path == archive_path
        plain, legacy = reg.load("plain"), reg.load("legacy")
        x = ds.images[:3]
        assert np.array_equal(plain.forward(x, mode="int8"),
                              legacy.forward(x, mode="int8"))
        for fused in (True, False):
            plain_s, legacy_s = (
                m.forward(x, mode="sconna",
                          error_model=SconnaErrorModel(seed=9), fused=fused)
                for m in (plain, legacy)
            )
            assert np.array_equal(plain_s, legacy_s)
        # and current versions write the key nowhere
        assert "autotune" not in json.loads(
            (tmp_path / "plain.json").read_text()
        )
        with np.load(tmp_path / "plain.npz") as archive:
            assert "autotune" not in json.loads(str(archive["__meta__"]))
