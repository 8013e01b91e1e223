"""Every registered algorithm, run nine ways, ends on recorded parameters.

:mod:`tests.test_engine_identity` holds each way of running a job to the
serial run *of the same tree*, so a change that moves the serial run
moves both sides of every comparison and passes.  This table does not
compare legs with each other: each cell is the sha256 of the final
global parameters, RECORDED FROM THE COMMIT BEFORE a round's reduction
became a fold over the update stream (all updates trained, then reduced
as one list).  The ``float32``, ``partial-process``, ``hier:2:2-cloud-topk``
and ``async-process`` cells are recorded from the last commit whose
algorithm menu went beyond the paper's baselines, so they pin that the
cut moved no surviving algorithm's bits.

The cohort is four equal shards cut into blocks of two, so the serial
engine trains (and streams) a round as two stacked blocks, or four
single clients where an algorithm's hooks do not stack: any write a
commit makes to state a later block reads in the same round moves a
digest here.
"""

from __future__ import annotations

import functools
import hashlib

import pytest

import repro.algorithms.base as base
from repro.exceptions import ConfigError
from repro.fl.config import FLConfig
from tests.conftest import make_toy_federation
from tests.helpers import run_with_workers
from tests.test_engine_identity import EVERY, KWARGS

# A worker leg that degrades to serial warns, and must fail here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TOY = dict(rounds=4, local_steps=2, batch_size=8, lr=0.1, seed=11)

# leg -> (config overrides, worker count)
LEGS = {
    "serial": ({"executor": "serial"}, 1),
    "process": ({"executor": "process"}, 2),
    "hier:2:2": ({"executor": "serial", "topology": "hier:2:2"}, 1),
    "async-buffer-2": (
        {"executor": "serial", "execution": "async", "runtime": "gaussian:het=1.0",
         "buffer_size": 2},
        1,
    ),
    "ef-topk-qsgd": ({"executor": "serial", "compression": "topk:0.05|qsgd:8"}, 1),
    "float32": ({"executor": "serial", "dtype": "float32"}, 1),
    "partial-process": ({"executor": "process", "sample_ratio": 0.5}, 2),
    "hier:2:2-cloud-topk": (
        {"executor": "serial", "topology": "hier:2:2", "cloud_compression": "topk:0.25"},
        1,
    ),
    "async-process": (
        {"executor": "process", "execution": "async", "runtime": "gaussian:het=1.0",
         "buffer_size": 2},
        2,
    ),
}

# (algorithm, leg) -> sha256 of the final global parameters, recorded
# from the parent commit; rfedavg_exact refuses R > 1 regions.
PARENT = {
    "fedavg": {
        "serial": "6b973ac1be94f722901e12026b51238523def95e9c3282a9e8a6b72895e50ee4",
        "process": "6b973ac1be94f722901e12026b51238523def95e9c3282a9e8a6b72895e50ee4",
        "hier:2:2": "34543a8e64ba8f72434916227e88561e7202fc96b2a0fe93f0d0ec4a83bda8f3",
        "async-buffer-2": "402828679784f237d1cfef014635a67ee9987aefe8d197bcba6739befa56fcf8",
        "ef-topk-qsgd": "bc99fe369966c95371ee06677d0e9e0b8284b03a2b249d56b2236bd6d1eacc0f",
        "float32": "9648d4b0cd7b08b9ece946a93009af70edd2333274c873114fc58c0f9f293341",
        "partial-process": "55e1b7f38a43d2e1b2cbf702bc08c2ea16451d289aef77e52cd0b5d1cc05dad5",
        "hier:2:2-cloud-topk": "d1f9a6c5a02773f8ef257a1eaffbacc92fb8a02aeee252d32ac3f2942119907b",
        "async-process": "402828679784f237d1cfef014635a67ee9987aefe8d197bcba6739befa56fcf8",
    },
    "fedprox": {
        "serial": "c7bc10e63e4e1530c45e53795cd4b6c6e07e81953e48facaa707d59a19eb9d9e",
        "process": "c7bc10e63e4e1530c45e53795cd4b6c6e07e81953e48facaa707d59a19eb9d9e",
        "hier:2:2": "7587098ff057b8241f160e704c26e432d577318022f16199cdc5780ad4454c26",
        "async-buffer-2": "0ebba5f070231919bbd03ac226e1e1277c31a041c28ead136560c34b07c9bf2b",
        "ef-topk-qsgd": "daff525b5f25d1c4b8f5624d78cc68a883fbc5fc02af61f3780a0053d85db7b3",
        "float32": "cca2f06dcbd4465c7743aef657f25148c143b83d2069d8de6e4427587f041f45",
        "partial-process": "30ab4787fe7d7f69696dd5a1931d09ba43742f86e16b03cd592119bc5df7271b",
        "hier:2:2-cloud-topk": "b07276f06b18e78ba44cc3213806b7c22785906485b048bfb00e2157db606f96",
        "async-process": "0ebba5f070231919bbd03ac226e1e1277c31a041c28ead136560c34b07c9bf2b",
    },
    "moon": {
        "serial": "ec8209144707d227b14268cd5c78906fd645b2b3103661c91c2f6ecd5b271df7",
        "process": "ec8209144707d227b14268cd5c78906fd645b2b3103661c91c2f6ecd5b271df7",
        "hier:2:2": "340f9b0aae29f448ebbaf2feca434be95aea0af80e9ddc5561f298b1b974c584",
        "async-buffer-2": "1730c7a3f32e20702441e89e3c2c137a85973058ee1ceba8936318cec9af7b6a",
        "ef-topk-qsgd": "20e6229b59e227c5d6d4c8653e8db96977679aebca264d05aaf85d3e35e7020f",
        "float32": "15a705f3dc2508941ed6d57bc7c03ea8421e7c9395ae8dd3028b9253bf0522d3",
        "partial-process": "07fe9d1ec841c41e7eef6e1ca495a906e3c0ebdd4e977358bb060c2f40f31425",
        "hier:2:2-cloud-topk": "e4a0028cde9729dafa959dc31e2925910c3f9b54dd6452abfcfd228593920429",
        "async-process": "1730c7a3f32e20702441e89e3c2c137a85973058ee1ceba8936318cec9af7b6a",
    },
    "scaffold": {
        "serial": "7b1c0b917350641de8a561fe7aac9057b93e9ac2678bed717de59ef79ac24c17",
        "process": "7b1c0b917350641de8a561fe7aac9057b93e9ac2678bed717de59ef79ac24c17",
        "hier:2:2": "5a58b261f9ce0cb853c1e893d01c8a474cab0fb2ebf73f8a2785983cc99e626b",
        "async-buffer-2": "baa7197c7101bd8f069a2b829883e97552bd08bbc807f30106c223f3f80530fe",
        "ef-topk-qsgd": "2da4e73c2988a11a7c14e4429f95460981572eeab46a738df3d7af7558013cde",
        "float32": "7d258cba552647ce54bd999da643f037e4f00d97bd01cb13137c6f062b032760",
        "partial-process": "8d15860466bfbaec6ad90d410fe31d50ab603f34db5a9c1f77b982ce7de1f26a",
        "hier:2:2-cloud-topk": "95b12267cc8cc174a6048daf2a952ba706470c680b9eb60492d8be21f872a0ac",
        "async-process": "baa7197c7101bd8f069a2b829883e97552bd08bbc807f30106c223f3f80530fe",
    },
    "qfedavg": {
        "serial": "9c1df3a9d4eb7b8f4068d66f6317a3dd580cebb6460017a62f5e7debbfad8f65",
        "process": "9c1df3a9d4eb7b8f4068d66f6317a3dd580cebb6460017a62f5e7debbfad8f65",
        "hier:2:2": "885f8dbac51ab4cee7c8f89019bcde9a5d8bc203b8adfe9d550adcf99410dc84",
        "async-buffer-2": "ebd9dbefd98389f0e0c52f89e1a9128b02e0d70d260a17d0d757ee2ff31c3bc8",
        "ef-topk-qsgd": "271b1fd7c5654ef7abaa532009b4fcc625b8da615ff7b0ca1586c828147d5ea8",
        "float32": "c980464aa476481bbc19e5d822310cdf82887a44890229f74e8d5934a502d89f",
        "partial-process": "c267d42b97a40904d6bde0a6765b572ed73a634a086a557c7fc54c4a481f767f",
        "hier:2:2-cloud-topk": "aa37e4d216ce840911c69d9bf82b22f7d64151ba2395bea84126c5d030ae42a5",
        "async-process": "ebd9dbefd98389f0e0c52f89e1a9128b02e0d70d260a17d0d757ee2ff31c3bc8",
    },
    "rfedavg": {
        "serial": "c3a2ab5266d27678e54b471ff8a496b5fb6e0ac401757df1201335f4118fd728",
        "process": "c3a2ab5266d27678e54b471ff8a496b5fb6e0ac401757df1201335f4118fd728",
        "hier:2:2": "ad002bf9dc061ff51eebd55467590f88811e9549df5b7051d0d3f378fc58fb5f",
        "async-buffer-2": "16b2459df78d5906c22105b1f9b3eb26960b7e52df0a6dd6df226aa17acb3f87",
        "ef-topk-qsgd": "d3b95f2f6e28777e8ccf26e1aa270b4672caf84e9b9150d9d31e329a6cf44dbd",
        "float32": "b5ad462b78a498d3f7e446cb7e296ed50980e4e5109845417d7d74af6cb12743",
        "partial-process": "476b3e5f0a75505d5e361cda19b98cf457b21c9cd7236c937d653b7de609a826",
        "hier:2:2-cloud-topk": "a2aa887170a34443a1ec01bc21d1bd11567c246e0931f182767c3b78de736807",
        "async-process": "16b2459df78d5906c22105b1f9b3eb26960b7e52df0a6dd6df226aa17acb3f87",
    },
    "rfedavg+": {
        "serial": "ee85c3317655bdcba090f98956482cc9ec73d54948339c71eb5ff38cd167bda9",
        "process": "ee85c3317655bdcba090f98956482cc9ec73d54948339c71eb5ff38cd167bda9",
        "hier:2:2": "2f838e3557f1ae57872249913f83e9380f338e099a20283630cdb039bb714ff4",
        "async-buffer-2": "95bb04ade0ad93aabd98a940645f38fc1f0def4980046980c61671102eada2ba",
        "ef-topk-qsgd": "09ea759d4b2009a47eedfd498dc5cfcb7561dc7995f0cb509320e24eb53046b4",
        "float32": "8d5e3ae6b5c5990b5d25d71396208833356ac3add268bda2a7d941ec775d59ac",
        "partial-process": "d78101f74697974bccc09f7d9c4fc653e7c92b8955e2367d714f07bb9f1260f9",
        "hier:2:2-cloud-topk": "cc5b60c7e526698de162ed4f424f2a526e000798a8096a5bd1e77e73a8b4d736",
        "async-process": "95bb04ade0ad93aabd98a940645f38fc1f0def4980046980c61671102eada2ba",
    },
    "rfedavg_exact": {
        "serial": "9d618f4a7f871b3463c0ac98cb8be299962d4c3a05be59e4ccaa596038f541a2",
        "process": "9d618f4a7f871b3463c0ac98cb8be299962d4c3a05be59e4ccaa596038f541a2",
        "hier:2:2": None,
        "async-buffer-2": "b36bc309e3cb9ec0cc01a5cbc0bc316ea69e99c0a3a604b4e8def7f2980da4d8",
        "ef-topk-qsgd": "6f697737283b0d218c68d1f87d644b61ffa8f9e420bff3eeb5d10709e9a595e2",
        "float32": "9ec41af3c1b518455286e38163c02cd72d1a3ad1974a4b66be6737e8b93d6123",
        "partial-process": "26143b25a8a53bf61ac421b560fefd71a57b8ea0e519a256deba722b9f5e2ddc",
        "hier:2:2-cloud-topk": None,
        "async-process": "b36bc309e3cb9ec0cc01a5cbc0bc316ea69e99c0a3a604b4e8def7f2980da4d8",
    },
}


@functools.cache
def _fed():
    return make_toy_federation(similarity=0.0)


def params_sha256(name: str, leg: str) -> str:
    overrides, workers = LEGS[leg]
    config = FLConfig(**TOY, **overrides)
    algorithm, _history = run_with_workers(
        name, KWARGS[name], _fed(), config, num_workers=workers,
        executor=overrides["executor"],
    )
    if workers > 1:
        assert not algorithm.executor.degraded
    return hashlib.sha256(algorithm.global_params.tobytes()).hexdigest()


@pytest.fixture
def blocks_of_two(monkeypatch):
    monkeypatch.setattr(base, "COHORT_BLOCK", 2)


def test_the_table_has_every_algorithm_and_leg():
    assert set(PARENT) == set(EVERY)
    assert all(set(row) == set(LEGS) for row in PARENT.values())


@pytest.mark.parametrize("leg", list(LEGS))
@pytest.mark.parametrize("name", EVERY)
def test_final_parameters_equal_the_parents(name, leg, blocks_of_two):
    expected = PARENT[name][leg]
    if expected is None:
        with pytest.raises(ConfigError, match="cannot aggregate per region"):
            params_sha256(name, leg)
        return
    assert params_sha256(name, leg) == expected
