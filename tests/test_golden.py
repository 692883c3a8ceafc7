"""Golden result digests: pinned SHA-256 of ``canonical_result_blob``.

Both execution backends feed one timing replay, so a change to that
replay (or to anything downstream of it) moves both backends together
and passes every differential test.  These pins catch such a change:
every registered architecture runs ``count`` (memory-bound) and ``gda``
(compute-bound) at 256 records under each backend and must reproduce
the recorded outcome byte for byte.  A change that alters results on
purpose re-records the table and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.sim.driver import ARCHITECTURES, run
from repro.sim.options import BACKENDS, ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import canonical_result_blob

N_RECORDS = 256

GOLDEN: dict[tuple[str, str], str] = {
    ("gpgpu", "count"): "712ecafc7158c2965a8269a626b37d45fb7096cdfb49ed1f74a8949be699b1d7",
    ("gpgpu", "gda"): "ef0ef9126af84b0d20e5b950785ea6df6d2001bcf11f03971f9cc6ee90e4a267",
    ("millipede", "count"): "1477f8dbffa291780f4f07466565aa71a53891c7acf5ee5e17252ede344b868e",
    ("millipede", "gda"): "729ad08b3932e8c3abc2aa753c7efed95dfe4e6372bda9225f819ded503cc761",
    ("millipede-bar", "count"): "4a4d66f5ba5b2bf9bb9014773a6a10424efc3b63c1af6003935ffdc79fcbb540",
    ("millipede-bar", "gda"): "8fe32e4aa28f1d08bbd0cb13d7128f0b368fa842ce12aa9929faded7f7c700c8",
    ("millipede-nofc", "count"): "83fb29a01d50b0a8259cf71c51e9bf63c16642dcec230002fd338448c0126f08",
    ("millipede-nofc", "gda"): "8648b7e826d19a8719044e1dc715774b056ce1b7286acd89aa0ff082a2362deb",
    ("millipede-rm", "count"): "1136ac9b57cbfd501dd1c4787b506e0c4dae3913fd6dd5dd2d73e2d88eee24e0",
    ("millipede-rm", "gda"): "70be26a994646eccbb467774de53155e4b724c55c4e758cec3562d613c2ff920",
    ("multicore", "count"): "5823d85cacbe024316779eef73289dd119af761d3ec01c9ec03569749139c91d",
    ("multicore", "gda"): "261ffe2259f0598effde6f5d6784c9724372eae4b72fb3be9782dbbf709acc0a",
    ("ssmc", "count"): "fcb37cc0c94b1d155e862c35162a676943dfd62a6156cf7e96725feddce54044",
    ("ssmc", "gda"): "7f4f6f90c754ad04d697adf38b5c5deba33d6a50ce769133d568b27847883422",
    ("vws", "count"): "f244953da5f6577634eaf22b8c48f1a8e0177903a197d3014a415df8d7f58e23",
    ("vws", "gda"): "474b16509ce580549bdee45156e62f771eed4e1b6571ac91e035b3aee895afad",
    ("vws-row", "count"): "155698f53029dfa3506fcb9b7bb51cf6c6a5f065ec15bfd12d5a210d157b5414",
    ("vws-row", "gda"): "9a5538205431edd02c6a63cfdff47f963d7cb512b29427c14f2855032ca76b07",
}


def test_every_architecture_pinned():
    assert {arch for arch, _ in GOLDEN} == set(ARCHITECTURES)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("arch,wl", sorted(GOLDEN))
def test_result_digest_pinned(arch, wl, backend):
    r = run(RunSpec(arch, wl, n_records=N_RECORDS,
                    options=ExecOptions(backend=backend)))
    digest = hashlib.sha256(canonical_result_blob(r)).hexdigest()
    assert digest == GOLDEN[(arch, wl)], (
        f"{arch}/{wl} ({backend}) outcome moved: {digest}")
