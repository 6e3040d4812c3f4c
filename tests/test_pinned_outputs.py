"""The byte-stable outputs, pinned.

A shipped scenario at its own seed writes the same bundle, byte for byte.
Only a deliberate change of the output bits re-pins these digests.  The
reproduction CSVs are pinned by ``repro_out/`` itself, which
``test_acceptance.py`` compares each target's CSVs against.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

from shmtwin.scenario import load_scenario, run_scenario

ROOT = Path(__file__).resolve().parents[1]

BUNDLE_SHA256 = {
    "damage_1/energy.csv": "77920c95de0da5a40f8830f3141b98f3a665a5082468a89125db8d0db3040543",
    "damage_1/spectrum.csv": "0e4dd4debd35a8b671f8f1f16df5e9c0c6c7e72d39b0a45463b570d34db5367f",
    "damage_1/summary.csv": "7360af8d2d45197a6ff935fe212aebfa6b5cfc5481c18bbe54844b50438d524b",
    "damage_1/uplink.csv": "22552431a2edda3e5f11626b3ca1cbca9d767c44aa69da4cfd0b61f6a4bd1772",
    "damage_1/verdict.txt": "05ed574abe7e3a3d1370634bb731c329214d340b8d106f6f834c74517558c6d1",
    "damage_2/energy.csv": "77920c95de0da5a40f8830f3141b98f3a665a5082468a89125db8d0db3040543",
    "damage_2/spectrum.csv": "b6e6a3b03f760dc7c9696cc1203d338b9d21bbcb1c7f32196c82a9a06bd97fc4",
    "damage_2/summary.csv": "6c8608a6c4f47b37847d0deee2ab79c0bdc27bfae5d663cc95f5f8ebeb08b80f",
    "damage_2/uplink.csv": "22552431a2edda3e5f11626b3ca1cbca9d767c44aa69da4cfd0b61f6a4bd1772",
    "damage_2/verdict.txt": "2f6afc082076b9c587bef5e83901761f8f00629ae07bc901a36a12d09ed6065b",
    "event_trigger/energy.csv": "38d05d4b89109fddec07fae7afa4f5cc1d33daca6e2296b2bdde159c9263dbce",
    "event_trigger/spectrum.csv": "241f1c2491dde3509cb94c293565804f93583a2e94c0ae7129b764b21c7ec2f6",
    "event_trigger/summary.csv": "ec1d2193fbd4fac347e8220473d1fa1d0e8430c4d821a03fa67280076859cee7",
    "event_trigger/uplink.csv": "2c41f30db57433e22cd5692395e22e66c5bff8a748061d3c86bf69a1dfe27aa8",
    "event_trigger/verdict.txt": "61b72665f3c09f6c9539e5e0b96236378c11b7899690ed10faaa5dae207f7a65",
    "long_term_plan/energy.csv": "d327ce08bb89567127bb4cebb4a3f9fcd8b0d3cbc0a3e5974207464e6a72f60a",
    "long_term_plan/spectrum.csv": "a249ae6c52c7aeca64a505773ff1c3cba723ace9bafdbc03944a79e95f420c5d",
    "long_term_plan/summary.csv": "10389987fdb467dab3dc6f7b178c448065affdb1482d9f0be24778d0bcde3d98",
    "long_term_plan/uplink.csv": "fc47f63df68474f50979683ec25a662296300862ddf0d3d0d7261ce81a83e0fb",
    "long_term_plan/verdict.txt": "ef8d72e3311e81310dd0869084d8ea2cec37f74371d727250a90d21fce51b92c",
    "no_damage/energy.csv": "f90888802fce040733721d32d48a5505b89c7ede174a671da5dd2d1848b46c9b",
    "no_damage/spectrum.csv": "ddda9638bb6ea65ec24fe5a9a6d660dbd9ca229da83941f6964067c8f4a2c994",
    "no_damage/summary.csv": "fde78e5db76b9557a58c3ab9ecc8da49baf915f64d4a0742310de89b346b2de1",
    "no_damage/uplink.csv": "22552431a2edda3e5f11626b3ca1cbca9d767c44aa69da4cfd0b61f6a4bd1772",
    "no_damage/verdict.txt": "daaa88235d57973fd8d1e469d374d99ddab58622c34d9319f8a1116cc8cd7693",
}


def test_shipped_scenarios_write_their_pinned_bundles(tmp_path):
    for ini in sorted((ROOT / "scripts" / "scenarios").glob("*.ini")):
        run_scenario(replace(load_scenario(ini), outputs=str(tmp_path / ini.stem)))
    written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert written == BUNDLE_SHA256
