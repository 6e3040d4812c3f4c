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
    "damage_1/spectrum.npy": "38bcbddd1572e302dcdb57c3233cefe43a2637e0b9afd16a58b20d6aff27e1fd",
    "damage_1/summary.csv": "7360af8d2d45197a6ff935fe212aebfa6b5cfc5481c18bbe54844b50438d524b",
    "damage_1/uplink.csv": "22552431a2edda3e5f11626b3ca1cbca9d767c44aa69da4cfd0b61f6a4bd1772",
    "damage_1/verdict.txt": "05ed574abe7e3a3d1370634bb731c329214d340b8d106f6f834c74517558c6d1",
    "damage_2/energy.csv": "77920c95de0da5a40f8830f3141b98f3a665a5082468a89125db8d0db3040543",
    "damage_2/spectrum.npy": "19338d10db9c3764d032673bef633b11d56028a04c7f2926b69ba6264214e279",
    "damage_2/summary.csv": "6c8608a6c4f47b37847d0deee2ab79c0bdc27bfae5d663cc95f5f8ebeb08b80f",
    "damage_2/uplink.csv": "22552431a2edda3e5f11626b3ca1cbca9d767c44aa69da4cfd0b61f6a4bd1772",
    "damage_2/verdict.txt": "2f6afc082076b9c587bef5e83901761f8f00629ae07bc901a36a12d09ed6065b",
    "event_trigger/energy.csv": "38d05d4b89109fddec07fae7afa4f5cc1d33daca6e2296b2bdde159c9263dbce",
    "event_trigger/spectrum.npy": "7d5cdfa8b30de9a6e8d065b55cadad3173c1e2a60fa4972adf129f1f45519f1b",
    "event_trigger/summary.csv": "ec1d2193fbd4fac347e8220473d1fa1d0e8430c4d821a03fa67280076859cee7",
    "event_trigger/uplink.csv": "2c41f30db57433e22cd5692395e22e66c5bff8a748061d3c86bf69a1dfe27aa8",
    "event_trigger/verdict.txt": "61b72665f3c09f6c9539e5e0b96236378c11b7899690ed10faaa5dae207f7a65",
    "long_term_plan/energy.csv": "d327ce08bb89567127bb4cebb4a3f9fcd8b0d3cbc0a3e5974207464e6a72f60a",
    "long_term_plan/spectrum.npy": "47905d0bbd4c741c44c1236a3ac7cb17380c236d5d5cbd46a57516dbfa931b63",
    "long_term_plan/summary.csv": "10389987fdb467dab3dc6f7b178c448065affdb1482d9f0be24778d0bcde3d98",
    "long_term_plan/uplink.csv": "fc47f63df68474f50979683ec25a662296300862ddf0d3d0d7261ce81a83e0fb",
    "long_term_plan/verdict.txt": "ef8d72e3311e81310dd0869084d8ea2cec37f74371d727250a90d21fce51b92c",
    "no_damage/energy.csv": "f90888802fce040733721d32d48a5505b89c7ede174a671da5dd2d1848b46c9b",
    "no_damage/spectrum.npy": "2259f36d98c207328c0d433f23a1f93defc9acbfb00543e07f545366c00758a0",
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
