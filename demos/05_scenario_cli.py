"""Scenario files and the command-line front end.

Everything the library does can be driven from a small text file: `verify`
runs the invariant suite, `sample` a Monte Carlo experiment, `evolve` the
apparatus-coupling consistency check. Machine-readable JSON records land
next to the human tables when --out is given.
"""

import json
import pathlib
import tempfile

from esrsim import build_scenario, parse_scenario, serialize_scenario
from esrsim.cli import main

SCENARIO = """\
esrsim scenario v1
# qubit measured along z, 80% detection, no-registration outcome 0
dimension: 2
state: 0.7071067811865476,0 0.7071067811865476,0
a0: 0
observable:
  row: 1,0 0,0
  row: 0,0 -1,0
detection:
  kind: constant
  p: 0.8
experiment:
  mode: sample
  trials: 50000
  seed: 42
  event: 1
  event: a0 1
"""

# the parsed form round-trips through a canonical serialization
scenario = parse_scenario(SCENARIO)
assert parse_scenario(serialize_scenario(scenario)) == scenario
built = build_scenario(scenario)
print("scenario digest:", built.digest[:16], "...")
print("outcome set:", list(built.gobs.outcomes))

# the scenario and record files live in a directory removed on exit
with tempfile.TemporaryDirectory(prefix="esrsim-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    scenario_path = workdir / "qubit.esr"
    scenario_path.write_text(SCENARIO)

    print("\n--- esrsim verify ---")
    main(["verify", str(scenario_path)])

    print("\n--- esrsim sample (records to JSON) ---")
    records = workdir / "records.jsonl"
    main(["sample", str(scenario_path), "--out", str(records)])

    print("\n--- esrsim evolve ---")
    main(["evolve", str(scenario_path)])

    record = json.loads(records.read_text().splitlines()[0])

print("\nmachine record fields:")
print(" ", sorted(record))
print("  rng:", record["report"]["rng"])
