"""Record perfbench/reference/<workload>.json.gz from the program in ./src.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py [workload ...]

Draws each workload's config pool from its master seed (configs.py),
runs every command on every config once and stores the configs with the
exit codes and outputs. It refuses to write a pool that breaks the
generator's contract: a mode set that validate_modes rejects, an exit
code other than a command's results (validate 0/2, compare 0/1, others
0), parallel output bytes that differ from the serial ones, or a dense
grid whose boosted survival does not cross 1e-2 (both branches of the
rest-law inversion).
"""

import gzip
import json
import os
import sys

import configs
import outputs
import run

RESULT_EXITS = {"validate": (0, 2), "compare": (0, 1)}
LOG_SWITCH = 1e-2


def record(workload, cli):
    from oscdecay import validate_modes

    pool = configs.generate(workload, workload.master_seed)
    runner = run.Runner(workload, {"configs": pool, "expected": None}, cli)
    expected = []
    for i, config in enumerate(pool):
        validate_modes(config["modes"])
        entry = {}
        for key in workload.commands:
            _, code, error = runner.run_command(i, key)
            if code not in RESULT_EXITS.get(key, (0,)):
                sys.exit("%s config %d %s: exit %r %s" % (workload.name, i, key, code, error))
            data = outputs.read_output(runner.out_path(i, key))
            problems = outputs.identities(data, config)
            if problems:
                sys.exit("%s config %d %s: %s" % (workload.name, i, key, problems))
            entry[key] = {"exit": code, "output": outputs.stored(data)}
        for key, twin in configs.PARALLEL_TWIN.items():
            if key in entry and entry[key]["output"] != entry[twin]["output"]:
                sys.exit("%s config %d: %s differs from %s" % (workload.name, i, key, twin))
        if workload.name == "dense_grid":
            values = entry["boosted"]["output"]["csv"]["columns"]["value"]
            if not min(values) < LOG_SWITCH < max(values):
                sys.exit("dense_grid config %d does not cross P = %g" % (i, LOG_SWITCH))
        expected.append(entry)
    return {"workload": workload.name, "master_seed": workload.master_seed,
            "configs": pool, "expected": expected}


def main(names):
    cli = run.import_program()
    for name in names or sorted(configs.WORKLOADS):
        data = record(configs.WORKLOADS[name], cli)
        path = os.path.join(run.HERE, "reference", name + ".json.gz")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(data, separators=(",", ":")).encode())
        exits = {}
        for entry in data["expected"]:
            for key, result in entry.items():
                exits.setdefault(key, []).append(result["exit"])
        print("%s: %d configs, %d bytes, exits %s" % (
            name, len(data["configs"]), os.path.getsize(path),
            {k: {c: v.count(c) for c in sorted(set(v))} for k, v in exits.items()}))


if __name__ == "__main__":
    main(sys.argv[1:])
