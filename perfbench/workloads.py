"""The benchmark's workloads: inputs made from a seed, the CLI commands one
iteration runs, and the checks on what those commands write.

``prepare`` runs in the run.py process and writes the inputs; ``check``
runs in the measuring process after each iteration, outside the timed
region.  Both see the program only through its public entry points.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("train-mlp", "train-logistic", "quadrature-ladders")

# Full sizes keep one iteration at a few seconds on a 2-core machine; smoke
# sizes run every command and check in well under a second.
SIZES = {
    "train-mlp": {
        "full": dict(n_train=10_000, n_val=2_000, max_cases=200, epochs=3, hidden=32),
        "smoke": dict(n_train=120, n_val=40, max_cases=40, epochs=3, hidden=4),
    },
    "train-logistic": {
        "full": dict(d=256, k=16, n=1000, nval=1000, epochs=10),
        "smoke": dict(d=32, k=4, n=64, nval=32, epochs=3),
    },
    "quadrature-ladders": {
        "full": dict(bench_d=64, trials=40, bench_max_evals=256,
                     count_d=512, count_max_evals=1024, count_trials=2),
        "smoke": dict(bench_d=16, trials=3, bench_max_evals=32,
                      count_d=32, count_max_evals=64, count_trials=2),
    },
}

N_PAIRS_PER_CASE = 2
EXACT_TOL = 1e-12


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return str(path)


def synth_image_corpus(root: Path, n_train: int, n_val: int, seed: int) -> None:
    """Ten noisy binary templates on a 28x28 grid, written as IDX files.

    The recipe of the acceptance gate's criterion-9 corpus, with the seed
    and the sizes as arguments.
    """
    from mfquad.models import write_idx

    rng = np.random.Generator(np.random.Philox(seed))
    templates = (rng.random((10, 28, 28)) < 0.35) * 0.8
    root.mkdir(parents=True, exist_ok=True)

    def make(n):
        labels = rng.integers(0, 10, size=n)
        images = templates[labels] + rng.normal(0.0, 0.15, size=(n, 28, 28))
        return np.clip(images, 0.0, 1.0), labels

    train_images, train_labels = make(n_train)
    val_images, val_labels = make(n_val)
    write_idx(root / "train-images-idx3-ubyte", train_images)
    write_idx(root / "train-labels-idx1-ubyte", train_labels)
    write_idx(root / "t10k-images-idx3-ubyte", val_images)
    write_idx(root / "t10k-labels-idx1-ubyte", val_labels)


def prepare(name: str, seed: int, work: Path, smoke: bool) -> dict:
    """Writes the inputs of one run under ``work`` and returns its plan.

    A plan lists the commands of one iteration, each with the span of its
    units of work (epochs, trials or counts; the first one ends set-up), and
    the parameters the checks need.
    """
    size = SIZES[name]["smoke" if smoke else "full"]
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    if name.startswith("train-"):
        if name == "train-mlp":
            data_dir = work / "idx"
            synth_image_corpus(data_dir, size["n_train"], size["n_val"], seed)
            data = f"mnist:{data_dir}"
            config = {"frac_zero_target": 0.95, "hidden_units": size["hidden"],
                      "max_cases": size["max_cases"], "seed": 11}
            cases = min(size["max_cases"], size["n_train"])
        else:
            data = (f"synth:d={size['d']},k={size['k']},n={size['n']},"
                    f"nval={size['nval']},noise=1.0,seed={seed}")
            config = {"frac_zero_target": 0.90, "seed": 7}
            cases = size["n"]
        config.update(n_epochs=size["epochs"], frac_held_target=0.01,
                      n_pairs_per_case=N_PAIRS_PER_CASE)
        cfg = _write_json(work / "config.json", config)
        return {
            "workload": name,
            "commands": [{
                "role": "train",
                "argv": ["train", "--config", cfg, "--data", data, "--out", str(out)],
                "unit_span": "trainer.run_epoch",
                "outputs": [str(out / f) for f in
                            ("epochs.csv", "sieve_histogram.csv", "checkpoint.json")],
            }],
            "n_epochs": size["epochs"],
            "frac_zero_target": config["frac_zero_target"],
            "cases": cases * size["epochs"],
            "evaluations": 2 * N_PAIRS_PER_CASE * cases * size["epochs"],
        }

    rng = np.random.Generator(np.random.Philox(seed))
    d = size["bench_d"]
    a = 2 * int(rng.integers(d // 2))  # a and a + 1 differ in bit 0: exact at every budget
    c = int(rng.integers(d))
    x, y = (int(v) for v in rng.choice(d, size=2, replace=False))
    bench_seed, count_seed = (int(v) for v in rng.integers(2**31, size=2))
    bench = [
        ("cross-polytope", f"phi1:{a}*phi1:{a + 1}", True),
        ("cross-polytope", f"phi3:{c}", True),
        ("blocked-simplex", f"phi1:{x}*phi1:{y}", False),
        ("mc", f"phi1:{x}*phi1:{y}", False),
    ]
    commands = []
    for i, (method, basis, exact) in enumerate(bench):
        path = str(out / f"bench-{i}-{method}.csv")
        commands.append({
            "role": "bench", "method": method, "exact": exact, "trials": size["trials"],
            "argv": ["integrate-bench", "--dist", "gauss", "--method", method,
                     "--d", str(d), "--basis", basis, "--trials", str(size["trials"]),
                     "--max-evals", str(size["bench_max_evals"]),
                     "--seed", str(bench_seed), "--out", path],
            "unit_span": "quadrature.trial_rng",
            "outputs": [path],
        })
    # the cross-polytope count is deterministic, so one trial is all it has
    for method, trials in (("cross-polytope", 1), ("blocked-simplex", size["count_trials"])):
        path = str(out / f"count-{method}.csv")
        commands.append({
            "role": "count", "method": method, "d": size["count_d"], "trials": trials,
            "argv": ["exactness-count", "--method", method, "--d", str(size["count_d"]),
                     "--max-evals", str(size["count_max_evals"]), "--trials", str(trials),
                     "--seed", str(count_seed), "--out", path],
            "unit_span": "quadrature.count_exact_pairs",
            "outputs": [path],
        })
    out.mkdir(parents=True, exist_ok=True)
    return {"workload": name, "commands": commands}


def _rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check(plan: dict, exit_codes: list) -> dict:
    """Checks one iteration's outputs.

    Returns ``failures`` (one message per failing command; a command fails
    when it exits non-zero or any check on its outputs fails), the
    ``quality`` figures, the work ``units`` done, the sha256 ``digests`` and
    total size of every artifact.
    """
    failures: dict[int, list[str]] = {}
    digests, output_bytes = {}, 0
    for i, (cmd, code) in enumerate(zip(plan["commands"], exit_codes)):
        if code != 0:
            failures.setdefault(i, []).append(f"{cmd['argv'][0]} exited {code}")
            continue
        for path in cmd["outputs"]:
            p = Path(path)
            if not p.is_file():
                failures.setdefault(i, []).append(f"missing artifact {p.name}")
                continue
            digests[p.name] = _sha256(p)
            output_bytes += p.stat().st_size
    quality, units = {}, {}
    ok = [i for i, code in enumerate(exit_codes) if code == 0 and i not in failures]
    if plan["workload"].startswith("train-"):
        _check_train(plan, ok, failures, quality, units)
    else:
        _check_ladders(plan, ok, failures, quality, units)
    return {
        "failures": {str(i): msgs for i, msgs in sorted(failures.items())},
        "quality": quality,
        "units": units,
        "digests": digests,
        "output_bytes": output_bytes,
    }


def _check_train(plan, ok, failures, quality, units) -> None:
    from mfquad.trainer import load_checkpoint

    units["cases"] = plan["cases"]
    if 0 not in ok:
        return
    msgs = []
    epochs_csv, _, checkpoint = plan["commands"][0]["outputs"]
    rows = _rows(epochs_csv)
    if len(rows) != plan["n_epochs"]:
        msgs.append(f"epochs.csv has {len(rows)} rows, expected {plan['n_epochs']}")
    else:
        quality["val_accuracy"] = float(rows[-1][4])
    state, _ = load_checkpoint(checkpoint)
    zero_frac = float(np.mean(np.asarray(state.mu) == 0.0))
    quality["exact_zero_frac"] = zero_frac
    if not zero_frac >= plan["frac_zero_target"]:
        msgs.append(f"exact_zero_frac {zero_frac:.4f} below frac_zero_target "
                    f"{plan['frac_zero_target']}")
    if msgs:
        failures[0] = msgs


def _check_ladders(plan, ok, failures, quality, units) -> None:
    cells = trials = 0
    exact_cells = exact_ok = 0
    pair_shares = []
    for i, cmd in enumerate(plan["commands"]):
        trials += cmd["trials"]
        if i not in ok:
            continue
        rows = _rows(cmd["outputs"][0])
        msgs = []
        if not rows:
            msgs.append("empty ladder")
        if cmd["role"] == "bench":
            cells += len(rows) * cmd["trials"]
            if cmd["exact"]:
                for row in rows:
                    exact_cells += 1
                    worst = max(abs(float(v)) for v in row[1:])
                    if worst < EXACT_TOL:
                        exact_ok += 1
                    else:
                        msgs.append(f"{cmd['method']} error {worst:.3g} at n_evals="
                                    f"{row[0]} on an exact basis")
        elif rows:
            d = cmd["d"]
            all_pairs = d * (d - 1) // 2
            by_n = {int(r[1]): float(r[2]) for r in rows}
            pair_shares.append(by_n[max(by_n)] / all_pairs)
            if cmd["method"] == "cross-polytope":
                full = 2 * (1 << (d - 1).bit_length())
                if by_n.get(full) != all_pairs:
                    msgs.append(f"cross-polytope exact pairs at {full} evals = "
                                f"{by_n.get(full)}, expected {all_pairs}")
        if msgs:
            failures[i] = msgs
    units["cells"] = cells
    units["trials"] = trials
    if exact_cells:
        quality["val_accuracy"] = exact_ok / exact_cells
    if pair_shares:
        quality["exact_zero_frac"] = math.fsum(pair_shares) / len(pair_shares)
