"""Seeded inputs for the benchmark workloads.

Everything here depends only on the standard library and numpy, never on
``specbox`` or on ``tests/``: an edit to the program or to its test suite
cannot move the inputs.  The model distribution follows the one the test
suite draws from (complex Hermitian systems of dimension 1-8, reservoirs of
1-3 pieces with quadratic densities, an atom on about 30% of reservoirs),
but it is stratified: every pass of a given size holds the same number of
models of each dimension, of each piece count, and with atoms, so that the
cost of a pass moves little from one seed to the next.
"""

from __future__ import annotations

import json
import os

import numpy as np

#: The README's sample configuration, in the repository root (the working
#: directory); every model pool starts with its model.
SAMPLE_CONFIG_FILE = "sample-config.json"

#: The README's CLI commands, in README order, with the README's flags.  They
#: run in a directory that holds a copy of SAMPLE_CONFIG_FILE.
README_COMMANDS = {
    "validate": ["validate", "--config", SAMPLE_CONFIG_FILE],
    "greens": ["greens", "--config", SAMPLE_CONFIG_FILE, "--grid", "-3:3:61"],
    "classify": ["classify", "--config", SAMPLE_CONFIG_FILE, "--grid", "-3:3:121",
                 "--format", "csv"],
    "density": ["density", "--config", SAMPLE_CONFIG_FILE, "--grid", "1.1:1.9:17"],
    "average": ["average", "--config", SAMPLE_CONFIG_FILE, "--grid", "1.2:1.8:7"],
    "certify": ["certify", "--config", SAMPLE_CONFIG_FILE, "--grid", "1.05:1.95:50",
                "--strict"],
    "remark2": ["scenario", "remark2", "--lambda", "1", "--nu", "1", "--nodes", "200"],
}


def _sample_text():
    with open(SAMPLE_CONFIG_FILE, encoding="utf-8") as fh:
        return fh.read()


def sample_config():
    """The sample configuration document."""
    return json.loads(_sample_text())


def copy_sample_config(directory):
    """Copy the sample configuration, byte for byte, into ``directory``."""
    path = os.path.join(directory, SAMPLE_CONFIG_FILE)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_sample_text())
    return path


GRID_SCAN_COMMANDS = ("classify", "density", "certify", "greens")
GRID_SIZES = (17, 33, 49, 65, 81, 97, 113, 129)
SAMPLE_GRID_SIZE = 65


def _stratified(rng, values, count):
    """``count`` entries cycling through ``values``, in seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _cvec(v):
    return [[float(x.real), float(x.imag)] for x in v]


def _reservoir(rng, n_pieces, with_atom):
    """Quadratic densities alpha (x - x0)^2 + beta > 0 on disjoint pieces."""
    while True:
        edges = np.sort(rng.uniform(-4.0, 4.0, size=2 * n_pieces))
        pieces = []
        for a, b in zip(edges[::2], edges[1::2]):
            if b - a < 0.1:
                b = a + 0.1
            alpha = float(rng.uniform(0.0, 0.5))
            beta = float(rng.uniform(0.05, 1.0))
            x0 = float(rng.uniform(a, b))
            coef = [alpha * x0 * x0 + beta, -2 * alpha * x0, alpha]
            pieces.append({"interval": [float(a), float(b)], "poly": coef})
        if all(p["interval"][1] <= q["interval"][0] for p, q in zip(pieces, pieces[1:])):
            break
    atoms = []
    if with_atom:
        atoms.append([float(rng.uniform(4.2, 5.0)), float(rng.uniform(0.2, 1.0))])
    return {"atoms": atoms, "pieces": pieces}


def random_model(rng, dim, pieces_l, pieces_r, atom_l, atom_r):
    """One model section of a config document."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (raw + raw.conj().T) / 2
    while True:
        dl = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        dr = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if np.linalg.norm(dl) > 0.1 and np.linalg.norm(dr) > 0.1:
            break
    return {
        "system": {
            "matrix": [_cvec(row) for row in h],
            "delta_l": _cvec(dl),
            "delta_r": _cvec(dr),
        },
        "reservoir_left": _reservoir(rng, pieces_l, atom_l),
        "reservoir_right": _reservoir(rng, pieces_r, atom_r),
    }


def model_pool(rng, count):
    """``count`` model sections: the sample model first, then stratified draws."""
    drawn = count - 1
    dims = _stratified(rng, list(range(1, 9)), drawn)
    pieces = _stratified(rng, [1, 2, 3], 2 * drawn)
    n_atoms = round(0.3 * 2 * drawn)
    atoms = _stratified(rng, [True] * n_atoms + [False] * (2 * drawn - n_atoms), 2 * drawn)
    pool = [sample_config()["model"]]
    for i in range(drawn):
        pool.append(random_model(rng, dims[i], pieces[2 * i], pieces[2 * i + 1],
                                 atoms[2 * i], atoms[2 * i + 1]))
    return pool


def _coupling_value(rng):
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))


def special_energies(model):
    """Band edges, atom positions and the eigenvalues of h_s: the energies a
    grid must hit exactly."""
    points = []
    for side in ("reservoir_left", "reservoir_right"):
        res = model[side]
        for p in res["pieces"]:
            points.extend(p["interval"])
        points.extend(x for x, _ in res["atoms"])
    h = np.array([[complex(*c) for c in row] for row in model["system"]["matrix"]])
    points.extend(float(x) for x in np.linalg.eigvalsh(h))
    return sorted(set(points))


def scan_grid(rng, model, size):
    """``size`` energies (more if the special points need it) that include
    every special energy exactly; the rest are uniform over their span."""
    special = special_energies(model)
    lo, hi = min(special) - 0.5, max(special) + 0.5
    fill = max(size - len(special), 4)
    grid = sorted(set(special) | {float(x) for x in rng.uniform(lo, hi, fill)})
    return grid


def grid_scan_inputs(rng, n_per_command):
    """Requests for ``grid_scan``: one config document and one argv each.

    Each command gets its own stratified model pool (model 0 is the sample
    config's model and coupling, on a grid of SAMPLE_GRID_SIZE) and cycles through every grid size,
    so the commands' shares of a pass stay the same from seed to seed; with
    ``n_per_command - 1`` a multiple of 24 every stratum is filled evenly.
    """
    requests = []
    for command in GRID_SCAN_COMMANDS:
        pool = model_pool(rng, n_per_command)
        sizes = [SAMPLE_GRID_SIZE] + _stratified(rng, list(GRID_SIZES), n_per_command - 1)
        for k, (model, size) in enumerate(zip(pool, sizes)):
            coupling = {"lambda": _coupling_value(rng), "nu": _coupling_value(rng)}
            doc = {
                "model": model,
                "coupling": sample_config()["coupling"] if k == 0 else coupling,
                "grid": {"list": scan_grid(rng, model, size)},
                "greens": {"im_z": float(rng.uniform(0.05, 0.5))},
                "seed": int(rng.integers(0, 2**31)),
            }
            fmt = str(rng.choice(["json", "csv"]))
            strict = command != "greens" and bool(rng.uniform() < 1 / 3)
            argv = [command, "--format", fmt] + (["--strict"] if strict else [])
            requests.append({"command": command, "doc": doc, "argv": argv,
                             "format": fmt, "strict": strict})
    rng.shuffle(requests)
    return requests


def _stratified_uniform(rng, lo, hi, count):
    """``count`` draws from [lo, hi), one in each of ``count`` equal strata,
    in seeded order."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    rng.shuffle(u)
    return [float(lo + (hi - lo) * x) for x in u]


def avg_verify_inputs(rng, n_scans, n_duels, n_oracles, n_models):
    """Requests for ``avg_verify``: averaged-ladder scans, quadrature duels
    and oracle solves over a shared model pool, in seeded order.  Scan sizes
    cycle through 8-15 energies, duel energies and log-epsilons are
    stratified, scans take one model of each system dimension, and duels and
    oracle solves cycle through the model pool."""
    pool = model_pool(rng, n_models)
    requests = []
    # one scan per system dimension, on a random drawn model of that dimension
    by_dim = {}
    for k, model in enumerate(pool[1:], start=1):
        by_dim.setdefault(len(model["system"]["matrix"]), []).append(k)
    models = [int(rng.choice(by_dim[1 + k % 8])) for k in range(n_scans)]
    sizes = _stratified(rng, list(range(8, 16)), n_scans)
    for k in range(n_scans):
        grid = sorted(float(x) for x in rng.uniform(-4.5, 4.5, sizes[k]))
        requests.append({"kind": "scan", "model": models[k], "nu": _coupling_value(rng),
                         "grid": grid})
    models = _stratified(rng, list(range(n_models)), n_duels)
    tags = _stratified(rng, ["chi_l", "delta_l", "chi_r", "delta_r"], n_duels)
    energies = _stratified_uniform(rng, -3.0, 3.0, n_duels)
    log_eps = _stratified_uniform(rng, -3.0, -1.0, n_duels)
    for k in range(n_duels):
        requests.append({"kind": "duel", "model": models[k], "nu": _coupling_value(rng),
                         "phi": tags[k], "E": energies[k], "eps": 10 ** log_eps[k]})
    models = _stratified(rng, list(range(n_models)), n_oracles)
    re_z = _stratified_uniform(rng, -3.0, 3.0, n_oracles)
    im_z = _stratified_uniform(rng, 0.05, 2.0, n_oracles)
    for k in range(n_oracles):
        requests.append({"kind": "oracle", "model": models[k], "lam": _coupling_value(rng),
                         "nu": _coupling_value(rng), "z": complex(re_z[k], im_z[k])})
    rng.shuffle(requests)
    return pool, requests


def write_configs(directory, docs):
    """Write each document as ``cfg<i>.json``; returns the paths."""
    paths = []
    for i, doc in enumerate(docs):
        path = os.path.join(directory, f"cfg{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths.append(path)
    return paths
