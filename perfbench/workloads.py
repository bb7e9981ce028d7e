"""Seeded workloads of the ccslab benchmark.

A workload builds its inputs from the seed once (its set-up), then serves ops
in a closed loop with one client: ``op(i)`` runs the i-th op of a fixed,
seeded sequence and returns an ``Outcome`` whose ``ok`` says whether the
output passed the workload's check.  Expected verdicts and bounds live in each
workload's ``expect`` dict, so ``selftest.py`` can corrupt them and show that
the checks fail.

Every call into the library goes through a module attribute
(``cli.main``, ``core.correlation``) so that the tracer's outside-in patches
of those attributes are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass

import numpy as np

from ccslab import cli, core, families, goldentable, propositions, sampling, twoqubit

# the package attribute ``ccslab.classify`` is the function, not the module
classify_mod = sys.modules["ccslab.classify"]

@dataclass
class Outcome:
    ok: bool
    units: int = 1  # ops this request counts for (props: instances)
    digest: object = None  # rounded output that goes into the fingerprint
    nbytes: int = 0  # JSON document bytes read and written (certify)


def _rounded(x, places: int):
    """Round floats (and nested lists of them) so fingerprints ignore roundoff; -0.0 becomes 0.0."""
    if isinstance(x, float):
        return round(x, places) + 0.0
    if isinstance(x, (list, tuple)):
        return [_rounded(v, places) for v in x]
    if isinstance(x, dict):
        return {k: _rounded(v, places) for k, v in sorted(x.items())}
    return x


def fingerprint(digests) -> str:
    text = json.dumps(digests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# certify: `ccslab classify` requests whose triviality certificate is sampled
# ---------------------------------------------------------------------------

N_STATES = 1000  # the CLI's default --samples
# One cycle of ten requests: 7 at d=4 (5 sector-refined, the golden worst case
# at theta=0 and pi), 3 at d=8.  The d=4 class fills the bottom 70% of
# latencies, so p50 sits 20 points inside it and p85 sits mid-way through the
# d=8 class (70-100%).
CERTIFY_CYCLE = ("d4", "d8", "d4", "golden0", "d4", "d8", "d4", "goldenpi", "d4", "d8")
CERTIFY_CYCLES = 4  # distinct sector-refined inputs per run: 4 cycles' worth
GOLDEN_THETAS = {"golden0": 0.0, "goldenpi": math.pi}


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _sector_groups(da: np.ndarray, db: np.ndarray, k: int, rng: np.random.Generator):
    """k groups of basis indices, each inside one joint sector of (da, db), or
    None when the sectors cannot be split that way.

    Starts from one group per nonempty sector and splits random groups of
    size >= 2 until there are k.  Rejects results that are atomic (every group
    a single index) or that split no sector (the sector partition itself).
    """
    groups = [
        rng.permutation(idx)
        for idx in (np.flatnonzero((da == i) & (db == j)) for i in (0, 1) for j in (0, 1))
        if idx.size
    ]
    n_sectors = len(groups)
    while len(groups) < k:
        splittable = [g for g in range(len(groups)) if groups[g].size > 1]
        if not splittable:
            return None
        g = groups.pop(splittable[int(rng.integers(len(splittable)))])
        cut = int(rng.integers(1, g.size))
        groups.extend((g[:cut], g[cut:]))
    if len(groups) != k or len(groups) == n_sectors or all(g.size == 1 for g in groups):
        return None
    return groups


def sector_refined_triple(d: int, rng: np.random.Generator):
    """(rho, partition elements, (A, B)) with A, B diagonal in a Haar basis and
    each of the d/2 + 1 elements a union of basis vectors inside one joint
    sector of the pair.

    Such a partition commutes with the pair, screens it off in every state
    and is deterministic, so the weak-triviality loop runs all
    2 * n_states + 1 probe states.  It is neither atomic nor the pair's
    complement form.  The element count is fixed per dimension because the
    cost of a request grows with it; the patterns, the grouping, the basis and
    the state vary with the seed.
    """
    while True:
        da = rng.integers(0, 2, size=d)
        db = rng.integers(0, 2, size=d)
        if not (0 < da.sum() < d and 0 < db.sum() < d):
            continue
        groups = _sector_groups(da, db, d // 2 + 1, rng)
        if groups is not None:
            break
    u = _haar_unitary(d, rng)

    def proj(cols):
        block = u[:, cols]
        return block @ block.conj().T

    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return rho, [proj(c) for c in groups], (proj(np.flatnonzero(da)), proj(np.flatnonzero(db)))


def _matrix_doc(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _doc(kind: str, payload: dict) -> str:
    return json.dumps({"version": "1", "kind": kind, "payload": payload})


def _write_triple(directory: str, rho, elements, pair) -> tuple:
    d = rho.shape[0]
    texts = {
        "state.json": _doc("state", {"dim": d, "rho": _matrix_doc(rho)}),
        "partition.json": _doc(
            "partition", {"dim": d, "elements": [_matrix_doc(e) for e in elements]}
        ),
        "pair.json": _doc("event_pair", {"dim": d, "a": _matrix_doc(pair[0]), "b": _matrix_doc(pair[1])}),
    }
    os.makedirs(directory)
    paths = []
    for name, text in texts.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return tuple(paths), sum(len(t) for t in texts.values())


def _verdict(payload: dict) -> list:
    keys = ("is_ccs", "rank_profile", "atomic", "commutation", "product", "triviality", "ltp",
            "deterministic", "correlation_class", "zero_probability_elements")
    return [payload[k] for k in keys]


class Certify:
    """Each request runs the `ccslab classify` path in-process: read and parse
    the state, partition and pair documents, classify, emit the report."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.expect = {
            "is_ccs": True,
            "commutation": "commuting",
            "deterministic": "yes",
            "ltp": True,
            "triviality": "weak",
            "certificate_kind": "sampled",
            "certificate_n": 2 * N_STATES + 1,
            "golden_row": families.expected_table_row,
        }
        rng = np.random.default_rng([seed, 1])
        golden = {}
        for kind, theta in GOLDEN_THETAS.items():
            params = families.FamilyParams(theta=theta)
            partition = families.generate(families.Family.CCS22ntratU, params).partition
            state = goldentable.reference_state(families.Family.CCS22ntratU, params)
            pair = twoqubit.canonical_events()
            golden[kind] = _write_triple(
                os.path.join(workdir, kind),
                state.rho,
                [c.op for c in partition],
                (pair.a.op, pair.b.op),
            )
        self.requests = []
        for i in range(CERTIFY_CYCLES * len(CERTIFY_CYCLE)):
            kind = CERTIFY_CYCLE[i % len(CERTIFY_CYCLE)]
            if kind in golden:
                files, nbytes = golden[kind]
            else:
                d = 4 if kind == "d4" else 8
                triple = sector_refined_triple(d, rng)
                files, nbytes = _write_triple(os.path.join(workdir, f"r{i}"), *triple)
            self.requests.append((kind, files, nbytes))
        self.argv_tail = ["--seed", str(seed), "--samples", str(N_STATES)]

    def op(self, i: int) -> Outcome:
        kind, files, nbytes = self.requests[i % len(self.requests)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["classify", *files, *self.argv_tail])
        text = out.getvalue()
        if code != 0:
            return Outcome(False, nbytes=nbytes + len(text))
        payload = json.loads(text)["payload"]
        return Outcome(self._check(kind, payload), digest=self._digest(payload),
                       nbytes=nbytes + len(text))

    def _check(self, kind: str, payload: dict) -> bool:
        e = self.expect
        cert = payload["certificate"] or {}
        if kind in GOLDEN_THETAS:
            row = e["golden_row"](
                families.Family.CCS22ntratU, families.FamilyParams(theta=GOLDEN_THETAS[kind])
            )
            expected = {
                "is_ccs": row.is_ccs,
                "atomic": row.atomic,
                "commutation": row.commuting.value,
                "triviality": None if row.triviality is None else row.triviality.value,
                "ltp": row.ltp,
                "deterministic": None if row.deterministic is None else ("yes" if row.deterministic else "no"),
            }
            return all(v is None or payload[k] == v for k, v in expected.items())
        return (
            payload["is_ccs"] is e["is_ccs"]
            and payload["commutation"] == e["commutation"]
            and payload["deterministic"] == e["deterministic"]
            and payload["ltp"] is e["ltp"]
            and payload["triviality"] == e["triviality"]
            and cert.get("kind") == e["certificate_kind"]
            and cert.get("n") == e["certificate_n"]
            and cert.get("seed") == self.seed
        )

    @staticmethod
    def _digest(payload: dict):
        cert = payload["certificate"]
        return {
            "verdict": _verdict(payload),
            "certificate": None if cert is None else [cert["kind"], cert["seed"], cert["n"]],
            "counterexamples": _rounded(payload["counterexamples"], 9),
        }

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# table: the golden table, one op per grid point
# ---------------------------------------------------------------------------

def _cell(expected, actual):
    if expected is None:
        return ("SKIPPED", None)
    return ("PASS" if expected == actual else "FAIL", actual)


def table_cells(expected, report) -> list:
    """(column, status, actual) per column, the comparison rule of the golden table."""
    CS = classify_mod.ProductStatus
    DT = classify_mod.Determinism
    product = {CS.ALL_PRODUCT: True, CS.SOME_NONPRODUCT: False, CS.NOT_APPLICABLE: None}[report.product]
    det = {DT.DETERMINISTIC: True, DT.INDETERMINISTIC: False, DT.NOT_A_CCS: None}[report.deterministic]
    pairs = (
        ("is_ccs", expected.is_ccs, report.is_ccs),
        ("atomic", expected.atomic, report.atomic),
        ("commuting", expected.commuting, report.commutation),
        ("product", expected.all_product, product),
        ("triviality", expected.triviality, report.triviality if expected.triviality is not None else None),
        ("ltp", expected.ltp, report.ltp),
        ("deterministic", expected.deterministic, det),
    )
    return [(col, *_cell(exp, act)) for col, exp, act in pairs]


def _cell_key(status, actual):
    return (status, getattr(actual, "value", actual))


class Table:
    def __init__(self, seed: int, workdir: str):
        self.cfg = sampling.SamplerConfig(seed=seed)
        self.pair = twoqubit.canonical_events()
        self.points = [
            (family, params)
            for family in families.Family
            for params in goldentable.golden_parameter_sets(family)
        ]
        self.expect = {"row": families.expected_table_row}
        self.first_pass = {}

    def op(self, i: int) -> Outcome:
        j = i % len(self.points)
        family, params = self.points[j]
        instance = families.generate(family, params)
        state = goldentable.reference_state(family, params)
        report = classify_mod.classify(
            instance.partition, self.pair, state, self.cfg, core.DEFAULT_TOL, bipartite=(2, 2)
        )
        cells = table_cells(self.expect["row"](family, params), report)
        if i < len(self.points):
            self.first_pass[j] = [_cell_key(s, a) for _, s, a in cells]
        cert = report.certificate
        digest = {
            "cells": [[c, s, str(getattr(a, "value", a))] for c, s, a in cells],
            "certificate": None if cert is None else [cert.kind.value, cert.seed, cert.n],
        }
        return Outcome(all(s != "FAIL" for _, s, _ in cells), digest=digest)

    def final_failures(self) -> list:
        """Grid points of the first pass whose cells differ from run_golden_table()."""
        outcomes = goldentable.run_golden_table(self.cfg)
        bad = []
        for j, cells in self.first_pass.items():
            reference = [_cell_key(o.status.value, o.actual) for o in outcomes[7 * j: 7 * j + 7]]
            if cells != reference:
                bad.append(j)
        return bad

    def close(self):
        pass


# ---------------------------------------------------------------------------
# props: verify_propositions, 7 claims x N_PER_CLAIM instances per request
# ---------------------------------------------------------------------------

N_PER_CLAIM = 20  # a multiple of 5, so each request covers dims (4, 4, 4, 6, 8) evenly


class Props:
    def __init__(self, seed: int, workdir: str):
        self.configs = [
            sampling.SamplerConfig(seed=seed * 100_000 + i, n_states=N_PER_CLAIM) for i in range(256)
        ]
        self.expect = {"passed": True, "instances": N_PER_CLAIM}

    def op(self, i: int) -> Outcome:
        reports = propositions.verify_propositions(self.configs[i % len(self.configs)])
        instances = sum(r.instances for r in reports.values())
        ok = len(reports) == len(propositions.PROPOSITION_NAMES) and all(
            r.passed is self.expect["passed"] and r.instances == self.expect["instances"]
            for r in reports.values()
        )
        digest = {n: [r.instances, r.hypothesis_failures, r.violations] for n, r in reports.items()}
        return Outcome(ok, units=instances, digest=digest)

    def close(self):
        pass


# ---------------------------------------------------------------------------
# sweep: the criterion-6 draw mix, one scalar correlation per draw
# ---------------------------------------------------------------------------

SWEEP_STREAM = 600  # criterion 6's stream tag


class Sweep:
    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.canonical = twoqubit.canonical_events()
        self.expect = {"bound": 0.25, "slack": 1e-9, "gap": 1e-12}

    def op(self, i: int) -> Outcome:
        rng = sampling.rng_for(self.seed, SWEEP_STREAM, i)
        state = sampling.ginibre_state(4, rng) if i % 2 else sampling.haar_pure_state(4, rng)
        style = i % 4
        if style == 0:
            pair = sampling.random_commuting_pair(4, rng)
        elif style == 1:
            pair = sampling.random_product_pair((2, 2), rng)
        else:
            pair = self.canonical
        orig, bal = core.correlation(state, pair)
        e = self.expect
        limit = e["bound"] + e["slack"]
        ok = -limit <= orig <= limit and abs(orig - bal) <= e["gap"]
        return Outcome(ok, digest=_rounded([orig, bal], 12))

    def close(self):
        pass


# ops covered by the fingerprint
FINGERPRINT_OPS = {"certify": len(CERTIFY_CYCLE), "table": 66, "props": 2, "sweep": 1000}
# ops in one batch: whole cycles of the mix, a few tenths of a second or more;
# the unit of the ops_per_s median and of the traced run
BATCH = {"certify": len(CERTIFY_CYCLE), "table": 66, "props": 5, "sweep": 4000}


def make(name: str, seed: int, workdir: str):
    cls = {"certify": Certify, "table": Table, "props": Props, "sweep": Sweep}[name]
    return cls(seed, workdir)
