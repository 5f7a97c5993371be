"""The three benchmark workloads: inputs, tasks and output checks.

Every workload builds one *pass*: a fixed, stratified list of tasks whose
classes (profile, exponent pair, verdict, support size) do not depend on the
seed; the seed only draws the matrices, morphisms and measure spaces.  A run
repeats whole passes, so two seeds load the layers in the same proportions.

Inputs reach the library only as plain data (numpy blocks, tile tuples,
spec files).  Each task builds its own weights and operators, so no cache
of one task (such as a weight's eigensystem) can serve another.

The library is called through its modules (``compop.operator_norm``), never
through names imported into this file, so the layer trace sees every call.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import refs
from nclp import cli, compop, jordan, matcore, vnops

TWO_TWO = ("2", "2")
CW_PAIRS = [("2", "1"), ("3", "3/2"), ("4", "2"), ("inf", "2")]
REF_RTOL = 1e-8      # library value against its independent reference
SANDWICH = 1e-6      # criterion 2: estimate <= bound + 1e-6
ORACLE_RTOL = 1e-4   # criterion 3: alternating against the (2,2) oracle
BASIS_GAP = 1e-8     # criterion 5: reconstructed tiles on matrix units


class Task:
    """One task of a pass.  `label` names its class (profile, pair, ...);
    `group` is the coarser class its accuracy is reported for."""

    __slots__ = ("key", "label", "group", "data", "ref")

    def __init__(self, key, label, group, data, ref):
        self.key = key
        self.label = label
        self.group = group
        self.data = data
        self.ref = ref


class Verdict:
    """Outcome of one checked task; rel_err is None when no reference applies."""

    __slots__ = ("ok", "rel_err", "reason")

    def __init__(self, ok, rel_err=None, reason=""):
        self.ok = ok
        self.rel_err = rel_err
        self.reason = reason


def _psd_blocks(dims, rng, eps=0.15):
    """Faithful random density g g*/(2n) + eps on each block."""
    out = []
    for n in dims:
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2 * n)
        out.append(g @ g.conj().T + eps * np.eye(n))
    return out


def _weight(dims, blocks):
    return vnops.Weight(matcore.BlockMatrix(matcore.BlockProfile(dims), blocks))


def _shortfall(ref, value):
    return max(0.0, (ref - value) / ref)


def _close(value, ref):
    return abs(value - ref) <= REF_RTOL * abs(ref)


# ---------------------------------------------------------------------------
# cw_norm: change of weights, then the alternating norm maximiser.
# ---------------------------------------------------------------------------


class CwNorm:
    """change_of_weights + operator_norm(restarts=4, max_iter=100), criterion 2's recipe.

    At (2,2) the alternating method runs against the SVD oracle instead
    (criterion 3).  Profiles up to [4] are cheap; [8] is flop-bound in the
    eigensolver and every restart hits max_iter, so both a kernel swap and
    an early-stopping maximiser show here.
    """

    ALL_PAIRS = CW_PAIRS + [TWO_TWO]
    # (profile, exponent pairs, independent draws of each) in a pass.  Within
    # a class, task time varies up to fourfold with the draw, because the
    # maximiser's iteration count does; it is steady only in the cheapest
    # classes and where the maximiser hits max_iter on every restart.  So:
    # - [2] at (2,1) and (3,3/2), drawn often, are seven eighths of the
    #   pass.  Their times have a long upper tail (draws that need many
    #   iterations), and the pass median falls near the 57th percentile of
    #   these 240 tasks, below that tail;
    # - every pair runs at [2] and [2,2];
    # - [3] and [3,2] run at (inf,2), where the maximiser nearly always
    #   caps: their sixteen tasks are the slowest but two, and the tail (the
    #   11th-slowest task) falls in the middle of them;
    # - one [4] task, and one [8] task, which is flop-bound in the
    #   eigensolver, caps every restart, and takes about a third of the pass.
    PLAN = [((2,), [("2", "1"), ("3", "3/2")], 120), ((2,), [("4", "2"), ("inf", "2"), TWO_TWO], 2),
            ((2, 2), ALL_PAIRS, 2), ((3,), [("inf", "2")], 8), ((3, 2), [("inf", "2")], 8),
            ((4,), [("2", "1")], 1), ((8,), [("2", "1")], 1)]
    TINY = [((2,), ALL_PAIRS, 1), ((3,), ALL_PAIRS, 1)]

    def build(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 101])
        plan = [(dims, pair) for dims, pairs, draws in (self.TINY if tiny else self.PLAN)
                for _ in range(draws) for pair in pairs]
        tasks = []
        for key, (dims, (p, q)) in enumerate(plan):
            h = _psd_blocks(dims, rng)
            k = _psd_blocks(dims, rng)
            pf, qf = refs.exponent_value(p), refs.exponent_value(q)
            if (p, q) == TWO_TWO:
                ref = refs.two_two_norm(h, k)
            else:
                ref = refs.change_of_weights_norm(h, k, pf, qf)
            label = f"{list(dims)} ({p},{q})"
            tasks.append(Task(key, label, str(list(dims)),
                              {"dims": dims, "p": p, "q": q, "h": h, "k": k}, ref))
        return tasks

    def run(self, task):
        d = task.data
        h = _weight(d["dims"], d["h"])
        k = _weight(d["dims"], d["k"])
        cw = compop.change_of_weights(h, k, d["p"], d["q"])
        if (d["p"], d["q"]) == TWO_TWO:
            oracle = compop.operator_norm(cw.operator)
            est = compop.operator_norm(cw.operator, restarts=16, seed=task.key,
                                       method="alternating")
            return {"bound": cw.bound, "estimate": est.lower_bound,
                    "oracle": oracle.lower_bound}
        est = compop.operator_norm(cw.operator, restarts=4, max_iter=100, seed=task.key)
        return {"bound": cw.bound, "estimate": est.lower_bound}

    def check(self, task, out):
        ref, est = task.ref, out["estimate"]
        if not _close(out["bound"], ref):
            return Verdict(False, None, f"bound {out['bound']!r} != reference {ref!r}")
        if est > out["bound"] + SANDWICH:
            return Verdict(False, None, f"estimate {est!r} above bound {out['bound']!r}")
        if "oracle" in out:
            if not _close(out["oracle"], ref):
                return Verdict(False, None, f"oracle {out['oracle']!r} != SVD {ref!r}")
            if est > out["oracle"] + 1e-9 or abs(est - out["oracle"]) > ORACLE_RTOL * out["oracle"]:
                return Verdict(False, None, f"alternating {est!r} vs oracle {out['oracle']!r}")
        return Verdict(True, _shortfall(ref, est))

    def corrupt_estimate(self, out):
        return dict(out, estimate=out["estimate"] * 1.01)


# ---------------------------------------------------------------------------
# classify: the characteristic-function classifier, accepts and rejects.
# ---------------------------------------------------------------------------


def _tile_data(spec):
    tiles = [(t.src, t.dst, t.offset, t.kind, t.conj_unitary) for t in spec.tiles]
    bus = None if spec.block_unitaries is None else list(spec.block_unitaries)
    return tiles, bus


def _build_spec(dims1, dims2, tiles, bus):
    return jordan.JordanMorphismSpec(
        matcore.BlockProfile(dims1), matcore.BlockProfile(dims2),
        [jordan.Tile(src=s, dst=d, offset=o, kind=k, conj_unitary=u)
         for s, d, o, k, u in tiles],
        bus,
    )


class Classify:
    """classify_characteristic_preserving on composition operators of random morphisms.

    One task in five is a reject: half carry noise (they fail on the first
    diagonal pattern), half are diagonal-compressed maps a -> J(E(a)) (they
    pass all 2^n diagonal patterns and fail on the first spectral probe).
    Time goes into BlockMatrix churn, SuperOperator.apply, the spectral
    probes and verify_jordan, not into the maximiser.
    """

    PROFILES = [(2,), (3,), (2, 2), (1, 2), (4, 3), (2, 3)]
    PAIRS = [TWO_TWO, ("2", "1"), ("3", "3/2"), ("inf", "2")]
    DRAWS = 3     # independent morphisms per (profile, pair) class in a pass
    # The [4,3] accepts are the slowest tasks, well above the rest.  Two more
    # draws of that profile make twenty, so the tail (the 11th-slowest
    # task) is their median, not the edge of the class.
    EXTRA = [(4, 3), (4, 3)]

    def build(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 102])
        profiles = self.PROFILES[:2] if tiny else self.PROFILES * self.DRAWS + self.EXTRA
        plan = [("accept", dims, pair) for dims in profiles for pair in self.PAIRS]
        rejects = [("noise" if i % 2 == 0 else "diagonal", dims, ("2", "1"))
                   for i, dims in enumerate(profiles)]
        for i, item in enumerate(rejects):          # one reject after every 4 accepts
            plan.insert(5 * i + 4, item)
        tasks = []
        for key, (kind, dims, (p, q)) in enumerate(plan):
            # a diagonal-compressed map is a composition operator again when
            # J kills a block, so those morphisms must cover every block
            spec = jordan.random_morphism(rng, profile1=matcore.BlockProfile(dims),
                                          allow_partial=kind != "diagonal")
            dims2 = spec.profile2.dims
            tiles, bus = _tile_data(spec)
            h1 = _psd_blocks(dims, rng)
            h2 = _psd_blocks(dims2, rng)
            data = {"kind": kind, "dims1": dims, "dims2": dims2, "p": p, "q": q,
                    "h1": h1, "h2": h2}
            if kind == "accept":
                data.update(tiles=tiles, bus=bus)
                ref = refs.morphism_unit_images(dims, dims2, tiles, bus)
            else:
                pf, qf = refs.exponent_value(p), refs.exponent_value(q)
                mat = refs.composition_matrix(dims, dims2, tiles, bus, h1, h2, pf, qf,
                                              compress=kind == "diagonal")
                if kind == "noise":
                    mat = mat + 0.05 * (rng.standard_normal(mat.shape)
                                        + 1j * rng.standard_normal(mat.shape))
                data["matrix"] = mat
                ref = None
            tasks.append(Task(key, f"{kind} {list(dims)} ({p},{q})", kind, data, ref))
        return tasks

    def run(self, task):
        d = task.data
        w1 = _weight(d["dims1"], d["h1"])
        w2 = _weight(d["dims2"], d["h2"])
        if d["kind"] == "accept":
            spec = _build_spec(d["dims1"], d["dims2"], d["tiles"], d["bus"])
            op = compop.build_composition(spec, w1, w2, d["p"], d["q"])
        else:
            op = compop.SuperOperator.from_matrix(w1.profile, w2.profile, d["p"], d["q"],
                                                  d["matrix"])
        return compop.classify_characteristic_preserving(op, w1, w2, seed=task.key)

    def check(self, task, out):
        if task.data["kind"] != "accept":
            return Verdict(not out.accepted, None, "" if not out.accepted else "REJECT expected")
        if not out.accepted or out.morphism is None:
            return Verdict(False, None, "ACCEPT expected")
        profile = matcore.BlockProfile(task.data["dims1"])
        worst = 0.0
        for (s, i, j), expected in task.ref.items():
            image = out.morphism.apply(matcore.BlockMatrix.matrix_unit(profile, s, i, j))
            gap = math.sqrt(sum(np.linalg.norm(a - b) ** 2
                                for a, b in zip(image.blocks, expected)))
            worst = max(worst, gap)
        if worst >= BASIS_GAP:
            return Verdict(False, worst, f"tiles differ on a matrix unit by {worst:.2e}")
        return Verdict(True, worst)

    def flip_verdict(self, out):
        return compop.ClassifyResult(accepted=not out.accepted, morphism=out.morphism,
                                     witness=out.witness,
                                     max_projection_residual=out.max_projection_residual)


# ---------------------------------------------------------------------------
# cli_batch: every subcommand of the nclp front end on generated spec files.
# ---------------------------------------------------------------------------


def _c2(z):
    return [float(z.real), float(z.imag)]


def _matrix_json(m):
    return [[_c2(z) for z in row] for row in m]


class CliBatch:
    """One in-process nclp.cli.main call per task, --format machine --out.

    Each generated spec runs through all six subcommands.  Blocks are at
    most 2x2 and (2,2) is never used, so no eigensolve of n >= 3 happens;
    morphisms are onto (identity, transpose or a block permutation), so
    `norm` has a sharp change-of-weights reference.  One spec in three
    carries a noised superoperator (REJECT, exit 2).  The classical
    subcommand's 2^|support| enumeration is the dominant cost.
    """

    SUBCOMMANDS = ["check-jordan", "norm", "classify", "change-of-weights",
                   "classical", "modular"]
    SHAPES = [((2, 2), "perm"), ((2,), "transpose"), ((2, 1, 2), "perm"),
              ((1, 2), "identity"), ((2, 2), "transpose"), ((2, 1, 2), "identity"),
              ((2,), "identity"), ((1, 2), "transpose"), ((2, 1, 2), "transpose")]
    PAIRS = [("2", "1"), ("3", "1.5"), ("4", "2")]
    # Support sizes of the measure spaces, one spec each.  The classical
    # tasks at supports 14 and 13 are the slowest of the pass, well above
    # every task of the other subcommands, and the size, not the draw, sets
    # their cost.  Two at 14 and sixteen at 13 put the tail (the
    # 11th-slowest task) in the middle of the sixteen.  Twenty specs also
    # put more tasks around the median, which falls among the
    # change-of-weights, check-jordan and cheaper norm tasks.
    SUPPORTS = [14, 13, 13, 13, 13, 13, 13, 13, 13, 8] * 2
    # norm with 4 restarts stays well below the classical tasks at support 13
    ARGS = ["--restarts", "4", "--format", "machine"]

    def __init__(self, workdir):
        self.workdir = workdir
        self.first = {}

    def _spec(self, i, support, rng):
        dims, mkind = self.SHAPES[i % len(self.SHAPES)]
        p, q = self.PAIRS[i % len(self.PAIRS)]
        noised = i % 3 == 1
        commuting = i % 2 == 0
        h1 = _psd_blocks(dims, rng)
        if commuting:
            h2 = []
            for h in h1:
                _, v = np.linalg.eigh(h)
                h2.append((v * rng.uniform(0.2, 1.2, h.shape[0])) @ v.conj().T)
        else:
            h2 = _psd_blocks(dims, rng)
        if mkind == "perm":
            perm = [len(dims) - 1 - s for s in range(len(dims))]    # swaps equal end blocks
        else:
            perm = list(range(len(dims)))
        kind = "A" if mkind == "transpose" else "H"
        tiles = [(s, perm[s], 0, kind if dims[s] > 1 else "H", None) for s in range(len(dims))]
        # pushforward density of weight2 under J: k_s = h2_{perm(s)} (transposed for A)
        k = [h2[perm[s]].T if tiles[s][3] == "A" else h2[perm[s]] for s in range(len(dims))]
        pf, qf = refs.exponent_value(p), refs.exponent_value(q)
        mat = refs.composition_matrix(dims, dims, tiles, None, h1, h2, pf, qf)
        if noised:
            mat = mat + 0.05 * (rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape))
        # measure spaces: `support` atoms of X1 are hit, one or two are not
        n1 = support + 1 + i % 2
        atoms1 = [f"a{j}" for j in range(n1)]
        masses1 = rng.uniform(0.1, 2.0, n1)
        targets = list(range(support)) + list(rng.integers(0, support, 2 + i % 3))
        atoms2 = [f"b{j}" for j in range(len(targets) + 1)]       # the last one is unmapped
        masses2 = rng.uniform(0.1, 2.0, len(atoms2))
        mapping = {atoms2[j]: atoms1[t] for j, t in enumerate(targets)}
        pushed = np.zeros(n1)
        for j, t in enumerate(targets):
            pushed[t] += masses2[j]
        doc = {
            "algebra1": list(dims), "algebra2": list(dims),
            "weight1": [_matrix_json(h) for h in h1],
            "weight2": [_matrix_json(h) for h in h2],
            "morphism": {"tiles": [{"src": s, "dst": d, "offset": o, "kind": kd}
                                   for s, d, o, kd, _ in tiles]},
            "superoperator": {"matrix": _matrix_json(mat)},
            "measure_space": {"atoms1": atoms1, "masses1": [float(m) for m in masses1],
                              "atoms2": atoms2, "masses2": [float(m) for m in masses2],
                              "map": mapping},
            "exponents": {"p": p, "q": q},
        }
        ref = {
            "norm": refs.change_of_weights_norm(h1, k, pf, qf),
            "change-of-weights": refs.change_of_weights_norm(h1, h2, pf, qf),
            "classical": refs.classical_bound(masses1, pushed, pf, qf),
            "classify": None if noised else sorted([s, d, o, kd] for s, d, o, kd, _ in tiles),
            "commuting": commuting,
        }
        return doc, ref

    def build(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 103])
        supports = [3, 4] if tiny else self.SUPPORTS
        tasks = []
        for i, support in enumerate(supports):
            doc, ref = self._spec(i, support, rng)
            path = os.path.join(self.workdir, f"spec{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for sub in self.SUBCOMMANDS:
                out = os.path.join(self.workdir, f"report{i}-{sub}.json")
                argv = [sub, path, "--seed", str(i), *self.ARGS, "--out", out]
                tasks.append(Task(len(tasks), sub, sub, {"argv": argv, "out": out}, ref))
        return tasks

    def run(self, task):
        code = cli.main(task.data["argv"])
        with open(task.data["out"], "rb") as fh:
            return code, fh.read()

    def check(self, task, out):
        code, raw = out
        stable = b"\n".join(ln for ln in raw.split(b"\n") if b"wall_time_s" not in ln)
        first = self.first.setdefault(task.key, stable)
        if stable != first:
            return Verdict(False, None, "machine report not byte-stable")
        try:
            res = json.loads(raw)["results"]
        except (ValueError, KeyError) as exc:
            return Verdict(False, None, f"unreadable report: {exc}")
        return self._check_results(task.label, task.ref, code, res)

    def _check_results(self, sub, ref, code, res):
        if sub == "check-jordan":
            return Verdict(code == 0 and res["verdict"] == "PASS", None, "check-jordan")
        if sub == "classify":
            if ref["classify"] is None:
                return Verdict(code == 2 and res["verdict"] == "REJECT", None, "REJECT expected")
            tiles = sorted([t["src"], t["dst"], t["offset"], t["kind"]] for t in res.get("tiles", []))
            return Verdict(code == 0 and res["verdict"] == "ACCEPT" and tiles == ref["classify"],
                           None, "ACCEPT with the spec's tiles expected")
        if sub == "modular":
            ok = (code == 0 and res["weights_commute"] == ref["commuting"]
                  and res["other_density_in_centralizer"] == ref["commuting"])
            return Verdict(ok, None, "commuting verdicts")
        if code != 0:
            return Verdict(False, None, f"exit code {code}")
        if sub == "norm":
            bound, est = res["change_of_weights_bound"], res["norm_lower_bound"]
            ok = res["within_bound"] is True
        elif sub == "change-of-weights":
            bound, est = res["bound"], res["measured_lower_bound"]
            ok = res["within_bound"] is True
        else:
            bound, est = res["bound"], res["measured_norm"]
            ok = res["all_ok"] is True
        if not (ok and isinstance(bound, float) and _close(bound, ref[sub])
                and est <= bound + SANDWICH):
            return Verdict(False, None, f"{sub}: bound {bound!r} vs reference {ref[sub]!r}")
        return Verdict(True, _shortfall(ref[sub], est))

    def corrupt_byte(self, out):
        code, raw = out
        at = raw.index(b'"seed"') + 1
        return code, raw[:at] + b"S" + raw[at + 1:]


def make(name, workdir):
    if name == "cw_norm":
        return CwNorm()
    if name == "classify":
        return Classify()
    if name == "cli_batch":
        return CliBatch(workdir)
    raise ValueError(f"unknown workload {name!r}")
