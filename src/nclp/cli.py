"""Batch front end: parse spec files, run the library, emit reports.

Spec files are JSON documents.  Complex numbers are two-element [re, im]
arrays, matrices are row-major lists of rows, exponents are decimal strings
or "inf" (parsed into exact rationals, never through floats).  Reports come
in a human layout or a machine layout; the machine layout is stable JSON
with 12-significant-digit numbers, byte-identical across reruns with the
same inputs and seed (except for the wall-time field).

Exit codes: 0 pass, 1 input error, 2 mathematical refusal or failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import stat
import sys
import time

import numpy as np

from .classical import (
    FiniteMeasureSpace,
    PointMap,
    _max_column_norm,
    build_classical,
    diagonal_consistency,
    five_step_pipeline,
)
from .compop import (
    BOUND_SLACK,
    CLASSIFY_TOL,
    SuperOperator,
    build_composition,
    change_of_weights,
    change_of_weights_scale,
    classify_characteristic_preserving,
    operator_norm,
)
from .errors import NclpError, NotFinite, SpecFileError
from .exponents import Exponent
from .jordan import JORDAN_TOL, JordanMorphismSpec, Tile, pushforward_density, verify_jordan
from .matcore import BlockMatrix, BlockProfile, commutator_norm
from .vnops import Weight, in_centralizer, modular_conjugate, weights_commute

_KNOWN_SECTIONS = {
    "algebra1", "algebra2", "weight1", "weight2", "morphism",
    "superoperator", "measure_space", "exponents",
}


# ---------------------------------------------------------------------------
# Spec file parsing.
# ---------------------------------------------------------------------------


def _is_integer(value) -> bool:
    """Whether a JSON value is an integer; true and false are not, though bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """Whether a JSON value is a finite number; json accepts NaN, Infinity and 1e999."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _complex_entry(value, path):
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise SpecFileError(path, "complex entries must be [re, im] pairs")
    re_part, im_part = value
    if not _is_finite_number(re_part) or not _is_finite_number(im_part):
        raise SpecFileError(path, "complex entry parts must be finite numbers")
    return complex(re_part, im_part)


def _matrix(value, dim, path, cols=None):
    cols = cols or dim
    if not isinstance(value, list) or len(value) != dim:
        raise SpecFileError(path, f"expected {dim} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise SpecFileError(f"{path}[{i}]", f"expected {cols} entries")
        rows.append([_complex_entry(e, f"{path}[{i}][{j}]") for j, e in enumerate(row)])
    return np.array(rows, dtype=complex)


class SpecDocument:
    """Parsed spec file with lazy section accessors."""

    def __init__(self, raw: dict, digest: str, source: str):
        if not isinstance(raw, dict):
            raise SpecFileError("$", "top level must be an object")
        self.raw = raw
        self.digest = digest
        self.source = source
        for key in raw:
            if key not in _KNOWN_SECTIONS:
                print(f"warning: ignoring unknown section {key!r}", file=sys.stderr)

    @classmethod
    def load(cls, path: str) -> "SpecDocument":
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise SpecFileError(path, f"cannot read file: {exc}") from exc
        try:
            raw = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SpecFileError(path, f"not valid JSON: {exc}") from exc
        return cls(raw, hashlib.sha256(data).hexdigest(), path)

    def _require(self, key):
        if key not in self.raw:
            raise SpecFileError(key, "missing required section")
        return self.raw[key]

    def profile(self, which: int) -> BlockProfile:
        path = f"algebra{which}"
        value = self._require(path)
        if not isinstance(value, list) or not value:
            raise SpecFileError(path, "expected a non-empty list of block sizes")
        for i, d in enumerate(value):
            if not _is_integer(d) or d < 1:
                raise SpecFileError(f"{path}[{i}]", "block sizes are integers >= 1")
        return BlockProfile(value)

    def weight(self, which: int, profile: BlockProfile) -> Weight:
        path = f"weight{which}"
        value = self._require(path)
        if not isinstance(value, list) or len(value) != profile.block_count:
            raise SpecFileError(path, f"expected {profile.block_count} blocks")
        blocks = [
            _matrix(blk, dim, f"{path}[{i}]")
            for i, (blk, dim) in enumerate(zip(value, profile.dims))
        ]
        try:
            return Weight(BlockMatrix(profile, blocks))
        except NclpError as exc:
            raise SpecFileError(path, f"weight rejected: {exc}") from exc

    def morphism(self, profile1, profile2) -> JordanMorphismSpec:
        path = "morphism"
        value = self._require(path)
        if not isinstance(value, dict):
            raise SpecFileError(path, "morphism section must be an object")
        tiles_raw = value.get("tiles")
        if not isinstance(tiles_raw, list):
            raise SpecFileError(f"{path}.tiles", "expected a list of tiles")
        tiles = []
        for i, t in enumerate(tiles_raw):
            tp = f"{path}.tiles[{i}]"
            if not isinstance(t, dict):
                raise SpecFileError(tp, "tile must be an object")
            for key in ("src", "dst", "offset"):
                if not _is_integer(t.get(key)):
                    raise SpecFileError(f"{tp}.{key}", "expected an integer")
            kind = t.get("kind")
            if kind not in ("H", "A"):
                raise SpecFileError(f"{tp}.kind", 'expected "H" or "A"')
            unitary = None
            if t.get("unitary") is not None:
                if not (0 <= t["src"] < profile1.block_count):
                    raise SpecFileError(f"{tp}.src", "source index out of range")
                unitary = _matrix(t["unitary"], profile1.dims[t["src"]], f"{tp}.unitary")
            tiles.append(Tile(src=t["src"], dst=t["dst"], offset=t["offset"],
                              kind=kind, conj_unitary=unitary))
        block_unitaries = None
        if value.get("block_unitaries") is not None:
            bu_raw = value["block_unitaries"]
            if not isinstance(bu_raw, list) or len(bu_raw) != profile2.block_count:
                raise SpecFileError(
                    f"{path}.block_unitaries",
                    f"expected {profile2.block_count} entries (null allowed)",
                )
            block_unitaries = [
                None if u is None else _matrix(u, profile2.dims[d], f"{path}.block_unitaries[{d}]")
                for d, u in enumerate(bu_raw)
            ]
        try:
            return JordanMorphismSpec(profile1, profile2, tiles, block_unitaries)
        except NclpError as exc:
            raise SpecFileError(path, f"morphism rejected: {exc}") from exc

    def measure_space(self):
        path = "measure_space"
        value = self._require(path)
        if not isinstance(value, dict):
            raise SpecFileError(path, "measure_space section must be an object")
        for key in ("atoms1", "masses1", "atoms2", "masses2", "map"):
            if key not in value:
                raise SpecFileError(f"{path}.{key}", "missing field")
        for key in ("atoms1", "masses1", "atoms2", "masses2"):
            if not isinstance(value[key], list):
                raise SpecFileError(f"{path}.{key}", "expected a list")
            for i, item in enumerate(value[key]):
                # JSON object keys are strings, and true == 1 in Python
                if key == "atoms2" and not isinstance(item, str):
                    raise SpecFileError(f"{path}.{key}[{i}]",
                                        "atoms2 labels are strings: they are the keys of map")
                if key == "atoms1" and isinstance(item, (list, dict, bool)):
                    raise SpecFileError(f"{path}.{key}[{i}]",
                                        "atoms1 labels are strings or numbers, not booleans")
                if key.startswith("masses") and not _is_finite_number(item):
                    raise SpecFileError(f"{path}.{key}[{i}]", "masses are finite numbers")
        try:
            m1 = FiniteMeasureSpace(value["atoms1"], value["masses1"])
            m2 = FiniteMeasureSpace(value["atoms2"], value["masses2"])
        except NclpError as exc:
            raise SpecFileError(path, str(exc)) from exc
        mapping = value["map"]
        if not isinstance(mapping, dict):
            raise SpecFileError(f"{path}.map", "expected an object atom2 -> atom1")
        T = PointMap(mapping.items())
        try:
            T.validate(m1, m2)
        except NclpError as exc:
            raise SpecFileError(f"{path}.map", str(exc)) from exc
        return m1, m2, T

    def superoperator(self, profile1, profile2, p, q) -> SuperOperator:
        path = "superoperator"
        value = self._require(path)
        if not isinstance(value, dict) or "matrix" not in value:
            raise SpecFileError(path, "superoperator section needs a matrix field")
        mat = _matrix(value["matrix"], profile2.coord_dim, f"{path}.matrix", profile1.coord_dim)
        return SuperOperator.from_matrix(profile1, profile2, p, q, mat)

    def exponent(self, name: str, override) -> Exponent:
        if override is not None:
            try:
                return Exponent(override)
            except NclpError as exc:
                raise SpecFileError(f"--{name}", str(exc)) from exc
        section = self.raw.get("exponents", {})
        if not isinstance(section, dict) or name not in section:
            raise SpecFileError(
                f"exponents.{name}", "missing (supply in the file or via flag)"
            )
        value = section[name]
        if not isinstance(value, str):
            raise SpecFileError(
                f"exponents.{name}", 'exponents are strings like "2", "1.5", "inf"'
            )
        try:
            return Exponent(value)
        except NclpError as exc:
            raise SpecFileError(f"exponents.{name}", str(exc)) from exc


# ---------------------------------------------------------------------------
# Report rendering.
# ---------------------------------------------------------------------------


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _finite(value) -> bool:
    """Whether every number in a report value is finite."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Exponent):
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _round12(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return [_round12(value.real), _round12(value.imag)]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, BlockMatrix):
        return [_jsonable(blk) for blk in value.blocks]
    return value


class Report:
    def __init__(self, command: str, spec: SpecDocument, flags: dict,
                 tolerances: dict, seed):
        self.data = {
            "command": command,
            "inputs": {
                "spec_path": spec.source,
                "spec_sha256": spec.digest,
                "flags": _jsonable(flags),
            },
            "seed": seed,
            "tolerances": _jsonable(tolerances),
            "results": {},
            "wall_time_s": None,
        }
        self._start = time.monotonic()

    def put(self, key, value):
        self.data["results"][key] = _jsonable(value)

    def machine(self) -> str:
        """Stable JSON; NotFinite if a result holds inf or nan, which JSON cannot."""
        bad = [key for key, value in self.data["results"].items() if not _finite(value)]
        if bad:
            raise NotFinite(f"non-finite result in {', '.join(bad)}: no valid JSON report")
        self.data["wall_time_s"] = _round12(time.monotonic() - self._start)
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"

    def human(self) -> str:
        self.data["wall_time_s"] = _round12(time.monotonic() - self._start)
        lines = [f"command: {self.data['command']}"]
        lines.append(f"spec: {self.data['inputs']['spec_path']} "
                     f"(sha256 {self.data['inputs']['spec_sha256'][:12]}...)")
        flags = self.data["inputs"]["flags"]
        if flags:
            lines.append("flags: " + ", ".join(f"{k}={v}" for k, v in sorted(flags.items())))
        for key, value in self.data["results"].items():
            lines.append(f"{key}: {_human_value(value)}")
        tol = self.data["tolerances"]
        if tol:
            lines.append("tolerances: " + ", ".join(f"{k}={v}" for k, v in sorted(tol.items())))
        lines.append(f"seed: {self.data['seed']}")
        lines.append(f"wall time: {self.data['wall_time_s']} s")
        return "\n".join(lines) + "\n"

    def emit(self, fmt: str, out_path):
        """Write the report to stdout, or over the file `out_path`.

        The file is written in place and then cut to the report's length; it
        is not truncated first.  On ext4 (with its default auto_da_alloc),
        closing a file that was truncated to zero and rewritten starts block
        allocation and writeback inside close().  On a 2-core x86_64 host,
        one 800-byte report over an existing one took 120-377 us that way,
        20-27 us written in place and cut after, and 94 us as a temporary
        file and os.replace (a rename over a file triggers the same
        writeback): about a sixth of a typical `nclp` run.  The cut is made
        only on a regular file, since truncate() fails on /dev/null and on a
        pipe.  No guarantee is given up: the report was never fsync'ed, and
        the writeback was the kernel's reaction to the truncate, not a flush
        of ours.  A crash could leave an empty or cut-off file before, and can
        leave the previous report or a mix of the two now; neither is a valid
        report.  A file that cannot be opened or written is an input error on
        --out.
        """
        text = self.machine() if fmt == "machine" else self.human()
        if not out_path:
            sys.stdout.write(text)
            return
        data = text.encode("utf-8")
        try:
            with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
                fh.write(data)
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate(len(data))
        except OSError as exc:
            raise SpecFileError("--out", f"cannot write report: {exc}") from exc


def _human_value(value, depth=0):
    if isinstance(value, dict):
        inner = ", ".join(f"{k}={_human_value(v, depth + 1)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, list):
        if len(value) > 12 and depth > 0:
            return f"[{len(value)} entries]"
        return "[" + ", ".join(_human_value(v, depth + 1) for v in value) + "]"
    return str(value)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _tiles_out(spec: JordanMorphismSpec):
    return [
        {"src": t.src, "dst": t.dst, "offset": t.offset, "kind": t.kind}
        for t in spec.tiles
    ]


def cmd_check_jordan(spec: SpecDocument, args) -> tuple[Report, int]:
    profile1 = spec.profile(1)
    profile2 = spec.profile(2)
    morphism = spec.morphism(profile1, profile2)
    report = Report("check-jordan", spec, {"seed": args.seed},
                    {"pass_residual": JORDAN_TOL}, args.seed)
    result = verify_jordan(morphism)
    report.put("verdict", "PASS" if result.passed else "FAIL")
    report.put("max_residual", result.max_residual)
    report.put("tiles", _tiles_out(morphism))
    return report, 0 if result.passed else 2


def cmd_norm(spec: SpecDocument, args) -> tuple[Report, int]:
    p = spec.exponent("p", args.p)
    q = spec.exponent("q", args.q)
    profile1 = spec.profile(1)
    profile2 = spec.profile(2)
    w1 = spec.weight(1, profile1)
    w2 = spec.weight(2, profile2)
    morphism = spec.morphism(profile1, profile2)
    report = Report("norm", spec,
                    {"p": str(p), "q": str(q), "restarts": args.restarts,
                     "seed": args.seed},
                    {"bound_slack": BOUND_SLACK}, args.seed)
    operator = build_composition(morphism, w1, w2, p, q)
    estimate = operator_norm(operator, restarts=args.restarts, seed=args.seed)
    report.put("p", p)
    report.put("q", q)
    report.put("norm_lower_bound", estimate.lower_bound)
    report.put("norm_upper_bound",
               None if math.isinf(estimate.upper_bound) else estimate.upper_bound)
    report.put("status", estimate.status)
    report.put("norm_source", estimate.source)
    report.put("certified", estimate.status == "exact")
    report.put("restarts_capped", estimate.capped)
    # C_J is compression to the covered blocks, the change of weights from w1
    # to the pushforward of w2, then a contractive Jordan embedding
    bound = change_of_weights(w1, pushforward_density(morphism, w2), p, q).bound
    report.put("change_of_weights_bound", bound)
    report.put("within_bound", estimate.lower_bound <= bound * (1.0 + BOUND_SLACK))
    return report, 0


def cmd_classify(spec: SpecDocument, args) -> tuple[Report, int]:
    p = spec.exponent("p", args.p)
    q = spec.exponent("q", args.q)
    profile1 = spec.profile(1)
    profile2 = spec.profile(2)
    w1 = spec.weight(1, profile1)
    w2 = spec.weight(2, profile2)
    operator = spec.superoperator(profile1, profile2, p, q)
    report = Report("classify", spec,
                    {"p": str(p), "q": str(q), "seed": args.seed},
                    {"projection_residual": CLASSIFY_TOL}, args.seed)
    result = classify_characteristic_preserving(operator, w1, w2, seed=args.seed)
    report.put("verdict", result.verdict)
    report.put("max_projection_residual", result.max_projection_residual)
    report.put("basis_pairs_checked", result.basis_pairs_checked)
    if result.accepted:
        report.put("tiles", _tiles_out(result.morphism))
        return report, 0
    projection, image, residual = result.witness
    report.put("witness_projection", projection)
    report.put("witness_image", image)
    report.put("witness_residual", residual)
    return report, 2


def cmd_change_of_weights(spec: SpecDocument, args) -> tuple[Report, int]:
    profile1 = spec.profile(1)
    w = spec.weight(1, profile1)
    w0 = spec.weight(2, profile1)
    seed = args.seed
    if args.r is not None:
        r = spec.exponent("r", args.r)
        pairs = [(r, Exponent(1))]
        doubled = r.scaled(2)
        pairs.append((doubled, Exponent(2)))
        report = Report("change-of-weights", spec,
                        {"r": str(r), "seed": seed}, {"bound_slack": BOUND_SLACK}, seed)
        scale_report = change_of_weights_scale(w, w0, r, pairs)
        report.put("ratio", scale_report.ratio)
        report.put("entries", [
            {"p": e.p, "q": e.q, "bound": e.bound, "measured": e.measured,
             "ok": e.ok}
            for e in scale_report.entries
        ])
        report.put("all_ok", scale_report.all_ok)
        return report, 0 if scale_report.all_ok else 2
    p = spec.exponent("p", args.p)
    q = spec.exponent("q", args.q)
    report = Report("change-of-weights", spec,
                    {"p": str(p), "q": str(q), "seed": seed},
                    {"bound_slack": BOUND_SLACK}, seed)
    cw = change_of_weights(w, w0, p, q)
    report.put("p", p)
    report.put("q", q)
    report.put("r", cw.triple.r)
    report.put("d", cw.d)
    report.put("bound", cw.bound)
    report.put("measured_lower_bound", cw.norm_estimate.lower_bound)
    report.put("within_bound", cw.norm_estimate.lower_bound <= cw.bound * (1.0 + BOUND_SLACK))
    return report, 0


def cmd_classical(spec: SpecDocument, args) -> tuple[Report, int]:
    p = spec.exponent("p", args.p)
    q = spec.exponent("q", args.q)
    m1, m2, T = spec.measure_space()
    report = Report("classical", spec,
                    {"p": str(p), "q": str(q)},
                    {"pipeline_residual": 1e-10, "bound_slack": 1e-9}, args.seed)
    C = build_classical(T, m1, m2, p, q)  # refuses a norm that fails either exact check
    pipeline = five_step_pipeline(C)
    consistency = diagonal_consistency(C)
    report.put("r", C.criterion.r)
    report.put("f_norm_r", C.criterion.norm_f)
    report.put("bound", C.criterion.bound)
    report.put("measured_norm", C.criterion.measured)
    report.put("pipeline_residual", pipeline.composite_residual)
    report.put("isometry_residual", pipeline.isometry_residual)
    report.put("diagonal_consistency_residual", consistency.max_residual)
    # slacks relative to the direct map, so no verdict depends on scale; the
    # isometry (stage III) has scale 1 on embedded coordinates
    ok = (pipeline.composite_residual <= 1e-10 * _max_column_norm(C.direct.matrix())
          and pipeline.isometry_residual <= 1e-10 and consistency.ok)
    report.put("all_ok", ok)
    return report, 0 if ok else 2


def cmd_modular(spec: SpecDocument, args) -> tuple[Report, int]:
    profile1 = spec.profile(1)
    w = spec.weight(1, profile1)
    v = spec.weight(2, profile1)
    t_values = args.t if args.t else [0.0, 0.7, 1.3]
    if not all(math.isfinite(t) for t in t_values):
        raise SpecFileError("--t", "modular group parameters are finite numbers")
    report = Report("modular", spec,
                    {"t": t_values, "seed": args.seed},
                    {"commutator": 1e-9, "orbit": 1e-8}, args.seed)
    report.put("weights_commute", weights_commute(w, v))
    report.put("support_commutator_norm",
               commutator_norm(w.power(0), v.power(0)))
    report.put("density_commutator_norm", commutator_norm(w.rho, v.rho))
    if w.is_faithful:
        report.put("other_density_in_centralizer", in_centralizer(w, v.rho))
        orbit = []
        for t in t_values:
            moved = modular_conjugate(w, t, v.rho)
            orbit.append({"t": t, "orbit_residual": (moved - v.rho).fro_norm()})
        report.put("modular_orbit", orbit)
    else:
        report.put("other_density_in_centralizer", "weight1 is not faithful")
    return report, 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


_HANDLERS = {
    "check-jordan": cmd_check_jordan,
    "norm": cmd_norm,
    "classify": cmd_classify,
    "change-of-weights": cmd_change_of_weights,
    "classical": cmd_classical,
    "modular": cmd_modular,
}


# One parser, built once: every subcommand takes the same spec path and
# options, and parse_args does not change the parser.
_PARSER = argparse.ArgumentParser(
    prog="nclp",
    description="Composition operators on finite-dimensional weighted "
                "Schatten (noncommutative L^p) carriers.",
)
_PARSER.add_argument("command", choices=_HANDLERS)
_PARSER.add_argument("spec", help="path to the JSON spec file")
_PARSER.add_argument("--p", default=None, help='domain exponent ("2", "1.5", "inf")')
_PARSER.add_argument("--q", default=None, help="codomain exponent")
_PARSER.add_argument("--r", default=None, help="ratio p/q for scale mode")
_PARSER.add_argument("--restarts", type=int, default=16,
                     help="maximiser restarts, at least 1 (used by norm only)")
_PARSER.add_argument("--seed", type=int, default=0, help="at least 0")
_PARSER.add_argument("--t", type=float, nargs="+", default=None,
                     help="modular group parameters")
_PARSER.add_argument("--out", default=None, help="write the report to a file")
_PARSER.add_argument("--format", choices=("human", "machine"), default="human")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.restarts < 1:
        _PARSER.error(f"--restarts must be at least 1, got {args.restarts}")
    if args.seed < 0:
        _PARSER.error(f"--seed must be at least 0, got {args.seed}")
    try:
        spec = SpecDocument.load(args.spec)
        report, code = _HANDLERS[args.command](spec, args)
        report.emit(args.format, args.out)
    except SpecFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except NclpError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
