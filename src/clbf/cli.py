"""Command-line front end.

Five subcommands: `analyze` evaluates the closed-form model, `simulate`
runs one scenario, `optimize` picks filter parameters, `figures` runs every
bundled preset and writes plot-ready CSVs with gnuplot scripts, and `trace`
replays a single trial end to end for debugging.

Output is deterministic byte for byte: no timestamps, no environment
echoes, repr-formatted floats. Exit codes: 0 success, 2 usage, scenario or
parameter errors, 3 infeasible optimization, 4 a recovery walk hit its
resource cap.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

from . import __version__
from .analytics import (
    BACKENDS,
    ModelParams,
    compare_backends,
    fp_probability,
)
from .optimize import InfeasibleError, optimize_k2, split_budget
from .protocol import Clbf, recover_provenance
from .scenario import (
    PRESETS,
    Scenario,
    ScenarioError,
    load_preset,
    load_scenario,
    parse_sweep_spec,
)
from .segments import ResourceCapError
from .simulate import (
    SWEEPABLE,
    NoValidPath,
    SweepRow,
    derive_trial_seed,
    run_point,
    run_sweep,
    trial_packet,
    trial_pid,
)

SWEEP_COLUMNS = (
    "parameter,value,trials,effective,unique,false_positive,miss,skipped,"
    "empirical_fp,ci_low,ci_high,model_fp"
)
POINT_COLUMNS = (
    "m1,k1,m2,k2,delta,hops,trials,effective,unique,false_positive,miss,skipped,"
    "empirical_fp,ci_low,ci_high,model_fp"
)


def _f(x: float) -> str:
    return repr(float(x))


def sweep_csv_text(rows: Sequence[SweepRow]) -> str:
    lines = ["# schema: clbf.sweep.v1", f"# columns: {SWEEP_COLUMNS}"]
    for r in rows:
        lo, hi = r.result.fp_interval()
        p = r.result
        lines.append(
            f"{r.parameter},{r.value},{p.trials},{p.effective},{p.unique},"
            f"{p.false_positive},{p.miss},{p.skipped},{_f(p.fp_rate)},{_f(lo)},"
            f"{_f(hi)},{_f(r.model_fp)}"
        )
    return "\n".join(lines) + "\n"


def point_csv_text(scn: Scenario, result, model_fp: float) -> str:
    s = scn.setup
    lo, hi = result.fp_interval()
    return "\n".join(
        [
            "# schema: clbf.point.v1",
            f"# columns: {POINT_COLUMNS}",
            f"{s.m1},{s.k1},{s.m2},{s.k2},{s.num_segments},{s.h},{result.trials},"
            f"{result.effective},{result.unique},{result.false_positive},"
            f"{result.miss},{result.skipped},{_f(result.fp_rate)},{_f(lo)},"
            f"{_f(hi)},{_f(model_fp)}",
        ]
    ) + "\n"


def gnuplot_script(name: str, parameter: str) -> str:
    return f"""# render with: gnuplot {name}.gp
set datafile separator ','
set xlabel '{parameter}'
set ylabel 'false-positive probability'
set logscale y
set key top right
set term pngcairo size 900,600
set output '{name}.png'
plot '{name}.csv' using 2:9:10:11 with yerrorbars title 'empirical (95% CI)', \\
     '{name}.csv' using 2:12 with lines title 'model'
"""


def _out_dir(args: argparse.Namespace) -> str:
    base = args.out or os.environ.get("CLBF_OUT_DIR") or "."
    os.makedirs(base, exist_ok=True)
    return base


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _load(args: argparse.Namespace) -> Scenario:
    if args.preset:
        return load_preset(args.preset)
    return load_scenario(args.scenario)


def _sweep_summary(name: str, rows: Sequence[SweepRow]) -> str:
    emp = min(rows, key=lambda r: (r.result.fp_rate, r.value))
    mod = min(rows, key=lambda r: (r.model_fp, r.value))
    return (
        f"{name}: {len(rows)} points over {rows[0].parameter}; "
        f"empirical argmin {rows[0].parameter}={emp.value} (fp={_f(emp.result.fp_rate)}), "
        f"model argmin {rows[0].parameter}={mod.value} (fp={_f(mod.model_fp)})"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.compare_histograms:
        if args.delta is None or args.hops is None:
            print("analyze --compare-histograms needs --delta and --hops", file=sys.stderr)
            return 2
        print(compare_backends(args.delta, args.hops).csv_text(), end="")
        return 0
    if None in (args.m2, args.k2, args.hops, args.delta):
        print("analyze needs --m2, --k2, --hops and --delta", file=sys.stderr)
        return 2
    if args.sweep:
        param, values = parse_sweep_spec(args.sweep)
        fields = {"m2": args.m2, "k2": args.k2, "h": args.hops, "delta": args.delta}
        # every point is validated before the first row goes out
        points = [ModelParams(**{**fields, param: v}) for v in values]
        print("# schema: clbf.analyze.v1")
        print("# columns: parameter,value,model_fp,clamped")
        for v, params in zip(values, points):
            bd = fp_probability(params, backend=args.backend)
            print(f"{param},{v},{_f(bd.total)},{int(bd.clamped)}")
        return 0
    bd = fp_probability(
        ModelParams(m2=args.m2, k2=args.k2, h=args.hops, delta=args.delta),
        backend=args.backend,
    )
    p = bd.params
    mean_alpha = sum((i + 1) * w for i, w in enumerate(bd.occupancy))
    hist = " ".join(
        f"J={j + 1}:{c}" for j, c in enumerate(bd.critical_histogram) if c
    )
    print(f"filter: m2={p.m2} k2={p.k2}; route: hops={p.h} fragments={p.delta}")
    print(
        f"sequence length {p.h} (h), decoy pool {p.false_pool}, "
        f"admissible sequences {bd.n_sequences}"
    )
    print(f"occupancy: mean {_f(mean_alpha)}, support 1..{len(bd.occupancy)}")
    print(f"critical-pair histogram ({bd.backend}): {hist}")
    print(f"false-positive probability: {_f(bd.total)}")
    print(f"clamped: {'yes' if bd.clamped else 'no'}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scn = _load(args)
    trials = args.trials if args.trials is not None else scn.trials
    seed = args.seed if args.seed is not None else scn.base_seed
    out = _out_dir(args)
    stem = (
        args.preset
        if args.preset
        else os.path.splitext(os.path.basename(args.scenario))[0]
    )
    if scn.sweep is not None:
        param, values = scn.sweep
        rows = run_sweep(
            scn.setup,
            param,
            values,
            trials,
            seed,
            backend=args.backend,
        )
        _write(os.path.join(out, f"{stem}.csv"), sweep_csv_text(rows))
        print(_sweep_summary(stem, rows))
        return 0
    result = run_point(scn.setup, trials, seed, point_tag=0)
    model = fp_probability(scn.setup.model_params(), backend=args.backend).total
    _write(os.path.join(out, f"{stem}.csv"), point_csv_text(scn, result, model))
    print(
        f"{stem}: fp={_f(result.fp_rate)} "
        f"({result.false_positive}/{result.effective} trials, "
        f"{result.skipped} skipped), model fp={_f(model)}"
    )
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.budget is not None:
        if args.nodes is None:
            print("optimize --budget needs --nodes", file=sys.stderr)
            return 2
        split = split_budget(
            args.budget,
            args.hops,
            args.nodes,
            args.delta,
            eps1=args.eps1,
        )
        print(
            f"edge filter: m1={split.m1} k1={split.k1} "
            f"(recovery error bound {_f(split.edge_fp_bound)})"
        )
        print(
            f"location filter: m2={split.m2} k2={split.k2} "
            f"(model fp {_f(split.location_fp)})"
        )
        return 0
    if args.m2 is None:
        print("optimize needs --budget or --m2", file=sys.stderr)
        return 2
    k2, fp = optimize_k2(args.m2, args.hops, args.delta)
    print(f"k2={k2} (model fp {_f(fp)}) for m2={args.m2} hops={args.hops} delta={args.delta}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    for name in PRESETS:
        scn = load_preset(name)
        assert scn.sweep is not None
        param, values = scn.sweep
        trials = args.trials if args.trials is not None else scn.trials
        rows = run_sweep(
            scn.setup,
            param,
            values,
            trials,
            scn.base_seed,
            backend=args.backend,
        )
        _write(os.path.join(out, f"{name}.csv"), sweep_csv_text(rows))
        _write(os.path.join(out, f"{name}.gp"), gnuplot_script(name, param))
        print(_sweep_summary(name, rows))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    scn = _load(args)
    setup = scn.setup
    # a scenario without a sweep is one point, the one `simulate` runs as point 0
    points = len(scn.sweep[1]) if scn.sweep is not None else 1
    if not 0 <= args.point < points:
        print(f"--point {args.point} outside 0..{points - 1}", file=sys.stderr)
        return 2
    if scn.sweep is not None:
        param, values = scn.sweep
        setup = replace(setup, **{SWEEPABLE[param]: values[args.point]})
    base_seed = args.seed if args.seed is not None else scn.base_seed
    if args.fixed_seed:
        seed = scn.filter_seed
    else:
        seed = derive_trial_seed(base_seed, args.point, args.trial)
    pid = trial_pid(args.point, args.trial)
    try:
        path, seq, pkt = trial_packet(setup, seed, pid)
    except NoValidPath as exc:
        print(f"trial skipped: {exc}")
        return 0
    blob = pkt.to_bytes()
    if Clbf.from_bytes(blob).to_bytes() != blob:
        raise AssertionError("packet image does not survive its own round trip")
    outcome = recover_provenance(
        pkt, list(range(setup.n_nodes)), setup.num_segments, rsu=0, truth=(path, seq)
    )
    print(f"setup: m1={setup.m1} k1={setup.k1} m2={setup.m2} k2={setup.k2} "
          f"delta={setup.num_segments} hops={setup.h}")
    print(f"seed: {seed} pid: {pid}")
    print(f"path (unit-outward): {','.join(map(str, path))}")
    print(f"fragments:           {','.join(map(str, seq))}")
    print(f"wire size: {len(blob)} bytes; "
          f"edge fill {pkt.edge_filter.popcount()}/{setup.m1}, "
          f"location fill {pkt.location_filter.popcount()}/{setup.m2}")
    print(f"packet: {blob.hex()}")
    print(f"recovered paths: {len(outcome.paths)}, "
          f"arrangements: {len(outcome.arrangements)}")
    for p, s in outcome.arrangements:
        marker = " (truth)" if (p, s) == (path, seq) else ""
        print(f"  path {','.join(map(str, p))} / fragments {','.join(map(str, s))}{marker}")
    print(f"classification: {outcome.classification}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clbf",
        description="In-packet spatial provenance: model, simulation, sizing.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p: argparse.ArgumentParser) -> None:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--preset", choices=PRESETS, help="bundled scenario")
        g.add_argument("--scenario", metavar="FILE", help="scenario file")

    a = sub.add_parser("analyze", help="evaluate the closed-form model")
    a.add_argument("--m2", type=int, help="location filter width in bits")
    a.add_argument("--k2", type=int, help="location filter hash count")
    a.add_argument("--hops", type=int, help="relay path length")
    a.add_argument("--delta", type=int, help="number of road fragments")
    a.add_argument("--backend", choices=BACKENDS, default="closed_form")
    a.add_argument("--sweep", metavar="PARAM:VALUES", help="emit CSV over one parameter")
    a.add_argument(
        "--compare-histograms",
        action="store_true",
        help="emit the fitted-vs-enumerated critical-pair histograms as CSV",
    )
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("simulate", help="run one scenario")
    add_source(s)
    s.add_argument("--trials", type=int, help="override the scenario's trial count")
    s.add_argument("--seed", type=int, help="override the scenario's base seed")
    s.add_argument("--backend", choices=BACKENDS, default="closed_form")
    s.add_argument("--out", help="output directory (default $CLBF_OUT_DIR or .)")
    s.set_defaults(func=cmd_simulate)

    o = sub.add_parser("optimize", help="choose filter parameters")
    o.add_argument("--budget", type=int, help="total bits for both filters")
    o.add_argument("--m2", type=int, help="location filter width (k2-only mode)")
    o.add_argument("--hops", type=int, required=True)
    o.add_argument("--delta", type=int, required=True)
    o.add_argument("--nodes", type=int, help="network size, for the edge-side bound")
    o.add_argument("--eps1", type=float, default=1e-3,
                   help="tolerated edge-recovery error (default 1e-3)")
    o.set_defaults(func=cmd_optimize)

    f = sub.add_parser("figures", help="run all bundled presets, write CSV + gnuplot")
    f.add_argument("--trials", type=int, help="override every preset's trial count")
    f.add_argument("--backend", choices=BACKENDS, default="closed_form")
    f.add_argument("--out", help="output directory (default $CLBF_OUT_DIR or .)")
    f.set_defaults(func=cmd_figures)

    t = sub.add_parser("trace", help="replay one trial end to end")
    add_source(t)
    t.add_argument("--point", type=int, default=0, help="sweep point index (default 0)")
    t.add_argument("--trial", type=int, default=0, help="trial index (default 0)")
    t.add_argument("--seed", type=int, help="override the scenario's base seed")
    t.add_argument(
        "--fixed-seed",
        action="store_true",
        help="use the scenario's [filters] seed instead of the derived trial seed",
    )
    t.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path that is missing, a directory or unreadable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
