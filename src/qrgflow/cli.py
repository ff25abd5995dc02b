"""Command-line interface: sweeps, flows, scaling fits, and verification.

All numeric output is formatted to 12 significant digits so repeated runs
with the same arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from .errors import DomainError, QrgError
from .flow import effective_size, iterate, sweep
from .measures import MEASURE_NAMES
from .models import MODELS, fixed_points
from .scaling import loglog_fit, scaling_report
from .verify import run_all

CONFIG_EXIT = 2
NUMERIC_EXIT = 3

# main catches DomainError (a bad input, CONFIG_EXIT) before these.
_NUMERIC_ERRORS = (QrgError, FloatingPointError, OverflowError, RuntimeError)


def fmt(value: float) -> str:
    return f"{float(value):.11e}"


# Exact fmt text of whole float arrays.  A cell is 20 ASCII bytes held as five
# uint32 words, "[-]d.d" "dddd" "dddd" "dde±" "[h]to,", where a NUL byte marks
# an unused sign or hundreds-of-exponent slot and is deleted when the text is
# written.  The digits are those of rint(|x| 10^(11-e)), e = floor(log10|x|),
# scaled by two correctly rounded powers of ten: four roundings, a relative
# error below 4.5e-16, so under 4.5e-4 on a mantissa below 1e12.  A cell whose
# scaled mantissa lies within 1e-3 of a rounding tie or outside [1e11, 1e12),
# and every zero, subnormal and non-finite cell, takes its text from fmt.
_CELL_WORDS = 5


def _ascii_words(texts, width: int) -> np.ndarray:
    """ASCII strings, NUL-padded on the right, as rows of `width` uint32 words."""
    data = "".join(text.ljust(4 * width, "\0") for text in texts).encode("ascii")
    return np.frombuffer(data, np.uint32).reshape(len(texts), width)


def _word_table(*chars) -> np.ndarray:
    """uint32 words whose four bytes are the given broadcast ASCII codes, in C order."""
    return np.stack(np.broadcast_arrays(*chars), axis=-1).astype(np.uint8).view(np.uint32).ravel()


_E_MIN = -308  # decimal exponent of the least normal float; the largest has 308


@functools.cache
def _tables():
    """Word tables of the cell text and the two scales of each exponent, built on first use."""
    d = np.arange(ord("0"), ord("9") + 1)
    tens, units = d[:, None], d  # digits of a two-digit index
    negative = np.array([False, True])[:, None, None]  # index + 100 if negative
    hundreds = np.where(d > ord("0"), d, 0)[:, None, None]
    powers = np.array([float(f"1e{k}") for k in range(-149, 161)])  # correctly rounded
    shift = 11 - np.arange(_E_MIN, 309)  # 10^shift = 10^(shift//2) * 10^(shift - shift//2)
    return (
        _word_table(np.where(negative, ord("-"), 0), tens, ord("."), units),  # "[-]d.d"
        _word_table(d[:, None, None, None], d[:, None, None], tens, units),  # "dddd"
        _word_table(tens, units, ord("e"), np.where(negative, ord("-"), ord("+"))),  # "dde±"
        _word_table(hundreds, tens, units, ord(",")),  # "[h]to," by |e|
        powers[shift // 2 + 149],
        powers[shift - shift // 2 + 149],
    )


def _cell_words(x: np.ndarray) -> np.ndarray:
    """fmt text of each entry of a 1-D float64 array, as (n, 5) words ending in ','."""
    lead, quad, tail, exponent, scale_a, scale_b = _tables()
    magnitude = np.abs(x)
    fast = (magnitude >= sys.float_info.min) & (magnitude <= sys.float_info.max)
    magnitude[~fast] = 1.0
    e = np.floor(np.log10(magnitude)).astype(np.intp)
    scaled = magnitude * scale_a.take(e - _E_MIN) * scale_b.take(e - _E_MIN)
    mantissa = np.rint(scaled)
    fast &= (scaled >= 1e11) & (mantissa < 1e12) & (np.abs(scaled - mantissa) < 0.499)
    mantissa[~fast] = 1e11
    high = np.floor(mantissa / 1e6)  # exact: integers below 2^53
    low = (mantissa - high * 1e6).astype(np.intp)
    high = high.astype(np.intp)
    words = np.empty((x.size, _CELL_WORDS), np.uint32)
    words[:, 0] = lead.take(high // 10000 + 100 * np.signbit(x))
    words[:, 1] = quad.take(high % 10000)
    words[:, 2] = quad.take(low // 100)
    words[:, 3] = tail.take(low % 100 + 100 * (e < 0))
    words[:, 4] = exponent.take(np.abs(e))
    slow = np.flatnonzero(~fast)
    if slow.size:  # mostly exact zeros: one fmt call per distinct bit pattern
        bits, inverse = np.unique(x[slow].view(np.int64), return_inverse=True)
        cells = [fmt(value).ljust(19, "\0") + "," for value in bits.view(np.float64).tolist()]
        words[slow] = _ascii_words(cells, _CELL_WORDS)[inverse]
    return words


_CHUNK_ROWS = 512  # CSV rows formatted per numpy pass; bounds the writer's memory


def _sweep_csv_chunks(table):
    """The data rows of a sweep CSV (axis-major, iteration minor) as bytes, chunk by chunk."""
    depths = len(table.iterations)
    measures = table.values.shape[2]
    labels = [f"{n},{effective_size(n)}," for n in table.iterations]
    label_words = _ascii_words(labels, -(-max(map(len, labels)) // 4))
    step = max(1, _CHUNK_ROWS // depths)
    for start in range(0, table.grid.size, step):
        stop = min(start + step, table.grid.size)
        numbers = np.empty(((stop - start) * depths, 1 + measures))
        numbers[:, 0] = np.repeat(table.grid[start:stop], depths)
        numbers[:, 1:] = table.values[:, start:stop, :].transpose(1, 0, 2).reshape(-1, measures)
        words = _cell_words(numbers.ravel()).reshape(len(numbers), -1)
        line = np.hstack([
            words[:, :_CELL_WORDS], np.tile(label_words, (stop - start, 1)), words[:, _CELL_WORDS:],
        ])
        line.view(np.uint8)[:, -1] = ord("\n")
        yield line.tobytes().translate(None, b"\0")


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":")
        return float(lo_text), float(hi_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from exc


def _parse_iterations(text: str) -> list[int]:
    try:
        if ".." in text:
            first, last = text.split("..")
            values = list(range(int(first), int(last) + 1))
        else:
            values = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected A..B or a comma list, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty iteration list")
    return sorted(set(values))


def _parse_measures(text: str) -> list[str]:
    if text == "all":
        return list(MEASURE_NAMES)
    names = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [name for name in names if name not in MEASURE_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown measures {unknown}; choose from {', '.join(MEASURE_NAMES)}"
        )
    deduped = list(dict.fromkeys(names))
    if not deduped:
        raise argparse.ArgumentTypeError("empty measure list")
    return deduped


def _write_text(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("".join(line + "\n" for line in lines))


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cannot use --out {args.out!r} as a directory: {exc.strerror}") from exc
    return out


def _sweep_plot_lines(csvname: str, axis: str, measures, iterations):
    lines = [
        f"# companion plot script for {csvname}",
        'set datafile separator ","',
        f'set xlabel "{axis}"',
    ]
    for k, measure in enumerate(measures):
        col = 4 + k
        series = ", \\\n".join(
            f'  "{csvname}" using ($2=={n}?$1:1/0):{col} with lines title "n={n}"'
            for n in iterations
        )
        lines += ["", f'set ylabel "{measure}"', "plot \\\n" + series, "pause -1"]
    return lines


def _flow_plot_lines(csvname: str, measures):
    series = ", \\\n".join(
        f'  "{csvname}" using 1:{5 + k} with linespoints title "{measure}"'
        for k, measure in enumerate(measures)
    )
    return [
        f"# companion plot script for {csvname}",
        'set datafile separator ","',
        'set xlabel "iteration n"',
        'set ylabel "measure value"',
        "plot \\\n" + series,
        "pause -1",
    ]


def _scaling_plot_lines(csvname: str, critical: float):
    return [
        f"# companion plot script for {csvname}",
        'set datafile separator ","',
        "set logscale xy",
        'set xlabel "N"',
        f'plot "{csvname}" using 2:4 with linespoints title "derivative extremum", \\',
        f'     "{csvname}" using 2:(abs({critical} - $3)) with linespoints title "critical offset"',
        "pause -1",
    ]


def _cmd_sweep(args) -> int:
    model = args.model
    axis = MODELS[model].axis
    lo, hi = args.range if args.range is not None else MODELS[model].axis_range
    iterations = args.iterations if args.iterations is not None else list(range(7))
    measures = args.measures if args.measures is not None else list(MEASURE_NAMES)
    table = sweep(model, lo, hi, args.points, iterations, measures=measures)
    out = _out_dir(args)
    csv_path = out / f"sweep_{model}.csv"
    with open(csv_path, "wb") as handle:
        handle.write((",".join([axis, "iteration", "N"] + measures) + "\n").encode("utf-8"))
        handle.writelines(_sweep_csv_chunks(table))
    print(f"wrote {csv_path}")
    if args.plot:
        gp_path = out / f"sweep_{model}.gp"
        _write_text(gp_path, _sweep_plot_lines(csv_path.name, axis, measures, table.iterations))
        print(f"wrote {gp_path}")
    return 0


def _cmd_flow(args) -> int:
    model = MODELS[args.model]
    measures = args.measures if args.measures is not None else list(MEASURE_NAMES)
    trajectory = iterate(model.params(args.j, args.start), args.steps)
    out = _out_dir(args)
    csv_path = out / f"flow_{model.name}.csv"
    lines = [",".join(["n", "N", model.coupling, "J"] + measures)]
    for step in trajectory.steps:
        values = dict(zip(MEASURE_NAMES, astuple(step.measures)))
        fields = [str(step.n), str(step.size), fmt(getattr(step.params, model.coupling))]
        fields += [fmt(step.params.j)] + [fmt(values[m]) for m in measures]
        lines.append(",".join(fields))
    _write_text(csv_path, lines)
    print(f"wrote {csv_path}")
    if args.plot:
        gp_path = out / f"flow_{model.name}.gp"
        _write_text(gp_path, _flow_plot_lines(csv_path.name, measures))
        print(f"wrote {gp_path}")
    return 0


def _scaling_self_test() -> int:
    # Synthetic power laws through the real fit path: 5 N^2 and 2 N^-1.
    sizes = [effective_size(n) for n in range(2, 8)]
    magnitude = loglog_fit([(size, 5.0 * size * size) for size in sizes])
    position = loglog_fit([(size, 2.0 / size) for size in sizes])
    ok = (
        abs(magnitude.exponent - 2.0) < 1e-9
        and abs(position.exponent + 1.0) < 1e-9
        and magnitude.r_squared > 1.0 - 1e-12
        and position.r_squared > 1.0 - 1e-12
    )
    tag = "PASS" if ok else "FAIL"
    print(
        f"{tag} scaling-self-test — magnitude exponent {fmt(magnitude.exponent)}, "
        f"position exponent {fmt(position.exponent)}"
    )
    return 0 if ok else NUMERIC_EXIT


def _cmd_scaling(args) -> int:
    if args.self_test:
        return _scaling_self_test()
    iterations = args.iterations if args.iterations is not None else list(range(2, 8))
    lo, hi = args.range if args.range is not None else (0.5, 1.5)
    report = scaling_report(
        args.model,
        args.measure,
        iterations=iterations,
        lo=lo,
        hi=hi,
        points=args.points,
        kind=args.kind,
        critical=args.critical,
        refine_passes=args.refine_passes,
    )
    axis = MODELS[args.model].axis
    out = _out_dir(args)
    stem = f"scaling_{args.model}_{args.measure}"
    csv_path = out / f"{stem}.csv"
    lines = [",".join(["n", "N", f"{axis}_m", "deriv_extremum_abs"])]
    for row in report.rows:
        lines.append(",".join([str(row.n), str(row.size), fmt(row.position), fmt(row.magnitude)]))
    _write_text(csv_path, lines)
    print(f"wrote {csv_path}")
    fit_lines = [
        f"{label}_fit exponent={fmt(fit.exponent)} intercept={fmt(fit.intercept)} "
        f"r_squared={fmt(fit.r_squared)}"
        for label, fit in (("magnitude", report.magnitude_fit), ("position", report.position_fit))
    ]
    fits_path = out / f"{stem}_fits.txt"
    _write_text(fits_path, fit_lines)
    for line in fit_lines:
        print(line)
    print(f"wrote {fits_path}")
    if args.plot:
        gp_path = out / f"{stem}.gp"
        _write_text(gp_path, _scaling_plot_lines(csv_path.name, args.critical))
        print(f"wrote {gp_path}")
    return 0


def _cmd_verify(args) -> int:
    results = run_all(
        oracle_states=args.oracle_states,
        random_states=args.random_states,
        params_per_model=args.params_per_model,
        sweep_points=args.sweep_points,
        jacobi_matrices=args.jacobi_matrices,
        seed=args.seed,
        inject_fault=args.inject_fault,
    )
    failed = [res for res in results if not res.ok]
    for res in results:
        print(f"{'PASS' if res.ok else 'FAIL'} {res.name} — {res.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_fixed_points(args) -> int:
    models = MODELS.values() if args.model == "all" else (MODELS[args.model],)
    for model in models:
        for value, label in fixed_points(model.name):
            print(f"{model.name} {model.coupling}={fmt(value)} {label}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrgflow",
        description=(
            "Coupling-flow sweeps, two-site correlation measures, and "
            "finite-size scaling fits for three-site block renormalisation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser(
        "sweep", help="tabulate measures over a coupling grid at several iteration depths"
    )
    sweep_p.add_argument("--model", choices=tuple(MODELS), required=True)
    sweep_p.add_argument(
        "--range", type=_parse_range, default=None, metavar="LO:HI",
        help="range of the model's axis, delta for xxz and g for xy (default 0:2.5 and 0:3)",
    )
    sweep_p.add_argument("--points", type=int, default=500)
    sweep_p.add_argument(
        "--iterations", type=_parse_iterations, default=None, metavar="DEPTHS",
        help='iteration depths, e.g. "0..6" or "0,2,4" (default 0..6)',
    )
    sweep_p.add_argument(
        "--measures", type=_parse_measures, default=None, metavar="LIST",
        help='comma-separated measure names, or "all"',
    )
    sweep_p.add_argument("--out", default=".", help="output directory")
    sweep_p.add_argument(
        "--plot", action=argparse.BooleanOptionalAction, default=True,
        help="write a gnuplot script next to the CSV",
    )

    flow_p = sub.add_parser(
        "flow", help="follow one starting point through repeated map iterations"
    )
    flow_p.add_argument("--model", choices=tuple(MODELS), required=True)
    flow_p.add_argument(
        "--start", type=float, required=True,
        help="initial coupling (delta for xxz, gamma for xy)",
    )
    flow_p.add_argument("--j", type=float, default=1.0, help="initial bond strength")
    flow_p.add_argument("--steps", type=int, default=8)
    flow_p.add_argument(
        "--measures", type=_parse_measures, default=None, metavar="LIST",
        help='comma-separated measure names, or "all"',
    )
    flow_p.add_argument("--out", default=".", help="output directory")
    flow_p.add_argument(
        "--plot", action=argparse.BooleanOptionalAction, default=True,
        help="write a gnuplot script next to the CSV",
    )

    scaling_p = sub.add_parser(
        "scaling", help="fit derivative-extremum power laws against effective size"
    )
    scaling_p.add_argument("--model", choices=tuple(MODELS), default="xy")
    scaling_p.add_argument("--measure", choices=MEASURE_NAMES, default="chsh_max")
    scaling_p.add_argument(
        "--iterations", type=_parse_iterations, default=None, metavar="DEPTHS",
        help="iteration depths entering the fit (default 2..7)",
    )
    scaling_p.add_argument(
        "--range", type=_parse_range, default=None, metavar="LO:HI",
        help="coarse search window (default 0.5:1.5)",
    )
    scaling_p.add_argument("--points", type=int, default=2001)
    scaling_p.add_argument("--refine-passes", type=int, default=2)
    scaling_p.add_argument("--kind", choices=("min", "max"), default="min")
    scaling_p.add_argument("--critical", type=float, default=1.0)
    scaling_p.add_argument("--out", default=".", help="output directory")
    scaling_p.add_argument(
        "--plot", action=argparse.BooleanOptionalAction, default=True,
        help="write a gnuplot script next to the CSV",
    )
    scaling_p.add_argument(
        "--self-test", action="store_true",
        help="run the fit machinery on built-in synthetic power laws and exit",
    )

    verify_p = sub.add_parser(
        "verify", help="run the closed-form vs brute-force verification battery"
    )
    verify_p.add_argument("--oracle-states", type=int, default=500)
    verify_p.add_argument("--random-states", type=int, default=10000)
    verify_p.add_argument("--params-per-model", type=int, default=50)
    verify_p.add_argument("--sweep-points", type=int, default=500)
    verify_p.add_argument("--jacobi-matrices", type=int, default=1000)
    verify_p.add_argument("--seed", type=int, default=42)
    verify_p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    fp_p = sub.add_parser(
        "fixed-points", help="report coupling-map fixed points and their stability"
    )
    fp_p.add_argument("--model", choices=(*MODELS, "all"), default="all")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a replaced or wrapped _cmd_* function is the one run
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
