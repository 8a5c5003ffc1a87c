"""Command-line interface: run simulations, re-vote saved matrices, plot ECDFs.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime
failure (fit-failure ceiling breached, a winner refit failed or predicted
a non-finite value, a Gamma generator mean not positive, or a non-finite
simulated population or characteristic of one).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .accuracy import AccuracyMatrix
from .dataset import load_csv
from .engine import _worker_count, config_from_dict, run
from .errors import ConfigError, DataError, PredvoteError, SimulationError
from .matrix_io import read_matrix_csv, write_ecdf_csv, write_matrix_csv
from .voting import ECDF_AUC, TRANSFORM_SCALED, SelectionResult, VotingMatrix, ecdf_steps, elect, stochastic_dominance

_EXIT_CODES = {ConfigError: 2, DataError: 3, SimulationError: 4}


def _selection_block(selections: dict[str, SelectionResult], col_labels: list[str]) -> dict:
    """Each system's criteria and full winner set, and a deterministic tie-break: lowest ECDF AUC, then name."""
    auc_by_name = dict(zip(col_labels, (float(v) for v in selections[ECDF_AUC].criterion_values)))
    return {
        "criteria": {
            system: {
                name: round(float(v), 3)
                for name, v in zip(col_labels, result.criterion_values)
            }
            for system, result in selections.items()
        },
        "directions": {system: result.direction for system, result in selections.items()},
        "winners": {system: sorted(result.winners) for system, result in selections.items()},
        "tie_break": {
            system: min(result.winners, key=lambda name: (auc_by_name[name], name))
            for system, result in selections.items()
        },
    }


def _dominance_block(w3: VotingMatrix) -> dict:
    """Stochastic-dominance diagnostics: (better, worse) strategy pairs, row-major."""
    names = w3.col_labels
    return {
        key: [[names[i], names[j]] for i, j in zip(*stochastic_dominance(w3, order=order).nonzero())]
        for order, key in ((1, "first_order"), (2, "second_order"))
    }


def _output_dir(out_dir: str) -> Path:
    """The --out directory, checked before any work: no existing part of its path may be a file."""
    out = Path(out_dir)
    blocker = next(part for part in (out, *out.parents) if part.exists())
    if not blocker.is_dir():
        raise ConfigError(f"cannot write --out {out_dir}: {blocker} exists and is not a directory")
    return out


def _write_report(
    out_dir: Path,
    fields: dict,
    selections: dict[str, SelectionResult],
    matrices: dict[str, AccuracyMatrix | VotingMatrix],
) -> dict:
    """Write each matrix as <key>.csv, w3's ECDF steps and report.json (fields: the command's own entries)."""
    w3 = matrices["w3"]
    steps = {name: ecdf_steps(w3.entries[:, j]) for j, name in enumerate(w3.col_labels)}
    report = {
        "version": __version__,
        **fields,
        **_selection_block(selections, w3.col_labels),
        "dominance": _dominance_block(w3),
        "artifacts": {key: f"{key}.csv" for key in (*matrices, "ecdf")},
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for key, m in matrices.items():
            write_matrix_csv(out_dir / f"{key}.csv", m.entries, m.row_labels, m.col_labels)
        write_ecdf_csv(out_dir / "ecdf.csv", steps)
        (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out_dir}: {exc}") from exc
    return report


def _unique_keys(pairs: list) -> dict:
    """json object_pairs_hook: a key that appears twice in one object is a ConfigError, not a silent overwrite."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"configuration key {key!r} is repeated")
        doc[key] = value
    return doc


def cmd_run(
    config_path: str,
    data_path: str,
    out_dir: str,
    workers: int | None = None,
) -> int:
    try:
        doc = json.loads(Path(config_path).read_text(encoding="utf-8-sig"), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {config_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read configuration {config_path}: not UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{config_path}: invalid JSON: {exc}") from exc
    config = config_from_dict(doc)
    if config.schema is None:
        raise ConfigError("schema: required to load the data CSV")
    workers = _worker_count(workers)
    out = _output_dir(out_dir)

    output = run(config, load_csv(data_path, config.schema), workers)

    fields = {
        "metadata": output.metadata,
        "final_predictions": {
            name: {
                char: float(v)
                for char, v in zip(output.metadata["characteristics"], values)
            }
            for name, values in output.final_predictions.items()
        },
    }
    matrices = {"accuracy_matrix": output.accuracy_matrix, "w1": output.w1, "w2": output.w2, "w3": output.w3}
    report = _write_report(out, fields, output.selections, matrices)
    print(f"run complete: winners {report['winners']}; artifacts in {out}")
    return 0


def cmd_vote(matrix_path: str, out_dir: str) -> int:
    entries, row_labels, col_labels = read_matrix_csv(matrix_path)
    if entries.shape[1] < 2:
        raise DataError(f"{matrix_path}: need at least two strategy columns")
    out = _output_dir(out_dir)
    try:
        matrix = AccuracyMatrix(entries=entries, row_labels=row_labels, col_labels=col_labels)
    except DataError as exc:
        raise DataError(f"{matrix_path}: {exc}") from exc
    selections, matrices = elect(matrix)

    fields = {
        "metadata": {
            "source_matrix": str(matrix_path),
            "rows": int(entries.shape[0]),
            "columns": int(entries.shape[1]),
        },
    }
    report = _write_report(out, fields, selections, matrices)
    print(f"vote complete: winners {report['winners']}; artifacts in {out}")
    return 0


def cmd_plot_ecdf(input_path: str, out_svg: str) -> int:
    # imported here so that run and vote, which draw nothing, never load the renderer
    from .plots import render_ecdf_svg

    entries, row_labels, col_labels = read_matrix_csv(input_path)
    try:
        svg = render_ecdf_svg(VotingMatrix(entries, TRANSFORM_SCALED, row_labels, col_labels))
    except ValueError as exc:  # the scaled scores do not lie in [0, 1]
        raise DataError(f"{input_path}: {exc}") from exc
    try:
        Path(out_svg).parent.mkdir(parents=True, exist_ok=True)
        Path(out_svg).write_text(svg, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out_svg}: {exc}") from exc
    print(f"wrote {out_svg} ({len(col_labels)} curves)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predvote",
        description="Elect a prediction strategy by voting over simulated ex-ante accuracy.",
    )
    parser.add_argument("--version", action="version", version=f"predvote {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full Monte Carlo election on a data CSV")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.add_argument("--data", required=True, help="input data CSV")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--workers", type=int, default=None, help="worker processes (default: one per usable CPU)")

    p_vote = sub.add_parser("vote", help="re-run the four voting systems on a saved accuracy matrix")
    p_vote.add_argument("matrix", help="labeled accuracy matrix CSV")
    p_vote.add_argument("--out", required=True, help="output directory")

    p_plot = sub.add_parser("plot-ecdf", help="render ECDF step curves to a standalone SVG")
    p_plot.add_argument("input", help="scaled voting matrix CSV (the w3.csv of run or vote)")
    p_plot.add_argument("--out", required=True, help="output SVG file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.data, args.out, args.workers)
        if args.command == "vote":
            return cmd_vote(args.matrix, args.out)
        return cmd_plot_ecdf(args.input, args.out)
    except PredvoteError as exc:
        code = next((c for t, c in _EXIT_CODES.items() if isinstance(exc, t)), 1)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
