"""Command-line interface: extract / eval / synth subcommands.

Exit statuses: 0 success, 1 input or config error, 2 image rejected by the
quality gate (the pipeline worked; the image did not).
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .pipeline import run_eval, run_extract, run_synth

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_REJECTED = 2


class _Parser(argparse.ArgumentParser):
    # argparse defaults usage errors to status 2, which is reserved for
    # quality-gate rejection here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")

    # a subcommand reports its own leftover arguments, with its own usage,
    # instead of handing them up to the top-level parser
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--block-size", type=int, metavar="N", dest="block_size")
    parser.add_argument("--tolerance", type=float, metavar="PX",
                        help="matching tolerance in pixels")
    parser.add_argument("--dump-intermediates", action="store_true", default=None,
                        dest="dump_intermediates")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ridgekit",
        description="Fingerprint ridge enhancement, minutiae extraction and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_extract = sub.add_parser("extract", help="extract minutiae from one PGM image")
    p_extract.add_argument("image", help="input PGM (P2 or P5) file")
    _add_config_flags(p_extract)

    p_eval = sub.add_parser("eval", help="batch evaluation against ground truth")
    p_eval.add_argument("dataset_dir", help="directory of PGM images")
    p_eval.add_argument("truth_dir", help="directory of same-stem truth files")
    p_eval.add_argument("--workers", type=int, default=1, metavar="N")
    _add_config_flags(p_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("spec", help="generator spec file")
    p_synth.add_argument("--count", "-n", type=int, default=1, metavar="N")
    p_synth.add_argument("--out", metavar="DIR", default="out")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            written = run_synth(args.spec, args.count, args.out)
            print(f"wrote {len(written)} images to {args.out}")
            return EXIT_OK

        config = load_config(
            args.config,
            block_size=args.block_size,
            tolerance=args.tolerance,
            dump_intermediates=args.dump_intermediates,
        )
        if args.command == "extract":
            outcome = run_extract(args.image, config, args.out)
            if outcome.rejected:
                rej = outcome.rejection
                print(
                    f"rejected: {rej.measure} {rej.recoverable_fraction:.3f} "
                    f"below threshold {rej.threshold:.3f}",
                    file=sys.stderr,
                )
                return EXIT_REJECTED
            print(f"{outcome.image_id}: {len(outcome.minutiae)} minutiae -> {args.out}")
            return EXIT_OK

        run = run_eval(args.dataset_dir, args.truth_dir, config, args.out, args.workers)
        if run.report is not None:
            print(
                f"n={run.report.n}  mean SEN {run.report.mean_sen:.4f}  "
                f"mean SPE {run.report.mean_spe:.4f}  -> {args.out}/report.txt"
            )
        else:
            print("no images evaluated", file=sys.stderr)
        return EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
