"""Set-up work of one run in a fresh process; prints its stage times as JSON.

Usage: python3 perfbench/setup_probe.py CONFIG.json DATA.csv
(with the repository's src/ on PYTHONPATH). Stages: import the CLI,
parse the config, dataset.load_csv, then models.fit for every generator
and generators.fit_kde for the nonparametric ones.
"""

import json
import sys
import time


def main(config_path: str, data_path: str) -> None:
    t0 = time.perf_counter()
    import predvote.cli  # noqa: F401  (the import a CLI run pays)
    from predvote.dataset import load_csv
    from predvote.engine import config_from_dict
    from predvote.generators import fit_kde
    from predvote.models import fit

    t1 = time.perf_counter()
    with open(config_path, encoding="utf-8") as fh:
        config = config_from_dict(json.load(fh))
    t2 = time.perf_counter()
    frame = load_csv(data_path, config.schema)
    t3 = time.perf_counter()
    for spec in config.generators:
        model = fit(spec, frame.x_sample, frame.y_sample)
        if not spec.is_parametric:
            fit_kde(model.sample_residuals, config.kde_bandwidth)
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t3 - t2, "gen_fit_s": t4 - t3}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
