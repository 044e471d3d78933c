//! Regenerates the paper's tables and figures on stdout.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p teemon-bench --bin figures             # everything
//! cargo run --release -p teemon-bench --bin figures -- fig8     # one figure
//! cargo run --release -p teemon-bench --bin figures -- fig11 --samples 5000
//! cargo run --release -p teemon-bench --bin figures -- fig5 --json
//! ```

use serde::Serialize;
use teemon::experiments::{self, PAPER_CONNECTIONS};
use teemon_bench::{
    format_figure11, format_figure4, format_figure5, format_figure6, format_figure7, format_sweep,
    full_report, parse_figures_args, FIGURES_USAGE,
};

/// Prints `rows` as JSON or through `format`.
fn print<T: Serialize>(json: bool, rows: &T, format: impl FnOnce(&T) -> String) {
    if json {
        println!("{}", experiments::to_json(rows));
    } else {
        println!("{}", format(rows));
    }
}

fn main() {
    let args = parse_figures_args(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("figures: {err}\n{FIGURES_USAGE}");
        std::process::exit(1);
    });
    if args.help {
        eprintln!("{FIGURES_USAGE}");
        return;
    }
    let (json, samples) = (args.json, args.samples);
    match args.figure.as_str() {
        "fig4" | "figure4" => print(json, &experiments::figure4(24.0), format_figure4),
        "fig5" | "figure5" => print(json, &experiments::figure5(samples), |r| format_figure5(r)),
        "fig6" | "figure6" => print(json, &experiments::figure6(samples), |r| format_figure6(r)),
        "fig7" | "figure7" => print(json, &experiments::figure7(samples), |r| format_figure7(r)),
        "fig8" | "fig9" | "figure8" | "figure9" => {
            let rows = experiments::figure8_9(samples, &PAPER_CONNECTIONS);
            print(json, &rows, |r| {
                format_sweep("Figures 8 & 9: Redis under each SGX framework", r)
            });
        }
        "fig10" | "figure10" => {
            let rows = experiments::figure10(samples, &PAPER_CONNECTIONS);
            print(json, &rows, |r| format_sweep("Figure 10: head-to-head at 78 MB", r));
        }
        "fig11" | "figure11" => {
            print(json, &experiments::figure11(samples), |r| format_figure11(r))
        }
        "all" => println!("{}", full_report(samples)),
        other => {
            eprintln!("unknown figure {other:?}; try --help");
            std::process::exit(1);
        }
    }
}
