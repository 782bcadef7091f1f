//! Regenerate the paper's figures.
//!
//! ```text
//! cargo run --release -p multimap-bench --bin figures -- all
//! cargo run --release -p multimap-bench --bin figures -- fig6a fig6b
//! cargo run --release -p multimap-bench --bin figures -- --quick all
//! cargo run --release -p multimap-bench --bin figures -- --replot all
//! cargo run --release -p multimap-bench --bin figures -- --quick --backend ssd backends
//! ```
//!
//! `--replot` rebuilds the SVG charts from previously saved TSVs without
//! re-running any experiment. `--backend` restricts the `backends`
//! matrix to one registry device backend (`disk`, `ssd` or `imr`).
//!
//! Results are printed and saved as TSV under `results/<scale>/`.

use std::path::PathBuf;
use std::time::Instant;

use multimap_bench::figure_plots::auto_plots;
use multimap_bench::plot::save_svg;
use multimap_bench::{ablations, backends, fig1, fig6, fig7, fig8, model_fig, Scale, Table};

/// TSV file name for each figure id.
fn tsv_name(fig: &str) -> Option<&'static str> {
    Some(match fig {
        "fig1" => "fig1_seek_profile",
        "fig6a" => "fig6a_synthetic_beams",
        "fig6b" => "fig6b_synthetic_ranges",
        "fig7a" => "fig7a_earthquake_beams",
        "fig7b" => "fig7b_earthquake_ranges",
        "fig8" => "fig8_olap_queries",
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let replot = args.iter().any(|a| a == "--replot");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let backend: Option<String> = args
        .iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(name) = backend.as_deref() {
        if !multimap_disksim::BACKEND_NAMES.contains(&name) {
            eprintln!(
                "error: unknown --backend '{name}' (expected one of {})",
                multimap_disksim::BACKEND_NAMES.join("|")
            );
            std::process::exit(2);
        }
    }
    // Figure ids are the positional args, minus `--backend`'s value.
    let mut figures: Vec<&str> = Vec::new();
    let mut skip_value = false;
    for a in &args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if a == "--backend" {
            skip_value = true;
            continue;
        }
        if !a.starts_with("--") {
            figures.push(a.as_str());
        }
    }
    if figures.is_empty() || figures.contains(&"all") {
        figures = vec![
            "fig1",
            "fig6a",
            "fig6b",
            "fig7a",
            "fig7b",
            "fig8",
            "ablations",
            "model",
            "backends",
        ];
    }
    let out_dir = PathBuf::from("results").join(if quick { "quick" } else { "paper" });
    println!(
        "running {:?} at {} scale (results -> {})\n",
        figures,
        if quick { "quick" } else { "paper" },
        out_dir.display()
    );

    let save = |table: &Table, name: &str| {
        table.print();
        println!();
        if let Err(e) = table.save_tsv(&out_dir, name) {
            eprintln!("warning: could not save {name}.tsv: {e}");
        }
    };
    let save_plots = |fig: &str, table: &Table| {
        let plot_dir = out_dir.join("plots");
        for (name, svg) in auto_plots(fig, table) {
            if let Err(e) = save_svg(&svg, &plot_dir, &name) {
                eprintln!("warning: could not save {name}.svg: {e}");
            }
        }
    };

    if replot {
        // Rebuild SVGs from previously saved TSVs without re-running the
        // experiments.
        for fig in figures {
            let Some(name) = tsv_name(fig) else { continue };
            let path = out_dir.join(format!("{name}.tsv"));
            match Table::load_tsv(&path, name) {
                Ok(table) => {
                    for (plot_name, svg) in auto_plots(fig, &table) {
                        if let Err(e) = save_svg(&svg, &out_dir.join("plots"), &plot_name) {
                            eprintln!("warning: could not save {plot_name}.svg: {e}");
                        } else {
                            println!("replotted {plot_name}.svg");
                        }
                    }
                }
                Err(e) => eprintln!("skipping {fig}: {e}"),
            }
        }
        return;
    }

    for fig in figures {
        // staticcheck: allow(det-wall-clock) — progress reporting only: the elapsed time is printed to stderr and never reaches a figure table.
        let started = Instant::now();
        match fig {
            "fig1" => {
                let t = fig1::run();
                save(&t, "fig1_seek_profile");
                save_plots("fig1", &t);
            }
            "fig6a" => {
                let t = fig6::run_beams(scale);
                save(&t, "fig6a_synthetic_beams");
                save_plots("fig6a", &t);
            }
            "fig6b" => {
                let t = fig6::run_ranges(scale);
                save(&t, "fig6b_synthetic_ranges");
                save_plots("fig6b", &t);
            }
            "fig7a" => {
                let t = fig7::run_beams(scale);
                save(&t, "fig7a_earthquake_beams");
                save_plots("fig7a", &t);
            }
            "fig7b" => {
                let t = fig7::run_ranges(scale);
                save(&t, "fig7b_earthquake_ranges");
                save_plots("fig7b", &t);
            }
            "fig8" => {
                let t = fig8::run(scale);
                save(&t, "fig8_olap_queries");
                save_plots("fig8", &t);
            }
            "model" => save(&model_fig::run(scale), "model_validation"),
            "ablations" => {
                for (i, t) in ablations::run_all(scale).iter().enumerate() {
                    save(t, &format!("ablation_{i}"));
                }
            }
            "backends" => {
                let filter = backend.as_deref();
                let cells = backends::run(scale, filter);
                save(&backends::table(scale, &cells), "backend_matrix");
                let writes = backends::write_sweep(scale, filter);
                save(&backends::write_table(scale, &writes), "backend_write_sweep");
            }
            other => {
                eprintln!("unknown figure id: {other}");
                eprintln!(
                    "known: fig1 fig6a fig6b fig7a fig7b fig8 ablations model backends all"
                );
                std::process::exit(2);
            }
        }
        eprintln!("[{fig} took {:.1}s]\n", started.elapsed().as_secs_f64());
    }

    // Telemetry sidecar: the figure generators record merged per-figure
    // metrics into the global registry; dump them next to the TSVs.
    // TSV/SVG contents never depend on telemetry (see docs/observability.md).
    let registry = multimap_telemetry::global();
    if multimap_telemetry::enabled() && !registry.is_empty() {
        let path = out_dir.join("telemetry.json");
        match std::fs::write(&path, registry.to_json().to_pretty()) {
            Ok(()) => println!("telemetry -> {}", path.display()),
            Err(e) => eprintln!("warning: could not save telemetry.json: {e}"),
        }
    }
}
