//! Table 7: analytical-framework validation — the all-opts kernel's
//! simulated ("measured") latency vs the analytical twin's prediction,
//! per Phoenix application. `--scale` is nominal: `run_app` clamps each
//! app's input to a floor (MatMul's is fixed), so the table prints the
//! input each app actually ran.

use cis_bench::phoenix_suite::run_app;
use cis_bench::table::{print_table, section};
use phoenix::{App, OptConfig};

fn main() {
    let cfg = cis_bench::parse_args();
    section(&format!(
        "Table 7: measured (simulated) vs analytical-framework prediction (nominal scale {:.4})",
        cfg.scale
    ));
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for app in App::ALL {
        let run = run_app(app, cfg, &[OptConfig::all()]);
        let measured = run.all_opts_ms().expect("all-opts variant");
        let err = (run.predicted_ms - measured) / measured * 100.0;
        errors.push(err.abs());
        rows.push(vec![
            app.name().to_string(),
            run.input_desc.clone(),
            format!("{measured:.2}"),
            format!("{:.2}", run.predicted_ms),
            format!("{err:+.1}%"),
        ]);
        eprintln!("[tab07] {} done", app.name());
    }
    print_table(
        &[
            "Application",
            "Input (this run)",
            "Meas. latency (ms)",
            "Predicted (ms)",
            "Error",
        ],
        &rows,
    );
    let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
    println!();
    println!(
        "mean |error| {:.1}%, max |error| {:.1}% (paper: 2.7% avg, 6.2% max)",
        mean_err,
        errors.iter().cloned().fold(0.0, f64::max)
    );
}
