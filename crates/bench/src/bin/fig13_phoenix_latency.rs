//! Figure 13: Phoenix latency across platforms, normalized to the
//! single-threaded CPU baseline — CPU 1T / CPU MT (measured on this
//! host) vs the simulated APU at baseline, each optimization standalone,
//! and all three. `--scale` is nominal: `run_app` clamps each app's
//! input to a floor (MatMul's is fixed), so the table prints the input
//! each app actually ran.

use cis_bench::phoenix_suite::run_app;
use cis_bench::table::{print_table, section};
use phoenix::{App, OptConfig};

fn main() {
    let cfg = cis_bench::parse_args();
    section(&format!(
        "Figure 13: Phoenix latency normalized to 1-thread CPU (nominal scale {:.4})",
        cfg.scale
    ));
    let variants = OptConfig::fig13_variants();
    let mut rows = Vec::new();
    let mut speedups_1t = Vec::new();
    let mut speedups_mt = Vec::new();
    let mut speedups_xeon = Vec::new();
    // Host-independent reference: the estimated instruction stream of the
    // paper's Phoenix baseline retired at a Xeon-Gold-class 2.5 G inst/s.
    const XEON_INST_PER_SEC: f64 = 2.5e9;
    for app in App::ALL {
        let run = run_app(app, cfg, &variants);
        let xeon_ms = run.cpu_inst as f64 / XEON_INST_PER_SEC * 1e3;
        let norm = |ms: f64| {
            if ms > 0.0 {
                format!("{:.3}", ms / run.cpu_1t_ms)
            } else {
                "-".into()
            }
        };
        let mut row = vec![
            app.name().to_string(),
            run.input_desc.clone(),
            format!("{:.1}ms", run.cpu_1t_ms),
            norm(run.cpu_mt_ms),
        ];
        for v in &run.apu {
            row.push(norm(v.ms));
        }
        if let Some(all) = run.all_opts_ms() {
            speedups_1t.push(run.cpu_1t_ms / all);
            speedups_mt.push(run.cpu_mt_ms / all);
            speedups_xeon.push(xeon_ms / all);
        }
        rows.push(row);
        eprintln!("[fig13] {} done", app.name());
    }
    print_table(
        &[
            "Application",
            "Input (this run)",
            "CPU 1T",
            "CPU MT",
            "APU base",
            "APU opt1",
            "APU opt2",
            "APU opt3",
            "APU all",
        ],
        &rows,
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let gmean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    println!();
    println!(
        "APU all-opts speedup vs CPU 1T: mean {:.1}x, geomean {:.1}x, max {:.1}x",
        mean(&speedups_1t),
        gmean(&speedups_1t),
        speedups_1t.iter().cloned().fold(0.0, f64::max)
    );
    println!(
        "APU all-opts speedup vs CPU MT: mean {:.1}x, geomean {:.1}x, max {:.1}x",
        mean(&speedups_mt),
        gmean(&speedups_mt),
        speedups_mt.iter().cloned().fold(0.0, f64::max)
    );
    println!(
        "APU all-opts speedup vs modeled Xeon 1T (paper-baseline instruction \
         stream at 2.5 G inst/s): mean {:.1}x, geomean {:.1}x, max {:.1}x",
        mean(&speedups_xeon),
        gmean(&speedups_xeon),
        speedups_xeon.iter().cloned().fold(0.0, f64::max)
    );
    println!();
    println!("Paper: 41.8x mean / 14.4x geomean / 128.3x peak vs 1T CPU;");
    println!("12.5x mean / 2.6x geomean / 68.1x peak vs MT CPU. Columns < 1.0");
    println!("mean the APU is faster. CPU numbers depend on this host.");
}
