//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p qmax-bench --release --bin figures -- <experiment> [--scale F] [--full]
//!
//! experiments:
//!   fig4 table1 fig5 fig6 fig7 fig8 fig9 table2 fig10 fig11
//!   fig12 fig13 fig14 fig15 fig16 fig17 sec3
//!   pmd-scaling sharded-scaling soa kernels windows-backend lrfu ingest
//!   ablate-deamortize ablate-select ablate-gamma ablate-window
//!   all        (everything above, in order)
//!
//! options:
//!   --scale F  multiply stream lengths by F, a finite number > 0
//!              (default 1.0)
//!   --full     use the paper's full configurations (q up to 10^7)
//! ```
//!
//! Each experiment prints its series and mirrors them under
//! `results/<id>.csv`.

use qmax_bench::experiments::{
    ablate, apps, ingest, kernels, lrfu, micro, ovs, sharded, soa, windows,
};
use qmax_bench::scale::{parse_factor, Scale};

/// Prints the usage text and exits with status 2.
fn usage() -> ! {
    eprintln!("usage: figures <experiment|all> [--scale F] [--full]");
    eprintln!("  --scale F  multiply stream lengths by F, a finite number > 0");
    eprintln!("experiments: fig4 table1 fig5 fig6 fig7 fig8 fig9 table2 fig10 fig11");
    eprintln!("             fig12 fig13 fig14 fig15 fig16 fig17 sec3");
    eprintln!("             pmd-scaling sharded-scaling soa kernels windows-backend lrfu ingest");
    eprintln!("             ablate-deamortize ablate-select ablate-gamma ablate-window");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => match it.next().and_then(|v| parse_factor(v)) {
                Some(f) => scale.factor = f,
                None => usage(),
            },
            "--full" => scale.full = true,
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        usage();
    }
    let all = [
        "fig4",
        "table1",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "table2",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "sec3",
        "pmd-scaling",
        "sharded-scaling",
        "soa",
        "kernels",
        "windows-backend",
        "lrfu",
        "ingest",
        "ablate-deamortize",
        "ablate-select",
        "ablate-gamma",
        "ablate-tail",
        "ablate-window",
    ];
    let list: Vec<&str> = if experiments.iter().any(|e| e == "all") {
        all.to_vec()
    } else {
        experiments.iter().map(|s| s.as_str()).collect()
    };
    for id in list {
        let start = std::time::Instant::now();
        match id {
            "fig4" => micro::fig4(&scale),
            "table1" => micro::table1(&scale),
            "fig5" => micro::fig5(&scale),
            "fig6" => micro::fig6(&scale),
            "fig7" => micro::fig7(&scale),
            "fig8" => apps::fig8(&scale),
            "sec3" => apps::sec3(&scale),
            "fig9" => lrfu::fig9(&scale),
            "table2" => lrfu::table2(&scale),
            "fig10" => windows::fig10(&scale),
            "fig11" => windows::fig11(&scale),
            "fig12" => ovs::fig12(&scale),
            "fig13" => ovs::fig13(&scale),
            "fig14" => ovs::fig14(&scale),
            "fig15" => ovs::fig15(&scale),
            "fig16" => ovs::fig16(&scale),
            "fig17" => ovs::fig17(&scale),
            "pmd-scaling" => ovs::pmd_scaling(&scale),
            "sharded-scaling" => sharded::sharded_scaling(&scale),
            "soa" => soa::soa_compare(&scale),
            "kernels" => kernels::kernel_compare(&scale),
            "windows-backend" => windows::windows_backend(&scale),
            "lrfu" => lrfu::lrfu_flow_table(&scale),
            "ingest" => ingest::ingest_contention(&scale),
            "ablate-deamortize" => ablate::ablate_deamortize(&scale),
            "ablate-select" => ablate::ablate_select(&scale),
            "ablate-gamma" => ablate::ablate_gamma(&scale),
            "ablate-tail" => ablate::ablate_tail(&scale),
            "ablate-window" => windows::ablate_window(&scale),
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
        eprintln!("[{id} done in {:.1?}]\n", start.elapsed());
    }
}
