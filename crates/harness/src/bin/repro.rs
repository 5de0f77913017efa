//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [TARGET] [SCALE] [--quiet | --progress] [--metrics-dir DIR]
//!       [--threads N] [--trace-out FILE] [--flame-out FILE]
//!       [--serve-metrics ADDR]
//!   TARGET: all | table1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8
//!           | fig9 | fig10 | squares | grid | sweep | experiments
//!           (default: all; `experiments` emits EXPERIMENTS.md content)
//!   SCALE:  mini | standard                             (default: mini)
//!   --quiet         suppress stderr entirely
//!   --progress      human-readable progress lines on stderr
//!   --metrics-dir   write one structured JSONL file per grid/sweep cell
//!   --threads       worker count for ranking and zoo training (results are
//!                   thread-count independent; defaults to KGFD_THREADS or
//!                   the CPU count, capped at 8)
//!   --trace-out     write the hierarchical span tree as Chrome trace JSON
//!   --flame-out     write the span tree as collapsed-stack flamegraph text
//!   --serve-metrics serve live /metrics, /healthz, /trace on ADDR while
//!                   the run is in flight
//! ```
//!
//! Text reports go to stdout; JSON series to `target/kgfd-results/`. A
//! reader that closes stdout early (`repro ... | head`) ends the run
//! cleanly: exit 0, nothing on stderr.

use kgfd_harness::{figures, run_grid, run_sweep, GridOptions, Scale, SweepOptions};
use std::io::{ErrorKind, Write};
use std::sync::Arc;

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut quiet = false;
    let mut progress = false;
    let mut metrics_dir: Option<std::path::PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut trace_out: Option<String> = None;
    let mut flame_out: Option<String> = None;
    let mut serve_metrics: Option<String> = None;
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--quiet" => quiet = true,
            "--progress" => progress = true,
            "--metrics-dir" => match raw.next() {
                Some(dir) => metrics_dir = Some(dir.into()),
                None => {
                    eprintln!("--metrics-dir needs a directory argument");
                    std::process::exit(2);
                }
            },
            "--trace-out" => match raw.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    eprintln!("--trace-out needs a file argument");
                    std::process::exit(2);
                }
            },
            "--flame-out" => match raw.next() {
                Some(path) => flame_out = Some(path),
                None => {
                    eprintln!("--flame-out needs a file argument");
                    std::process::exit(2);
                }
            },
            "--serve-metrics" => match raw.next() {
                Some(addr) => serve_metrics = Some(addr),
                None => {
                    eprintln!("--serve-metrics needs an address argument");
                    std::process::exit(2);
                }
            },
            "--threads" => match raw
                .next()
                .and_then(|n| n.parse::<usize>().ok())
                .map(kgfd_pool::resolve_threads)
            {
                Some(Ok(n)) => threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer argument");
                    std::process::exit(2);
                }
            },
            _ => positional.push(arg),
        }
    }
    let _observer = kgfd_obs::scoped(if quiet {
        Arc::new(kgfd_obs::NullObserver) as Arc<dyn kgfd_obs::Observer>
    } else if progress {
        Arc::new(kgfd_obs::StderrProgress::new())
    } else {
        Arc::new(kgfd_obs::StderrProgress::warnings_only())
    });

    if trace_out.is_some() || flame_out.is_some() || serve_metrics.is_some() {
        kgfd_obs::enable_tracing();
    }
    let server = serve_metrics.map(|addr| {
        kgfd_obs::set_phase("repro:start");
        match kgfd_serve::MetricsServer::start(&addr) {
            Ok(server) => {
                if !quiet {
                    eprintln!("serving metrics on http://{}", server.local_addr());
                }
                server
            }
            Err(e) => {
                eprintln!("cannot serve metrics on {addr}: {e}");
                std::process::exit(2);
            }
        }
    });
    let root_span = kgfd_obs::Span::start_traced("repro.run");

    let target = positional.first().map(String::as_str).unwrap_or("all");
    let scale = match positional.get(1).map(String::as_str) {
        Some("standard") => Scale::Standard,
        Some("mini") | None => Scale::Mini,
        Some(other) => {
            eprintln!("unknown scale {other:?}; use mini or standard");
            std::process::exit(2);
        }
    };

    let needs_grid = matches!(
        target,
        "all" | "grid" | "fig2" | "fig4" | "fig6" | "experiments"
    );
    let needs_sweep = matches!(
        target,
        "all" | "sweep" | "fig7" | "fig8" | "fig9" | "fig10" | "experiments"
    );

    let grid = needs_grid.then(|| {
        let mut options = GridOptions::for_scale(scale);
        options.metrics_dir = metrics_dir.clone();
        if let Some(n) = threads {
            options.threads = n;
        }
        run_grid(scale, &options)
    });
    let sweep = needs_sweep.then(|| {
        let mut options = SweepOptions::for_scale(scale);
        options.metrics_dir = metrics_dir.clone();
        if let Some(n) = threads {
            options.threads = n;
        }
        run_sweep(scale, &options)
    });

    let mut sections: Vec<String> = Vec::new();
    let want = |name: &str| target == "all" || target == name;
    if want("table1") {
        sections.push(figures::table1_datasets::render(scale));
    }
    if let Some(grid) = &grid {
        if want("fig2") || target == "grid" {
            sections.push(figures::fig2_runtime::render(grid));
        }
        if want("fig4") || target == "grid" {
            sections.push(figures::fig4_mrr::render(grid));
        }
        if want("fig6") || target == "grid" {
            sections.push(figures::fig6_efficiency::render(grid));
        }
    }
    if want("fig3") {
        sections.push(figures::fig3_clustering_dist::render(scale));
    }
    if want("fig5") {
        sections.push(figures::fig5_node_profiles::render(scale));
    }
    if let Some(sweep) = &sweep {
        if want("fig7") || target == "sweep" {
            sections.push(figures::fig7_runtime_sweep::render(sweep));
        }
        if want("fig8") || target == "sweep" {
            sections.push(figures::fig8_quality_sweep::render(sweep));
        }
        if want("fig9") || target == "sweep" {
            sections.push(figures::fig9_topn_efficiency::render(sweep));
        }
        if want("fig10") || target == "sweep" {
            sections.push(figures::fig10_candidates_efficiency::render(sweep));
        }
    }
    if want("squares") {
        sections.push(figures::squares_cost::render(scale));
    }
    if target == "experiments" || target == "all" {
        if let (Some(grid), Some(sweep)) = (&grid, &sweep) {
            sections.push(kgfd_harness::render_experiments_md(scale, grid, sweep));
        }
    }

    if sections.is_empty() {
        eprintln!("unknown target {target:?}");
        std::process::exit(2);
    }
    let rule = "=".repeat(80);
    let mut stdout = std::io::stdout().lock();
    let written = sections
        .iter()
        .try_for_each(|s| writeln!(stdout, "{s}\n{rule}"))
        .and_then(|()| stdout.flush());
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("cannot write the report to stdout: {e}");
            std::process::exit(1);
        }
    }

    drop(root_span);
    if let Some(server) = server {
        server.shutdown();
    }
    if trace_out.is_some() || flame_out.is_some() {
        let tree = kgfd_obs::TraceTree::build(kgfd_obs::collector().drain());
        if let Some(path) = &trace_out {
            if let Err(e) = std::fs::write(path, kgfd_obs::chrome_trace(&tree)) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
        if let Some(path) = &flame_out {
            if let Err(e) = std::fs::write(path, kgfd_obs::flamegraph_collapsed(&tree)) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
