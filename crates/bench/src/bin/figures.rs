//! Regenerates the committed results: `figures [NAME...] [--benchmarks
//! a,b,c] [--out DIR]` (see the crate docs). A usage error exits 2
//! before anything runs; a failed write exits 1; a closed stdout (e.g.
//! `figures | head`) ends the run quietly.

use mcpart_bench::figures::{Bundled, FIGURES};
use mcpart_bench::FigureArgs;
use std::io::Write;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = FigureArgs::parse(&args).unwrap_or_else(|e| {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!("error: {e}\nusage: figures [NAME...] [--benchmarks a,b,c] [--out DIR]");
        eprintln!("names: {}", names.join(" "));
        exit(2)
    });
    if let Some(dir) = &a.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: {}: {e}", dir.display());
            exit(1)
        }
    }
    let bundled = Bundled::default();
    for figure in &a.figures {
        let text = figure.render(a.workloads.as_deref(), &bundled);
        let Some(dir) = &a.out else {
            if std::io::stdout().write_all(text.as_bytes()).is_err() {
                exit(0)
            }
            continue;
        };
        let path = dir.join(format!("{}.txt", figure.name));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: {}: {e}", path.display());
            exit(1)
        }
    }
}
