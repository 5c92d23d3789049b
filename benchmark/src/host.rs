//! The host stamp every result carries: numbers from different machines,
//! toolchains or disks are not comparable, and the stamp says which it was.

use crate::json::Json;
use crate::stats::median;
use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Median time of a 4 KiB write + `sync_data` in `dir`, in µs: what one
/// group commit pays the device, whatever the program does around it.
fn fsync_p50_us(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe.bin");
    let Ok(mut file) = std::fs::File::create(&path) else {
        return 0.0;
    };
    let block = [0u8; 4096];
    let mut times = Vec::new();
    for _ in 0..32 {
        let started = Instant::now();
        if file
            .write_all(&block)
            .and_then(|()| file.sync_data())
            .is_err()
        {
            break;
        }
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    std::fs::remove_file(&path).ok();
    median(&times)
}

/// Median time to deep-copy and free 20,000 three-string rows, in µs. The
/// commit path is allocation- and copy-bound, and on a shared host its speed
/// moves with the neighbours; this says which kind of hour the run had.
fn alloc_copy_p50_us() -> f64 {
    let rows: Vec<Box<[String]>> = (0..20_000)
        .map(|i| {
            vec![
                format!("e{i}"),
                format!("d{}", i % 50),
                format!("{}", i % 200),
            ]
            .into()
        })
        .collect();
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            drop(std::hint::black_box(rows.clone()));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

pub fn stamp(bench_dir: &Path, out_dir: &Path, seed: u64, seconds: f64, smoke: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], bench_dir)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"], bench_dir)),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("fsync_p50_us", Json::Num(fsync_p50_us(out_dir))),
        ("alloc_copy_p50_us", Json::Num(alloc_copy_p50_us())),
    ])
}
