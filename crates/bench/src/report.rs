//! Shared report output: one buffered writer for every `BENCH_*.json`.
//!
//! Every `BENCH_*.json` emitter used to open its own file handle with
//! `std::fs::write`; they now all route through [`write_report`] — a
//! single explicit `BufWriter` open/write/flush with uniform success
//! and failure reporting, so adding a report never reinvents the I/O
//! or drifts the console messages.
//!
//! The renderers themselves stay hand-rolled (the in-tree serde shim
//! is a no-op facade), and the committed reports pin their key order.

use std::io::Write;

/// Writes a finished report through one buffered handle, printing
/// `wrote {path}` on success and `could not write {path}: {e}` on any
/// failure (create, write or flush) — the contract every bench module
/// used to hand-roll.
pub fn write_report(path: &str, json: &str) {
    match try_write(path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn try_write(path: &str, json: &str) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    out.write_all(json.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_report_round_trips() {
        let dir = std::env::temp_dir().join("rn_bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let path = path.to_str().unwrap();
        write_report(path, "{\"a\": 1}\n");
        assert_eq!(std::fs::read_to_string(path).unwrap(), "{\"a\": 1}\n");
    }
}
