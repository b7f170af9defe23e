//! CI bench regression gate: `cargo run -p xtask -- bench-gate`.
//!
//! The bench binaries (`cargo run --release -p rn-bench --bin
//! experiments -- sweep|throughput`) write `BENCH_4.json` /
//! `BENCH_2.json` into the repo root. `BENCH_BASELINE.json` pins a keyed
//! subset of their values, and this gate re-reads the freshly-written
//! reports and fails on regression:
//!
//! * **deterministic counters** (expansions, retargets, page faults,
//!   skyline sizes) carry `tolerance_pct: 0` — they are
//!   bitwise reproducible (DESIGN.md §10), so *any* drift is a real
//!   behaviour change and must be an intentional, reviewed baseline
//!   update;
//! * **wall-clock-derived values** (modeled speedups) carry a documented
//!   band — they are ratios of same-host measurements, far more stable
//!   than absolute walls, but still host-sensitive.
//!
//! Everything here is hand-rolled on purpose: the workspace is offline
//! (no serde_json), and the gate needs only numbers at keyed paths, e.g.
//! `series[algo=EDC].expansions`.

use std::fmt;
use std::path::Path;

/// A parsed JSON value. Objects keep their key order (no hashing — the
/// gate never needs lookup speed, and ordered pairs keep output stable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of key `k` when `self` is an object.
    pub fn get(&self, k: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, when `self` is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a complete JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            ch as char,
            *pos,
            b.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_keyword(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = *b
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    // The bench reports never emit \b, \f or \uXXXX;
                    // reject rather than mis-decode.
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                });
                *pos += 1;
            }
            _ => {
                // Copy the full UTF-8 code point.
                let s = &b[*pos..];
                let len = utf8_len(s[0]);
                let chunk = std::str::from_utf8(&s[..len.min(s.len())])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                out.push_str(chunk);
                *pos += chunk.len();
            }
        }
    }
    Err("unterminated string".to_string())
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

/// Resolves a dotted path with `[key=value]` array selectors, e.g.
/// `series[algo=EDC].expansions` or
/// `series[algo=CE].workers[workers=8].modeled_speedup`.
pub fn lookup<'a>(root: &'a Json, path: &str) -> Result<&'a Json, String> {
    let mut cur = root;
    for seg in path.split('.') {
        let (name, selector) = match seg.find('[') {
            Some(open) => {
                let close = seg
                    .rfind(']')
                    .ok_or_else(|| format!("unclosed selector in segment {seg:?}"))?;
                (&seg[..open], Some(&seg[open + 1..close]))
            }
            None => (seg, None),
        };
        cur = cur
            .get(name)
            .ok_or_else(|| format!("no key {name:?} along path {path:?}"))?;
        if let Some(sel) = selector {
            let (key, want) = sel
                .split_once('=')
                .ok_or_else(|| format!("selector {sel:?} is not key=value"))?;
            let Json::Arr(items) = cur else {
                return Err(format!("{name:?} is not an array, cannot select [{sel}]"));
            };
            cur = items
                .iter()
                .find(|item| match item.get(key) {
                    Some(Json::Str(s)) => s == want,
                    Some(Json::Num(n)) => want.parse::<f64>() == Ok(*n),
                    _ => false,
                })
                .ok_or_else(|| format!("no element with {key}={want} in {name:?}"))?;
        }
    }
    Ok(cur)
}

/// One pinned value of the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Report file, relative to the workspace root (e.g. `BENCH_4.json`).
    pub file: String,
    /// Keyed path inside the report (see [`lookup`]).
    pub path: String,
    /// The pinned value.
    pub expected: f64,
    /// Allowed relative drift in percent; `0` means exact.
    pub tolerance_pct: f64,
}

/// A [`GateCheck`] evaluated against a live report.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// The check evaluated.
    pub check: GateCheck,
    /// The value found, when the path resolved to a number.
    pub actual: Result<f64, String>,
}

impl GateOutcome {
    /// Whether the live value is within the check's tolerance.
    pub fn pass(&self) -> bool {
        match &self.actual {
            Err(_) => false,
            Ok(actual) => {
                let allowed = self.check.expected.abs() * self.check.tolerance_pct / 100.0;
                (actual - self.check.expected).abs() <= allowed
            }
        }
    }
}

impl fmt::Display for GateOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = if self.pass() { "PASS" } else { "FAIL" };
        match &self.actual {
            Ok(actual) => write!(
                f,
                "{status} {}:{} expected {} (±{}%) got {}",
                self.check.file,
                self.check.path,
                self.check.expected,
                self.check.tolerance_pct,
                actual
            ),
            Err(e) => write!(
                f,
                "{status} {}:{} expected {} — {}",
                self.check.file, self.check.path, self.check.expected, e
            ),
        }
    }
}

/// Parses `BENCH_BASELINE.json` into its checks.
pub fn parse_baseline(text: &str) -> Result<Vec<GateCheck>, String> {
    let doc = parse_json(text)?;
    let Some(Json::Arr(items)) = doc.get("checks") else {
        return Err("baseline has no \"checks\" array".to_string());
    };
    let mut checks = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = |k: &str| {
            item.get(k)
                .ok_or_else(|| format!("check #{i} is missing {k:?}"))
        };
        checks.push(GateCheck {
            file: field("file")?
                .as_str()
                .ok_or_else(|| format!("check #{i}: file is not a string"))?
                .to_string(),
            path: field("path")?
                .as_str()
                .ok_or_else(|| format!("check #{i}: path is not a string"))?
                .to_string(),
            expected: field("value")?
                .as_num()
                .ok_or_else(|| format!("check #{i}: value is not a number"))?,
            tolerance_pct: field("tolerance_pct")?
                .as_num()
                .ok_or_else(|| format!("check #{i}: tolerance_pct is not a number"))?,
        });
    }
    Ok(checks)
}

/// Evaluates one check against a parsed report.
pub fn evaluate(check: &GateCheck, report: &Json) -> GateOutcome {
    let actual = lookup(report, &check.path).and_then(|v| {
        v.as_num()
            .ok_or_else(|| format!("{:?} is not a number", check.path))
    });
    GateOutcome {
        check: check.clone(),
        actual,
    }
}

/// Runs the whole gate: reads `BENCH_BASELINE.json` under `root`,
/// evaluates every check against its report file, and returns the
/// outcomes (pass and fail alike). `Err` means the gate could not run at
/// all (missing/corrupt baseline or report).
pub fn run_gate(root: &Path) -> Result<Vec<GateOutcome>, String> {
    let baseline_path = root.join("BENCH_BASELINE.json");
    let text = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
    let checks = parse_baseline(&text)?;
    if checks.is_empty() {
        return Err("baseline contains no checks".to_string());
    }
    let mut outcomes = Vec::with_capacity(checks.len());
    // Reports are loaded once per distinct file, in first-use order.
    let mut reports: Vec<(String, Json)> = Vec::new();
    for check in checks {
        if !reports.iter().any(|(f, _)| *f == check.file) {
            let path = root.join(&check.file);
            let body = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let doc = parse_json(&body).map_err(|e| format!("{}: {e}", check.file))?;
            reports.push((check.file.clone(), doc));
        }
        let report = &reports
            .iter()
            .find(|(f, _)| *f == check.file)
            .expect("report loaded above")
            .1;
        outcomes.push(evaluate(&check, report));
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/xtask has a workspace root")
            .to_path_buf()
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        let doc = parse_json(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x", "d": true}, "e": null}"#)
            .expect("valid JSON");
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-300.0),
            ]))
        );
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x")
        );
        assert_eq!(doc.get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_numbers() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("{\"a\": 1..2}").is_err());
        assert!(parse_json("[1,").is_err());
    }

    #[test]
    fn lookup_follows_keyed_selectors() {
        let doc = parse_json(
            r#"{"series": [
                {"algo": "CE", "workers": [{"workers": 1, "v": 10}, {"workers": 8, "v": 80}]},
                {"algo": "EDC", "workers": [{"workers": 8, "v": 99}]}
            ]}"#,
        )
        .expect("valid JSON");
        let v = lookup(&doc, "series[algo=EDC].workers[workers=8].v").expect("path resolves");
        assert_eq!(v.as_num(), Some(99.0));
        assert!(lookup(&doc, "series[algo=LBC].workers").is_err());
        assert!(lookup(&doc, "series[algo=CE].missing").is_err());
    }

    #[test]
    fn tolerance_bands_admit_drift_and_zero_means_exact() {
        let report = parse_json(r#"{"x": 105.0}"#).expect("valid");
        let mk = |tol: f64| GateCheck {
            file: "r.json".into(),
            path: "x".into(),
            expected: 100.0,
            tolerance_pct: tol,
        };
        assert!(evaluate(&mk(5.0), &report).pass());
        assert!(!evaluate(&mk(4.9), &report).pass());
        assert!(!evaluate(&mk(0.0), &report).pass());
        let exact = parse_json(r#"{"x": 100.0}"#).expect("valid");
        assert!(evaluate(&mk(0.0), &exact).pass());
    }

    /// The acceptance pair: the committed baseline passes against the
    /// committed reports...
    #[test]
    fn committed_baseline_passes_against_committed_reports() {
        let outcomes = run_gate(&repo_root()).expect("gate runs");
        for o in &outcomes {
            assert!(o.pass(), "regression in committed state: {o}");
        }
    }

    /// ...and a perturbed baseline fails — the gate really discriminates.
    #[test]
    fn perturbed_baseline_fails_against_committed_reports() {
        let root = repo_root();
        let body = std::fs::read_to_string(root.join("BENCH_4.json")).expect("report exists");
        let report = parse_json(&body).expect("valid report");
        let check = GateCheck {
            file: "BENCH_4.json".into(),
            path: "series[algo=EDC].expansions".into(),
            // One off from the true deterministic counter.
            expected: 12213.0,
            tolerance_pct: 0.0,
        };
        assert!(!evaluate(&check, &report).pass());
        // Sanity: the unperturbed value passes exactly.
        let truth = GateCheck {
            expected: 12212.0,
            ..check
        };
        assert!(evaluate(&truth, &report).pass());
    }

    #[test]
    fn missing_path_is_a_failure_not_a_panic() {
        let report = parse_json(r#"{"a": 1}"#).expect("valid");
        let check = GateCheck {
            file: "r.json".into(),
            path: "a.b.c".into(),
            expected: 1.0,
            tolerance_pct: 0.0,
        };
        let o = evaluate(&check, &report);
        assert!(!o.pass());
        assert!(o.actual.is_err());
    }
}
