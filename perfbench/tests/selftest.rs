//! Self-tests of the benchmark at a tiny run length: every metric named
//! in `BENCHMARK.json` is printed with its unit, the operation counts are
//! present, a one-bit error in a served output fails each workload's
//! check, and the modeled metrics repeat exactly.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use onesa_perfbench::{run, Options, Workload};

/// Length of the timed phase of a tiny run, in seconds.
const TINY: &str = "0.3";

// ---------------------------------------------------------------------
// a minimal JSON reader (the benchmark has no dependencies to lean on)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            _ => panic!("not an object: {self:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing characters in JSON");
    v
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut m = BTreeMap::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b'}' {
                    *pos += 1;
                    return Json::Obj(m);
                }
                let key = match value(b, pos) {
                    Json::Str(s) => s,
                    other => panic!("object key {other:?}"),
                };
                skip_ws(b, pos);
                assert_eq!(b[*pos], b':');
                *pos += 1;
                let v = value(b, pos);
                assert!(m.insert(key, v).is_none(), "duplicate key");
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut a = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b']' {
                    *pos += 1;
                    return Json::Arr(a);
                }
                a.push(value(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'"' => {
            let start = *pos + 1;
            let end = start
                + b[start..]
                    .iter()
                    .position(|&c| c == b'"')
                    .expect("closed string");
            *pos = end + 1;
            let s = std::str::from_utf8(&b[start..end]).expect("utf-8");
            assert!(!s.contains('\\'), "escapes are not used");
            Json::Str(s.to_string())
        }
        b't' | b'f' | b'n' => {
            for (word, v) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*pos..].starts_with(word.as_bytes()) {
                    *pos += word.len();
                    return v;
                }
            }
            panic!("bad literal at {pos}");
        }
        _ => {
            let start = *pos;
            while *pos < b.len() && b",}] \n".iter().all(|&c| c != b[*pos]) {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).expect("utf-8");
            Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s}")))
        }
    }
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
}

/// Runs the benchmark binary and parses its last line.
fn bench(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", TINY, "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark starts");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    parse(stdout.lines().last().expect("a result line"))
}

fn assert_prints(result: &Json, listed: &[Json]) {
    let printed = result.get("metrics").obj();
    assert_eq!(printed.len(), listed.len(), "exactly the listed metrics");
    for m in listed {
        let name = m.get("name").str();
        let p = printed
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not printed"));
        assert_eq!(p.get("unit").str(), m.get("unit").str(), "{name} unit");
        assert!(p.get("value").num().is_finite(), "{name} value");
    }
}

fn assert_counts(result: &Json, workload: &str) {
    let attempted = result.get("attempted").num();
    let failed = result.get("failed").num();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0, "{workload}");
    assert_eq!(failed, 0.0, "{workload}: no operation fails");
    assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
}

// ---------------------------------------------------------------------
// tests
// ---------------------------------------------------------------------

#[test]
fn every_listed_metric_is_printed_with_its_unit_and_counts() {
    let m = manifest();
    let names: Vec<&str> = m
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, ["cnn_cifar", "lm_decode", "mixed_process"]);
    for w in names {
        let plain = bench(w, 1, false);
        assert_prints(&plain, m.get("end_to_end").arr());
        assert_counts(&plain, w);
        let traced = bench(w, 1, true);
        assert_prints(&traced, m.get("per_layer").arr());
        assert_counts(&traced, w);
    }
}

#[test]
fn modeled_metrics_repeat_exactly_across_runs_and_seeds() {
    for w in Workload::ALL {
        let a = bench(w.name(), 3, false);
        let b = bench(w.name(), 4, false);
        let modeled: Vec<&String> = a
            .get("metrics")
            .obj()
            .keys()
            .filter(|k| k.starts_with("modeled_"))
            .collect();
        assert_eq!(modeled.len(), 3);
        for k in modeled {
            let (x, y) = (a.get("metrics").get(k), b.get("metrics").get(k));
            assert_eq!(
                x.get("value").num().to_bits(),
                y.get("value").num().to_bits(),
                "{} {k}",
                w.name()
            );
        }
    }
}

#[test]
fn one_flipped_bit_in_a_served_output_fails_each_workload() {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    for w in Workload::ALL {
        let report = run(&Options {
            workload: w,
            seed: 5,
            seconds: 0.2,
            trace: false,
            worker: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
            out_dir: out_dir.clone(),
            corrupt_one_output: true,
        })
        .expect("run completes");
        assert!(!report.correct, "{}", w.name());
        assert_eq!(report.failed, 1, "{}: exactly the flipped output", w.name());
    }
}
