//! `compare`: per-workload, per-metric medians, quartiles and deltas
//! between two sets of run records (two directories of record files).

use crate::stats::{median, quantile};
use oscar_serve::json::parse;
use oscar_serve::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// `(workload, trace) -> metric -> (unit, values)` over one record set.
type Table = BTreeMap<(String, bool), BTreeMap<String, (String, Vec<f64>)>>;

fn load(dir: &Path) -> Result<Table, String> {
    let mut table = Table::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record = parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = record.get("workload").and_then(Json::as_str).unwrap_or("?");
        let trace = record.get("trace").and_then(Json::as_bool).unwrap_or(false);
        let Some(Json::Obj(metrics)) = record.get("metrics") else {
            continue;
        };
        let row = table.entry((workload.to_string(), trace)).or_default();
        for (name, m) in metrics {
            let (Some(value), unit) = (
                m.get("value").and_then(Json::as_f64),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
            ) else {
                continue;
            };
            row.entry(name.clone())
                .or_insert_with(|| (unit.to_string(), Vec::new()))
                .1
                .push(value);
        }
    }
    Ok(table)
}

fn summary(values: &[f64]) -> String {
    if values.is_empty() {
        return format!("{:>36}", "-");
    }
    format!(
        "{:>12.4} [{:>10.4} {:>10.4}]",
        median(values),
        quantile(values, 0.25),
        quantile(values, 0.75)
    )
}

/// Entry point of `oscar-perfbench compare <dir-a> <dir-b>`.
pub fn main(argv: &[String]) -> ExitCode {
    let [a, b] = argv else {
        eprintln!("usage: oscar-perfbench compare <records-dir-a> <records-dir-b>");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(Path::new(a)), load(Path::new(b))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("oscar-perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let empty = BTreeMap::new();
    let keys: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).cloned().collect();
    for key in keys {
        let (workload, trace) = &key;
        let (ra, rb) = (a.get(&key).unwrap_or(&empty), b.get(&key).unwrap_or(&empty));
        println!(
            "{workload} (trace {}): runs a={} b={}",
            u8::from(*trace),
            ra.values().map(|(_, v)| v.len()).max().unwrap_or(0),
            rb.values().map(|(_, v)| v.len()).max().unwrap_or(0)
        );
        println!(
            "  {:<40} {:<6} {:>36} {:>36} {:>9}",
            "metric", "unit", "a: median [q1 q3]", "b: median [q1 q3]", "delta"
        );
        let names: std::collections::BTreeSet<_> = ra.keys().chain(rb.keys()).collect();
        for name in names {
            let (unit, va) = ra
                .get(name)
                .map_or(("", &[][..]), |(u, v)| (u.as_str(), &v[..]));
            let vb = rb.get(name).map_or(&[][..], |(_, v)| &v[..]);
            let unit = rb.get(name).map_or(unit, |(u, _)| u.as_str());
            let delta = if va.is_empty() || vb.is_empty() || median(va) == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.2}%", (median(vb) / median(va) - 1.0) * 100.0)
            };
            println!(
                "  {:<40} {:<6} {} {} {:>9}",
                name,
                unit,
                summary(va),
                summary(vb),
                delta
            );
        }
    }
    ExitCode::SUCCESS
}
