//! Metric names, units and the result line the benchmark prints.

use std::collections::BTreeMap;

use blitzcoin_exp::ALL_EXPERIMENTS;
use blitzcoin_sim::json::Json;

use crate::probe::{
    Size, CODEC_SIZES, EMULATOR_CONFIGS, EMULATOR_SIDES, ENGINE_UNITS, TOKENSMART_N,
};

/// One measured value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit ("s", "ms", "count", ...).
    pub unit: &'static str,
}

/// Metrics by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), Metric { value, unit });
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }
}

/// Layers the traced run attributes self time to, named after their
/// modules; `bench` is the benchmark's own code between calls.
pub const LAYERS: [&str; 8] = [
    "bench",
    "exp",
    "soc.build",
    "soc.engine",
    "sim.cache",
    "sim.json",
    "core.emulator",
    "baselines.tokensmart",
];

/// Every per-layer metric of the traced run: name, unit and which
/// direction is better. `BENCHMARK.json` lists exactly these.
pub fn per_layer_catalog() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| {
        out.push((name, unit, better));
    };
    for id in ALL_EXPERIMENTS {
        add(format!("exp.{id}.s"), "s", "lower");
    }
    add("cache.hits".into(), "count", "higher");
    add("cache.misses".into(), "count", "lower");
    add("cache.hit_ratio".into(), "ratio", "higher");
    add("cache.entries".into(), "count", "lower");
    add("cache.store_mb".into(), "MiB", "lower");
    for size in Size::ALL {
        add(format!("soc.build.{}.ms", size.label()), "ms", "lower");
    }
    for size in CODEC_SIZES {
        let l = size.label();
        for stage in ["key", "store", "load"] {
            add(format!("cache.{stage}.{l}.ms"), "ms", "lower");
        }
        add(format!("json.encode.{l}.ms"), "ms", "lower");
        add(format!("json.decode.{l}.ms"), "ms", "lower");
        add(format!("json.report.{l}.kb"), "KiB", "lower");
    }
    for (size, scheme) in ENGINE_UNITS {
        let u = format!("{}.{}", size.label(), scheme.name);
        add(format!("engine.{u}.ns_per_event"), "ns/event", "lower");
        add(format!("engine.{u}.events"), "count", "lower");
        add(format!("noc.{u}.packets"), "count", "lower");
    }
    for cfg in EMULATOR_CONFIGS {
        for d in EMULATOR_SIDES {
            add(format!("emulator.{cfg}.d{d}.trial_ms"), "ms", "lower");
            add(format!("emulator.{cfg}.d{d}.exchanges"), "count", "lower");
        }
    }
    add(format!("tokensmart.n{TOKENSMART_N}.run_ms"), "ms", "lower");
    add(
        format!("tokensmart.n{TOKENSMART_N}.cycles"),
        "count",
        "lower",
    );
    for layer in LAYERS {
        add(format!("self.{layer}.ms"), "ms", "lower");
    }
    add("trace.overhead_s".into(), "s", "lower");
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let metrics = metrics
        .0
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The end-to-end metrics, measured with tracing off: name, unit and
    /// which direction is better.
    const END_TO_END: [(&str, &str, &str); 5] = [
        ("wall_s", "s", "lower"),
        ("cpu_s", "s", "lower"),
        ("peak_rss_mb", "MiB", "lower"),
        ("setup_s", "s", "lower"),
        ("claims_held", "count", "higher"),
    ];

    /// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        names.extend(per_layer_catalog().into_iter().map(|(n, _, _)| n));
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "metric names repeat");
        assert!(per_layer_catalog().len() <= 128);
        assert!(!valid_name("engine.6x6.BC/run"));
        assert!(!valid_name(".hidden"));
    }

    /// `BENCHMARK.json` names exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no `{key}` list");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let own = |v: Vec<(String, &str, &str)>| -> Vec<(String, String, String)> {
            v.into_iter()
                .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("per_layer"), own(per_layer_catalog()));
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .collect();
        assert_eq!(listed("end_to_end"), own(e2e));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no `workloads` list");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, crate::workload::NAMES);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.234567, "s");
        let line = result_line(true, 3, 0, &m);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("parses");
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.234567));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
