//! Metric rows and the documents they are written to: `name value unit`
//! lines, the per-workload result JSON, and the one-line summary the
//! pipeline reads.

use std::fmt::Write as _;

use crate::stats::{median, spread_frac};

/// How the workloads generate load; printed with every result.
pub const LOAD_MODEL: &str =
    "open loop in virtual time: arrivals are materialised before the run, \
latency is measured from the virtual arrival instant, generator lateness is 0 by construction";

/// One reported metric. `reps` holds the per-repetition values of an
/// end-to-end metric (the value is their median, or for `run_wall_s` the
/// slice-wise fastest of them, which brings its own `spread_frac`); `samples` is the sample
/// count behind a percentile or a per-call figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<u64>,
    pub reps: Vec<f64>,
    /// Overrides the spread of `reps` in the result document.
    pub spread_frac: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples: None,
            reps: Vec::new(),
            spread_frac: None,
        }
    }

    /// A metric whose value is the median over repetitions.
    pub fn over_reps(name: &'static str, reps: Vec<f64>, unit: &'static str) -> Metric {
        let mut sorted = reps.clone();
        Metric {
            reps,
            ..Metric::new(name, median(&mut sorted), unit)
        }
    }

    pub fn samples(mut self, n: u64) -> Metric {
        self.samples = Some(n);
        self
    }

    /// `name value unit`, with sample count or per-rep range when known.
    pub fn line(&self) -> String {
        let mut line = format!("{} {} {}", self.name, self.value, self.unit);
        if let Some(n) = self.samples {
            let _ = write!(line, " (n={n})");
        }
        if self.reps.len() > 1 {
            let lo = self.reps.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = self.reps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let _ = write!(line, " (reps={} min={lo} max={hi})", self.reps.len());
        }
        line
    }

    fn json_fields(&self) -> String {
        let mut out = format!("\"value\": {}, \"unit\": \"{}\"", self.value, self.unit);
        if let Some(n) = self.samples {
            let _ = write!(out, ", \"samples\": {n}");
        }
        if !self.reps.is_empty() {
            let reps: Vec<String> = self.reps.iter().map(f64::to_string).collect();
            let _ = write!(
                out,
                ", \"spread_frac\": {}, \"reps\": [{}]",
                self.spread_frac.unwrap_or_else(|| spread_frac(&self.reps)),
                reps.join(", ")
            );
        }
        out
    }
}

fn metrics_object(metrics: &[Metric], indent: &str) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| format!("{indent}  \"{}\": {{{}}}", m.name, m.json_fields()))
        .collect();
    format!("{{\n{}\n{indent}}}", rows.join(",\n"))
}

/// Everything one workload run reports.
pub struct Results {
    pub workload: &'static str,
    pub discipline: &'static str,
    pub seed: u64,
    pub workload_seed: u64,
    pub reps: usize,
    pub traced: bool,
    pub digest: u64,
    pub requests_total: u64,
    /// Requests that missed their SLO: rejected, late or unanswered.
    pub requests_failed: u64,
    /// Requests that never got a response of any kind.
    pub requests_unanswered: u64,
    pub latency_samples: u64,
    pub samples_beyond_p999: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Results {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The human-readable report: every metric by name.
    pub fn print(&self) {
        println!(
            "# {} seed={} workload_seed={} discipline={} reps={} digest={:016x}",
            self.workload, self.seed, self.workload_seed, self.discipline, self.reps, self.digest
        );
        println!("# {LOAD_MODEL}");
        println!(
            "# requests_total={} requests_failed={} requests_unanswered={} latency_samples={} beyond_p99.9={}",
            self.requests_total,
            self.requests_failed,
            self.requests_unanswered,
            self.latency_samples,
            self.samples_beyond_p999
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            println!("{}", m.line());
        }
        for failure in &self.failures {
            eprintln!("CHECK FAILED: {failure}");
        }
    }

    /// The result document `--out` writes and `--compare` reads.
    pub fn to_json(&self) -> String {
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('\\', "/").replace('"', "'")))
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"discipline\": \"{}\",\n  \"seed\": {},\n  \"workload_seed\": {},\n  \"reps\": {},\n  \"traced\": {},\n  \"load\": \"{LOAD_MODEL}\",\n  \"digest\": \"{:016x}\",\n  \"requests_total\": {},\n  \"requests_failed\": {},\n  \"requests_unanswered\": {},\n  \"latency_samples\": {},\n  \"samples_beyond_p99.9\": {},\n  \"correct\": {},\n  \"failures\": [{}],\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
            self.workload,
            self.discipline,
            self.seed,
            self.workload_seed,
            self.reps,
            self.traced,
            self.digest,
            self.requests_total,
            self.requests_failed,
            self.requests_unanswered,
            self.latency_samples,
            self.samples_beyond_p999,
            self.correct(),
            failures.join(", "),
            metrics_object(&self.end_to_end, "  "),
            metrics_object(&self.per_layer, "  "),
        )
    }

    /// The last line of standard output: `correct`, `attempted`, `failed`
    /// and the end-to-end metrics, or the per-layer ones on a traced run.
    ///
    /// `failed` counts requests that never got a response. A rejection or a
    /// late response is an answer; those are what `slo_met_frac` measures.
    pub fn summary_line(&self) -> String {
        let metrics = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let rows: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.requests_total.max(1),
            self.requests_unanswered,
            rows.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn results(traced: bool) -> Results {
        Results {
            workload: "fleet_steady",
            discipline: "clockwork",
            seed: 7,
            workload_seed: 2020,
            reps: 3,
            traced,
            digest: 0xabc,
            requests_total: 10,
            requests_failed: 1,
            requests_unanswered: 0,
            latency_samples: 9,
            samples_beyond_p999: 0,
            failures: vec![],
            end_to_end: vec![Metric::over_reps("run_wall_s", vec![3.0, 1.0, 2.0], "s")],
            per_layer: vec![Metric::new("sim.events_pushed", 5.0, "count").samples(4)],
        }
    }

    #[test]
    fn documents_parse_back_and_pick_the_right_metric_set() {
        let r = results(false);
        let doc = json::parse(&r.to_json()).expect("result document is valid JSON");
        let wall = doc.get("end_to_end").unwrap().get("run_wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(wall.get("spread_frac").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            doc.get("digest").unwrap().as_str(),
            Some("0000000000000abc")
        );

        let line = json::parse(&r.summary_line()).unwrap();
        assert!(matches!(&line, json::Value::Obj(fields) if fields.len() == 4));
        assert!(line.get("metrics").unwrap().get("run_wall_s").is_some());
        let traced = json::parse(&results(true).summary_line()).unwrap();
        let metrics = traced.get("metrics").unwrap();
        assert!(metrics.get("sim.events_pushed").is_some() && metrics.get("run_wall_s").is_none());
        assert!(r.end_to_end[0].line().starts_with("run_wall_s 2 s (reps=3"));
        assert_eq!(Metric::new("x", f64::NAN, "s").value, 0.0);
    }
}
