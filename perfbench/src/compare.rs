//! Comparing two sets of benchmark results against the bounds in
//! `BENCHMARK.json`.
//!
//! A set is the final JSON line of several runs of one workload. For each
//! end-to-end metric the second set's median may be worse than the first
//! set's by at most the metric's `bound` (a share of the first median);
//! the run-to-run spread is the distance between the first and third
//! quartile as a share of the median. Independently of the bound, a metric
//! is *slower* when the candidate loses at least nine tenths of the run
//! pairs (run `i` of one set against run `i` of the other; ties count for
//! neither) and the medians differ by more than the base set's spread —
//! the rule a claimed gain must meet, applied the other way round.

use resacc_service::json::Json;
use std::collections::BTreeMap;

/// One gated metric from `BENCHMARK.json`'s `end_to_end` list.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name, as printed in a result's `metrics` object.
    pub name: String,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the baseline median.
    pub bound: f64,
}

/// The metric values of one run, by name.
pub type RunMetrics = BTreeMap<String, f64>;

/// Reads the `end_to_end` specs from the text of `BENCHMARK.json`.
pub fn specs_from_benchmark(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = Json::parse(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok(MetricSpec {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// Extracts the metric values from one result line
/// (`{"correct":…,"metrics":{"name":{"value":…,"unit":…},…}}`).
pub fn parse_result_line(line: &str) -> Result<RunMetrics, String> {
    let doc = Json::parse(line)?;
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err("result line has no metrics object".into());
    };
    Ok(fields
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)` default). Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_unstable_by(|a, b| a.total_cmp(b));
    let m = data.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, data.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Inter-quartile distance as a share of the median; `None` for fewer
/// than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Median of a set of values (mean of the middle pair for even counts).
pub fn set_median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_unstable_by(|a, b| a.total_cmp(b));
    let n = data.len();
    Some(if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    })
}

/// Outcome of comparing one metric across two sets.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Metric name.
    pub name: String,
    /// Median of the baseline set.
    pub base: f64,
    /// Median of the candidate set.
    pub candidate: f64,
    /// Worsening as a share of `base` (negative = improvement).
    pub worse_by: f64,
    /// True when `worse_by` exceeds the metric's bound.
    pub regressed: bool,
    /// True when the candidate is consistently worse (see the module
    /// docs), whether or not that exceeds the bound.
    pub slower: bool,
}

/// Compares `candidate` runs against `base` runs, metric by metric. A
/// metric missing from either set is reported as a regression.
pub fn compare(
    specs: &[MetricSpec],
    base: &[RunMetrics],
    candidate: &[RunMetrics],
) -> Vec<Verdict> {
    let values = |set: &[RunMetrics], name: &str| -> Vec<f64> {
        set.iter()
            .filter_map(|run| run.get(name).copied())
            .collect()
    };
    specs
        .iter()
        .map(|spec| {
            let (bv, cv) = (values(base, &spec.name), values(candidate, &spec.name));
            match (set_median(&bv), set_median(&cv)) {
                (Some(b), Some(c)) if b != 0.0 => {
                    let worse = |base: f64, cand: f64| {
                        if spec.lower_is_better {
                            cand - base
                        } else {
                            base - cand
                        }
                    };
                    let worse_by = worse(b, c) / b.abs();
                    let pairs = bv.len().min(cv.len());
                    let lost = bv
                        .iter()
                        .zip(&cv)
                        .filter(|(&x, &y)| worse(x, y) > 0.0)
                        .count();
                    let base_spread = spread(&bv).unwrap_or(0.0);
                    Verdict {
                        name: spec.name.clone(),
                        base: b,
                        candidate: c,
                        worse_by,
                        regressed: worse_by > spec.bound,
                        slower: pairs > 0 && lost * 10 >= pairs * 9 && worse_by > base_spread,
                    }
                }
                (b, c) => Verdict {
                    name: spec.name.clone(),
                    base: b.unwrap_or(f64::NAN),
                    candidate: c.unwrap_or(f64::NAN),
                    worse_by: f64::INFINITY,
                    regressed: true,
                    slower: true,
                },
            }
        })
        .collect()
}
