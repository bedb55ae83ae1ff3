//! Summary statistics, the metric list a run reports, and its JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile with at least ten
/// samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The highest percentile of `xs` with at least ten samples beyond it.
/// Below 20 samples that percentile would fall under the median, so the
/// median is reported instead, with half the samples beyond it.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 20 {
        return Tail {
            value: median(&v),
            percentile: 50.0,
            samples: n,
            beyond: n / 2,
        };
    }
    Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
        beyond: 10,
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric values by name; [`render`] emits them in a fixed list's order.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the metrics of `list` (name, unit) from `values` as printable
/// lines and as a JSON object. A metric missing from `values` is an error
/// when `require_all` is set and reads 0 otherwise (the layer did no work
/// in this workload). Non-finite values are an error: they are not JSON.
pub fn render(
    list: &[(&'static str, &'static str)],
    values: &Values,
    require_all: bool,
) -> Result<(String, String), String> {
    let mut lines = String::new();
    let mut json = String::from("{");
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = match values.get(name) {
            Some(v) => *v,
            None if require_all => return Err(format!("metric {name} was not measured")),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let _ = writeln!(lines, "  {name:<36} {value:>16.4} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push('}');
    Ok((lines, json))
}

/// What a workload run that passed every output check produced: the
/// operations it attempted and failed, and its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
}

/// Operations sent, succeeded and failed in one phase of a workload.
pub struct Phase {
    pub name: String,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub detail: String,
}

impl Phase {
    pub fn print(&self) {
        println!(
            "phase {:<14} sent {:>9}  ok {:>9}  failed {:>7}  {}",
            self.name, self.sent, self.ok, self.failed, self.detail
        );
    }
}

/// Peak resident set size of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).value, 2.0);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn render_checks_names_and_values() {
        let list = [("a", "ms"), ("b", "s")];
        let mut v = Values::new();
        v.insert("a", 1.5);
        assert!(render(&list, &v, true).is_err());
        let (_, json) = render(&list, &v, false).unwrap();
        assert_eq!(
            json,
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}"
        );
        v.insert("b", f64::NAN);
        assert!(render(&list, &v, true).is_err());
    }
}
