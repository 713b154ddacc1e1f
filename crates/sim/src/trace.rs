//! Time-weighted signal traces.
//!
//! The evaluation records piecewise-constant signals over simulated time:
//! per-tile power (Fig 16), per-tile coin counts (Figs 19-20), tile
//! frequency (Fig 19). A [`StepTrace`] stores the change points of such a
//! signal and supports time-weighted averaging, windowed queries, uniform
//! resampling for CSV/plot output, and pointwise combination of multiple
//! traces (e.g. summing per-tile power into SoC power).

use crate::time::SimTime;

/// One change point of a piecewise-constant signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Time at which the signal takes `value`.
    pub time: SimTime,
    /// The new value, held until the next point.
    pub value: f64,
}

// Serialized as a compact `[time, value]` pair, not a keyed object:
// traces carry thousands of points and the result cache stores/parses
// them wholesale, so per-point key strings would double the entry size.
impl crate::json::ToJson for TracePoint {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::Arr(vec![
            crate::json::ToJson::to_json(&self.time),
            crate::json::Json::Num(self.value),
        ])
    }
}

impl crate::json::FromJson for TracePoint {
    fn from_json(v: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        let (time, value) = crate::json::FromJson::from_json(v)?;
        Ok(TracePoint { time, value })
    }
}

/// A piecewise-constant signal over simulation time.
///
/// # Example
///
/// ```
/// use blitzcoin_sim::{SimTime, StepTrace};
///
/// let mut p = StepTrace::new("power_mw");
/// p.record(SimTime::ZERO, 10.0);
/// p.record(SimTime::from_us(1), 30.0);
/// assert_eq!(p.value_at(SimTime::from_ns(500)), 10.0);
/// // Average over [0, 2us): 1us at 10mW + 1us at 30mW = 20mW
/// assert_eq!(p.average(SimTime::ZERO, SimTime::from_us(2)), 20.0);
/// ```
#[derive(Debug, Clone)]
pub struct StepTrace {
    name: String,
    points: Vec<TracePoint>,
}

impl crate::json::ToJson for StepTrace {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::Obj(vec![
            ("name".to_string(), crate::json::ToJson::to_json(&self.name)),
            (
                "points".to_string(),
                crate::json::ToJson::to_json(&self.points),
            ),
        ])
    }
}

impl crate::json::FromJson for StepTrace {
    fn from_json(v: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        Ok(StepTrace {
            name: v.field("name")?,
            points: v.field("points")?,
        })
    }
}

impl StepTrace {
    /// Creates an empty trace with a signal name (used in CSV headers).
    pub fn new(name: impl Into<String>) -> Self {
        StepTrace {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The signal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records that the signal takes `value` from `time` onward.
    ///
    /// Recording at a time equal to the last point's time overwrites that
    /// point (last-writer-wins within one timestamp, matching how a
    /// register settles within a cycle). Recording an identical value is a
    /// no-op to keep traces compact.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last recorded point.
    pub fn record(&mut self, time: SimTime, value: f64) {
        if let Some(last) = self.points.last_mut() {
            assert!(
                time >= last.time,
                "trace '{}' must be recorded in time order",
                self.name
            );
            if time == last.time {
                last.value = value;
                return;
            }
            if last.value == value {
                return;
            }
        }
        self.points.push(TracePoint { time, value });
    }

    /// The signal value at `time` (0.0 before the first point).
    pub fn value_at(&self, time: SimTime) -> f64 {
        match self.points.binary_search_by(|p| p.time.cmp(&time)) {
            Ok(i) => self.points[i].value,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].value,
        }
    }

    /// The raw change points.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// The value of the final change point (0.0 when empty).
    pub fn last_value(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.value)
    }

    /// Time-weighted average of the signal over `[from, to)`.
    ///
    /// # Panics
    /// Panics if `to <= from`.
    pub fn average(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(to > from, "average window must be non-empty");
        self.integral(from, to) / (to - from).as_secs_f64()
    }

    /// Integral of the signal over `[from, to)` in value·seconds
    /// (e.g. mW·s if the signal is mW).
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut t = from;
        let mut v = self.value_at(from);
        let start = match self.points.binary_search_by(|p| p.time.cmp(&from)) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        for p in &self.points[start..] {
            if p.time >= to {
                break;
            }
            acc += v * (p.time - t).as_secs_f64();
            t = p.time;
            v = p.value;
        }
        acc += v * (to - t).as_secs_f64();
        acc
    }

    /// Maximum value attained in `[from, to)` including the value held at
    /// `from`. Returns 0.0 for an empty window.
    pub fn max_in(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut m = self.value_at(from);
        for p in &self.points {
            if p.time >= from && p.time < to {
                m = m.max(p.value);
            }
        }
        m
    }

    /// Resamples the signal at uniform `step` intervals over `[from, to]`.
    pub fn resample(&self, from: SimTime, to: SimTime, step: SimTime) -> Vec<TracePoint> {
        assert!(step > SimTime::ZERO, "resample step must be positive");
        let mut out = Vec::new();
        let mut t = from;
        while t <= to {
            out.push(TracePoint {
                time: t,
                value: self.value_at(t),
            });
            t += step;
        }
        out
    }

    /// Sums a set of traces pointwise into a new trace (e.g. per-tile power
    /// into SoC power). The result has a change point at every time any
    /// input changes.
    ///
    /// The change times are visited in order, so each input keeps a
    /// cursor (the count of its points at or before the current time)
    /// that only moves forward and no input is searched. Each per-time
    /// sum adds the inputs' values in input order.
    pub fn sum(name: impl Into<String>, traces: &[&StepTrace]) -> StepTrace {
        let mut times: Vec<SimTime> = traces
            .iter()
            .flat_map(|t| t.points.iter().map(|p| p.time))
            .collect();
        times.sort_unstable();
        times.dedup();
        let mut cursors = vec![0usize; traces.len()];
        let mut out = StepTrace::new(name);
        for t in times {
            let v: f64 = traces
                .iter()
                .zip(&mut cursors)
                .map(|(tr, c)| {
                    while tr.points.get(*c).is_some_and(|p| p.time <= t) {
                        *c += 1;
                    }
                    c.checked_sub(1).map_or(0.0, |i| tr.points[i].value)
                })
                .sum();
            out.record(t, v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_us(v)
    }

    #[test]
    fn value_lookup() {
        let mut t = StepTrace::new("x");
        assert_eq!(t.value_at(us(5)), 0.0);
        t.record(us(1), 10.0);
        t.record(us(3), 20.0);
        assert_eq!(t.value_at(SimTime::ZERO), 0.0);
        assert_eq!(t.value_at(us(1)), 10.0);
        assert_eq!(t.value_at(us(2)), 10.0);
        assert_eq!(t.value_at(us(3)), 20.0);
        assert_eq!(t.value_at(us(100)), 20.0);
        assert_eq!(t.last_value(), 20.0);
    }

    #[test]
    fn same_time_overwrites_and_dupes_compact() {
        let mut t = StepTrace::new("x");
        t.record(us(1), 10.0);
        t.record(us(1), 15.0);
        assert_eq!(t.points().len(), 1);
        assert_eq!(t.value_at(us(1)), 15.0);
        t.record(us(2), 15.0); // same value: no new point
        assert_eq!(t.points().len(), 1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_record_panics() {
        let mut t = StepTrace::new("x");
        t.record(us(2), 1.0);
        t.record(us(1), 2.0);
    }

    #[test]
    fn integral_and_average() {
        let mut t = StepTrace::new("p");
        t.record(SimTime::ZERO, 100.0);
        t.record(us(1), 0.0);
        // 100 units for 1us = 1e-4 unit-seconds
        assert!((t.integral(SimTime::ZERO, us(2)) - 1e-4).abs() < 1e-12);
        assert!((t.average(SimTime::ZERO, us(2)) - 50.0).abs() < 1e-9);
        // window starting mid-segment
        assert!((t.average(SimTime::from_ns(500), SimTime::from_ns(1500)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn max_in_window() {
        let mut t = StepTrace::new("p");
        t.record(SimTime::ZERO, 5.0);
        t.record(us(1), 50.0);
        t.record(us(2), 10.0);
        assert_eq!(t.max_in(SimTime::ZERO, us(3)), 50.0);
        assert_eq!(t.max_in(us(2), us(3)), 10.0);
        // value held at window start counts
        assert_eq!(t.max_in(SimTime::from_ns(1500), us(2)), 50.0);
        assert_eq!(t.max_in(us(1), us(1)), 0.0);
    }

    #[test]
    fn resample_uniform() {
        let mut t = StepTrace::new("x");
        t.record(us(1), 1.0);
        let pts = t.resample(SimTime::ZERO, us(2), us(1));
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].value, 0.0);
        assert_eq!(pts[1].value, 1.0);
        assert_eq!(pts[2].value, 1.0);
    }

    #[test]
    fn sum_of_traces() {
        let mut a = StepTrace::new("a");
        a.record(SimTime::ZERO, 1.0);
        a.record(us(2), 3.0);
        let mut b = StepTrace::new("b");
        b.record(us(1), 10.0);
        let s = StepTrace::sum("total", &[&a, &b]);
        assert_eq!(s.value_at(SimTime::ZERO), 1.0);
        assert_eq!(s.value_at(us(1)), 11.0);
        assert_eq!(s.value_at(us(2)), 13.0);
    }

    /// The binary-search `sum` the cursor walk replaced, kept as the
    /// reference it must match bit for bit.
    fn sum_by_lookup(name: &str, traces: &[&StepTrace]) -> StepTrace {
        let mut times: Vec<SimTime> = traces
            .iter()
            .flat_map(|t| t.points.iter().map(|p| p.time))
            .collect();
        times.sort_unstable();
        times.dedup();
        let mut out = StepTrace::new(name);
        for t in times {
            let v: f64 = traces.iter().map(|tr| tr.value_at(t)).sum();
            out.record(t, v);
        }
        out
    }

    #[test]
    fn sum_matches_the_lookup_reference_bit_for_bit() {
        crate::check::forall_seeded("trace_sum_reference", 0x5_7ACE, 0..300, |rng| {
            let n = rng.range_usize(0..9);
            let traces: Vec<StepTrace> = (0..n)
                .map(|k| {
                    let mut tr = StepTrace::new(format!("t{k}"));
                    // some traces stay empty; others start late; a coarse
                    // time grid makes equal timestamps across traces common
                    let points = rng.range_usize(0..12);
                    let mut t = rng.range_u64(0..40);
                    let flat = rng.chance(0.2);
                    for _ in 0..points {
                        let v = if flat {
                            7.25
                        } else if rng.chance(0.3) {
                            0.0
                        } else {
                            rng.unit_f64() * 1e3 - 100.0
                        };
                        tr.record(SimTime::from_ns(t), v);
                        t += rng.range_u64(0..6);
                    }
                    tr
                })
                .collect();
            let refs: Vec<&StepTrace> = traces.iter().collect();
            let fast = StepTrace::sum("s", &refs);
            let slow = sum_by_lookup("s", &refs);
            crate::ensure!(fast.points().len() == slow.points().len());
            for (a, b) in fast.points().iter().zip(slow.points()) {
                crate::ensure!(
                    a.time == b.time && a.value.to_bits() == b.value.to_bits(),
                    "{a:?} != {b:?}"
                );
            }
            Ok(())
        });
    }
}
