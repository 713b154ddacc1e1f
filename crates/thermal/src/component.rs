//! The RC network as a clocked simulation component.
//!
//! [`ThermalComponent`] wraps a [`ThermalModel`] with the temperature
//! state and advances one explicit-Euler step per integration period.
//! Driven in-loop (the SoC engine ticks it from its event queue,
//! sampling *live* tile powers), temperature feeds back into the run
//! while it happens — leakage inflates hot tiles' dissipation and a
//! throttle policy can react — instead of being integrated post-hoc
//! from recorded traces.
//!
//! The component produces bit-identical temperatures to the offline
//! [`ThermalModel::simulate`] when fed the same power sequence: both are
//! built on [`ThermalModel::step_once`].

use blitzcoin_sim::SimTime;

use crate::model::ThermalModel;

/// The thermal RC network as a live, clocked component.
///
/// Each [`ThermalComponent::step`] reads the per-tile instantaneous
/// power table (mW); whoever ticks the component keeps it current.
#[derive(Debug, Clone)]
pub struct ThermalComponent {
    model: ThermalModel,
    leak_per_c: f64,
    period: SimTime,
    temp: Vec<f64>,
    next: Vec<f64>,
    peak: Vec<f64>,
    steps: u64,
}

impl ThermalComponent {
    /// Wraps `model` with the given leakage coefficient (see
    /// [`ThermalModel::simulate_coupled`]; 0 disables the feedback).
    ///
    /// The period is the integration step rounded to whole picoseconds,
    /// so a driver that ticks every `period` lands on exact multiples of
    /// it.
    ///
    /// # Panics
    /// Panics on a negative coefficient or a step below 1 ps.
    pub fn new(model: ThermalModel, leak_per_c: f64) -> Self {
        assert!(
            leak_per_c >= 0.0,
            "leakage coefficient must be non-negative"
        );
        let period_ps = (model.config().step_us * 1e6).round() as u64;
        assert!(period_ps > 0, "integration step must be at least 1 ps");
        let n = model.tiles();
        let ambient = model.config().ambient_c;
        ThermalComponent {
            model,
            leak_per_c,
            period: SimTime::from_ps(period_ps),
            temp: vec![ambient; n],
            next: vec![ambient; n],
            peak: vec![ambient; n],
            steps: 0,
        }
    }

    /// The time between two integration steps.
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// The wrapped network.
    pub fn model(&self) -> &ThermalModel {
        &self.model
    }

    /// Advances one integration step from per-tile instantaneous powers
    /// (mW).
    ///
    /// # Panics
    /// Debug-asserts `powers_mw` covers every tile.
    pub fn step(&mut self, powers_mw: &[f64]) {
        self.model
            .step_once(&self.temp, powers_mw, self.leak_per_c, &mut self.next);
        std::mem::swap(&mut self.temp, &mut self.next);
        for i in 0..self.temp.len() {
            if self.temp[i] > self.peak[i] {
                self.peak[i] = self.temp[i];
            }
        }
        self.steps += 1;
    }

    /// Current per-tile temperatures (°C).
    pub fn temps(&self) -> &[f64] {
        &self.temp
    }

    /// Per-tile peak temperatures so far (°C).
    pub fn peak(&self) -> &[f64] {
        &self.peak
    }

    /// The hottest temperature any tile has reached (°C).
    pub fn max_celsius(&self) -> f64 {
        self.peak.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Integration steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ThermalConfig;
    use blitzcoin_noc::Topology;
    use blitzcoin_sim::StepTrace;

    #[test]
    fn clocked_component_matches_offline_integrator_exactly() {
        let topo = Topology::mesh(3, 3);
        let cfg = ThermalConfig::default();
        let model = ThermalModel::new(topo, cfg);
        let hot = 4;
        let p = 170.0;
        let until = SimTime::from_ms(2);

        // offline: integrate recorded traces
        let traces: Vec<StepTrace> = (0..9)
            .map(|i| {
                let mut t = StepTrace::new(format!("p{i}"));
                t.record(SimTime::ZERO, if i == hot { p } else { 0.0 });
                t
            })
            .collect();
        let refs: Vec<&StepTrace> = traces.iter().collect();
        let offline = model.simulate_coupled(&refs, until, 0.01);

        // in-loop: step the component once per period, reading the live
        // power table, the way the engine's thermal tick does
        let mut comp = ThermalComponent::new(model, 0.01);
        let powers: Vec<f64> = (0..9).map(|i| if i == hot { p } else { 0.0 }).collect();
        let mut tick = comp.period();
        while tick <= until {
            comp.step(&powers);
            tick += comp.period();
        }

        // same primitive, same step sequence: bit-identical temperatures
        assert_eq!(
            comp.steps(),
            (until.as_us_f64() / cfg.step_us).ceil() as u64
        );
        for i in 0..9 {
            assert_eq!(comp.peak()[i], offline.peak_celsius(i), "tile {i}");
        }
        assert!(comp.max_celsius() > cfg.ambient_c + 10.0);
    }

    #[test]
    fn period_is_the_integration_step() {
        let model = ThermalModel::new(Topology::mesh(2, 2), ThermalConfig::default());
        let comp = ThermalComponent::new(model, 0.0);
        assert_eq!(comp.period(), SimTime::from_us(5));
    }

    #[test]
    fn idle_component_stays_at_ambient() {
        let model = ThermalModel::new(Topology::mesh(2, 2), ThermalConfig::default());
        let mut comp = ThermalComponent::new(model, 0.01);
        for _ in 0..200 {
            comp.step(&[0.0; 4]);
        }
        for &t in comp.temps() {
            assert!((t - 45.0).abs() < 1e-12);
        }
        assert_eq!(comp.steps(), 200);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_leakage_rejected() {
        let model = ThermalModel::new(Topology::mesh(2, 2), ThermalConfig::default());
        ThermalComponent::new(model, -0.1);
    }
}
