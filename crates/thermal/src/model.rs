//! The lumped RC thermal network and its integrator.
//!
//! Standard compact modeling (HotSpot-style, one node per tile):
//!
//! ```text
//! C · dT_i/dt = P_i − G_v·(T_i − T_amb) − Σ_{j∈nbr(i)} G_l·(T_i − T_j)
//! ```
//!
//! with `G_v` the vertical conductance to ambient through the package and
//! `G_l` the lateral conductance between adjacent tiles. The defaults are
//! set for a ~1 mm² 12 nm tile: a 150 µs time constant, 0.25 °C/mW of
//! vertical self-heating, and enough lateral spreading that an isolated
//! 190 mW NVDLA rises ~20 °C over ambient — the regime where concentrated
//! neighborhoods need hotspot management.

use blitzcoin_noc::Topology;
use blitzcoin_sim::{SimTime, StepTrace};

/// Thermal network parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Ambient (package) temperature, °C.
    pub ambient_c: f64,
    /// Vertical conductance to ambient per tile, mW/°C.
    pub g_vertical: f64,
    /// Lateral conductance between adjacent tiles, mW/°C.
    pub g_lateral: f64,
    /// Tile thermal capacitance, mW·µs/°C (i.e. µJ/°C).
    pub capacitance: f64,
    /// Integration step, µs. Must be well under `capacitance/g_total` for
    /// stability; the constructor asserts this.
    pub step_us: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig {
            ambient_c: 45.0,
            g_vertical: 4.0,    // 0.25 C/mW self-heating at steady state
            g_lateral: 2.0,     // neighbors absorb a meaningful share
            capacitance: 600.0, // tau = C/G_v = 150 us
            step_us: 5.0,
        }
    }
}

/// A thermal network over a tile grid.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    topo: Topology,
    config: ThermalConfig,
    neighbors: Vec<Vec<usize>>,
}

impl ThermalModel {
    /// Builds the network for `topo`.
    ///
    /// Lateral coupling follows *physical* adjacency (no wrap-around: heat
    /// does not cross the die edge even when the coin exchange does).
    ///
    /// # Panics
    /// Panics if the explicit-Euler step is unstable for the conductances.
    pub fn new(topo: Topology, config: ThermalConfig) -> Self {
        let g_total = config.g_vertical + 4.0 * config.g_lateral;
        assert!(
            config.step_us < config.capacitance / g_total,
            "integration step too large for stability: step {} vs C/G {}",
            config.step_us,
            config.capacitance / g_total
        );
        let physical = Topology::mesh(topo.width(), topo.height());
        let neighbors = physical
            .tiles()
            .map(|t| {
                physical
                    .neighbors(t)
                    .into_iter()
                    .map(|n| n.index())
                    .collect()
            })
            .collect();
        ThermalModel {
            topo: physical,
            config,
            neighbors,
        }
    }

    /// The configuration.
    pub fn config(&self) -> ThermalConfig {
        self.config
    }

    /// Steady-state temperature of a tile dissipating `p_mw` alone on the
    /// die (every neighbor idle): the analytic solution of the two-shell
    /// approximation used by [`crate::coin_cap_for_limit`].
    pub fn steady_self_heating(&self, p_mw: f64) -> f64 {
        // Heat splits between the vertical path and the four lateral
        // paths, whose far ends also leak vertically: effective
        // conductance G_v + 4·(G_l series G_v).
        let g_series = self.config.g_lateral * self.config.g_vertical
            / (self.config.g_lateral + self.config.g_vertical);
        let g_eff = self.config.g_vertical + 4.0 * g_series;
        self.config.ambient_c + p_mw / g_eff
    }

    /// The number of tiles (thermal nodes) in the network.
    pub fn tiles(&self) -> usize {
        self.topo.len()
    }

    /// Advances the network by one integration step (`config.step_us`)
    /// from per-tile instantaneous powers (mW), writing the new
    /// temperatures into `next`. With a positive `leak_per_c` each tile's
    /// dissipation is first inflated by the leakage factor
    /// `1 + leak_per_c · (T − T_amb)`.
    ///
    /// This is the primitive both offline integrators below are built on,
    /// and what an in-loop thermal component calls once per step.
    ///
    /// # Panics
    /// Debug-asserts that all three slices cover every tile.
    pub fn step_once(&self, temp: &[f64], powers_mw: &[f64], leak_per_c: f64, next: &mut [f64]) {
        debug_assert_eq!(temp.len(), self.topo.len());
        debug_assert_eq!(powers_mw.len(), self.topo.len());
        debug_assert_eq!(next.len(), self.topo.len());
        let dt = self.config.step_us;
        for i in 0..self.topo.len() {
            let p0 = powers_mw[i];
            let p = p0 * (1.0 + leak_per_c * (temp[i] - self.config.ambient_c).max(0.0));
            let mut flow = p - self.config.g_vertical * (temp[i] - self.config.ambient_c);
            for &j in &self.neighbors[i] {
                flow -= self.config.g_lateral * (temp[i] - temp[j]);
            }
            next[i] = temp[i] + flow * dt / self.config.capacitance;
        }
    }

    /// Integrates the network over per-tile power traces (mW), producing
    /// temperature traces sampled at the integration step.
    ///
    /// Takes trace *references* so a caller can assemble the per-tile
    /// table without cloning recorded traces (cold tiles can all share
    /// one empty trace, which reads as 0 mW).
    ///
    /// # Panics
    /// Panics if `powers.len()` differs from the tile count or `until` is
    /// zero.
    pub fn simulate(&self, powers: &[&StepTrace], until: SimTime) -> ThermalReport {
        self.integrate(powers, until, 0.0)
    }

    /// Electro-thermal co-simulation: leakage power grows with junction
    /// temperature (`P_eff = P · (1 + leak_per_c · (T − T_amb))`), which
    /// in turn heats the tile further. Iterates the coupled fixed point
    /// per integration step (the classic positive-feedback loop that makes
    /// thermal caps a *power* problem, not only a reliability one).
    ///
    /// # Panics
    /// Panics on a negative coefficient or the same conditions as
    /// [`ThermalModel::simulate`].
    pub fn simulate_coupled(
        &self,
        powers: &[&StepTrace],
        until: SimTime,
        leak_per_c: f64,
    ) -> ThermalReport {
        assert!(
            leak_per_c >= 0.0,
            "leakage coefficient must be non-negative"
        );
        self.integrate(powers, until, leak_per_c)
    }

    fn integrate(&self, powers: &[&StepTrace], until: SimTime, leak_per_c: f64) -> ThermalReport {
        assert_eq!(powers.len(), self.topo.len(), "one power trace per tile");
        assert!(until > SimTime::ZERO, "simulation horizon must be positive");
        let n = self.topo.len();
        let mut temp = vec![self.config.ambient_c; n];
        let mut traces: Vec<StepTrace> = (0..n)
            .map(|i| {
                let mut t = StepTrace::new(format!("temp_t{i}"));
                t.record(SimTime::ZERO, self.config.ambient_c);
                t
            })
            .collect();
        let mut peak = vec![self.config.ambient_c; n];
        let dt = self.config.step_us;
        let steps = (until.as_us_f64() / dt).ceil() as u64;
        let mut next = temp.clone();
        let mut p_now = vec![0.0; n];
        for k in 1..=steps {
            let now = SimTime::from_us_f64(k as f64 * dt);
            for i in 0..n {
                p_now[i] = powers[i].value_at(now);
            }
            self.step_once(&temp, &p_now, leak_per_c, &mut next);
            std::mem::swap(&mut temp, &mut next);
            for i in 0..n {
                if temp[i] > peak[i] {
                    peak[i] = temp[i];
                }
                traces[i].record(now, temp[i]);
            }
        }
        ThermalReport {
            traces,
            peak,
            ambient_c: self.config.ambient_c,
        }
    }
}

/// Temperatures over time plus summary statistics.
#[derive(Debug, Clone)]
pub struct ThermalReport {
    /// Per-tile temperature traces (°C).
    pub traces: Vec<StepTrace>,
    /// Per-tile peak temperatures (°C).
    pub peak: Vec<f64>,
    /// The ambient reference (°C).
    pub ambient_c: f64,
}

impl ThermalReport {
    /// Peak temperature of tile `i`.
    pub fn peak_celsius(&self, i: usize) -> f64 {
        self.peak[i]
    }

    /// The die's hottest observed temperature.
    pub fn max_celsius(&self) -> f64 {
        self.peak.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Tiles whose peak exceeded `limit_c` (hotspots).
    pub fn hotspots(&self, limit_c: f64) -> Vec<usize> {
        self.peak
            .iter()
            .enumerate()
            .filter(|(_, &t)| t > limit_c)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn const_power(n: usize, hot: usize, p: f64) -> Vec<StepTrace> {
        (0..n)
            .map(|i| {
                let mut t = StepTrace::new(format!("p{i}"));
                t.record(SimTime::ZERO, if i == hot { p } else { 0.0 });
                t
            })
            .collect()
    }

    fn refs(traces: &[StepTrace]) -> Vec<&StepTrace> {
        traces.iter().collect()
    }

    #[test]
    fn idle_die_stays_at_ambient() {
        let topo = Topology::mesh(3, 3);
        let model = ThermalModel::new(topo, ThermalConfig::default());
        let report = model.simulate(&refs(&const_power(9, 4, 0.0)), SimTime::from_ms(2));
        for i in 0..9 {
            assert!((report.peak_celsius(i) - 45.0).abs() < 1e-9, "tile {i}");
        }
        assert!(report.hotspots(46.0).is_empty());
    }

    #[test]
    fn hot_tile_approaches_analytic_steady_state() {
        let topo = Topology::mesh(5, 5);
        let cfg = ThermalConfig::default();
        let model = ThermalModel::new(topo, cfg);
        let report = model.simulate(&refs(&const_power(25, 12, 190.0)), SimTime::from_ms(5));
        let analytic = model.steady_self_heating(190.0);
        let measured = report.peak_celsius(12);
        // the 2-shell analytic slightly overestimates (it ignores 3rd-shell
        // spreading); agreement within a few degrees validates both
        assert!(
            (measured - analytic).abs() < 5.0,
            "measured {measured:.1} vs analytic {analytic:.1}"
        );
        assert!(measured > cfg.ambient_c + 15.0);
    }

    #[test]
    fn heat_spreads_to_neighbors_with_distance_decay() {
        let topo = Topology::mesh(5, 5);
        let model = ThermalModel::new(topo, ThermalConfig::default());
        let report = model.simulate(&refs(&const_power(25, 12, 150.0)), SimTime::from_ms(4));
        let center = report.peak_celsius(12);
        let near = report.peak_celsius(11); // 1 hop
        let far = report.peak_celsius(10); // 2 hops
        let corner = report.peak_celsius(0); // 4 hops
        assert!(
            center > near && near > far && far > corner,
            "{center} {near} {far} {corner}"
        );
        assert!(near > model.config().ambient_c + 1.0);
    }

    #[test]
    fn wraparound_does_not_conduct_heat() {
        // coin exchange may wrap, heat must not: corner tiles of a torus
        // topology still cool like corners
        let torus = Topology::torus(4, 4);
        let mesh = Topology::mesh(4, 4);
        let cfg = ThermalConfig::default();
        let a = ThermalModel::new(torus, cfg)
            .simulate(&refs(&const_power(16, 0, 100.0)), SimTime::from_ms(3));
        let b = ThermalModel::new(mesh, cfg)
            .simulate(&refs(&const_power(16, 0, 100.0)), SimTime::from_ms(3));
        assert!((a.peak_celsius(0) - b.peak_celsius(0)).abs() < 1e-9);
        // the physically-opposite corner stays cold in both
        assert!((a.peak_celsius(15) - b.peak_celsius(15)).abs() < 1e-9);
    }

    #[test]
    fn transient_follows_time_constant() {
        let topo = Topology::mesh(1, 1); // single tile, pure vertical path
        let cfg = ThermalConfig::default();
        let model = ThermalModel::new(topo, cfg);
        let p = 100.0;
        let tau_us = cfg.capacitance / cfg.g_vertical; // 150 us
        let report = model.simulate(&refs(&const_power(1, 0, p)), SimTime::from_us_f64(tau_us));
        let rise = report.traces[0].value_at(SimTime::from_us_f64(tau_us)) - cfg.ambient_c;
        let full = p / cfg.g_vertical;
        // after one time constant: ~63% of the full rise
        assert!(
            (rise / full - 0.632).abs() < 0.05,
            "rise fraction {:.3}",
            rise / full
        );
    }

    #[test]
    fn power_pulse_cools_back_down() {
        let topo = Topology::mesh(2, 2);
        let model = ThermalModel::new(topo, ThermalConfig::default());
        let mut powers = const_power(4, 0, 0.0);
        powers[0].record(SimTime::from_us(100), 200.0);
        powers[0].record(SimTime::from_us(600), 0.0);
        let report = model.simulate(&refs(&powers), SimTime::from_ms(4));
        let peak = report.peak_celsius(0);
        let end = report.traces[0].last_value();
        assert!(peak > 60.0);
        assert!(end < 46.5, "cooled back to near ambient, got {end:.1}");
    }

    #[test]
    fn leakage_coupling_raises_temperature() {
        let topo = Topology::mesh(3, 3);
        let model = ThermalModel::new(topo, ThermalConfig::default());
        let powers = const_power(9, 4, 150.0);
        let plain = model.simulate(&refs(&powers), SimTime::from_ms(4));
        let coupled = model.simulate_coupled(&refs(&powers), SimTime::from_ms(4), 0.01);
        assert!(coupled.peak_celsius(4) > plain.peak_celsius(4) + 1.0);
        // zero coefficient reproduces the uncoupled result
        let zero = model.simulate_coupled(&refs(&powers), SimTime::from_ms(4), 0.0);
        assert!((zero.peak_celsius(4) - plain.peak_celsius(4)).abs() < 1e-9);
    }

    #[test]
    fn leakage_coupling_stays_stable_for_moderate_coefficients() {
        let topo = Topology::mesh(3, 3);
        let model = ThermalModel::new(topo, ThermalConfig::default());
        let powers = const_power(9, 4, 190.0);
        let r = model.simulate_coupled(&refs(&powers), SimTime::from_ms(6), 0.01);
        assert!(r.max_celsius().is_finite());
        assert!(r.max_celsius() < 150.0, "{}", r.max_celsius());
    }

    #[test]
    #[should_panic(expected = "stability")]
    fn unstable_step_rejected() {
        ThermalModel::new(
            Topology::mesh(2, 2),
            ThermalConfig {
                step_us: 1_000.0,
                ..ThermalConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "one power trace per tile")]
    fn wrong_trace_count_panics() {
        let model = ThermalModel::new(Topology::mesh(2, 2), ThermalConfig::default());
        model.simulate(&refs(&const_power(3, 0, 1.0)), SimTime::from_ms(1));
    }
}
