//! Digital low-drop-out regulator with PID control.
//!
//! BlitzCoin's per-tile regulation uses a fully-synthesizable digital LDO
//! (Section IV-A): a digital code selects how many power-gate legs are on,
//! setting the tile voltage between V_min and V_max; the LDO controller is
//! a PID loop comparing the frequency target against the TDC readout.

/// PID controller gains (in LDO codes per TDC count of error).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidGains {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
}

impl Default for PidGains {
    fn default() -> Self {
        // Tuned for stable, fast settling with the default 8-bit code and
        // 64-cycle TDC window; verified by the settling tests in `uvfr`.
        PidGains {
            kp: 0.8,
            ki: 0.3,
            kd: 0.05,
        }
    }
}

/// A digital LDO: code in `0..=max_code` maps linearly onto
/// `[v_min, v_max]`, with a PID controller that steps the code.
///
/// # Example
///
/// ```
/// use blitzcoin_power::{Ldo, PidGains};
///
/// let mut ldo = Ldo::new(0.5, 1.0, 255, PidGains::default());
/// assert_eq!(ldo.voltage(), 0.5); // starts at the lowest setting
/// ldo.set_code(255);
/// assert_eq!(ldo.voltage(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ldo {
    v_min: f64,
    v_max: f64,
    max_code: u32,
    code: u32,
    gains: PidGains,
    integral: f64,
    prev_error: f64,
    updates: u64,
}

impl Ldo {
    /// Creates an LDO spanning `[v_min, v_max]` with codes `0..=max_code`.
    ///
    /// # Panics
    /// Panics if `v_max <= v_min` or `max_code == 0`.
    pub fn new(v_min: f64, v_max: f64, max_code: u32, gains: PidGains) -> Self {
        assert!(v_max > v_min, "LDO voltage range must be non-empty");
        assert!(max_code > 0, "LDO needs at least two codes");
        Ldo {
            v_min,
            v_max,
            max_code,
            code: 0,
            gains,
            integral: 0.0,
            prev_error: 0.0,
            updates: 0,
        }
    }

    /// The current digital code.
    pub fn code(&self) -> u32 {
        self.code
    }

    /// The largest valid code.
    pub fn max_code(&self) -> u32 {
        self.max_code
    }

    /// Directly sets the code (clamped), bypassing the controller. Used
    /// for initialization and by the centralized baselines, which command
    /// explicit settings.
    pub fn set_code(&mut self, code: u32) {
        self.code = code.min(self.max_code);
    }

    /// The output voltage for the current code.
    pub fn voltage(&self) -> f64 {
        self.voltage_for_code(self.code)
    }

    /// The output voltage for an arbitrary code (clamped).
    pub fn voltage_for_code(&self, code: u32) -> f64 {
        let code = code.min(self.max_code) as f64;
        self.v_min + (self.v_max - self.v_min) * code / self.max_code as f64
    }

    /// One PID controller update: `error` is `target_code - measured_code`
    /// in TDC counts; the controller steps the LDO code. Returns the new
    /// code.
    pub fn pid_update(&mut self, error: f64) -> u32 {
        self.integral += error;
        // Anti-windup: keep the integral within what the actuator can act on.
        let span = self.max_code as f64;
        self.integral = self.integral.clamp(
            -span / self.gains.ki.max(1e-9),
            span / self.gains.ki.max(1e-9),
        );
        let derivative = error - self.prev_error;
        self.prev_error = error;
        let delta =
            self.gains.kp * error + self.gains.ki * self.integral + self.gains.kd * derivative;
        let new_code = (self.code as f64 + delta).round().clamp(0.0, span) as u32;
        self.code = new_code;
        self.updates += 1;
        new_code
    }

    /// Number of controller updates performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Minimum output voltage.
    pub fn v_min(&self) -> f64 {
        self.v_min
    }

    /// Maximum output voltage.
    pub fn v_max(&self) -> f64 {
        self.v_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ldo() -> Ldo {
        Ldo::new(0.5, 1.0, 255, PidGains::default())
    }

    #[test]
    fn code_voltage_mapping() {
        let mut l = ldo();
        assert_eq!(l.voltage(), 0.5);
        l.set_code(255);
        assert_eq!(l.voltage(), 1.0);
        l.set_code(1000); // clamped
        assert_eq!(l.code(), 255);
        assert!((l.voltage_for_code(127) - 0.749).abs() < 0.002);
    }

    #[test]
    fn pid_moves_toward_positive_error() {
        let mut l = ldo();
        l.set_code(100);
        let c1 = l.pid_update(10.0);
        assert!(c1 > 100, "positive error (target above measured) raises V");
        let mut l2 = ldo();
        l2.set_code(100);
        let c2 = l2.pid_update(-10.0);
        assert!(c2 < 100, "negative error lowers V");
    }

    #[test]
    fn pid_is_stationary_at_zero_error() {
        let mut l = ldo();
        l.set_code(128);
        for _ in 0..10 {
            l.pid_update(0.0);
        }
        assert_eq!(l.code(), 128);
        assert_eq!(l.updates(), 10);
    }

    #[test]
    fn pid_clamps_at_rails() {
        let mut l = ldo();
        for _ in 0..100 {
            l.pid_update(1e6);
        }
        assert_eq!(l.code(), 255);
        let mut l = ldo();
        l.set_code(255);
        for _ in 0..100 {
            l.pid_update(-1e6);
        }
        assert_eq!(l.code(), 0);
    }

    #[test]
    #[should_panic(expected = "range")]
    fn bad_range_panics() {
        Ldo::new(1.0, 0.5, 255, PidGains::default());
    }
}
