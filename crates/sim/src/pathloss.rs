//! Path loss and the FCC power ceiling.
//!
//! UWB links are power-limited by the FCC's −41.3 dBm/MHz EIRP rule rather
//! than by transmitter capability, so the achievable range/rate trade is set
//! by path loss against that ceiling.

use crate::time::Hertz;

/// Speed of light in metres per second.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// FCC UWB EIRP limit in dBm per MHz (3.1–10.6 GHz indoor mask).
pub const FCC_LIMIT_DBM_PER_MHZ: f64 = -41.3;

/// Lower edge of the FCC UWB band.
pub const FCC_BAND_LOW: Hertz = Hertz::new(3.1e9);
/// Upper edge of the FCC UWB band.
pub const FCC_BAND_HIGH: Hertz = Hertz::new(10.6e9);

/// Free-space path loss in dB at distance `d_m` metres and frequency `f`.
///
/// `FSPL = 20 log10(4 π d f / c)`.
///
/// ```
/// use uwb_sim::pathloss::free_space_path_loss_db;
/// use uwb_sim::time::Hertz;
/// let l = free_space_path_loss_db(1.0, Hertz::from_ghz(5.0));
/// assert!((l - 46.4).abs() < 0.2);
/// ```
///
/// # Panics
///
/// Panics if `d_m <= 0` or the frequency is not positive.
pub fn free_space_path_loss_db(d_m: f64, f: Hertz) -> f64 {
    assert!(d_m > 0.0, "distance must be positive");
    assert!(f.as_hz() > 0.0, "frequency must be positive");
    20.0 * (4.0 * std::f64::consts::PI * d_m * f.as_hz() / SPEED_OF_LIGHT).log10()
}

/// Log-distance path loss model: `PL(d) = PL(d0) + 10 n log10(d/d0)`,
/// with `d0 = 1 m` and free-space loss at the reference distance.
///
/// Indoor UWB exponents: LOS ≈ 1.7, NLOS ≈ 3.5.
///
/// # Panics
///
/// Panics if `d_m <= 0` or the frequency is not positive.
pub fn log_distance_path_loss_db(d_m: f64, f: Hertz, exponent: f64) -> f64 {
    assert!(d_m > 0.0, "distance must be positive");
    free_space_path_loss_db(1.0, f) + 10.0 * exponent * d_m.log10()
}

/// Maximum permitted transmit power (dBm) for a signal occupying
/// `bandwidth` under the FCC PSD limit: `−41.3 + 10 log10(BW/MHz)`.
///
/// For the paper's 500 MHz channel this is ≈ −14.3 dBm.
///
/// ```
/// use uwb_sim::pathloss::max_tx_power_dbm;
/// use uwb_sim::time::Hertz;
/// let p = max_tx_power_dbm(Hertz::from_mhz(500.0));
/// assert!((p - (-14.31)).abs() < 0.05);
/// ```
pub fn max_tx_power_dbm(bandwidth: Hertz) -> f64 {
    FCC_LIMIT_DBM_PER_MHZ + 10.0 * (bandwidth.as_hz() / 1e6).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fspl_reference() {
        // 2.4 GHz at 100 m: ~80.0 dB.
        let l = free_space_path_loss_db(100.0, Hertz::from_ghz(2.4));
        assert!((l - 80.0).abs() < 0.2, "{l}");
        // Doubling distance adds 6 dB.
        let l1 = free_space_path_loss_db(1.0, Hertz::from_ghz(5.0));
        let l2 = free_space_path_loss_db(2.0, Hertz::from_ghz(5.0));
        assert!((l2 - l1 - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn log_distance_matches_fspl_at_exponent_two() {
        let f = Hertz::from_ghz(6.85);
        for &d in &[1.0, 3.0, 10.0] {
            let a = log_distance_path_loss_db(d, f, 2.0);
            let b = free_space_path_loss_db(d, f);
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn fcc_ceiling_for_500mhz() {
        let p = max_tx_power_dbm(Hertz::from_mhz(500.0));
        assert!((p + 14.31).abs() < 0.05, "{p}");
        // Full band 7.5 GHz: about -2.55 dBm.
        let pfull = max_tx_power_dbm(Hertz::new(7.5e9));
        assert!((pfull + 2.55).abs() < 0.1, "{pfull}");
    }

    #[test]
    fn band_edges() {
        assert!((FCC_BAND_LOW.as_ghz() - 3.1).abs() < 1e-12);
        assert!((FCC_BAND_HIGH.as_ghz() - 10.6).abs() < 1e-12);
        assert_eq!(FCC_LIMIT_DBM_PER_MHZ, -41.3);
    }

    #[test]
    #[should_panic(expected = "distance")]
    fn zero_distance_panics() {
        free_space_path_loss_db(0.0, Hertz::from_ghz(5.0));
    }
}
