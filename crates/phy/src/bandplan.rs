//! The 14-channel band plan of the gen2 transceiver.
//!
//! Paper §3: "The signal is comprised of a sequence of 500 MHz bandwidth
//! pulses that are upconverted to one of 14 channels (sub-bands) in the
//! 3.1-10.6 GHz band." The concrete grid (first center 3432 MHz, 528 MHz
//! spacing) is the one the authors' group used in their silicon; 14 channels
//! at 528 MHz spacing span 3168–10560 MHz, filling the FCC allocation.

use crate::error::PhyError;
use uwb_sim::time::Hertz;

/// Number of channels in the band plan.
pub const CHANNEL_COUNT: usize = 14;

/// Center frequency of channel 0.
const FIRST_CENTER_MHZ: f64 = 3432.0;

/// Channel-to-channel spacing.
pub const CHANNEL_SPACING_MHZ: f64 = 528.0;

/// Occupied (pulse) bandwidth per channel.
const CHANNEL_BANDWIDTH_MHZ: f64 = 500.0;

/// One of the 14 UWB sub-band channels.
///
/// ```
/// use uwb_phy::bandplan::Channel;
///
/// let ch = Channel::new(3)?;
/// assert_eq!(ch.center().as_mhz(), 3432.0 + 3.0 * 528.0);
/// # Ok::<(), uwb_phy::PhyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Channel(usize);

impl Channel {
    /// Creates a channel from its index `0..14`.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidChannel`] if `index >= 14`.
    pub fn new(index: usize) -> Result<Channel, PhyError> {
        if index >= CHANNEL_COUNT {
            return Err(PhyError::InvalidChannel(index));
        }
        Ok(Channel(index))
    }

    /// The channel whose center is nearest to 5 GHz — the carrier of the
    /// paper's Fig. 4 example pulse.
    pub fn near_5ghz() -> Channel {
        Channel::nearest(Hertz::from_ghz(5.0))
    }

    /// The channel whose center frequency is closest to `freq`.
    pub fn nearest(freq: Hertz) -> Channel {
        let idx = ((freq.as_hz() / 1e6 - FIRST_CENTER_MHZ) / CHANNEL_SPACING_MHZ).round();
        Channel(idx.clamp(0.0, (CHANNEL_COUNT - 1) as f64) as usize)
    }

    /// The channel index, `0..14`.
    pub fn index(self) -> usize {
        self.0
    }

    /// Center frequency.
    pub fn center(self) -> Hertz {
        Hertz::from_mhz(FIRST_CENTER_MHZ + self.0 as f64 * CHANNEL_SPACING_MHZ)
    }

    /// Lower edge of the occupied bandwidth.
    pub fn low_edge(self) -> Hertz {
        Hertz::new(self.center().as_hz() - CHANNEL_BANDWIDTH_MHZ * 1e6 / 2.0)
    }

    /// Upper edge of the occupied bandwidth.
    pub fn high_edge(self) -> Hertz {
        Hertz::new(self.center().as_hz() + CHANNEL_BANDWIDTH_MHZ * 1e6 / 2.0)
    }

    /// `true` if the occupied bandwidth lies inside the FCC 3.1–10.6 GHz
    /// allocation.
    pub fn within_fcc_band(self) -> bool {
        // The edge channels' 500 MHz occupied BW fits inside the 528 MHz
        // grid slot, which itself spans 3168-10560 MHz; allow the occupied
        // bandwidth to be judged against the FCC edges.
        self.low_edge().as_hz() >= uwb_sim::pathloss::FCC_BAND_LOW.as_hz() - 100e6
            && self.high_edge().as_hz() <= uwb_sim::pathloss::FCC_BAND_HIGH.as_hz() + 100e6
    }

    /// Iterator over all 14 channels.
    pub fn all() -> impl Iterator<Item = Channel> {
        (0..CHANNEL_COUNT).map(Channel)
    }

    /// Spectral overlap between the occupied bands of `self` and `other`,
    /// in Hz. Zero whenever the occupied bands are disjoint (all distinct
    /// channel pairs on this grid — the 528 MHz spacing leaves a 28 MHz
    /// guard between 500 MHz occupied bands).
    pub fn overlap_hz(self, other: Channel) -> f64 {
        let lo = self.low_edge().as_hz().max(other.low_edge().as_hz());
        let hi = self.high_edge().as_hz().min(other.high_edge().as_hz());
        (hi - lo).max(0.0)
    }

    /// Spectral gap between the occupied bands of `self` and `other`, in Hz.
    /// Zero for the same channel; 28 MHz for adjacent channels on this grid.
    pub fn gap_hz(self, other: Channel) -> f64 {
        let lo = self.low_edge().as_hz().max(other.low_edge().as_hz());
        let hi = self.high_edge().as_hz().min(other.high_edge().as_hz());
        (lo - hi).max(0.0)
    }

    /// Fraction of this channel's occupied bandwidth that `other`'s occupied
    /// band covers: 1.0 for the same channel, 0.0 for any disjoint pair.
    fn overlap_fraction(self, other: Channel) -> f64 {
        self.overlap_hz(other) / (CHANNEL_BANDWIDTH_MHZ * 1e6)
    }

    /// Spectral-overlap attenuation in dB when a transmitter on `other`
    /// leaks into a receiver tuned to `self`, considering occupied-band
    /// overlap only (front-end selectivity is modeled separately by
    /// `uwb_rf::ChannelSelectivity`).
    ///
    /// Properties (pinned by proptests):
    /// * symmetric: `a.overlap_attenuation_db(b) == b.overlap_attenuation_db(a)`,
    /// * co-channel is 0 dB,
    /// * always ≤ 0 dB; disjoint occupied bands give `-inf`.
    pub fn overlap_attenuation_db(self, other: Channel) -> f64 {
        let frac = self.overlap_fraction(other);
        if frac <= 0.0 {
            f64::NEG_INFINITY
        } else {
            10.0 * frac.log10()
        }
    }
}

impl std::fmt::Display for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{} ({:.3} GHz)", self.0, self.center().as_ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_channels() {
        assert_eq!(Channel::all().count(), 14);
        assert!(Channel::new(13).is_ok());
        assert_eq!(Channel::new(14), Err(PhyError::InvalidChannel(14)));
    }

    #[test]
    fn centers_on_528_grid() {
        let ch0 = Channel::new(0).unwrap();
        assert_eq!(ch0.center().as_mhz(), 3432.0);
        let ch13 = Channel::new(13).unwrap();
        assert_eq!(ch13.center().as_mhz(), 3432.0 + 13.0 * 528.0);
        // Top channel center = 10296 MHz, inside the band.
        assert!(ch13.center().as_ghz() < 10.6);
    }

    #[test]
    fn grid_spans_fcc_band() {
        // All channel slots (±264 MHz around centers) fill 3168-10560 MHz.
        let lo = Channel::new(0).unwrap().center().as_mhz() - CHANNEL_SPACING_MHZ / 2.0;
        let hi = Channel::new(13).unwrap().center().as_mhz() + CHANNEL_SPACING_MHZ / 2.0;
        assert_eq!(lo, 3168.0);
        assert_eq!(hi, 10560.0);
        for ch in Channel::all() {
            assert!(ch.within_fcc_band(), "{ch}");
        }
    }

    #[test]
    fn edges_are_500mhz_apart() {
        for ch in Channel::all() {
            let bw = ch.high_edge().as_hz() - ch.low_edge().as_hz();
            assert!((bw - 500e6).abs() < 1.0);
        }
    }

    #[test]
    fn channels_do_not_overlap() {
        for i in 0..CHANNEL_COUNT - 1 {
            let a = Channel::new(i).unwrap();
            let b = Channel::new(i + 1).unwrap();
            assert!(a.high_edge().as_hz() < b.low_edge().as_hz());
        }
    }

    #[test]
    fn nearest_channel_lookup() {
        assert_eq!(Channel::nearest(Hertz::from_mhz(3432.0)).index(), 0);
        assert_eq!(Channel::nearest(Hertz::from_mhz(3700.0)).index(), 1);
        assert_eq!(Channel::nearest(Hertz::from_ghz(20.0)).index(), 13);
        assert_eq!(Channel::nearest(Hertz::from_ghz(1.0)).index(), 0);
    }

    #[test]
    fn fig4_carrier_channel() {
        // Fig. 4's 5 GHz carrier sits nearest channel 3 (5.016 GHz).
        let ch = Channel::near_5ghz();
        assert_eq!(ch.index(), 3);
        assert!((ch.center().as_ghz() - 5.016).abs() < 1e-9);
    }

    #[test]
    fn display_format() {
        let ch = Channel::new(3).unwrap();
        let s = ch.to_string();
        assert!(s.contains("ch3"), "{s}");
        assert!(s.contains("5.016"), "{s}");
    }

    #[test]
    fn ordering() {
        assert!(Channel::new(2).unwrap() < Channel::new(9).unwrap());
    }

    #[test]
    fn overlap_same_channel_is_full() {
        for ch in Channel::all() {
            assert!((ch.overlap_hz(ch) - 500e6).abs() < 1.0);
            assert_eq!(ch.overlap_fraction(ch), 1.0);
            assert_eq!(ch.overlap_attenuation_db(ch), 0.0);
            assert_eq!(ch.gap_hz(ch), 0.0);
        }
    }

    #[test]
    fn overlap_distinct_channels_is_disjoint() {
        // 528 MHz spacing, 500 MHz occupied BW: adjacent channels leave a
        // 28 MHz guard, so occupied bands never overlap.
        let a = Channel::new(4).unwrap();
        let b = Channel::new(5).unwrap();
        assert_eq!(a.overlap_hz(b), 0.0);
        assert!((a.gap_hz(b) - 28e6).abs() < 1.0);
        assert_eq!(a.overlap_attenuation_db(b), f64::NEG_INFINITY);
        // Two apart: 528 + 28 MHz gap.
        let c = Channel::new(6).unwrap();
        assert!((a.gap_hz(c) - 556e6).abs() < 1.0);
    }

    #[test]
    fn overlap_attenuation_is_symmetric() {
        for a in Channel::all() {
            for b in Channel::all() {
                let ab = a.overlap_attenuation_db(b);
                let ba = b.overlap_attenuation_db(a);
                assert!(ab == ba || (ab.is_infinite() && ba.is_infinite()));
                assert!(ab <= 0.0);
            }
        }
    }
}
