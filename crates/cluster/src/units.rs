//! Fixed-point simulation units.
//!
//! Everything inside the simulator and the scheduler uses **integer
//! microseconds** so that event ordering is exact and runs are bit-for-bit
//! reproducible across platforms. Floating point appears only at the
//! reporting boundary (`as_secs_f64` and friends).
//!
//! The arithmetic operators are `#[inline]`: the engine and the list
//! scheduler in other crates call them per GPU per task, and without LTO
//! a non-inlined operator is a function call around one overflow check.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point on the simulation clock, in microseconds since t=0.
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A non-negative span of simulated time, in microseconds.
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "unscheduled" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "negative or non-finite time");
        SimTime((s * 1e6).round() as u64)
    }

    /// Raw microseconds since t=0.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since t=0 as a float (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Milliseconds since t=0 as a float (reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Span from an earlier instant, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional milliseconds, rounding to the nearest microsecond.
    pub fn from_millis_f64(ms: f64) -> Self {
        debug_assert!(ms >= 0.0 && ms.is_finite(), "negative or non-finite span");
        SimDuration((ms * 1e3).round() as u64)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "negative or non-finite span");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds (reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Fractional seconds (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative float, rounding to the nearest microsecond.
    pub fn mul_f64(self, k: f64) -> Self {
        debug_assert!(k >= 0.0 && k.is_finite(), "negative or non-finite scale");
        SimDuration(round_to_u64(self.0 as f64 * k))
    }

    /// Subtraction clamped at zero.
    pub fn saturating_sub(self, rhs: SimDuration) -> Self {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Ratio of two spans as a float; zero denominator yields infinity.
    pub fn ratio(self, denom: SimDuration) -> f64 {
        if denom.0 == 0 {
            f64::INFINITY
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics (debug) if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that is expected.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

/// A byte count (memory footprints, transfer sizes).
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from a raw byte count.
    pub const fn new(b: u64) -> Self {
        Bytes(b)
    }

    /// Construct from mebibytes.
    pub const fn mib(m: u64) -> Self {
        Bytes(m * 1024 * 1024)
    }

    /// Construct from gibibytes.
    pub const fn gib(g: u64) -> Self {
        Bytes(g * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Mebibytes as a float (reporting only).
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Subtraction clamped at zero.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a non-negative float, rounding to the nearest byte.
    pub fn mul_f64(self, k: f64) -> Bytes {
        debug_assert!(k >= 0.0 && k.is_finite());
        Bytes(round_to_u64(self.0 as f64 * k))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.checked_add(rhs.0).expect("Bytes overflow"))
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        debug_assert!(self.0 >= rhs.0, "Bytes subtraction underflow");
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        *self = *self - rhs;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 * 1024 {
            write!(f, "{:.2}GiB", self.0 as f64 / (1024.0 * 1024.0 * 1024.0))
        } else if self.0 >= 1024 * 1024 {
            write!(f, "{:.1}MiB", self.as_mib_f64())
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A transfer rate in bytes per second.
///
/// Used both for device interconnects (PCIe, HBM) and for the data-center
/// network (NIC bandwidth). Network speeds are usually quoted in Gbps
/// (decimal bits), hence the [`Bandwidth::gbps`] constructor.
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Construct from raw bytes per second.
    pub const fn bytes_per_sec(b: u64) -> Self {
        Bandwidth(b)
    }

    /// Construct from decimal gigabits per second (network convention).
    pub fn gbps(g: f64) -> Self {
        debug_assert!(g > 0.0 && g.is_finite());
        Bandwidth((g * 1e9 / 8.0).round() as u64)
    }

    /// Construct from decimal gigabytes per second (bus convention;
    /// e.g. PCIe 3.0 x16 is quoted as 15.75 GB/s).
    pub fn gigabytes_per_sec(g: f64) -> Self {
        debug_assert!(g > 0.0 && g.is_finite());
        Bandwidth((g * 1e9).round() as u64)
    }

    /// Raw bytes per second.
    pub const fn as_bytes_per_sec(self) -> u64 {
        self.0
    }

    /// Decimal gigabits per second (reporting only).
    pub fn as_gbps(self) -> f64 {
        self.0 as f64 * 8.0 / 1e9
    }

    /// Time to move `bytes` at this rate, rounded up to a whole microsecond.
    ///
    /// Panics if the bandwidth is zero — a zero-rate link is a configuration
    /// error, not a legitimate state.
    pub fn transfer_time(self, bytes: Bytes) -> SimDuration {
        assert!(self.0 > 0, "transfer over a zero-bandwidth link");
        // Exact in u64 whenever `bytes × 10⁶` fits (below ~18 TB); wider
        // products take the u128 path, with the same rounding.
        let us = match bytes.as_u64().checked_mul(1_000_000) {
            Some(scaled) => scaled.div_ceil(self.0),
            None => (bytes.as_u64() as u128 * 1_000_000)
                .div_ceil(self.0 as u128)
                .try_into()
                .expect("transfer time overflow"),
        };
        SimDuration::from_micros(us)
    }

    /// Fair share of this link among `flows` concurrent flows.
    pub fn shared(self, flows: u32) -> Bandwidth {
        assert!(flows > 0, "sharing among zero flows");
        Bandwidth(self.0 / flows as u64)
    }

    /// Scale by a non-negative float (e.g. protocol efficiency factor).
    pub fn mul_f64(self, k: f64) -> Bandwidth {
        debug_assert!(k >= 0.0 && k.is_finite());
        Bandwidth(round_to_u64(self.0 as f64 * k))
    }
}

/// `x.round() as u64` without the software `round` call it compiles to:
/// truncate, then add one when the remainder is at least a half. Equal for
/// every f64. Below 2^53 the remainder `x - t` is exact (Sterbenz); from
/// 2^53 up `x` is already integral, so the remainder is 0. NaN and
/// negative values truncate to 0 with a remainder that is not `>= 0.5`, and
/// values at or above 2^64 (+∞ included) saturate to `u64::MAX`, as the
/// `as` cast does. The `mul_f64` scalings call it per task and per sync.
/// The `from_*_f64` constructors keep `round()`: with this helper in
/// them, the serve window builder's per-GPU loop measured slower.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Gbps", self.as_gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_micros() {
        let t = SimTime::from_micros(1_234_567);
        assert_eq!(t.as_micros(), 1_234_567);
        assert!((t.as_secs_f64() - 1.234567).abs() < 1e-12);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(2) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 2_500_000);
        let d = t - SimTime::from_secs(1);
        assert_eq!(d, SimDuration::from_millis(1500));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(3);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(2));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(250));
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 4, SimDuration::from_millis(25));
    }

    #[test]
    fn duration_sum_and_ratio() {
        let total: SimDuration = [10u64, 20, 30]
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .sum();
        assert_eq!(total, SimDuration::from_millis(60));
        assert!((total.ratio(SimDuration::from_millis(120)) - 0.5).abs() < 1e-12);
        assert!(total.ratio(SimDuration::ZERO).is_infinite());
    }

    #[test]
    fn bytes_constructors() {
        assert_eq!(Bytes::mib(1).as_u64(), 1024 * 1024);
        assert_eq!(Bytes::gib(2).as_u64(), 2 * 1024 * 1024 * 1024);
        assert!((Bytes::mib(512).as_mib_f64() - 512.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_checked_ops() {
        let a = Bytes::mib(10);
        let b = Bytes::mib(4);
        assert_eq!(a - b, Bytes::mib(6));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
    }

    #[test]
    fn bandwidth_transfer_time() {
        // 1 GB/s moving 1 MB takes ~1000us (rounded up from 1048.576us -> 1049).
        let bw = Bandwidth::gigabytes_per_sec(1.0);
        let t = bw.transfer_time(Bytes::mib(1));
        assert_eq!(t.as_micros(), 1049);
    }

    #[test]
    fn bandwidth_gbps_roundtrip() {
        let bw = Bandwidth::gbps(25.0);
        assert!((bw.as_gbps() - 25.0).abs() < 1e-9);
        // 25 Gbps = 3.125 GB/s
        assert_eq!(bw.as_bytes_per_sec(), 3_125_000_000);
    }

    #[test]
    fn bandwidth_sharing() {
        let bw = Bandwidth::gbps(10.0);
        assert_eq!(bw.shared(4).as_bytes_per_sec(), bw.as_bytes_per_sec() / 4);
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 3 bytes at 2 B/s = 1.5s -> 1_500_000us exactly; 1 byte at 3 B/s
        // = 333333.33us -> rounds up to 333334.
        let bw = Bandwidth::bytes_per_sec(3);
        assert_eq!(
            bw.transfer_time(Bytes::new(1)),
            SimDuration::from_micros(333_334)
        );
    }

    #[test]
    fn transfer_time_agrees_across_the_u64_boundary() {
        // Byte counts on both sides of the largest `bytes × 10⁶` that fits
        // in u64: the fast path and the u128 path round up identically.
        let edge = u64::MAX / 1_000_000;
        for bytes in [1, 999_999, edge - 1, edge, edge + 1, u64::MAX / 2] {
            for rate in [1u64, 3, 3_125_000_000, u64::MAX / 3] {
                let want = (bytes as u128 * 1_000_000).div_ceil(rate as u128);
                let Ok(want) = u64::try_from(want) else {
                    continue;
                };
                assert_eq!(
                    Bandwidth::bytes_per_sec(rate)
                        .transfer_time(Bytes::new(bytes))
                        .as_micros(),
                    want,
                    "{bytes} B at {rate} B/s"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth")]
    fn zero_bandwidth_panics() {
        Bandwidth::bytes_per_sec(0).transfer_time(Bytes::new(1));
    }

    #[test]
    fn round_to_u64_matches_round_at_the_edges() {
        let two = |e: i32| 2f64.powi(e);
        let mut xs = vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            -0.4,
            -0.5,
            -1.5,
            -1e300,
            f64::NEG_INFINITY,
            two(52) - 1.0,
            two(52) + 1.0,
            two(53),
            two(63),
            two(64),
            two(65),
            f64::MAX,
            f64::INFINITY,
        ];
        // k + 0.5 and its two neighbouring floats, across the range where
        // halves are representable.
        for k in [
            0.0,
            1.0,
            2.0,
            3.0,
            1e6,
            12_345_678.0,
            two(51),
            two(52) - 1.0,
        ] {
            let half: f64 = k + 0.5;
            xs.extend([
                f64::from_bits(half.to_bits() - 1),
                half,
                f64::from_bits(half.to_bits() + 1),
            ]);
        }
        for x in xs {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(20_000))]

        #[test]
        fn round_to_u64_matches_round_on_any_bits(bits in proptest::arbitrary::any::<u64>()) {
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }

        #[test]
        fn round_to_u64_matches_round_on_products(v in 0u64..1 << 40, k in 0.0f64..4.0) {
            let x = v as f64 * k;
            proptest::prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.00ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
        assert_eq!(format!("{}", Bytes::mib(3)), "3.0MiB");
    }
}
