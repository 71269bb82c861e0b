//! The probabilistic point-to-point link (§3.1).

use fd_stats::dist::Exponential;
use fd_stats::DelayDistribution;
use rand::{Rng as _, RngCore};
use std::fmt;

/// Error constructing a [`Link`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkError {
    /// The offending loss probability.
    pub loss_probability: f64,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "message loss probability must lie in [0, 1], got {}",
            self.loss_probability
        )
    }
}

impl std::error::Error for LinkError {}

/// A link that drops each message independently with probability `p_L`
/// and delays delivered messages by i.i.d. draws from a delay law `D`
/// (the *message independence* property of §3.3).
///
/// The link neither creates nor duplicates messages; it may reorder them
/// (two sends whose delays cross).
///
/// A fate costs one uniform draw for the loss (none when `p_L = 0`) and
/// one delay draw. [`Link::new`] resolves the law once: an [`Exponential`]
/// one, the paper's §7 law, is drawn with [`Exponential::draw`] on the
/// caller's RNG type, so a draw on a concrete RNG makes no dynamic call;
/// any other law goes through [`DelayDistribution::sample`]. Both give the
/// same bits from the same RNG state.
pub struct Link {
    loss_probability: f64,
    delay: Box<dyn DelayDistribution>,
    /// `delay`, when it is exponential.
    exponential: Option<Exponential>,
}

impl fmt::Debug for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Link")
            .field("loss_probability", &self.loss_probability)
            .field("delay", &self.delay)
            .finish()
    }
}

impl Link {
    /// Creates a link with loss probability `loss_probability` and delay
    /// law `delay`.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError`] unless `loss_probability ∈ [0, 1]`.
    pub fn new(loss_probability: f64, delay: Box<dyn DelayDistribution>) -> Result<Self, LinkError> {
        if !(0.0..=1.0).contains(&loss_probability) {
            return Err(LinkError { loss_probability });
        }
        Ok(Self {
            loss_probability,
            exponential: delay.as_exponential().copied(),
            delay,
        })
    }

    /// The loss probability `p_L`.
    pub fn loss_probability(&self) -> f64 {
        self.loss_probability
    }

    /// The delay law `D`.
    pub fn delay(&self) -> &dyn DelayDistribution {
        self.delay.as_ref()
    }

    /// Samples the fate of one message: `Some(delay)` if delivered after
    /// `delay` time units, `None` if dropped.
    #[inline]
    pub fn sample_fate<R: RngCore + ?Sized>(&self, mut rng: &mut R) -> Option<f64> {
        if self.loss_probability > 0.0 && rng.random::<f64>() < self.loss_probability {
            None
        } else if let Some(exponential) = &self.exponential {
            Some(exponential.draw(rng))
        } else {
            // `&mut R` is a sized `RngCore`, so it coerces to `dyn RngCore`
            // whatever `R` is.
            Some(self.delay.sample(&mut rng))
        }
    }

    /// Transmits a message sent at `send_time`: returns its arrival time,
    /// or `None` if the link drops it.
    pub fn transmit<R: RngCore + ?Sized>(&self, send_time: f64, rng: &mut R) -> Option<f64> {
        self.sample_fate(rng).map(|d| send_time + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_stats::dist::{Constant, Shifted};
    use rand::{rngs::StdRng, SeedableRng};

    fn link(p_l: f64) -> Link {
        Link::new(p_l, Box::new(Exponential::with_mean(0.02).unwrap())).unwrap()
    }

    #[test]
    fn loss_rate_matches_probability() {
        let l = link(0.25);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let lost = (0..n).filter(|_| l.sample_fate(&mut rng).is_none()).count();
        let frac = lost as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "loss fraction {frac}");
    }

    #[test]
    fn lossless_link_always_delivers() {
        let l = link(0.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(l.sample_fate(&mut rng).is_some());
        }
    }

    #[test]
    fn dead_link_never_delivers() {
        let l = link(1.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(l.sample_fate(&mut rng).is_none());
        }
    }

    #[test]
    fn transmit_adds_delay_to_send_time() {
        let l = Link::new(0.0, Box::new(Constant::new(0.5).unwrap())).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(l.transmit(10.0, &mut rng), Some(10.5));
    }

    #[test]
    fn delivered_delays_follow_law() {
        let l = link(0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let mut sum = 0.0;
        let mut n = 0;
        for _ in 0..200_000 {
            if let Some(d) = l.sample_fate(&mut rng) {
                sum += d;
                n += 1;
            }
        }
        let mean = sum / n as f64;
        // Conditional on delivery, D is unchanged (loss is independent).
        assert!((mean - 0.02).abs() < 0.001, "mean delay {mean}");
    }

    #[test]
    fn rejects_bad_loss_probability() {
        assert!(Link::new(-0.1, Box::new(Constant::new(1.0).unwrap())).is_err());
        let err = Link::new(1.5, Box::new(Constant::new(1.0).unwrap())).unwrap_err();
        assert!(err.to_string().contains("1.5"));
    }

    /// An RNG whose every draw is `u = 1/4`: a tie with `p_L = 1/4`.
    #[derive(Debug, Clone, PartialEq)]
    struct Quarter(u64);

    impl RngCore for Quarter {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 += 1;
            1 << 62
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(0);
        }
    }

    /// A fate by its definition, from the raw bits: lost iff `u < p_L`,
    /// else `−E(D)·ln(1 − u′)`, where `u = (bits >> 11)·2⁻⁵³` is the
    /// `rand` shim's `f64`.
    fn fate_by_definition(p_l: f64, mean: f64, rng: &mut impl RngCore) -> Option<f64> {
        let mut u = || (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if p_l > 0.0 && u() < p_l {
            None
        } else {
            Some(-mean * (1.0 - u()).ln())
        }
    }

    /// Asserts that `link` draws the same fates and leaves `rng` in the
    /// same state on the concrete RNG, on `&mut dyn RngCore`, and through
    /// the law's `DelayDistribution::sample` on `&mut dyn RngCore`, and,
    /// for an exponential law of mean `exponential`, that they are the
    /// definition's.
    fn same_fates<G: RngCore + Clone + PartialEq + fmt::Debug>(
        link: &Link,
        exponential: Option<f64>,
        rng: G,
    ) {
        let p_l = link.loss_probability();
        let (mut concrete, mut dynamic, mut by_sample, mut by_definition) =
            (rng.clone(), rng.clone(), rng.clone(), rng);
        for i in 0..10_000 {
            let fate = link.sample_fate(&mut concrete);
            let bits = |f: Option<f64>| f.map(f64::to_bits);
            let d: &mut dyn RngCore = &mut dynamic;
            assert_eq!(bits(link.sample_fate(d)), bits(fate), "draw {i}, p_L {p_l}");
            let d: &mut dyn RngCore = &mut by_sample;
            let sampled = if p_l > 0.0 && d.random::<f64>() < p_l {
                None
            } else {
                Some(link.delay().sample(d))
            };
            assert_eq!(bits(sampled), bits(fate), "draw {i}, p_L {p_l}");
            if let Some(mean) = exponential {
                let defined = fate_by_definition(p_l, mean, &mut by_definition);
                assert_eq!(bits(defined), bits(fate), "draw {i}, p_L {p_l}");
            }
        }
        assert_eq!(dynamic, concrete);
        assert_eq!(by_sample, concrete);
        if exponential.is_some() {
            assert_eq!(by_definition, concrete);
        }
    }

    #[test]
    fn exponential_fast_path_draws_what_sample_draws() {
        let exp = Exponential::with_mean(0.02).unwrap();
        let leaked: &'static Exponential = Box::leak(Box::new(exp));
        for p_l in [0.0, 0.01, 0.25, 1.0] {
            let laws: [Box<dyn DelayDistribution>; 3] = [
                Box::new(exp),
                Box::new(Box::new(exp) as Box<dyn DelayDistribution>),
                Box::new(leaked),
            ];
            for law in laws {
                let l = Link::new(p_l, law).unwrap();
                assert_eq!(l.exponential, Some(exp), "{l:?} resolves its law");
                same_fates(&l, Some(0.02), StdRng::seed_from_u64(p_l.to_bits()));
                same_fates(&l, Some(0.02), Quarter(0));
            }
        }
    }

    #[test]
    fn any_other_law_falls_back_to_sample() {
        let shifted = Shifted::new(Exponential::with_mean(0.02).unwrap(), 0.01).unwrap();
        for p_l in [0.0, 0.01, 0.25, 1.0] {
            let l = Link::new(p_l, Box::new(shifted.clone())).unwrap();
            assert_eq!(l.exponential, None);
            same_fates(&l, None, StdRng::seed_from_u64(p_l.to_bits()));
            same_fates(&l, None, Quarter(0));
        }
    }

    #[test]
    fn accessors() {
        let l = link(0.07);
        assert_eq!(l.loss_probability(), 0.07);
        assert!((l.delay().mean() - 0.02).abs() < 1e-12);
        assert!(format!("{l:?}").contains("0.07"));
    }
}
