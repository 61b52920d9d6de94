//! Legitimate background traffic and the recursive-resolver model.
//!
//! Recursive resolvers query the root at a low, steady rate (RSSAC
//! baselines in Table 3: ~0.03–0.06 Mq/s per letter) and choose *which*
//! letter to ask based on observed latency, retrying others on failure
//! (RFC 2182 operational practice; the Yu et al. study the paper cites).
//! That selection behaviour produces the paper's §3.2.2 observation:
//! L-root — never attacked — saw a 1.66× query-rate increase during the
//! second event as resolvers fled unresponsive letters ("letter flips").
//!
//! [`ResolverPopulation`] keeps, per AS, a preference distribution over
//! the 13 letters and re-weights it from the letters' current
//! per-AS RTT and loss.

use rootcast_dns::Letter;
use rootcast_netsim::SimDuration;
use rootcast_topology::{city, AsGraph, Tier};

/// Total legitimate root query load across all letters (queries/second).
/// Table 3's per-letter baselines are ~0.04 Mq/s; times 13 letters this
/// is ~0.5 Mq/s of root traffic system-wide.
pub const DEFAULT_LEGIT_TOTAL_QPS: f64 = 520_000.0;

/// Per-AS legitimate-traffic weights: Internet population by city.
/// Indexed by `AsId.0`, zero for transit ASes (resolvers live at the
/// edge). Sums to 1.
pub fn population_weights(graph: &AsGraph) -> Vec<f64> {
    let mut w = vec![0.0f64; graph.len()];
    for node in graph.nodes() {
        if node.tier == Tier::Stub {
            w[node.id.0 as usize] = city(node.city).population_weight.max(0.01);
        }
    }
    let total: f64 = w.iter().sum();
    assert!(total > 0.0, "no stub ASes to carry legitimate traffic");
    for x in &mut w {
        *x /= total;
    }
    w
}

/// How one AS's resolvers currently observe one letter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LetterObservation {
    /// Smoothed RTT to the letter's current catchment site, if reachable.
    pub rtt: Option<SimDuration>,
    /// Probability a query to the letter is lost right now.
    pub loss: f64,
}

impl LetterObservation {
    pub fn unreachable() -> LetterObservation {
        LetterObservation {
            rtt: None,
            loss: 1.0,
        }
    }
}

/// Per-AS letter-preference state for the whole resolver population.
#[derive(Debug, Clone)]
pub struct ResolverPopulation {
    /// `shares[asn][letter]`: fraction of the AS's root queries sent to
    /// that letter. Rows sum to 1 (or 0 if nothing is reachable).
    shares: Vec<[f64; 13]>,
    /// Selection sharpness: letters are weighted ∝ (1/rtt_ms)^alpha.
    /// Yu et al. observed resolvers skew toward low-RTT authorities but
    /// keep probing others; alpha ≈ 1.5–2 reproduces that mix.
    pub alpha: f64,
}

impl ResolverPopulation {
    /// Start with uniform preferences across all letters.
    pub fn new(n_ases: usize) -> ResolverPopulation {
        ResolverPopulation {
            shares: vec![[1.0 / 13.0; 13]; n_ases],
            alpha: 1.5,
        }
    }

    /// Number of ASes tracked.
    pub fn len(&self) -> usize {
        self.shares.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shares.is_empty()
    }

    /// The current letter shares for an AS.
    pub fn shares(&self, asn: usize) -> &[f64; 13] {
        &self.shares[asn]
    }

    /// Re-derive one AS's preferences from fresh observations.
    ///
    /// Weight per letter: `(1000 / (rtt_ms + 5))^alpha × (1 - loss)²`,
    /// zero if unreachable. Squaring the delivery probability reflects
    /// that a resolver needs both its query and the answer to survive,
    /// and that losses trigger costly retries it learns to avoid.
    pub fn update_as(&mut self, asn: usize, obs: &[LetterObservation; 13]) {
        let alpha = self.alpha;
        let row = &mut self.shares[asn];
        for (w, o) in row.iter_mut().zip(obs) {
            *w = raw_weight(alpha, o);
        }
        normalize(row);
    }

    /// Re-derive the preferences of every populated AS
    /// (`pop_weights[asn] > 0`) letter by letter: `observe(letter, asn)`
    /// is called for one letter across all populated ASes before the
    /// next letter, so a caller reading each letter's routing table walks
    /// one table at a time. The raw weights go straight into the share
    /// rows, and each row is then normalized as [`Self::update_as`] does,
    /// so the result is bit-identical to calling it per AS. Unpopulated
    /// rows keep their shares.
    pub fn refresh(
        &mut self,
        pop_weights: &[f64],
        mut observe: impl FnMut(Letter, usize) -> LetterObservation,
    ) {
        assert_eq!(pop_weights.len(), self.shares.len());
        let alpha = self.alpha;
        for letter in Letter::ALL {
            let li = letter as usize;
            for (asn, (row, &pw)) in self.shares.iter_mut().zip(pop_weights).enumerate() {
                if pw > 0.0 {
                    row[li] = raw_weight(alpha, &observe(letter, asn));
                }
            }
        }
        for (row, &pw) in self.shares.iter_mut().zip(pop_weights) {
            if pw > 0.0 {
                normalize(row);
            }
        }
    }

    /// Aggregate share of the whole population's queries going to each
    /// letter, weighting each AS by `pop_weights` (the same weights that
    /// scale its traffic).
    pub fn aggregate_shares(&self, pop_weights: &[f64]) -> [f64; 13] {
        assert_eq!(pop_weights.len(), self.shares.len());
        let mut agg = [0.0f64; 13];
        for (row, &pw) in self.shares.iter().zip(pop_weights) {
            if pw > 0.0 {
                for (a, s) in agg.iter_mut().zip(row) {
                    *a += pw * s;
                }
            }
        }
        agg
    }

    /// Per-AS traffic weight toward one letter: `pop_weight × share`.
    /// This is the weight vector [`AnycastService::offered_per_site`]
    /// consumes for legitimate traffic.
    ///
    /// [`AnycastService::offered_per_site`]:
    ///     ../../rootcast_anycast/service/struct.AnycastService.html#method.offered_per_site
    pub fn letter_weights(&self, letter: Letter, pop_weights: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.letter_weights_into(letter, pop_weights, &mut out);
        out
    }

    /// [`Self::letter_weights`] into a caller-owned vector.
    pub fn letter_weights_into(&self, letter: Letter, pop_weights: &[f64], out: &mut Vec<f64>) {
        assert_eq!(pop_weights.len(), self.shares.len());
        let li = letter as usize;
        out.clear();
        out.extend(
            self.shares
                .iter()
                .zip(pop_weights)
                .map(|(row, &pw)| pw * row[li]),
        );
    }
}

/// Raw preference weight of one observation (see
/// [`ResolverPopulation::update_as`]).
fn raw_weight(alpha: f64, o: &LetterObservation) -> f64 {
    match o.rtt {
        Some(rtt) => {
            let rtt_ms = rtt.as_millis_f64().max(0.1);
            let delivery = (1.0 - o.loss).clamp(0.0, 1.0);
            (1000.0 / (rtt_ms + 5.0)).powf(alpha) * delivery * delivery
        }
        None => 0.0,
    }
}

/// Scale a row of raw weights to sum to 1, summing in letter order; an
/// all-zero row (nothing reachable) stays zero.
fn normalize(row: &mut [f64; 13]) {
    let total: f64 = row.iter().sum();
    if total > 0.0 {
        for w in row {
            *w /= total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rootcast_netsim::SimRng;
    use rootcast_topology::{gen, TopologyParams};

    fn obs(rtt_ms: u64, loss: f64) -> LetterObservation {
        LetterObservation {
            rtt: Some(SimDuration::from_millis(rtt_ms)),
            loss,
        }
    }

    #[test]
    fn population_weights_normalized_stub_only() {
        let g = gen::generate(&TopologyParams::tiny(), &SimRng::new(1));
        let w = population_weights(&g);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for node in g.nodes() {
            if node.tier != Tier::Stub {
                assert_eq!(w[node.id.0 as usize], 0.0);
            }
        }
    }

    #[test]
    fn initial_shares_uniform() {
        let p = ResolverPopulation::new(3);
        for s in p.shares(0) {
            assert!((s - 1.0 / 13.0).abs() < 1e-12);
        }
    }

    #[test]
    fn low_rtt_letter_preferred() {
        let mut p = ResolverPopulation::new(1);
        let mut o = [obs(100, 0.0); 13];
        o[Letter::K as usize] = obs(10, 0.0);
        p.update_as(0, &o);
        let s = p.shares(0);
        let k = s[Letter::K as usize];
        for (i, &v) in s.iter().enumerate() {
            if i != Letter::K as usize {
                assert!(k > 3.0 * v, "K share {k} vs letter {i} share {v}");
            }
        }
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lossy_letters_shed_traffic_to_clean_ones() {
        let mut p = ResolverPopulation::new(1);
        // All letters at equal RTT; 10 of 13 heavily lossy (the attack).
        let mut o = [obs(50, 0.95); 13];
        for l in [Letter::D, Letter::L, Letter::M] {
            o[l as usize] = obs(50, 0.0);
        }
        p.update_as(0, &o);
        let s = p.shares(0);
        let clean: f64 = [Letter::D, Letter::L, Letter::M]
            .iter()
            .map(|&l| s[l as usize])
            .sum();
        // The three clean letters absorb nearly everything — the
        // letter-flip effect that raised L-root's query rate (§3.2.2).
        assert!(clean > 0.95, "clean share {clean}");
    }

    #[test]
    fn unreachable_letter_gets_zero() {
        let mut p = ResolverPopulation::new(1);
        let mut o = [obs(50, 0.0); 13];
        o[Letter::B as usize] = LetterObservation::unreachable();
        p.update_as(0, &o);
        assert_eq!(p.shares(0)[Letter::B as usize], 0.0);
    }

    #[test]
    fn all_unreachable_gives_zero_row() {
        let mut p = ResolverPopulation::new(1);
        let o = [LetterObservation::unreachable(); 13];
        p.update_as(0, &o);
        assert_eq!(p.shares(0).iter().sum::<f64>(), 0.0);
    }

    /// A deterministic observation mix: unreachable letters, total loss,
    /// partial loss, and one AS (5) that reaches nothing.
    fn mixed_obs(letter: Letter, asn: usize) -> LetterObservation {
        let l = letter as usize;
        if asn == 5 || (asn + l).is_multiple_of(5) {
            LetterObservation::unreachable()
        } else if (asn * 3 + l).is_multiple_of(7) {
            obs(40, 1.0)
        } else {
            obs(
                5 + 17 * ((asn * 13 + l) % 11) as u64,
                ((asn + 2 * l) % 4) as f64 * 0.2,
            )
        }
    }

    #[test]
    fn letter_major_refresh_matches_per_as_updates() {
        let pop = [0.2, 0.0, 0.3, 0.0, 0.4, 0.1];
        let mut prior = ResolverPopulation::new(pop.len());
        // Give the unpopulated rows distinctive shares to keep.
        let mut o = [obs(50, 0.0); 13];
        o[Letter::K as usize] = obs(10, 0.0);
        prior.update_as(1, &o);
        prior.update_as(3, &[obs(30, 0.5); 13]);

        let mut letter_major = prior.clone();
        letter_major.refresh(&pop, mixed_obs);
        let mut per_as = prior.clone();
        for (asn, _) in pop.iter().enumerate().filter(|(_, &pw)| pw > 0.0) {
            let row = Letter::ALL.map(|l| mixed_obs(l, asn));
            per_as.update_as(asn, &row);
        }
        for (asn, &pw) in pop.iter().enumerate() {
            let bits = |p: &ResolverPopulation| p.shares(asn).map(f64::to_bits);
            assert_eq!(bits(&letter_major), bits(&per_as), "AS {asn}");
            if pw == 0.0 {
                assert_eq!(bits(&letter_major), bits(&prior), "AS {asn} moved");
            }
        }
        // The mix exercises every branch of the formula.
        assert_eq!(letter_major.shares(5).iter().sum::<f64>(), 0.0);
        assert!(letter_major.shares(0).contains(&0.0));
    }

    #[test]
    fn aggregate_and_letter_weights_consistent() {
        let mut p = ResolverPopulation::new(2);
        let mut o = [obs(50, 0.0); 13];
        o[Letter::K as usize] = obs(10, 0.0);
        p.update_as(0, &o);
        // AS 1 keeps uniform shares.
        let pop = vec![0.25, 0.75];
        let agg = p.aggregate_shares(&pop);
        assert!((agg.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let kw = p.letter_weights(Letter::K, &pop);
        assert!((kw.iter().sum::<f64>() - agg[Letter::K as usize]).abs() < 1e-12);
    }
}
