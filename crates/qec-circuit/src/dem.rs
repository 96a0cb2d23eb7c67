//! Detector error models: symbolic error propagation and fast sampling.
//!
//! A detector error model (DEM) reduces a noisy Clifford circuit to a list
//! of independent *error mechanisms*, each with a probability and the set of
//! detectors and logical observables it flips. Monte-Carlo sampling over the
//! DEM is equivalent in distribution to Pauli-frame simulation of the
//! circuit, but orders of magnitude faster for the low error rates the
//! Astrea paper targets, because shots can skip directly between triggered
//! mechanisms.

use crate::bittable::{column_seed, BitTable};
use crate::circuit::{Circuit, Op};
use crate::recordset::RecordSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// One independent error mechanism of a [`DetectorErrorModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorMechanism {
    /// Sorted detector indices this mechanism flips.
    pub detectors: Vec<u32>,
    /// Bitmask of logical observables this mechanism flips.
    pub observables: u32,
    /// Probability that the mechanism triggers, independently per shot.
    pub probability: f64,
}

/// A detector error model extracted from a [`Circuit`].
///
/// See [`Circuit::detector_error_model`].
#[derive(Debug, Clone)]
pub struct DetectorErrorModel {
    num_detectors: usize,
    num_observables: usize,
    mechanisms: Vec<ErrorMechanism>,
}

impl DetectorErrorModel {
    /// Builds a model directly from mechanisms — for tests, hand-written
    /// models, and the text loader
    /// [`DetectorErrorModel::from_dem_text`].
    ///
    /// # Panics
    ///
    /// Panics if a mechanism references a detector or observable outside
    /// the declared counts, or has a probability outside `(0, 1]`.
    pub fn from_mechanisms(
        num_detectors: usize,
        num_observables: usize,
        mechanisms: Vec<ErrorMechanism>,
    ) -> DetectorErrorModel {
        for m in &mechanisms {
            assert!(
                m.probability > 0.0 && m.probability <= 1.0,
                "invalid mechanism probability {}",
                m.probability
            );
            for &d in &m.detectors {
                assert!(
                    (d as usize) < num_detectors,
                    "mechanism references detector {d} of {num_detectors}"
                );
            }
            assert!(
                num_observables >= 32 - m.observables.leading_zeros() as usize,
                "mechanism references observables outside the declared count"
            );
        }
        DetectorErrorModel {
            num_detectors,
            num_observables,
            mechanisms,
        }
    }

    /// Number of detectors in the originating circuit.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of logical observables in the originating circuit.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// The merged error mechanisms, deduplicated by symptom set.
    pub fn mechanisms(&self) -> &[ErrorMechanism] {
        &self.mechanisms
    }

    /// Expected number of triggered mechanisms per shot (`Σ pᵢ`).
    pub fn expected_triggers(&self) -> f64 {
        self.mechanisms.iter().map(|m| m.probability).sum()
    }

    /// Mechanisms that flip a logical observable without flipping any
    /// detector. A valid distance-≥3 memory circuit has none; a nonempty
    /// result indicates a circuit-construction bug.
    pub fn undetectable_logicals(&self) -> Vec<&ErrorMechanism> {
        self.mechanisms
            .iter()
            .filter(|m| m.detectors.is_empty() && m.observables != 0)
            .collect()
    }
}

impl Circuit {
    /// Extracts the detector error model by symbolically propagating every
    /// elementary Pauli error component to the measurement records it
    /// flips.
    ///
    /// The extraction runs a single backward pass over the circuit,
    /// maintaining for each qubit the set of records an X (or Z) error at
    /// the current position would flip; each noise channel then reads off
    /// its components' symptom sets in O(record words). Mechanisms with
    /// identical symptom sets are merged with XOR-combined probabilities
    /// (`p ← p₁ + p₂ − 2p₁p₂`), matching Stim's DEM semantics.
    pub fn detector_error_model(&self) -> DetectorErrorModel {
        let num_records = self.num_records();
        let nq = self.num_qubits();

        // Forward record index for each MeasureZ op.
        let mut record_of_op = Vec::with_capacity(self.ops().len());
        let mut next = 0u32;
        for op in self.ops() {
            if let Op::MeasureZ(_) = op {
                record_of_op.push(next);
                next += 1;
            } else {
                record_of_op.push(u32::MAX);
            }
        }

        // record -> (detector ids, observable mask)
        let mut dets_of_record: Vec<Vec<u32>> = vec![Vec::new(); num_records];
        for (d, det) in self.detectors().iter().enumerate() {
            for &r in &det.records {
                dets_of_record[r as usize].push(d as u32);
            }
        }
        let mut obs_of_record: Vec<u32> = vec![0; num_records];
        for (i, obs) in self.observables().iter().enumerate() {
            for &r in obs {
                obs_of_record[r as usize] ^= 1 << i;
            }
        }

        let mut rx: Vec<RecordSet> = (0..nq).map(|_| RecordSet::new(num_records)).collect();
        let mut rz: Vec<RecordSet> = (0..nq).map(|_| RecordSet::new(num_records)).collect();

        let mut merged: HashMap<(Vec<u32>, u32), f64> = HashMap::new();
        let mut scratch = RecordSet::new(num_records);

        let mut add_mechanism = |records: &RecordSet, p: f64| {
            if p <= 0.0 {
                return;
            }
            // Fold flipped records into flipped detectors/observables.
            let mut dets: Vec<u32> = Vec::new();
            let mut obs = 0u32;
            for r in records.iter_ones() {
                dets.extend_from_slice(&dets_of_record[r]);
                obs ^= obs_of_record[r];
            }
            dets.sort_unstable();
            // Remove detectors toggled an even number of times.
            let mut folded = Vec::with_capacity(dets.len());
            let mut i = 0;
            while i < dets.len() {
                let mut j = i + 1;
                while j < dets.len() && dets[j] == dets[i] {
                    j += 1;
                }
                if (j - i) % 2 == 1 {
                    folded.push(dets[i]);
                }
                i = j;
            }
            if folded.is_empty() && obs == 0 {
                return;
            }
            let slot = merged.entry((folded, obs)).or_insert(0.0);
            *slot = *slot + p - 2.0 * *slot * p;
        };

        for (idx, op) in self.ops().iter().enumerate().rev() {
            match *op {
                Op::ResetZ(q) => {
                    rx[q as usize].clear();
                    rz[q as usize].clear();
                }
                Op::H(q) => {
                    let q = q as usize;
                    let (a, b) = (rx[q].clone(), rz[q].clone());
                    rx[q] = b;
                    rz[q] = a;
                }
                Op::Cnot(c, t) => {
                    let (c, t) = (c as usize, t as usize);
                    // X on the control also flips everything an X on the
                    // target would flip after the gate; dually for Z on the
                    // target.
                    let tx = rx[t].clone();
                    rx[c].xor_assign(&tx);
                    let cz = rz[c].clone();
                    rz[t].xor_assign(&cz);
                }
                Op::MeasureZ(q) => {
                    rx[q as usize].toggle(record_of_op[idx] as usize);
                }
                Op::Depolarize1 { q, p } => {
                    let q = q as usize;
                    let comp = p / 3.0;
                    add_mechanism(&rx[q], comp); // X
                    add_mechanism(&rz[q], comp); // Z
                    scratch.clear();
                    scratch.xor_assign(&rx[q]);
                    scratch.xor_assign(&rz[q]);
                    add_mechanism(&scratch, comp); // Y
                }
                Op::Depolarize2 { a, b, p } => {
                    let (a, b) = (a as usize, b as usize);
                    let comp = p / 15.0;
                    for pattern in 1u8..16 {
                        scratch.clear();
                        if pattern & 1 != 0 {
                            scratch.xor_assign(&rx[a]);
                        }
                        if pattern & 2 != 0 {
                            scratch.xor_assign(&rz[a]);
                        }
                        if pattern & 4 != 0 {
                            scratch.xor_assign(&rx[b]);
                        }
                        if pattern & 8 != 0 {
                            scratch.xor_assign(&rz[b]);
                        }
                        add_mechanism(&scratch, comp);
                    }
                }
                Op::XError { q, p } => {
                    add_mechanism(&rx[q as usize], p);
                }
                Op::Tick => {}
            }
        }

        let mut mechanisms: Vec<ErrorMechanism> = merged
            .into_iter()
            .map(|((detectors, observables), probability)| ErrorMechanism {
                detectors,
                observables,
                probability,
            })
            .collect();
        // Deterministic order: by symptom set, then observable mask.
        mechanisms.sort_by(|m1, m2| {
            m1.detectors
                .cmp(&m2.detectors)
                .then(m1.observables.cmp(&m2.observables))
        });

        DetectorErrorModel {
            num_detectors: self.num_detectors(),
            num_observables: self.num_observables(),
            mechanisms,
        }
    }
}

/// One sampled shot from a [`DemSampler`]: the triggered detectors and the
/// logical-observable flip mask.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Shot {
    /// Sorted indices of the detectors that fired.
    pub detectors: Vec<u32>,
    /// Bitmask of flipped logical observables.
    pub observables: u32,
}

impl Shot {
    /// The Hamming weight of the syndrome vector (number of fired
    /// detectors).
    pub fn hamming_weight(&self) -> usize {
        self.detectors.len()
    }
}

/// Groups mechanism indices by exact probability, highest first.
///
/// The ordering is deterministic (probabilities are distinct group keys and
/// indices are pushed in mechanism order), which both samplers rely on for
/// reproducible streams.
fn probability_groups(dem: &DetectorErrorModel) -> Vec<(f64, Vec<u32>)> {
    let mut by_p: HashMap<u64, Vec<u32>> = HashMap::new();
    for (i, m) in dem.mechanisms().iter().enumerate() {
        by_p.entry(m.probability.to_bits())
            .or_default()
            .push(i as u32);
    }
    let mut groups: Vec<(f64, Vec<u32>)> = by_p
        .into_iter()
        .map(|(bits, idxs)| (f64::from_bits(bits), idxs))
        .collect();
    groups.sort_by(|a, b| b.0.total_cmp(&a.0));
    groups
}

/// Fast Monte-Carlo sampler over a [`DetectorErrorModel`].
///
/// Mechanisms are grouped by probability; within each group the sampler
/// jumps between triggered mechanisms with geometrically distributed skips,
/// so a shot costs `O(groups + triggers)` instead of `O(mechanisms)`.
///
/// [`DemSampler::sample_into`] is the primary per-shot path (zero
/// allocation once the buffer has grown); for bulk sampling prefer the
/// word-parallel [`BatchDemSampler`], which amortizes the group walk over
/// 64 shots per bitwise op.
#[derive(Debug, Clone)]
pub struct DemSampler {
    /// `(probability, mechanism indices)` groups.
    groups: Vec<(f64, Vec<u32>)>,
    /// Flattened copy of the mechanisms for cache-friendly access.
    mechanisms: Vec<ErrorMechanism>,
    parity: Vec<bool>,
    touched: Vec<u32>,
    /// Reused output buffer for [`DemSampler::sample`].
    shot: Shot,
}

impl DemSampler {
    /// Prepares a sampler for the given model.
    pub fn new(dem: &DetectorErrorModel) -> DemSampler {
        DemSampler {
            groups: probability_groups(dem),
            mechanisms: dem.mechanisms().to_vec(),
            parity: vec![false; dem.num_detectors()],
            touched: Vec::new(),
            shot: Shot::default(),
        }
    }

    /// Samples one shot into an internal buffer and returns a reference to
    /// it — no allocation after the first call. Clone the result if it must
    /// outlive the next `sample`/`sample_into` call.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> &Shot {
        let mut shot = std::mem::take(&mut self.shot);
        self.sample_into(rng, &mut shot);
        self.shot = shot;
        &self.shot
    }

    /// Samples one shot into an existing buffer, avoiding allocation.
    pub fn sample_into<R: Rng + ?Sized>(&mut self, rng: &mut R, shot: &mut Shot) {
        shot.detectors.clear();
        shot.observables = 0;
        for &t in &self.touched {
            self.parity[t as usize] = false;
        }
        self.touched.clear();

        for (p, idxs) in &self.groups {
            let p = *p;
            if p <= 0.0 {
                continue;
            }
            if p >= 1.0 {
                for &mi in idxs {
                    let m = &self.mechanisms[mi as usize];
                    shot.observables ^= m.observables;
                    for &d in &m.detectors {
                        self.parity[d as usize] = !self.parity[d as usize];
                        self.touched.push(d);
                    }
                }
                continue;
            }
            let log1mp = (1.0 - p).ln();
            let mut i = 0usize;
            loop {
                // Geometric skip: number of untriggered mechanisms before
                // the next trigger.
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let skip = (u.ln() / log1mp).floor();
                if skip >= (idxs.len() - i) as f64 {
                    break;
                }
                i += skip as usize;
                let m = &self.mechanisms[idxs[i] as usize];
                shot.observables ^= m.observables;
                for &d in &m.detectors {
                    self.parity[d as usize] = !self.parity[d as usize];
                    self.touched.push(d);
                }
                i += 1;
                if i >= idxs.len() {
                    break;
                }
            }
        }

        // Collect detectors whose parity is odd.
        self.touched.sort_unstable();
        self.touched.dedup();
        for &d in &self.touched {
            if self.parity[d as usize] {
                shot.detectors.push(d);
            }
        }
    }
}

/// XORs a 64-lane trigger mask into the detector and observable rows a
/// mechanism flips — one word op per symptom for 64 shots.
#[inline]
fn apply_mechanism_mask(
    m: &ErrorMechanism,
    word: usize,
    mask: u64,
    detectors: &mut BitTable,
    observables: &mut BitTable,
) {
    for &d in &m.detectors {
        detectors.xor_word(d as usize, word, mask);
    }
    let mut obs = m.observables;
    while obs != 0 {
        let bit = obs.trailing_zeros() as usize;
        obs &= obs - 1;
        observables.xor_word(bit, word, mask);
    }
}

/// Word-parallel Monte-Carlo sampler over a [`DetectorErrorModel`]: 64
/// shots per `u64` word.
///
/// Samples the same independent-Bernoulli process as [`DemSampler`], but
/// per *word column* of 64 shots: within each probability group the sampler
/// geometric-skips over the flattened `mechanism-major × lane` trial space
/// (`mechanisms_in_group × 64` trials per column), accumulates consecutive
/// hits on one mechanism into a single 64-lane trigger mask, and applies
/// the mask with one XOR per flipped detector/observable row. A column
/// therefore costs `O(groups + triggers)` — the group walk is amortized 64×
/// relative to the scalar sampler, and symptom application is
/// word-parallel.
///
/// # Seeding contract
///
/// Column `w` (shots `64w .. 64w + 64`) is seeded with
/// [`column_seed`]`(seed, w)` and always draws all 64 lanes, padding
/// included, so the first `n` shots are bit-identical for any shot count
/// `≥ n` and any word-aligned chunking across threads (see
/// [`crate::bittable`]).
#[derive(Debug, Clone)]
pub struct BatchDemSampler {
    groups: Vec<(f64, Vec<u32>)>,
    mechanisms: Vec<ErrorMechanism>,
    num_detectors: usize,
    num_observables: usize,
}

impl BatchDemSampler {
    /// Prepares a word-parallel sampler for the given model.
    pub fn new(dem: &DetectorErrorModel) -> BatchDemSampler {
        BatchDemSampler {
            groups: probability_groups(dem),
            mechanisms: dem.mechanisms().to_vec(),
            num_detectors: dem.num_detectors(),
            num_observables: dem.num_observables(),
        }
    }

    /// Number of detectors in the underlying model.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of logical observables in the underlying model.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Samples `num_shots` shots, returning packed
    /// `num_detectors × num_shots` and `num_observables × num_shots`
    /// tables.
    pub fn sample(&self, seed: u64, num_shots: usize) -> (BitTable, BitTable) {
        let mut detectors = BitTable::new(self.num_detectors, num_shots);
        let mut observables = BitTable::new(self.num_observables, num_shots);
        self.sample_words(seed, 0, &mut detectors, &mut observables);
        (detectors, observables)
    }

    /// Fills pre-sized tables with word columns `first_word .. first_word +
    /// detectors.num_words()` of the global packed stream — the chunked
    /// entry point for splitting one logical run across threads. Local word
    /// `w` of the tables is global column `first_word + w`, seeded with
    /// [`column_seed`]`(seed, first_word + w)`.
    ///
    /// # Panics
    ///
    /// Panics if the tables' row counts don't match the model's
    /// detector/observable counts or their shot counts differ.
    pub fn sample_words(
        &self,
        seed: u64,
        first_word: usize,
        detectors: &mut BitTable,
        observables: &mut BitTable,
    ) {
        assert_eq!(detectors.num_bits(), self.num_detectors);
        assert_eq!(observables.num_bits(), self.num_observables);
        assert_eq!(detectors.num_shots(), observables.num_shots());
        // Row-sequential zeroing (a memset per row) beats zeroing inside
        // the per-column loop, which would stride across the whole table.
        detectors.clear();
        observables.clear();
        for w in 0..detectors.num_words() {
            let mut rng = StdRng::seed_from_u64(column_seed(seed, (first_word + w) as u64));
            for (p, idxs) in &self.groups {
                let p = *p;
                if p <= 0.0 {
                    continue;
                }
                if p >= 1.0 {
                    for &mi in idxs {
                        apply_mechanism_mask(
                            &self.mechanisms[mi as usize],
                            w,
                            !0,
                            detectors,
                            observables,
                        );
                    }
                    continue;
                }
                // Geometric skip over the flattened mechanism-major trial
                // space: trial `f` is lane `f % 64` of mechanism `f / 64`
                // within this group. Consecutive hits on one mechanism
                // accumulate into a single 64-lane mask before flushing.
                let total = idxs.len() * 64;
                let inv_log1mp = (1.0 - p).ln().recip();
                let mut f = 0usize;
                let mut cur = usize::MAX;
                let mut mask = 0u64;
                loop {
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    let skip = (u.ln() * inv_log1mp).floor();
                    if skip >= (total - f) as f64 {
                        break;
                    }
                    f += skip as usize;
                    let mech = f / 64;
                    if mech != cur {
                        if cur != usize::MAX {
                            apply_mechanism_mask(
                                &self.mechanisms[idxs[cur] as usize],
                                w,
                                mask,
                                detectors,
                                observables,
                            );
                        }
                        cur = mech;
                        mask = 0;
                    }
                    mask |= 1u64 << (f % 64);
                    f += 1;
                    if f >= total {
                        break;
                    }
                }
                if cur != usize::MAX {
                    apply_mechanism_mask(
                        &self.mechanisms[idxs[cur] as usize],
                        w,
                        mask,
                        detectors,
                        observables,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_memory_z_circuit;
    use crate::frame::FrameSimulator;
    use crate::noise::NoiseModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use surface_code::SurfaceCode;

    fn d3_model(p: f64) -> DetectorErrorModel {
        let code = SurfaceCode::new(3).unwrap();
        let circuit = build_memory_z_circuit(&code, 3, NoiseModel::depolarizing(p));
        circuit.detector_error_model()
    }

    #[test]
    fn noiseless_circuit_has_empty_model() {
        let code = SurfaceCode::new(3).unwrap();
        let circuit = build_memory_z_circuit(&code, 3, NoiseModel::noiseless());
        let dem = circuit.detector_error_model();
        assert!(dem.mechanisms().is_empty());
        assert_eq!(dem.expected_triggers(), 0.0);
    }

    #[test]
    fn no_undetectable_logicals() {
        for d in [3, 5] {
            let code = SurfaceCode::new(d).unwrap();
            let circuit = build_memory_z_circuit(&code, d, NoiseModel::depolarizing(1e-3));
            let dem = circuit.detector_error_model();
            assert!(
                dem.undetectable_logicals().is_empty(),
                "d={d} has undetectable logical mechanisms"
            );
        }
    }

    #[test]
    fn mechanisms_have_small_symptom_sets() {
        // Circuit-level noise on the surface code produces mechanisms with
        // at most 4 flipped Z detectors (two-qubit Paulis straddling two
        // space-time edges).
        let dem = d3_model(1e-3);
        for m in dem.mechanisms() {
            assert!(
                m.detectors.len() <= 4,
                "mechanism flips {} detectors: {:?}",
                m.detectors.len(),
                m.detectors
            );
        }
    }

    #[test]
    fn all_detectors_are_covered() {
        let dem = d3_model(1e-3);
        let mut covered = vec![false; dem.num_detectors()];
        for m in dem.mechanisms() {
            for &d in &m.detectors {
                covered[d as usize] = true;
            }
        }
        assert!(covered.iter().all(|&b| b), "some detector can never fire");
    }

    #[test]
    fn probabilities_are_valid() {
        let dem = d3_model(1e-3);
        for m in dem.mechanisms() {
            assert!(m.probability > 0.0 && m.probability < 1.0);
        }
        assert!(dem.expected_triggers() > 0.0);
    }

    #[test]
    fn deterministic_error_produces_unit_probability_mechanism() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(0));
        c.push(Op::XError { q: 0, p: 1.0 });
        c.push(Op::MeasureZ(0));
        c.push_detector(vec![0], crate::circuit::DetectorCoord::default());
        let dem = c.detector_error_model();
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].detectors, vec![0]);
        assert_eq!(dem.mechanisms()[0].probability, 1.0);
    }

    #[test]
    fn identical_mechanisms_merge_with_xor_probability() {
        // Two independent p=0.25 X errors on the same qubit before one
        // measurement: net flip probability 2·0.25·0.75 = 0.375.
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(0));
        c.push(Op::XError { q: 0, p: 0.25 });
        c.push(Op::XError { q: 0, p: 0.25 });
        c.push(Op::MeasureZ(0));
        c.push_detector(vec![0], crate::circuit::DetectorCoord::default());
        let dem = c.detector_error_model();
        assert_eq!(dem.mechanisms().len(), 1);
        assert!((dem.mechanisms()[0].probability - 0.375).abs() < 1e-12);
    }

    #[test]
    fn sampler_matches_frame_simulator_statistics() {
        // The DEM sampler and the Pauli-frame simulator must agree on the
        // marginal firing rate of every detector and on the observable flip
        // rate, up to Monte-Carlo error.
        let p = 0.005;
        let code = SurfaceCode::new(3).unwrap();
        let circuit = build_memory_z_circuit(&code, 3, NoiseModel::depolarizing(p));
        let dem = circuit.detector_error_model();

        let shots = 60_000;
        let mut frame_counts = vec![0u32; circuit.num_detectors()];
        let mut frame_obs = 0u32;
        let mut sim = FrameSimulator::new(&circuit);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..shots {
            let (dets, obs) = sim.sample(&circuit, &mut rng);
            for (i, &b) in dets.iter().enumerate() {
                frame_counts[i] += b as u32;
            }
            frame_obs += obs & 1;
        }

        let mut dem_counts = vec![0u32; dem.num_detectors()];
        let mut dem_obs = 0u32;
        let mut sampler = DemSampler::new(&dem);
        let mut rng = StdRng::seed_from_u64(12);
        let mut shot = Shot::default();
        for _ in 0..shots {
            sampler.sample_into(&mut rng, &mut shot);
            for &d in &shot.detectors {
                dem_counts[d as usize] += 1;
            }
            dem_obs += shot.observables & 1;
        }

        for (i, (&f, &s)) in frame_counts.iter().zip(&dem_counts).enumerate() {
            let (f, s) = (f as f64 / shots as f64, s as f64 / shots as f64);
            // 5-sigma binomial tolerance.
            let sigma = (f.max(s).max(1.0 / shots as f64) / shots as f64).sqrt();
            assert!(
                (f - s).abs() < 5.0 * sigma + 1e-4,
                "detector {i}: frame rate {f}, dem rate {s}"
            );
        }
        let (f, s) = (
            frame_obs as f64 / shots as f64,
            dem_obs as f64 / shots as f64,
        );
        assert!((f - s).abs() < 0.01, "obs rates: frame {f}, dem {s}");
    }

    #[test]
    fn sampler_mean_triggers_matches_expectation() {
        let dem = d3_model(2e-3);
        let mut sampler = DemSampler::new(&dem);
        let mut rng = StdRng::seed_from_u64(3);
        let mut shot = Shot::default();
        let shots = 40_000;
        let mut total_parity_flips = 0usize;
        for _ in 0..shots {
            sampler.sample_into(&mut rng, &mut shot);
            total_parity_flips += shot.detectors.len();
        }
        // Expected detector flips per shot ≈ Σ_m p_m · |dets(m)| for small p.
        let expected: f64 = dem
            .mechanisms()
            .iter()
            .map(|m| m.probability * m.detectors.len() as f64)
            .sum();
        let mean = total_parity_flips as f64 / shots as f64;
        assert!(
            (mean - expected).abs() / expected < 0.1,
            "mean {mean}, expected {expected}"
        );
    }

    #[test]
    fn shot_hamming_weight() {
        let shot = Shot {
            detectors: vec![1, 5, 9],
            observables: 0,
        };
        assert_eq!(shot.hamming_weight(), 3);
    }

    #[test]
    fn sample_reuses_buffer_and_matches_sample_into() {
        let dem = d3_model(5e-3);
        let mut a = DemSampler::new(&dem);
        let mut b = DemSampler::new(&dem);
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let mut shot = Shot::default();
        for _ in 0..200 {
            let by_ref = a.sample(&mut rng_a).clone();
            b.sample_into(&mut rng_b, &mut shot);
            assert_eq!(by_ref, shot);
        }
    }

    #[test]
    fn batch_sampler_fires_unit_probability_mechanism_in_every_lane() {
        let dem = DetectorErrorModel::from_mechanisms(
            2,
            1,
            vec![ErrorMechanism {
                detectors: vec![1],
                observables: 1,
                probability: 1.0,
            }],
        );
        let sampler = BatchDemSampler::new(&dem);
        let (det, obs) = sampler.sample(3, 130);
        assert_eq!(det.count_row_ones(0), 0);
        assert_eq!(det.count_row_ones(1), 130);
        assert_eq!(obs.count_row_ones(0), 130);
    }

    #[test]
    fn batch_sampler_is_shot_count_prefix_invariant() {
        let dem = d3_model(5e-3);
        let sampler = BatchDemSampler::new(&dem);
        let (small_det, small_obs) = sampler.sample(9, 70);
        let (big_det, big_obs) = sampler.sample(9, 300);
        for shot in 0..70 {
            for d in 0..dem.num_detectors() {
                assert_eq!(small_det.get(d, shot), big_det.get(d, shot));
            }
            assert_eq!(small_obs.get(0, shot), big_obs.get(0, shot));
        }
    }

    #[test]
    fn batch_sampler_chunked_matches_monolithic() {
        let dem = d3_model(5e-3);
        let sampler = BatchDemSampler::new(&dem);
        let (whole_det, whole_obs) = sampler.sample(13, 192);
        let mut part_det = BitTable::new(dem.num_detectors(), 64);
        let mut part_obs = BitTable::new(dem.num_observables(), 64);
        for chunk in 0..3 {
            sampler.sample_words(13, chunk, &mut part_det, &mut part_obs);
            for shot in 0..64 {
                for d in 0..dem.num_detectors() {
                    assert_eq!(part_det.get(d, shot), whole_det.get(d, chunk * 64 + shot));
                }
                assert_eq!(part_obs.get(0, shot), whole_obs.get(0, chunk * 64 + shot));
            }
        }
    }

    #[test]
    fn batch_sampler_mean_triggers_matches_expectation() {
        let dem = d3_model(2e-3);
        let sampler = BatchDemSampler::new(&dem);
        let shots = 40_000;
        let (det, _) = sampler.sample(5, shots);
        let total: usize = (0..dem.num_detectors())
            .map(|d| det.count_row_ones(d))
            .sum();
        let expected: f64 = dem
            .mechanisms()
            .iter()
            .map(|m| m.probability * m.detectors.len() as f64)
            .sum();
        let mean = total as f64 / shots as f64;
        assert!(
            (mean - expected).abs() / expected < 0.1,
            "mean {mean}, expected {expected}"
        );
    }
}
