//! Tile iteration over packed sampling runs — the producer half of the
//! streaming sampler→decoder pipeline.
//!
//! A long word-parallel sampling run is cut into size-capped *tiles*:
//! contiguous, word-aligned blocks of packed shot columns small enough to
//! stay cache-resident while they are produced, shipped over a channel,
//! and screened/decoded. [`TileLayout`] does the word arithmetic,
//! [`SyndromeTile`] is the unit shipped between threads, and
//! [`PackedSyndromeSource`] abstracts over the two packed samplers
//! ([`BatchDemSampler`] and [`crate::BatchFrameSimulator`] via
//! [`FrameSimSource`]) so consumers never care where tiles came from.
//!
//! # Determinism contract
//!
//! Tiling inherits the [`column_seed`](crate::column_seed) contract (see
//! [`crate::bittable`]): word column `w` of the *global* run is always
//! seeded with `column_seed(seed, w)` and always draws all 64 lanes, so
//! shot `s` of a run is one fixed function of `(seed, s)` — independent
//! of the tile size, which producer sampled the tile, how many producers
//! or consumers there are, and in which order tiles are produced or
//! consumed. Any interleaving of any tiling is bit-identical to the
//! monolithic run; this is what lets the streamed pipeline reproduce the
//! barrier path exactly.

use std::sync::Arc;

use crate::batch_frame::BatchFrameSimulator;
use crate::bittable::BitTable;
use crate::circuit::Circuit;
use crate::dem::BatchDemSampler;

/// One packed tile of a sampling run: word columns `first_word ..` of the
/// global stream, holding `num_shots` consecutive shots starting at shot
/// `64 · first_word`.
#[derive(Debug, Clone)]
pub struct SyndromeTile {
    first_word: usize,
    detectors: BitTable,
    observables: BitTable,
}

impl SyndromeTile {
    /// Wraps packed detector/observable tables sampled at global word
    /// column `first_word`.
    ///
    /// # Panics
    ///
    /// Panics if the tables disagree on shot count.
    pub fn new(first_word: usize, detectors: BitTable, observables: BitTable) -> SyndromeTile {
        assert_eq!(
            detectors.num_shots(),
            observables.num_shots(),
            "detector/observable tables disagree on shot count"
        );
        SyndromeTile {
            first_word,
            detectors,
            observables,
        }
    }

    /// Global word column of the tile's first local word.
    pub fn first_word(&self) -> usize {
        self.first_word
    }

    /// Global index of the tile's first shot (`64 · first_word`).
    pub fn first_shot(&self) -> usize {
        self.first_word * 64
    }

    /// Number of shots in the tile.
    pub fn num_shots(&self) -> usize {
        self.detectors.num_shots()
    }

    /// The packed detector table (`num_detectors × num_shots`).
    pub fn detectors(&self) -> &BitTable {
        &self.detectors
    }

    /// The packed observable table (`num_observables × num_shots`).
    pub fn observables(&self) -> &BitTable {
        &self.observables
    }
}

/// The word-aligned tiling of a `total_shots` run into tiles of at most
/// `tile_words` packed words (≤ `64 · tile_words` shots) each.
///
/// The first `wide_tiles` tiles span exactly `tile_words` words and the
/// rest one word fewer; the last tile covers whatever shots remain (its
/// final word may be partial). [`TileLayout::new`] makes every tile wide;
/// [`TileLayout::for_consumers`] balances the widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLayout {
    total_shots: usize,
    tile_words: usize,
    num_tiles: usize,
    wide_tiles: usize,
}

impl TileLayout {
    /// Lays out `total_shots` shots in tiles of `tile_words` words.
    ///
    /// # Panics
    ///
    /// Panics if `tile_words` is zero.
    pub fn new(total_shots: usize, tile_words: usize) -> TileLayout {
        assert!(tile_words > 0, "tile_words must be at least 1");
        let num_tiles = total_shots.div_ceil(64).div_ceil(tile_words);
        TileLayout {
            total_shots,
            tile_words,
            num_tiles,
            wide_tiles: num_tiles,
        }
    }

    /// Lays out `total_shots` shots for `consumers` decoding threads, in
    /// tiles of at most `max_tile_words` words.
    ///
    /// The run's `⌈total_shots / 64⌉` words are cut into the fewest tiles
    /// that respect the cap, rounded up to a multiple of `consumers` (but
    /// never more tiles than words), with widths differing by at most one
    /// word. So a run shorter than one full tile per consumer still gives
    /// every consumer a tile, and longer runs end without a lone straggler.
    /// A `consumers` of zero counts as one.
    ///
    /// # Panics
    ///
    /// Panics if `max_tile_words` is zero.
    pub fn for_consumers(
        total_shots: usize,
        max_tile_words: usize,
        consumers: usize,
    ) -> TileLayout {
        assert!(max_tile_words > 0, "tile_words must be at least 1");
        let words = total_shots.div_ceil(64);
        let num_tiles = words
            .div_ceil(max_tile_words)
            .next_multiple_of(consumers.max(1))
            .min(words);
        if num_tiles == 0 {
            return TileLayout::new(total_shots, max_tile_words);
        }
        let tile_words = words.div_ceil(num_tiles);
        // `words = wide · tile_words + (num_tiles − wide) · (tile_words − 1)`.
        let wide_tiles = words - num_tiles * (tile_words - 1);
        TileLayout {
            total_shots,
            tile_words,
            num_tiles,
            wide_tiles,
        }
    }

    /// Total shots across all tiles.
    pub fn total_shots(&self) -> usize {
        self.total_shots
    }

    /// Maximum words per tile.
    pub fn tile_words(&self) -> usize {
        self.tile_words
    }

    /// Number of tiles (zero when `total_shots` is zero).
    pub fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    /// The global first word and shot count of tile `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn tile(&self, index: usize) -> (usize, usize) {
        assert!(index < self.num_tiles, "tile {index} of {}", self.num_tiles);
        let first_word = index * self.tile_words - index.saturating_sub(self.wide_tiles);
        let words = self.tile_words - usize::from(index >= self.wide_tiles);
        let end_shot = ((first_word + words) * 64).min(self.total_shots);
        (first_word, end_shot - first_word * 64)
    }

    /// Iterates `(first_word, num_shots)` for every tile.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_tiles()).map(move |i| self.tile(i))
    }
}

/// A packed syndrome sampler that can fill arbitrary word columns of its
/// global shot stream — the producer interface of the streaming pipeline.
///
/// Implementors must honour the [`column_seed`](crate::column_seed)
/// contract: filling word columns `[first_word, first_word + k)` must
/// produce exactly those columns of the monolithic run with the same
/// seed, regardless of how the run is chunked. Both packed samplers in
/// this crate qualify.
pub trait PackedSyndromeSource: Send {
    /// Number of detector rows produced per shot.
    fn num_detectors(&self) -> usize;

    /// Number of observable rows produced per shot.
    fn num_observables(&self) -> usize;

    /// Fills pre-sized tables with global word columns `first_word ..
    /// first_word + detectors.num_words()` of the run seeded by `seed`.
    fn fill_words(
        &mut self,
        seed: u64,
        first_word: usize,
        detectors: &mut BitTable,
        observables: &mut BitTable,
    );

    /// Samples tile `index` of `layout` into a fresh [`SyndromeTile`].
    fn sample_tile(&mut self, seed: u64, layout: &TileLayout, index: usize) -> SyndromeTile {
        let (first_word, num_shots) = layout.tile(index);
        let mut detectors = BitTable::new(self.num_detectors(), num_shots);
        let mut observables = BitTable::new(self.num_observables(), num_shots);
        self.fill_words(seed, first_word, &mut detectors, &mut observables);
        SyndromeTile::new(first_word, detectors, observables)
    }
}

impl PackedSyndromeSource for BatchDemSampler {
    fn num_detectors(&self) -> usize {
        BatchDemSampler::num_detectors(self)
    }

    fn num_observables(&self) -> usize {
        BatchDemSampler::num_observables(self)
    }

    fn fill_words(
        &mut self,
        seed: u64,
        first_word: usize,
        detectors: &mut BitTable,
        observables: &mut BitTable,
    ) {
        self.sample_words(seed, first_word, detectors, observables);
    }
}

/// An owning [`PackedSyndromeSource`] pairing a [`BatchFrameSimulator`]
/// with its circuit, so full circuit-level Pauli-frame simulation can
/// feed the same tile pipeline as DEM sampling.
///
/// Cloning shares the circuit (an `Arc`) and gives the clone its own
/// simulator frames, so one source per producer thread is cheap.
#[derive(Debug, Clone)]
pub struct FrameSimSource {
    circuit: Arc<Circuit>,
    sim: BatchFrameSimulator,
}

impl FrameSimSource {
    /// Builds a source simulating `circuit`.
    pub fn new(circuit: &Circuit) -> FrameSimSource {
        FrameSimSource {
            sim: BatchFrameSimulator::new(circuit),
            circuit: Arc::new(circuit.clone()),
        }
    }

    /// The simulated circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }
}

impl PackedSyndromeSource for FrameSimSource {
    fn num_detectors(&self) -> usize {
        self.circuit.num_detectors()
    }

    fn num_observables(&self) -> usize {
        self.circuit.num_observables()
    }

    fn fill_words(
        &mut self,
        seed: u64,
        first_word: usize,
        detectors: &mut BitTable,
        observables: &mut BitTable,
    ) {
        self.sim
            .sample_words(&self.circuit, seed, first_word, detectors, observables);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_memory_z_circuit;
    use crate::noise::NoiseModel;
    use surface_code::SurfaceCode;

    #[test]
    fn layout_covers_every_shot_exactly_once() {
        for (shots, tile_words) in [(1usize, 1usize), (64, 1), (65, 1), (1000, 3), (8192, 128)] {
            let layout = TileLayout::new(shots, tile_words);
            let mut covered = 0usize;
            for (i, (first_word, n)) in layout.iter().enumerate() {
                assert_eq!(first_word, i * tile_words);
                assert_eq!(first_word * 64, covered);
                assert!(n > 0);
                assert!(n <= tile_words * 64);
                // Every tile but the last is word-aligned and full.
                if i + 1 < layout.num_tiles() {
                    assert_eq!(n, tile_words * 64);
                }
                covered = first_word * 64 + n;
            }
            assert_eq!(covered, shots, "shots {shots} tile_words {tile_words}");
        }
    }

    #[test]
    fn empty_layout_has_no_tiles() {
        assert_eq!(TileLayout::new(0, 4).num_tiles(), 0);
        assert_eq!(TileLayout::for_consumers(0, 4, 3).num_tiles(), 0);
    }

    #[test]
    fn consumer_layout_covers_every_shot_once_within_the_cap() {
        for shots in [1usize, 63, 64, 65, 128, 200, 320, 1000, 8192, 250_000] {
            for max_tile_words in [1usize, 2, 3, 5, 128] {
                for consumers in [0usize, 1, 2, 3, 4, 7] {
                    let layout = TileLayout::for_consumers(shots, max_tile_words, consumers);
                    let words = shots.div_ceil(64);
                    let ctx = format!("shots {shots} max {max_tile_words} consumers {consumers}");
                    assert!(
                        layout.num_tiles() >= words.min(consumers.max(1)),
                        "{ctx}: {} tiles",
                        layout.num_tiles()
                    );
                    assert!(layout.tile_words() <= max_tile_words, "{ctx}");
                    let mut covered = 0usize;
                    for (first_word, n) in layout.iter() {
                        assert_eq!(first_word * 64, covered, "{ctx}: gap or overlap");
                        assert!(n > 0, "{ctx}: empty tile");
                        assert!(n <= max_tile_words * 64, "{ctx}: tile over the cap");
                        covered += n;
                    }
                    assert_eq!(covered, shots, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn consumer_layout_rounds_tiles_to_the_consumer_count() {
        // One tile's worth of words still feeds both consumers.
        let deep = TileLayout::for_consumers(128, 128, 2);
        assert_eq!(deep.num_tiles(), 2);
        assert_eq!(deep.iter().collect::<Vec<_>>(), vec![(0, 64), (1, 64)]);
        // 3907 words: 31 capped tiles become 32, none wider than 123 words.
        let high = TileLayout::for_consumers(250_000, 128, 2);
        assert_eq!((high.num_tiles(), high.tile_words()), (32, 123));
        // Never more tiles than words; long runs only round up.
        assert_eq!(TileLayout::for_consumers(130, 128, 8).num_tiles(), 3);
        assert_eq!(
            TileLayout::for_consumers(8_000_000, 128, 1).num_tiles(),
            977
        );
        assert_eq!(
            TileLayout::for_consumers(8_000_000, 128, 2).num_tiles(),
            978
        );
    }

    #[test]
    fn tiled_sampling_is_bit_identical_to_monolithic_for_both_sources() {
        let code = SurfaceCode::new(3).unwrap();
        let circuit = build_memory_z_circuit(&code, 3, NoiseModel::depolarizing(5e-3));
        let dem = circuit.detector_error_model();
        let shots = 300;
        let seed = 77;

        let mono_dem = BatchDemSampler::new(&dem).sample(seed, shots);
        let mut frame = FrameSimSource::new(&circuit);
        let mut mono_frame_det = BitTable::new(frame.num_detectors(), shots);
        let mut mono_frame_obs = BitTable::new(frame.num_observables(), shots);
        frame.fill_words(seed, 0, &mut mono_frame_det, &mut mono_frame_obs);

        for tile_words in [1usize, 2, 5] {
            let layout = TileLayout::new(shots, tile_words);
            let mut dem_src = BatchDemSampler::new(&dem);
            let mut frame_src = frame.clone();
            for t in 0..layout.num_tiles() {
                let dt = dem_src.sample_tile(seed, &layout, t);
                let ft = frame_src.sample_tile(seed, &layout, t);
                for local in 0..dt.num_shots() {
                    let global = dt.first_shot() + local;
                    for d in 0..dt.detectors().num_bits() {
                        assert_eq!(
                            dt.detectors().get(d, local),
                            mono_dem.0.get(d, global),
                            "dem tile_words {tile_words} tile {t} det {d} shot {global}"
                        );
                        assert_eq!(
                            ft.detectors().get(d, local),
                            mono_frame_det.get(d, global),
                            "frame tile_words {tile_words} tile {t} det {d} shot {global}"
                        );
                    }
                    assert_eq!(dt.observables().get(0, local), mono_dem.1.get(0, global));
                    assert_eq!(
                        ft.observables().get(0, local),
                        mono_frame_obs.get(0, global)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile_words")]
    fn zero_tile_words_is_rejected() {
        TileLayout::new(10, 0);
    }
}
