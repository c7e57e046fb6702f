//! Durable, torn-write-detecting checkpoint store.
//!
//! The store persists one **envelope file per checkpoint generation**
//! under `<root>/<campaign>/gen-NNNNNNNN.ckpt`. An envelope does not
//! carry the campaign snapshot itself — it carries the *integrity seals*
//! that pin down which state a recovery must reproduce:
//!
//! ```text
//! magic "PENT" | version u32 | generation u64 | payload_len u64 | payload | crc32 u32
//! ```
//!
//! all little-endian, where the payload packs the campaign's dense state
//! checksum ([`pentimento::Campaign::state_checksum`]), its hour, and the
//! human-readable manifest. The trailing CRC-32 seals every preceding
//! byte, so a torn write — a crash between `write` and `fsync`, a
//! truncated rename, a flipped bit — fails validation and the scan
//! rolls back to the newest generation that still verifies. A campaign
//! is a pure function of its spec, so the supervisor recovers by
//! replaying the spec's campaign to the sealed hour and checking the
//! seals (DESIGN.md §12).
//!
//! Commits are crash-safe by construction: the envelope is written to a
//! `.tmp` sibling, flushed with `fsync`, and atomically renamed into
//! place, and the campaign directory is then `fsync`ed so the rename
//! itself is durable. A crash at any instant leaves either the old
//! generation set or the old set plus one fully-sealed new file; the
//! scan ignores `.tmp` leftovers entirely.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use pentimento::CampaignCheckpoint;

use crate::error::StoreError;

/// File format magic: the first four bytes of every envelope.
pub const ENVELOPE_MAGIC: [u8; 4] = *b"PENT";

/// File format version. Bumping it invalidates older envelopes (the scan
/// treats them as corrupt and rolls past them).
pub const ENVELOPE_VERSION: u32 = 1;

/// The validated contents of one envelope file.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Monotonic checkpoint generation within the campaign.
    pub generation: u64,
    /// The sealed dense state checksum of the snapshot.
    pub state_checksum: u64,
    /// Completed attack-window hours at snapshot time.
    pub hour: u64,
    /// The human-readable integrity manifest.
    pub manifest: String,
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the seal at the tail of
/// every envelope. Bitwise, table-free: envelope files are tiny.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The durable envelope store. One directory per campaign, one file per
/// generation.
#[derive(Debug)]
pub struct CheckpointStore {
    root: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the root cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| StoreError::io("create", &root, &e))?;
        Ok(Self { root })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn campaign_dir(&self, campaign: &str) -> PathBuf {
        self.root.join(campaign)
    }

    fn generation_path(&self, campaign: &str, generation: u64) -> PathBuf {
        self.campaign_dir(campaign)
            .join(format!("gen-{generation:08}.ckpt"))
    }

    fn encode(generation: u64, checkpoint: &CampaignCheckpoint) -> Vec<u8> {
        let manifest = checkpoint.manifest().as_bytes();
        let payload_len = (8 + 8 + 8 + manifest.len()) as u64;
        let mut bytes = Vec::with_capacity(4 + 4 + 8 + 8 + payload_len as usize + 4);
        bytes.extend_from_slice(&ENVELOPE_MAGIC);
        bytes.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&generation.to_le_bytes());
        bytes.extend_from_slice(&payload_len.to_le_bytes());
        bytes.extend_from_slice(&checkpoint.state_checksum().to_le_bytes());
        bytes.extend_from_slice(&(checkpoint.hour() as u64).to_le_bytes());
        bytes.extend_from_slice(&(manifest.len() as u64).to_le_bytes());
        bytes.extend_from_slice(manifest);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    fn decode(path: &Path, bytes: &[u8]) -> Result<Envelope, StoreError> {
        let corrupt = |reason: String| StoreError::CorruptEnvelope {
            path: path.display().to_string(),
            reason,
        };
        let take_u64 = |bytes: &[u8], at: usize| -> u64 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(word)
        };
        if bytes.len() < 4 + 4 + 8 + 8 + 4 {
            return Err(corrupt(format!(
                "{} bytes is shorter than a header",
                bytes.len()
            )));
        }
        if bytes[..4] != ENVELOPE_MAGIC {
            return Err(corrupt("bad magic".to_owned()));
        }
        let mut word = [0u8; 4];
        word.copy_from_slice(&bytes[4..8]);
        let version = u32::from_le_bytes(word);
        if version != ENVELOPE_VERSION {
            return Err(corrupt(format!(
                "envelope version {version}, this store writes {ENVELOPE_VERSION}"
            )));
        }
        let generation = take_u64(bytes, 8);
        let payload_len = take_u64(bytes, 16) as usize;
        let total = 4 + 4 + 8 + 8 + payload_len + 4;
        if bytes.len() != total {
            return Err(corrupt(format!(
                "payload claims {total} total bytes but file holds {}",
                bytes.len()
            )));
        }
        let sealed = &bytes[..total - 4];
        word.copy_from_slice(&bytes[total - 4..]);
        let expected_crc = u32::from_le_bytes(word);
        let actual_crc = crc32(sealed);
        if expected_crc != actual_crc {
            return Err(corrupt(format!(
                "CRC mismatch: sealed {expected_crc:#010x}, content hashes to {actual_crc:#010x}"
            )));
        }
        if payload_len < 24 {
            return Err(corrupt(format!(
                "payload of {payload_len} bytes is too short"
            )));
        }
        let state_checksum = take_u64(bytes, 24);
        let hour = take_u64(bytes, 32);
        let manifest_len = take_u64(bytes, 40) as usize;
        if 24 + manifest_len != payload_len {
            return Err(corrupt(format!(
                "manifest claims {manifest_len} bytes inside a {payload_len}-byte payload"
            )));
        }
        let manifest = String::from_utf8(bytes[48..48 + manifest_len].to_vec())
            .map_err(|_| corrupt("manifest is not UTF-8".to_owned()))?;
        Ok(Envelope {
            generation,
            state_checksum,
            hour,
            manifest,
        })
    }

    /// Durably commits a checkpoint as `generation`: write-temp →
    /// `fsync` → atomic rename → `fsync` of the campaign directory.
    /// Returns the committed path.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when any filesystem step fails; a failed commit
    /// never disturbs previously committed generations.
    pub fn commit(
        &self,
        campaign: &str,
        generation: u64,
        checkpoint: &CampaignCheckpoint,
    ) -> Result<PathBuf, StoreError> {
        // A one-item batch yields one result; collecting a lone path
        // into a `PathBuf` returns that path unchanged.
        self.commit_batch(&[(campaign, generation, checkpoint)])
            .into_iter()
            .collect()
    }

    /// Durably commits one checkpoint per campaign as a single batch —
    /// the supervisor's once-per-tick commit point, replacing N
    /// interleaved per-campaign `commit` calls.
    ///
    /// The batch runs in three phases over all items: first every
    /// envelope is written and `fsync`ed to its `.tmp` sibling, then every
    /// `.tmp` is renamed into place, then each distinct campaign directory
    /// is `fsync`ed once. Failures are attributed per item (input order; a
    /// directory `fsync` failure goes to every item renamed into that
    /// directory), and an item that failed its write phase is never
    /// renamed; items are independent, so one campaign's failure cannot
    /// disturb another's commit or any previously committed generation.
    pub fn commit_batch(
        &self,
        items: &[(&str, u64, &CampaignCheckpoint)],
    ) -> Vec<Result<PathBuf, StoreError>> {
        // Phase 1: write + fsync every temp file. The intermediate
        // collect is the phase barrier — fusing the iterators would
        // interleave renames with writes and lose the all-staged-first
        // durability ordering.
        #[allow(clippy::needless_collect)]
        let staged: Vec<Result<(PathBuf, PathBuf), StoreError>> = items
            .iter()
            .map(|&(campaign, generation, checkpoint)| {
                let dir = self.campaign_dir(campaign);
                fs::create_dir_all(&dir).map_err(|e| StoreError::io("create", &dir, &e))?;
                let bytes = Self::encode(generation, checkpoint);
                let path = self.generation_path(campaign, generation);
                let tmp = path.with_extension("ckpt.tmp");
                let mut file =
                    fs::File::create(&tmp).map_err(|e| StoreError::io("create", &tmp, &e))?;
                file.write_all(&bytes)
                    .map_err(|e| StoreError::io("write", &tmp, &e))?;
                file.sync_all()
                    .map_err(|e| StoreError::io("fsync", &tmp, &e))?;
                Ok((tmp, path))
            })
            .collect();
        // Phase 2: rename the survivors into place.
        let mut results: Vec<Result<PathBuf, StoreError>> = staged
            .into_iter()
            .map(|staged| {
                let (tmp, path) = staged?;
                fs::rename(&tmp, &path).map_err(|e| StoreError::io("rename", &path, &e))?;
                Ok(path)
            })
            .collect();
        // Phase 3: make the renames durable, one directory fsync each.
        let mut dirs: Vec<PathBuf> = results
            .iter()
            .flatten()
            .filter_map(|path| path.parent().map(Path::to_path_buf))
            .collect();
        dirs.sort();
        dirs.dedup();
        for dir in dirs {
            if let Err(e) = sync_dir(&dir) {
                for result in &mut results {
                    if result
                        .as_ref()
                        .is_ok_and(|path| path.parent() == Some(&dir))
                    {
                        *result = Err(StoreError::io("fsync", &dir, &e));
                    }
                }
            }
        }
        results
    }

    /// Reads and fully validates one generation's envelope.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be read,
    /// [`StoreError::CorruptEnvelope`] when it fails validation.
    pub fn read(&self, campaign: &str, generation: u64) -> Result<Envelope, StoreError> {
        let path = self.generation_path(campaign, generation);
        let bytes = fs::read(&path).map_err(|e| StoreError::io("read", &path, &e))?;
        Self::decode(&path, &bytes)
    }

    /// The generations present on disk for `campaign`, ascending —
    /// including torn ones (presence is judged by filename alone).
    /// `.tmp` leftovers from interrupted commits are ignored.
    #[must_use]
    pub fn generations(&self, campaign: &str) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(self.campaign_dir(campaign)) else {
            return Vec::new();
        };
        let mut generations: Vec<u64> = entries
            .filter_map(Result::ok)
            .filter_map(|entry| {
                let name = entry.file_name();
                let name = name.to_str()?;
                let number = name.strip_prefix("gen-")?.strip_suffix(".ckpt")?;
                number.parse().ok()
            })
            .collect();
        generations.sort_unstable();
        generations
    }

    /// The campaigns present in the store, sorted (the startup recovery
    /// scan's worklist).
    #[must_use]
    pub fn campaigns(&self) -> Vec<String> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut campaigns: Vec<String> = entries
            .filter_map(Result::ok)
            .filter(|entry| entry.path().is_dir())
            .filter_map(|entry| entry.file_name().to_str().map(str::to_owned))
            .collect();
        campaigns.sort_unstable();
        campaigns
    }

    /// The newest generation that passes full validation, scanning
    /// newest-first and rolling past torn ones. Returns the envelope and
    /// how many corrupt generations were skipped.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoValidGeneration`] when nothing validates.
    pub fn latest_good(&self, campaign: &str) -> Result<(Envelope, usize), StoreError> {
        let mut skipped = 0;
        for generation in self.generations(campaign).into_iter().rev() {
            match self.read(campaign, generation) {
                Ok(envelope) if envelope.generation == generation => {
                    return Ok((envelope, skipped))
                }
                // A valid envelope filed under the wrong name is as
                // untrustworthy as a torn one.
                Ok(_) | Err(StoreError::CorruptEnvelope { .. }) => skipped += 1,
                Err(e) => return Err(e),
            }
        }
        Err(StoreError::NoValidGeneration {
            campaign: campaign.to_owned(),
        })
    }

    /// Deletes all but the newest `retain` generations (by filename),
    /// returning the pruned generation numbers.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidRetention`] when `retain` is zero — pruning
    /// *everything* would erase the rollback chain, so the store refuses
    /// instead of silently clamping (callers that want the minimum must
    /// pass `retain = 1` explicitly). [`StoreError::Io`] when a deletion
    /// fails.
    pub fn prune(&self, campaign: &str, retain: usize) -> Result<Vec<u64>, StoreError> {
        if retain == 0 {
            return Err(StoreError::InvalidRetention { retain });
        }
        let generations = self.generations(campaign);
        let cut = generations.len().saturating_sub(retain);
        let mut pruned = Vec::new();
        for &generation in &generations[..cut] {
            let path = self.generation_path(campaign, generation);
            fs::remove_file(&path).map_err(|e| StoreError::io("remove", &path, &e))?;
            pruned.push(generation);
        }
        Ok(pruned)
    }

    // ------------------------------------------------------------------
    // Chaos / crash-simulation hooks
    // ------------------------------------------------------------------

    /// XORs one byte of a committed envelope at `offset % len` — the
    /// chaos harness's bit-rot injection.
    ///
    /// A zero-length target (a generation already truncated to nothing)
    /// cannot take the modulo; instead of skipping the injection — which
    /// would leave the chaos accounting claiming a corruption that never
    /// touched disk — the poison byte is appended, so every injection
    /// leaves an observable mark and the file still fails validation.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be rewritten.
    pub fn corrupt_byte(
        &self,
        campaign: &str,
        generation: u64,
        offset: u64,
    ) -> Result<(), StoreError> {
        let path = self.generation_path(campaign, generation);
        let mut bytes = fs::read(&path).map_err(|e| StoreError::io("read", &path, &e))?;
        if bytes.is_empty() {
            bytes.push(0xA5);
        } else {
            let at = (offset % bytes.len() as u64) as usize;
            bytes[at] ^= 0xA5;
        }
        fs::write(&path, &bytes).map_err(|e| StoreError::io("write", &path, &e))
    }

    /// Truncates a committed envelope to `keep_fraction` of its length —
    /// the chaos harness's torn-write injection (a crash after rename
    /// but before the data blocks hit the platter).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be rewritten.
    pub fn truncate(
        &self,
        campaign: &str,
        generation: u64,
        keep_fraction: f64,
    ) -> Result<(), StoreError> {
        let path = self.generation_path(campaign, generation);
        let bytes = fs::read(&path).map_err(|e| StoreError::io("read", &path, &e))?;
        let keep = (bytes.len() as f64 * keep_fraction.clamp(0.0, 1.0)) as usize;
        fs::write(&path, &bytes[..keep]).map_err(|e| StoreError::io("write", &path, &e))
    }

    /// Simulates a kill-9 *during* commit: writes a partial `.tmp` file
    /// and stops, exactly as a crash between `write` and `rename` would.
    /// The scan must ignore it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the partial write itself fails.
    pub fn interrupt_commit(
        &self,
        campaign: &str,
        generation: u64,
        checkpoint: &CampaignCheckpoint,
    ) -> Result<PathBuf, StoreError> {
        let dir = self.campaign_dir(campaign);
        fs::create_dir_all(&dir).map_err(|e| StoreError::io("create", &dir, &e))?;
        let bytes = Self::encode(generation, checkpoint);
        let tmp = self
            .generation_path(campaign, generation)
            .with_extension("ckpt.tmp");
        fs::write(&tmp, &bytes[..bytes.len() / 2])
            .map_err(|e| StoreError::io("write", &tmp, &e))?;
        Ok(tmp)
    }
}

/// `fsync`s a directory, persisting the entries renamed into it.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use cloud::{Provider, ProviderConfig};
    use pentimento::threat_model1::ThreatModel1Config;
    use pentimento::{Campaign, CampaignConfig, MeasurementMode, Mission};

    use super::*;

    /// A unique scratch directory per test, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "fleet-store-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn small_campaign(seed: u64) -> Campaign {
        let config = ThreatModel1Config {
            route_lengths_ps: vec![600.0],
            routes_per_length: 4,
            burn_hours: 12,
            measure_every: 4,
            mode: MeasurementMode::Oracle,
            seed,
            measurement_repeats: 1,
        };
        Campaign::new(
            Provider::new(ProviderConfig::aws_f1_like(2, seed)),
            Mission::ThreatModel1(config),
            CampaignConfig::default(),
        )
        .expect("campaign builds")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn commit_read_round_trips_the_envelope() {
        let scratch = Scratch::new();
        let store = CheckpointStore::open(&scratch.0).unwrap();
        let campaign = small_campaign(3);
        let checkpoint = campaign.checkpoint();
        store.commit("c0", 0, &checkpoint).unwrap();

        let envelope = store.read("c0", 0).unwrap();
        assert_eq!(envelope.generation, 0);
        assert_eq!(envelope.state_checksum, checkpoint.state_checksum());
        assert_eq!(envelope.hour, 0);
        assert_eq!(envelope.manifest, checkpoint.manifest());
        assert_eq!(store.campaigns(), vec!["c0".to_owned()]);
        assert_eq!(store.generations("c0"), vec![0]);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let scratch = Scratch::new();
        let store = CheckpointStore::open(&scratch.0).unwrap();
        let checkpoint = small_campaign(4).checkpoint();
        let path = store.commit("c0", 0, &checkpoint).unwrap();
        let len = fs::read(&path).unwrap().len() as u64;

        for offset in 0..len {
            store.corrupt_byte("c0", 0, offset).unwrap();
            let err = store.read("c0", 0).unwrap_err();
            assert!(
                matches!(err, StoreError::CorruptEnvelope { .. }),
                "flip at {offset} slipped through: {err}"
            );
            // Flip back for the next round.
            store.corrupt_byte("c0", 0, offset).unwrap();
        }
        store.read("c0", 0).expect("restored file validates again");
    }

    #[test]
    fn truncation_at_any_point_is_detected() {
        let scratch = Scratch::new();
        let store = CheckpointStore::open(&scratch.0).unwrap();
        let checkpoint = small_campaign(5).checkpoint();
        store.commit("c0", 0, &checkpoint).unwrap();

        for keep in [0.0, 0.1, 0.5, 0.9, 0.99] {
            let scratch2 = Scratch::new();
            let isolated = CheckpointStore::open(&scratch2.0).unwrap();
            isolated.commit("c0", 0, &checkpoint).unwrap();
            isolated.truncate("c0", 0, keep).unwrap();
            assert!(
                matches!(
                    isolated.read("c0", 0),
                    Err(StoreError::CorruptEnvelope { .. })
                ),
                "truncation to {keep} slipped through"
            );
        }
    }

    #[test]
    fn latest_good_rolls_back_over_torn_generations() {
        let scratch = Scratch::new();
        let store = CheckpointStore::open(&scratch.0).unwrap();
        let mut campaign = small_campaign(6);
        store.commit("c0", 0, &campaign.checkpoint()).unwrap();
        campaign.step().unwrap();
        store.commit("c0", 1, &campaign.checkpoint()).unwrap();
        campaign.step().unwrap();
        let newest = campaign.checkpoint();
        store.commit("c0", 2, &newest).unwrap();

        // Pristine store: newest wins, nothing skipped.
        let (envelope, skipped) = store.latest_good("c0").unwrap();
        assert_eq!((envelope.generation, skipped), (2, 0));

        // Tear the newest two: the scan rolls back to generation 0.
        store.truncate("c0", 2, 0.6).unwrap();
        store.corrupt_byte("c0", 1, 17).unwrap();
        let (envelope, skipped) = store.latest_good("c0").unwrap();
        assert_eq!((envelope.generation, skipped), (0, 2));
        assert_eq!(envelope.hour, 0);

        // Tear everything: typed terminal error.
        store.truncate("c0", 0, 0.3).unwrap();
        assert!(matches!(
            store.latest_good("c0"),
            Err(StoreError::NoValidGeneration { .. })
        ));
    }

    #[test]
    fn interrupted_commits_leave_no_trace_in_the_scan() {
        let scratch = Scratch::new();
        let store = CheckpointStore::open(&scratch.0).unwrap();
        let mut campaign = small_campaign(7);
        store.commit("c0", 0, &campaign.checkpoint()).unwrap();
        campaign.step().unwrap();
        let tmp = store
            .interrupt_commit("c0", 1, &campaign.checkpoint())
            .unwrap();
        assert!(tmp.exists(), "the simulated crash leaves a .tmp behind");

        // The scan sees only the committed generation.
        assert_eq!(store.generations("c0"), vec![0]);
        let (envelope, skipped) = store.latest_good("c0").unwrap();
        assert_eq!((envelope.generation, skipped), (0, 0));

        // Re-committing the same generation after "restart" succeeds and
        // overwrites the leftover.
        store.commit("c0", 1, &campaign.checkpoint()).unwrap();
        let (envelope, _) = store.latest_good("c0").unwrap();
        assert_eq!(envelope.generation, 1);
    }

    #[test]
    fn prune_retains_the_newest_generations() {
        let scratch = Scratch::new();
        let store = CheckpointStore::open(&scratch.0).unwrap();
        let mut campaign = small_campaign(8);
        for generation in 0..5 {
            store
                .commit("c0", generation, &campaign.checkpoint())
                .unwrap();
            campaign.step().unwrap();
        }
        let pruned = store.prune("c0", 2).unwrap();
        assert_eq!(pruned, vec![0, 1, 2]);
        assert_eq!(store.generations("c0"), vec![3, 4]);
        // retain=0 is refused with a typed error, not silently clamped:
        // a caller asking to delete the whole rollback chain must never
        // believe it succeeded.
        assert_eq!(
            store.prune("c0", 0),
            Err(StoreError::InvalidRetention { retain: 0 })
        );
        assert_eq!(store.generations("c0"), vec![3, 4], "nothing deleted");
        let pruned = store.prune("c0", 1).unwrap();
        assert_eq!(pruned, vec![3]);
        assert_eq!(store.generations("c0"), vec![4]);
    }

    #[test]
    fn commit_batch_commits_every_campaign_atomically_per_item() {
        let scratch = Scratch::new();
        let store = CheckpointStore::open(&scratch.0).unwrap();
        let checkpoints: Vec<_> = (0..3)
            .map(|i| small_campaign(10 + i).checkpoint())
            .collect();
        let ids = ["c0", "c1", "c2"];
        let items: Vec<(&str, u64, &CampaignCheckpoint)> = ids
            .iter()
            .zip(&checkpoints)
            .map(|(&id, checkpoint)| (id, 0u64, checkpoint))
            .collect();

        let results = store.commit_batch(&items);
        assert_eq!(results.len(), 3);
        for ((id, checkpoint), result) in ids.iter().zip(&checkpoints).zip(&results) {
            assert!(result.is_ok(), "{id}: {result:?}");
            let envelope = store.read(id, 0).unwrap();
            assert_eq!(envelope.state_checksum, checkpoint.state_checksum());
            assert_eq!(envelope.manifest, checkpoint.manifest());
        }
        // Batch commit bytes are identical to a lone commit's.
        let lone = Scratch::new();
        let lone_store = CheckpointStore::open(&lone.0).unwrap();
        let path = lone_store.commit("c0", 0, &checkpoints[0]).unwrap();
        assert_eq!(
            fs::read(path).unwrap(),
            fs::read(store.root().join("c0/gen-00000000.ckpt")).unwrap()
        );
    }

    #[test]
    fn commit_batch_attributes_failures_without_disturbing_siblings() {
        let scratch = Scratch::new();
        let store = CheckpointStore::open(&scratch.0).unwrap();
        // Occupy "bad"'s campaign directory name with a plain file so its
        // create_dir_all fails while its siblings proceed.
        fs::write(store.root().join("bad"), b"not a directory").unwrap();
        let good = small_campaign(11).checkpoint();
        let poisoned = small_campaign(12).checkpoint();
        let items: Vec<(&str, u64, &CampaignCheckpoint)> =
            vec![("c0", 0, &good), ("bad", 0, &poisoned), ("c1", 0, &good)];

        let results = store.commit_batch(&items);
        assert!(results[0].is_ok());
        assert!(
            matches!(results[1], Err(StoreError::Io { .. })),
            "{:?}",
            results[1]
        );
        assert!(results[2].is_ok());
        store.read("c0", 0).unwrap();
        store.read("c1", 0).unwrap();
    }

    #[test]
    fn truncate_then_corrupt_same_generation_recovers_via_latest_good() {
        let scratch = Scratch::new();
        let store = CheckpointStore::open(&scratch.0).unwrap();
        let mut campaign = small_campaign(13);
        store.commit("c0", 0, &campaign.checkpoint()).unwrap();
        campaign.step().unwrap();
        store.commit("c0", 1, &campaign.checkpoint()).unwrap();

        // Chaos tears generation 1 down to nothing, then bit-rot hits the
        // same (now zero-length) file: historically a `offset % 0` hazard.
        store.truncate("c0", 1, 0.0).unwrap();
        store.corrupt_byte("c0", 1, 17).unwrap();
        assert!(
            !fs::read(store.root().join("c0/gen-00000001.ckpt"))
                .unwrap()
                .is_empty(),
            "the injection must leave an observable mark even on an empty file"
        );

        // Recovery rolls past the doubly-damaged generation to gen 0.
        let (envelope, skipped) = store.latest_good("c0").unwrap();
        assert_eq!((envelope.generation, skipped), (0, 1));
    }
}
