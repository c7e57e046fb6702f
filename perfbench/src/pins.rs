//! Pinned outcome digests: `(workload, seed, digest)`. A run on a pinned
//! seed must reproduce its digest exactly; other seeds are checked for
//! pass-to-pass identity (and traced ≡ library) only. Regenerate a pin from the `digest` field of a run's provenance
//! line, and only for a change that is meant to alter outcomes.

const PINS: &[(&str, u64, u64)] = &[
    ("attack_tdc", 0, 0x425407dc5145d0a1),
    ("attack_tdc", 1, 0x1bc7683196ec57c4),
    ("attack_tdc", 2, 0x243214020439d7e4),
    ("attack_tdc", 3, 0x1d4400fc54db5989),
    ("attack_tdc", 4, 0x00e4a363869fdd5e),
    ("attack_tdc", 5, 0xf8e2c235134f2f6f),
    ("attack_tdc", 6, 0xe9d54bd81cbfd13e),
    ("attack_tdc", 7, 0xe9f36fdc42258c0e),
    ("attack_tdc", 8, 0x8ff0cbfa79a051e1),
    ("attack_tdc", 9, 0x1c53fa62685caf38),
    ("attack_tdc", 10, 0xa8c09c03c97685ab),
    ("campaign_hostile", 0, 0x40b920f9b7f462d2),
    ("campaign_hostile", 1, 0x25137665e10f201c),
    ("campaign_hostile", 2, 0x8ada5d2923e0756b),
    ("campaign_hostile", 3, 0x15bd7f28b1b40a46),
    ("campaign_hostile", 4, 0x118c8bf84e2c389e),
    ("campaign_hostile", 5, 0x3ced566f48db25fc),
    ("campaign_hostile", 6, 0x8a1e922b7400762d),
    ("campaign_hostile", 7, 0x313a3e4385e9cef0),
    ("campaign_hostile", 8, 0x240648f3f4252cad),
    ("campaign_hostile", 9, 0x6b9f3d46a99d3d8c),
    ("campaign_hostile", 10, 0xeac2b34a704f87df),
];

/// The pinned digest of `workload` at `seed`, if there is one.
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    PINS.iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, digest)| digest)
}
