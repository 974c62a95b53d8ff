//! Data generation matching the paper's evaluation workloads (§5).
//!
//! The paper uses the TPC-H schema, populated by a skewed-data generator
//! (Chaudhuri et al.'s tool) modified to control the number of distinct
//! values per column. This crate reproduces that knob set:
//!
//! - [`zipf::ZipfSampler`] — Zipfian value distributions with skew `z`
//!   (`z = 0` is uniform) over a configurable domain;
//! - [`permute`] — seeded rank→value permutations so that two tables with
//!   the same skew have **different peak-frequency values** (the paper's
//!   `C¹, C², C³` superscripts, §5.1.1 — the worst case for join-size
//!   estimation);
//! - [`tpch`] — a TPC-H-lite catalog (region, nation, supplier, customer,
//!   part, orders, lineitem) at any scale factor, uniform or skewed;
//! - table helpers ([`customer_table`], [`nation_table`]) for the paper's
//!   `C_{z,n}` experiment tables.

pub mod permute;
pub mod tpch;
pub mod zipf;

pub use permute::RankMapper;
pub use tpch::{TpchConfig, TpchGenerator};
pub use zipf::ZipfSampler;

use qprog_storage::Table;
use qprog_types::{row, DataType, Field, Schema};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's `C_{z,n}` customer table (§5.1.1): `rows` rows with a
/// sequential `custkey` and a `nationkey` drawn from a Zipfian distribution
/// with skew `z` over the domain `[0, domain)`, with the rank→value mapping
/// chosen by `variant` (the `C¹/C²/C³` superscript — tables with different
/// variants have different peak-frequency values).
pub fn customer_table(name: &str, rows: usize, z: f64, domain: usize, variant: u64) -> Table {
    let mut t = Table::new(
        name,
        Schema::new(vec![
            Field::new("custkey", DataType::Int64),
            Field::new("nationkey", DataType::Int64),
        ]),
    );
    let sampler = ZipfSampler::new(domain, z);
    let mapper = RankMapper::new(domain, variant);
    let mut rng = StdRng::seed_from_u64(0x5EED_0000 ^ variant.wrapping_mul(0x9E37_79B9));
    for i in 0..rows {
        let rank = sampler.sample_rank(&mut rng);
        let value = mapper.value_of(rank) as i64;
        t.push(row![i as i64, value]).expect("schema-valid row");
    }
    t
}

/// A skewed single-column key table: like [`customer_table`] but exposing
/// only the skewed key column (used for custkey-skew experiments, §5.1.3).
pub fn skewed_key_table(
    name: &str,
    col: &str,
    rows: usize,
    z: f64,
    domain: usize,
    variant: u64,
) -> Table {
    let mut t = Table::new(name, Schema::new(vec![Field::new(col, DataType::Int64)]));
    let sampler = ZipfSampler::new(domain, z);
    let mapper = RankMapper::new(domain, variant);
    let mut rng = StdRng::seed_from_u64(0xBEEF_0000 ^ variant.wrapping_mul(0x51_7C_C1));
    for _ in 0..rows {
        let rank = sampler.sample_rank(&mut rng);
        t.push(row![mapper.value_of(rank) as i64])
            .expect("valid row");
    }
    t
}

/// The paper's nation table generalization: `domain` rows with a
/// primary-key `nationkey` in `[0, domain)` and a name column.
pub fn nation_table(name: &str, domain: usize) -> Table {
    let mut t = Table::new(
        name,
        Schema::new(vec![
            Field::new("nationkey", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]),
    );
    for i in 0..domain {
        t.push(row![i as i64, format!("nation{i}")])
            .expect("valid row");
    }
    t
}

/// A customer-like table with *two* independently skewed key columns
/// (custkey, nationkey) as used by the Fig. 6 pipeline experiments, where
/// the primary-key custkey column is replaced by a skewed distribution.
#[allow(clippy::too_many_arguments)] // two (z, domain, variant) triples
pub fn two_key_table(
    name: &str,
    rows: usize,
    custkey_z: f64,
    custkey_domain: usize,
    custkey_variant: u64,
    nationkey_z: f64,
    nationkey_domain: usize,
    nationkey_variant: u64,
) -> Table {
    let mut t = Table::new(
        name,
        Schema::new(vec![
            Field::new("custkey", DataType::Int64),
            Field::new("nationkey", DataType::Int64),
        ]),
    );
    let ck_sampler = ZipfSampler::new(custkey_domain, custkey_z);
    let ck_mapper = RankMapper::new(custkey_domain, custkey_variant);
    let nk_sampler = ZipfSampler::new(nationkey_domain, nationkey_z);
    let nk_mapper = RankMapper::new(nationkey_domain, nationkey_variant);
    let mut rng = StdRng::seed_from_u64(
        0xD0_0D ^ custkey_variant.wrapping_mul(31) ^ nationkey_variant.wrapping_mul(1009),
    );
    for _ in 0..rows {
        let ck = ck_mapper.value_of(ck_sampler.sample_rank(&mut rng)) as i64;
        let nk = nk_mapper.value_of(nk_sampler.sample_rank(&mut rng)) as i64;
        t.push(row![ck, nk]).expect("valid row");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn customer_table_shape() {
        let t = customer_table("c", 1000, 1.0, 50, 1);
        assert_eq!(t.num_rows(), 1000);
        assert_eq!(t.schema().index_of("c.nationkey").unwrap(), 1);
        // custkey sequential
        assert_eq!(
            t.iter().nth(5).unwrap().get(0).unwrap().as_i64().unwrap(),
            5
        );
        // nationkey within domain
        for r in t.iter() {
            let nk = r.get(1).unwrap().as_i64().unwrap();
            assert!((0..50).contains(&nk));
        }
    }

    #[test]
    fn variants_have_different_peak_values() {
        let peak = |variant| {
            let t = customer_table("c", 5000, 2.0, 100, variant);
            let mut counts: HashMap<i64, usize> = HashMap::new();
            for r in t.iter() {
                *counts
                    .entry(r.get(1).unwrap().as_i64().unwrap())
                    .or_default() += 1;
            }
            counts.into_iter().max_by_key(|(_, c)| *c).unwrap().0
        };
        // At z=2 the top rank dominates; different variants map it to
        // different values.
        let peaks: Vec<i64> = (1..=4).map(peak).collect();
        let distinct: std::collections::HashSet<_> = peaks.iter().collect();
        assert!(distinct.len() >= 3, "peaks {peaks:?} should differ");
    }

    #[test]
    fn zero_skew_is_roughly_uniform() {
        let t = customer_table("c", 20_000, 0.0, 10, 1);
        let mut counts = [0usize; 10];
        for r in t.iter() {
            counts[r.get(1).unwrap().as_i64().unwrap() as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (1600..=2400).contains(&c),
                "value {v} count {c}, expected ~2000"
            );
        }
    }

    #[test]
    fn nation_table_is_a_primary_key() {
        let t = nation_table("nation", 25);
        assert_eq!(t.num_rows(), 25);
        let keys: std::collections::HashSet<i64> = t
            .iter()
            .map(|r| r.get(0).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(keys.len(), 25);
    }

    #[test]
    fn two_key_table_independent_columns() {
        let t = two_key_table("c", 2000, 2.0, 100, 1, 1.0, 50, 2);
        assert_eq!(t.num_rows(), 2000);
        for r in t.iter() {
            assert!((0..100).contains(&r.get(0).unwrap().as_i64().unwrap()));
            assert!((0..50).contains(&r.get(1).unwrap().as_i64().unwrap()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = customer_table("c", 100, 1.0, 20, 3);
        let b = customer_table("c", 100, 1.0, 20, 3);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }
}
