//! Oracles for Kademlia's XOR ranking: the routing-table query and the
//! pre-converged network builder must equal the plain sort they
//! replace.

use rand::Rng;

use decent::overlay::id::Key;
use decent::overlay::kademlia::{build_network, Contact, KadConfig, KadNode};
use decent::sim::prelude::*;

/// The naive ranking: sort every contact by `(distance, node)`, keep `n`.
fn naive_closest(contacts: &[Contact], target: &Key, n: usize) -> Vec<Contact> {
    let mut all = contacts.to_vec();
    all.sort_by_key(|c| (c.key.xor_distance(target), c.node));
    all.truncate(n);
    all
}

#[test]
fn closest_contacts_equals_naive_sort() {
    let mut rng = rng_from_seed(11);
    let me = Key::random(&mut rng);
    let mut table: Vec<Contact> = (0..40)
        .map(|node| Contact {
            node,
            key: Key::random(&mut rng),
        })
        .collect();
    // A second node with an existing key: ranks by node id on the tie.
    table.push(Contact {
        node: 40,
        key: table[3].key,
    });
    let mut seeds = table.clone();
    // A duplicate node id and the node's own key both leave the table as is.
    seeds.push(table[7]);
    seeds.push(Contact { node: 99, key: me });
    let cfg = KadConfig {
        k: seeds.len(),
        ..KadConfig::default()
    };
    let mut node = KadNode::new(me, cfg);
    node.seed_routing_table(&seeds, SimTime::ZERO);
    let len = table.len();
    assert_eq!(node.table_size(), len);
    let targets = [me, table[3].key, table[20].key, Key::random(&mut rng)];
    for target in &targets {
        for n in [0, 1, len - 1, len, len + 5] {
            assert_eq!(
                node.closest_contacts(target, n),
                naive_closest(&table, target, n),
                "target {target:?}, n = {n}"
            );
        }
    }
}

/// The routing-table seeds `build_network` handed each node before the
/// XOR-ranking kernel: a stable sort of the key-sorted window by
/// distance, cut to k, plus `extra_random` random contacts. Draws from
/// the RNG in the same order.
fn window_and_stable_sort_seeds(
    ids: &[NodeId],
    cfg: &KadConfig,
    unresponsive: f64,
    extra_random: usize,
    seed: u64,
) -> Vec<Vec<Contact>> {
    let n = ids.len();
    let mut rng = rng_from_seed(seed);
    let keys: Vec<Key> = (0..n).map(|_| Key::random(&mut rng)).collect();
    for _ in 0..n {
        let _ = rng.gen::<f64>() < unresponsive;
    }
    let contacts: Vec<Contact> = ids
        .iter()
        .zip(&keys)
        .map(|(&node, &key)| Contact { node, key })
        .collect();
    let mut by_key = contacts.clone();
    by_key.sort_by_key(|a| a.key);
    let window = (4 * cfg.k).max(16);
    let mut all = Vec::with_capacity(n);
    for (i, &id) in ids.iter().enumerate() {
        let me = keys[i];
        let pos = by_key.partition_point(|c| c.key < me);
        let lo = pos.saturating_sub(window);
        let hi = (pos + window).min(by_key.len());
        let mut near: Vec<Contact> = by_key[lo..hi]
            .iter()
            .filter(|c| c.node != id)
            .cloned()
            .collect();
        near.sort_by_key(|a| a.key.xor_distance(&me));
        let mut seeds: Vec<Contact> = near.into_iter().take(cfg.k).collect();
        for _ in 0..extra_random {
            seeds.push(contacts[rng.gen_range(0..n)]);
        }
        all.push(seeds);
    }
    all
}

#[test]
fn build_network_tables_equal_window_and_stable_sort() {
    let (n, unresponsive, extra_random, seed) = (500, 0.2, 8, 5);
    let cfg = KadConfig::default();
    let mut sim = Simulation::new(1, UniformLatency::from_millis(20.0, 80.0));
    let ids = build_network(&mut sim, n, &cfg, unresponsive, extra_random, seed);
    let expected = window_and_stable_sort_seeds(&ids, &cfg, unresponsive, extra_random, seed);
    let probe = Key::from_u64(0x5EED);
    for (&id, seeds) in ids.iter().zip(&expected) {
        let built = sim.node(id);
        let mut oracle = KadNode::new(built.key(), cfg.clone());
        oracle.seed_routing_table(seeds, SimTime::ZERO);
        assert_eq!(built.table_size(), oracle.table_size(), "node {id}");
        for target in [built.key(), probe] {
            assert_eq!(
                built.closest_contacts(&target, usize::MAX),
                oracle.closest_contacts(&target, usize::MAX),
                "node {id}"
            );
        }
    }
}
