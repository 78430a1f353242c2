//! End-to-end k-of-n integration over real TCP: a `(k = 2, n = 4)`
//! stripe where one fragment server is stalled behind a
//! byte-expensive blocker. The hedged read must complete via the
//! parity fragment, retract the straggler, and book the censored
//! `(straggler, reissue)` pair — the full fragment-hedging loop the
//! tentpole promises.

use bytes::{Bytes, BytesMut};
use erasure::{StripedBackend, StripedClient, StripedConfig};
use hedge::{CancellationStyle, TcpServer, TcpServerConfig};
use kvstore::resp::encode_command;
use kvstore::{Command, KvStore, Reply};
use reissue_core::policy::ReissuePolicy;

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const BYTES_PER_UNIT: u64 = 64;

/// Binds `n` fragment servers, seeds them with `key`'s `(k, n)` stripe
/// (slot `s` on the key's rotated replica `(s + offset) % n`, matching
/// the client's placement), and returns them.
fn bind_striped_servers(
    key: &str,
    value: &[u8],
    k: usize,
    cfgs: &[TcpServerConfig],
) -> Vec<TcpServer<StripedBackend>> {
    let n = cfgs.len();
    let frags = erasure::encode_stripe(value, k, n).unwrap();
    let offset = erasure::placement_offset(key.as_bytes(), n);
    let servers: Vec<_> = cfgs
        .iter()
        .map(|cfg| {
            TcpServer::bind(
                "127.0.0.1:0",
                StripedBackend::new(KvStore::new(), BYTES_PER_UNIT),
                *cfg,
            )
            .unwrap()
        })
        .collect();
    for (slot, frag) in frags.iter().enumerate() {
        servers[(slot + offset) % n].with_store(|s| {
            s.store_mut().execute(&Command::FSet(
                Bytes::copy_from_slice(key.as_bytes()),
                slot as u32,
                frag.clone(),
            ))
        });
    }
    servers
}

/// Plain striped round-trip, no hedging: put through the client, get
/// back byte-identical; a missing key reads as `Nil`.
#[test]
fn striped_put_get_roundtrip() {
    let cfg = TcpServerConfig::default();
    let servers: Vec<TcpServer<StripedBackend>> = (0..3)
        .map(|_| {
            TcpServer::bind(
                "127.0.0.1:0",
                StripedBackend::new(KvStore::new(), BYTES_PER_UNIT),
                cfg,
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = StripedClient::connect(
        &addrs,
        StripedConfig {
            k: 2,
            ..StripedConfig::default()
        },
    )
    .unwrap();

    let value: Vec<u8> = (0..10_007u32).map(|i| (i % 251) as u8).collect();
    client.put_blocking(b"stripe:alpha", &value).unwrap();
    let got = client
        .execute_blocking(Command::Get(Bytes::from_static(b"stripe:alpha")))
        .unwrap();
    assert_eq!(got, Reply::Str(Bytes::from(value)));

    let missing = client
        .execute_blocking(Command::Get(Bytes::from_static(b"stripe:absent")))
        .unwrap();
    assert_eq!(missing, Reply::Nil);

    let stats = client.stats();
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.reissues, 0, "no policy, no reissues");
    assert_eq!(stats.errors, 0);
}

/// The tentpole acceptance scenario: `k = 2, n = 4`, the server for
/// data slot 1 stalled behind a byte-expensive blocker. The `(d, q)`
/// timer fires on the straggling fragment, the parity reissue (slot 2)
/// completes the stripe, the straggler is retracted in time via the
/// tied-request channel, and the censored pair is booked.
///
/// The `k = 1` input stalls data slot 0: a one-fragment stripe is a
/// full copy, so this is replica-style hedging run as the `k = 1`
/// fragment wave — the same parity win, tied retraction and censored
/// pair.
#[test]
fn stalled_fragment_completes_via_parity_and_books_censored_pair() {
    for k in [2, 1] {
        stall_last_data_slot(k);
    }
}

fn stall_last_data_slot(k: usize) {
    let n = 4;
    let fast = TcpServerConfig::default();
    // Data slot k − 1's server burns real wall-clock per cost unit, so
    // the blocker below occupies it for ~0.5 s while everything it
    // queues behind stays retractable. Placement is rotated per key, so
    // first resolve which physical server holds that slot for this key.
    let slow = TcpServerConfig {
        nanos_per_op: 30_000,
        ..TcpServerConfig::default()
    };
    let slow_idx = (k - 1 + erasure::placement_offset(b"stripe:hot", n)) % n;
    let mut cfgs = vec![fast; n];
    cfgs[slow_idx] = slow;
    let value: Vec<u8> = (0..60_000u32).map(|i| (i % 249) as u8).collect();
    let servers = bind_striped_servers("stripe:hot", &value, k, &cfgs);
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();

    // Stall the slot: a ~1 MiB value read costs ~16 385 units × 30 µs
    // ≈ 0.5 s of burn. Sent on its own connection; the reply is never
    // read (the socket just holds the server busy).
    servers[slow_idx].with_store(|s| {
        s.store_mut().execute(&Command::Set(
            Bytes::from_static(b"blocker"),
            Bytes::from(vec![0xBBu8; 1 << 20]),
        ))
    });
    let mut blocker = TcpStream::connect(addrs[slow_idx]).unwrap();
    let mut frame = BytesMut::new();
    encode_command(&Command::Get(Bytes::from_static(b"blocker")), &mut frame);
    blocker.write_all(&frame).unwrap();
    // Give the blocker time to reach the head of the queue and start
    // executing before the fragment read arrives behind it.
    std::thread::sleep(Duration::from_millis(60));

    let client = StripedClient::connect(
        &addrs,
        StripedConfig {
            k,
            policy: ReissuePolicy::single_r(5.0, 1.0),
            cancellation: CancellationStyle::Tied,
            ..StripedConfig::default()
        },
    )
    .unwrap();

    let started = Instant::now();
    let got = client
        .execute_blocking(Command::Get(Bytes::from_static(b"stripe:hot")))
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(got, Reply::Str(Bytes::from(value)), "decode must be exact");
    assert!(
        elapsed < Duration::from_millis(400),
        "hedged stripe should complete via parity long before the \
         blocker drains (~0.5 s); took {elapsed:?}"
    );

    let stats = client.stats();
    assert_eq!(stats.queries, 1);
    assert_eq!(stats.reissues, 1, "exactly one parity reissue");
    assert_eq!(stats.reissue_wins, 1, "the parity fragment closed the race");
    assert_eq!(
        stats.decodes_with_parity, 1,
        "the decode used the parity equation for the stalled slot"
    );
    assert_eq!(stats.errors, 0);

    // The straggler's retraction and the pair booking are async (the
    // loser drains on the runtime): poll for them.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = client.stats();
        if s.pairs_censored == 1 && s.cancelled_in_time >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "straggler retraction never booked: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The stalled server must have retracted the fragment rather than
    // serving it: only the blocker's GET ever executed there.
    assert_eq!(
        servers[slow_idx].stats().commands,
        1,
        "slot {}'s FGET must be retracted, not served",
        k - 1
    );
}
