//! Substrate microbenchmarks. A3: per-message HMAC cost in the wire
//! path, which signs every message with a clone of the session's keyed
//! MAC, plus SHA-256 and ChaCha20 throughput (ChaCha20 also over 448 B
//! writes through one cipher, the size of a mean transport write). A2:
//! audit ring-buffer push/drain throughput vs capacity, the in-kernel
//! budget of the embedded tracer. E7 (throughput leg): how
//! fast the Zeek-style streaming WebSocket decoder chews through frame
//! streams of varying message sizes and fragmentation.
//!
//! Each case runs a fixed batch of iterations, best of `reps`, and
//! prints ns/iter with MB/s (Melem/s for the ring). Timings only: no
//! gate is asserted. `--tiny` shrinks the sizes and the repetitions.
//! The banner names the SHA-256 and ChaCha20 backends this CPU runs.

use ja_audit::ring::RingBuffer;
use ja_crypto::chacha::ChaCha20;
use ja_crypto::hmac::HmacSha256;
use ja_crypto::sha256::sha256;
use ja_websocket::codec::{fragment, FrameDecoder, MessageAssembler};
use ja_websocket::frame::Opcode;
use std::hint::black_box;
use std::time::Instant;

/// What one iteration processes.
enum Work {
    Bytes(usize),
    Elements(usize),
}

/// Best of `reps` batches, each sized to process about `budget` bytes
/// or elements.
struct Timer {
    reps: usize,
    budget: usize,
}

impl Timer {
    /// Time `f` and print `name` with ns/iter and the rate.
    fn run<O>(&self, name: &str, work: Work, mut f: impl FnMut() -> O) {
        let (Work::Bytes(per_iter) | Work::Elements(per_iter)) = work;
        let iters = (self.budget / per_iter.max(1)).max(1);
        let (secs, ()) = ja_bench::best_of(self.reps, || {
            let started = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            (started.elapsed().as_secs_f64(), ())
        });
        let ns = secs * 1e9 / iters as f64;
        let rate = match work {
            Work::Bytes(n) => format!("{:.1} MB/s", n as f64 / ns * 1e3),
            Work::Elements(n) => format!("{:.2} Melem/s", n as f64 / ns * 1e3),
        };
        println!("{name}: {ns:.1} ns/iter ({rate})");
    }
}

fn ws_stream(msg_size: usize, messages: usize, fragments: usize) -> Vec<u8> {
    let payload = vec![0xcdu8; msg_size];
    let mut wire = Vec::new();
    for _ in 0..messages {
        for f in fragment(Opcode::Binary, &payload, fragments, true) {
            wire.extend_from_slice(&f.encode());
        }
    }
    wire
}

fn main() {
    let tiny = ja_bench::Args::from_env().tiny;
    let (reps, budget) = if tiny { (1, 1 << 20) } else { (3, 16 << 20) };
    let t = Timer { reps, budget };
    println!("=== micro_substrate: A3 crypto, A2 ring, E7 WebSocket parse ===");
    println!(
        "backends: sha256 {}, chacha20 {}\n",
        ja_crypto::sha256::backend(),
        ja_crypto::chacha::backend()
    );

    // Keyed once per session and cloned per message, as the wire layer
    // signs.
    let session = HmacSha256::new(b"jupyter-session-signing-key");
    let sizes: &[usize] = if tiny {
        &[64, 1024]
    } else {
        &[64, 1024, 16 << 10, 256 << 10, 1 << 20]
    };
    for &size in sizes {
        let msg = vec![0xabu8; size];
        let name = format!("a3_hmac_per_message/{size}");
        t.run(&name, Work::Bytes(size), || {
            let mut mac = black_box(&session).clone();
            mac.update(black_box(&msg));
            mac.finalize()
        });
    }
    let block = if tiny { 4 << 10 } else { 64 << 10 };
    let kib = block >> 10;
    let data = vec![0x5au8; block];
    t.run(&format!("sha256/{kib}KiB"), Work::Bytes(block), || {
        sha256(black_box(&data))
    });
    let data = vec![0u8; block];
    t.run(
        &format!("chacha20/encrypt_{kib}KiB"),
        Work::Bytes(block),
        || ChaCha20::from_seed(b"bench").encrypt(black_box(&data)),
    );
    // One connection's cipher over a run of mean-sized transport writes.
    let mut cipher = ChaCha20::from_seed(b"bench");
    let mut write = [0u8; 448];
    t.run("chacha20/encrypt_448B", Work::Bytes(write.len()), || {
        cipher.apply(black_box(&mut write))
    });

    let events = if tiny { 10_000 } else { 100_000 };
    let capacities: &[usize] = if tiny {
        &[1 << 8]
    } else {
        &[1 << 8, 1 << 12, 1 << 16]
    };
    for &cap in capacities {
        t.run(&format!("a2_ring/{cap}"), Work::Elements(events), || {
            let mut ring: RingBuffer<u64> = RingBuffer::new(cap);
            for i in 0..events as u64 {
                ring.push(i);
            }
            ring.drain().len()
        });
    }

    let (messages, cases): (usize, &[(usize, usize)]) = if tiny {
        (8, &[(256, 1), (4096, 4)])
    } else {
        (64, &[(256, 1), (4096, 1), (4096, 4), (65536, 1)])
    };
    for &(msg_size, fragments) in cases {
        let wire = ws_stream(msg_size, messages, fragments);
        let name = format!("e7_ws_parse/{msg_size}B_x{fragments}frag");
        t.run(&name, Work::Bytes(wire.len()), || {
            let mut dec = FrameDecoder::new();
            let mut asm = MessageAssembler::new();
            let mut msgs = 0usize;
            for chunk in wire.chunks(1448) {
                for frame in dec.feed(chunk).expect("valid stream") {
                    if asm.push(frame).expect("valid assembly").is_some() {
                        msgs += 1;
                    }
                }
            }
            msgs
        });
    }
}
