//! The host-speed gauge: a fixed piece of reference work, timed in thread
//! CPU time on the run's CPU every [`PERIOD`] while a pass runs.
//!
//! A shared virtual machine changes speed without losing any time to
//! steal: on a 2-vCPU Xeon guest the gauge's work took from 120 to 250 µs
//! within minutes, and every thread group of the cluster slowed alike. The
//! gauge's work is the benchmark's own code (mixing, a copy and loopback
//! TCP round trips, a mix of user and kernel work like a replica's), so a
//! change to the program does not move it, while a slower host does. The
//! end-to-end metrics are reported at [`REFERENCE_US`] gauge speed; the
//! gauge's own CPU, about 1 % of the run's, is part of `cpu_us_per_op`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What the gauge's work took on a quiet host of the kind the benchmark
/// was tuned on (2 vCPUs of a shared Xeon), in microseconds. Metrics are
/// scaled as if every gauge reading had been this.
pub const REFERENCE_US: f64 = 130.0;
/// Gap between two pieces of reference work.
const PERIOD: Duration = Duration::from_millis(20);
/// Words of the buffer the compute part mixes (32 KiB, about an L1 cache).
const MIX_WORDS: usize = 8 * 1024;
/// Bytes the memory part copies (128 KiB, beyond L1).
const COPY_BYTES: usize = 128 * 1024;
/// Round trips of a small message over a loopback TCP connection.
const ROUND_TRIPS: usize = 12;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The reference work's state: buffers and a loopback connection, made
/// once.
struct Work {
    mix: Vec<u32>,
    from: Vec<u8>,
    to: Vec<u8>,
    pair: (TcpStream, TcpStream),
}

impl Work {
    fn new() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        let (far, _) = listener.accept()?;
        near.set_nodelay(true)?;
        far.set_nodelay(true)?;
        Ok(Work {
            mix: (0..MIX_WORDS as u32).collect(),
            from: vec![0x5a; COPY_BYTES],
            to: vec![0; COPY_BYTES],
            pair: (near, far),
        })
    }

    /// One piece of reference work: add-rotate-xor mixing, a copy past the
    /// nearest cache, and loopback sends and receives.
    fn run(&mut self) -> std::io::Result<()> {
        let mut state = [0x6a09_e667u32, 0xbb67_ae85, 0x3c6e_f372, 0xa54f_f53a];
        for round in 0..2u32 {
            for word in self.mix.iter_mut() {
                state[0] = state[0].wrapping_add(*word ^ round);
                state[1] = (state[1] ^ state[0]).rotate_left(7);
                state[2] = state[2].wrapping_add(state[1]).rotate_right(11);
                state[3] ^= state[2].wrapping_mul(0x9e37_79b9);
                *word = state[3];
            }
        }
        std::hint::black_box(&state);
        self.from[0] = self.from[0].wrapping_add(1);
        self.to.copy_from_slice(&self.from);
        std::hint::black_box(&self.to);
        let mut message = [0u8; 128];
        for _ in 0..ROUND_TRIPS {
            self.pair.0.write_all(&message)?;
            self.pair.1.read_exact(&mut message)?;
            self.pair.1.write_all(&message)?;
            self.pair.0.read_exact(&mut message)?;
        }
        Ok(())
    }
}

/// Samples the reference work until stopped.
#[derive(Default)]
pub struct Gauge {
    stop: AtomicBool,
    /// `(ns since the epoch, thread CPU ns of one piece of work)`.
    samples: Mutex<Vec<(u64, u64)>>,
}

impl Gauge {
    /// Does the work every [`PERIOD`] until [`Gauge::stop`], stamping each
    /// sample with its end relative to `epoch`.
    pub fn run(&self, epoch: Instant) -> std::io::Result<()> {
        let mut work = Work::new()?;
        // Once untimed, so buffers are touched and code is warm.
        work.run()?;
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(PERIOD);
            let start = thread_cpu_ns();
            work.run()?;
            let spent = thread_cpu_ns() - start;
            let at = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.samples
                .lock()
                .expect("gauge samples")
                .push((at, spent));
        }
        Ok(())
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    pub fn samples(&self) -> Vec<(u64, u64)> {
        self.samples.lock().expect("gauge samples").clone()
    }
}
