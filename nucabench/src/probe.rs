//! The host-speed probe: a fixed piece of work, independent of the
//! simulator's code, timed between cells so that host times can be
//! corrected for how fast the host is running at that moment.
//!
//! The shared host alternates between a fast regime and one about 1.5x
//! slower every few seconds, and whole runs can sit in the slow one. The
//! regime hits branchy, table-heavy, instruction-rich code hardest —
//! code like the simulator's — and barely touches a dependent load chain
//! or a plain arithmetic loop. The probe therefore mixes four small
//! kernels of that kind: a bytecode interpreter, a set-associative tag
//! walk over an L2-sized table, `powf`/`ln` math and a multi-chain
//! integer mix. Its work is fixed; nothing a change to the simulator
//! does can speed it up.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the host the benchmark was defined on (a two-vCPU
/// Xeon VM, fast regime). Normalized host seconds are measured seconds
/// times `NOMINAL_S / probe seconds`: the time the work would have taken
/// had the host run as fast as when the probe reads `NOMINAL_S`.
pub const NOMINAL_S: f64 = 0.0105;

const INTERP_STEPS: u64 = 140_000;
const TAG_LOOKUPS: u64 = 80_000;
const FLOAT_STEPS: u64 = 90_000;
const MIX_STEPS: u64 = 450_000;

/// The probe's fixed inputs.
#[derive(Debug)]
pub struct HostProbe {
    program: Vec<u8>,
    tags: Vec<u64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 33
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl HostProbe {
    /// Builds the probe's program and table.
    pub fn new() -> Self {
        let mut x = 7;
        HostProbe {
            program: (0..65_536).map(|_| lcg(&mut x) as u8).collect(),
            tags: vec![0; 1 << 18],
        }
    }

    /// Runs the fixed work once and returns its host seconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        black_box(interpret(&self.program, INTERP_STEPS));
        black_box(tag_walk(&mut self.tags, TAG_LOOKUPS));
        black_box(float_math(FLOAT_STEPS));
        black_box(integer_mix(MIX_STEPS));
        t.elapsed().as_secs_f64()
    }
}

/// A register-machine interpreter: one unpredictable dispatch per step.
fn interpret(program: &[u8], steps: u64) -> u64 {
    let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let n = program.len();
    let mut pc = 0;
    for _ in 0..steps {
        let op = program[pc];
        let a = usize::from(op & 7);
        let b = usize::from((op >> 3) & 7);
        match (op >> 2) & 15 {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] ^= r[b] << 3,
            2 => r[a] = r[a].wrapping_mul(r[b] | 1),
            3 if r[a] & 1 == 0 => pc = (pc + 7) % n,
            4 => r[a] = r[a].rotate_left((r[b] & 63) as u32),
            5 => r[a] = r[b].wrapping_sub(r[a]) >> 1,
            6 if r[b] > r[a] => r.swap(a, b),
            7 => r[a] = (r[a] as f64 * 1.0001).sqrt() as u64 + r[b],
            8 => r[a] = r[b] % (r[a] | 1),
            9 if r[a] & 4 != 0 => pc = (pc + 13) % n,
            10 => r[a] = u64::from(r[a].count_ones()) + r[b],
            11 => r[a] ^= u64::from(r[b].leading_zeros()),
            12 => r[a] = r[a].wrapping_add(0x9e37_79b9_7f4a_7c15),
            13 => r[b] = r[a] ^ (r[b] >> 7),
            14 if r[a] < r[b] => pc = (pc + 3) % n,
            15 => r[a] = !r[a],
            _ => {}
        }
        pc = (pc + 1) % n;
    }
    r.iter().fold(0, |x, y| x ^ y)
}

/// An 8-way LRU tag array: search a set, promote on a hit, insert on a
/// miss.
fn tag_walk(tags: &mut [u64], lookups: u64) -> u64 {
    let sets = tags.len() / 8;
    let mut x = 88_172_645_463_325_252;
    let mut hits = 0;
    for _ in 0..lookups {
        let block = xorshift(&mut x) % (sets as u64 * 12);
        let set = (block as usize) % sets;
        let ways = &mut tags[set * 8..set * 8 + 8];
        match ways.iter().position(|&t| t == block) {
            Some(p) => {
                hits += 1;
                ways[..=p].rotate_right(1);
            }
            None => {
                ways.rotate_right(1);
                ways[0] = block;
            }
        }
    }
    hits
}

/// `powf` and `ln` on uniform draws.
fn float_math(steps: u64) -> f64 {
    let mut x = 88_172_645_463_325_252;
    let mut acc = 0.0;
    for _ in 0..steps {
        let u = (xorshift(&mut x) >> 11) as f64 / (1u64 << 53) as f64;
        acc += u.powf(1.7) + (1.0 - u * 0.5).ln();
    }
    acc
}

/// Four interleaved integer chains with data-dependent branches.
fn integer_mix(steps: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..steps {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        b ^= (b << 7) ^ a;
        c = c.wrapping_add(b >> 3) ^ (a >> 11);
        d = d.rotate_left(5) ^ c;
        if (a ^ d) & 3 == 0 {
            b = b.wrapping_add(d);
        } else if (a ^ c) & 5 == 1 {
            c ^= d;
        }
    }
    a ^ b ^ c ^ d
}
