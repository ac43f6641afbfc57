//! Process resource usage through `getrusage(2)`: CPU time of the
//! benchmark itself, and peak resident memory of it or of the programs
//! it started and waited for. Linux layout and units (`ru_maxrss` in
//! KiB); the standard library has no wrapper.

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which `ru_maxrss` is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn usage(who: i32) -> Rusage {
    let mut out = Rusage::default();
    // SAFETY: `out` is a live, writable `struct rusage` with the C layout
    // above, and getrusage writes only within it.
    let rc = unsafe { getrusage(who, &mut out) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    out
}

/// User plus system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let u = usage(RUSAGE_SELF);
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident memory of this process, MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    usage(RUSAGE_SELF).maxrss as f64 * 1024.0 / 1e6
}

/// Peak resident memory of the largest child this process has waited
/// for, MB (10^6 bytes).
pub fn children_peak_rss_mb() -> f64 {
    usage(RUSAGE_CHILDREN).maxrss as f64 * 1024.0 / 1e6
}
