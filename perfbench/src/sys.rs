//! Process CPU time and peak resident set size, from `getrusage`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage with the 64-bit Linux layout");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

fn rusage(who: i32) -> Rusage {
    let mut u = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (checked by the compile_error gate above), and
    // getrusage writes only within it.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    u
}

fn cpu_of(u: &Rusage) -> f64 {
    let t = |tv: &Timeval| tv.tv_sec as f64 + tv.tv_usec as f64 / 1e6;
    t(&u.ru_utime) + t(&u.ru_stime)
}

/// User plus system CPU seconds of this process, all threads.
pub fn cpu_seconds() -> f64 {
    cpu_of(&rusage(RUSAGE_SELF))
}

/// User plus system CPU seconds of the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    cpu_of(&rusage(RUSAGE_THREAD))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage(RUSAGE_SELF).ru_maxrss as f64 / 1024.0
}
